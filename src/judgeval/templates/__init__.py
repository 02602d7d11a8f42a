"""Prompt template files, and the one module that knows their marker format.

Templates are plain text with upper-case angle-bracket markers such as
``<QUERY>``; ``fill`` splits a template at its markers once and substitutes
them in one pass, so a marker inside an inserted value stays literal. The
SHA-256 is taken over the raw file text, markers included, so any edit to a
shipped or user-supplied template is visible in output metadata.
"""

from __future__ import annotations

import functools
import hashlib
import re
from importlib import resources
from pathlib import Path

from ..errors import ConfigError, ParseError
from ..trec_io import read_text

_MARKER_RE = re.compile(r"(<[A-Z]+>)")
# a template's texts at even indices, its markers at odd ones; a run fills only a few templates
_split = functools.lru_cache(maxsize=16)(_MARKER_RE.split)


def load_template(kind: str, markers: tuple[str, ...], path: str | Path | None = None) -> str:
    """The ``kind`` template at ``path`` (the shipped ``<kind>_prompt.txt`` when
    None), decoded as UTF-8 with a leading byte-order mark dropped. A file that
    is not UTF-8 or lacks one of ``markers`` is a ConfigError."""
    shipped = resources.files(__package__) / f"{kind}_prompt.txt"
    try:
        template = read_text(path if path is not None else shipped)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    for marker in markers:
        if marker not in template:
            raise ConfigError(f"{kind} template missing {marker} placeholder")
    return template


def fill(template: str, values: dict[str, str]) -> str:
    """Substitute the markers in ``values``, in one pass; the rest stay as written.
    A template is split at its markers on its first fill, and its parts are joined."""
    parts = _split(template).copy()  # the cached list is shared
    parts[1::2] = map(values.get, parts[1::2], parts[1::2])
    return "".join(parts)


def template_sha256(template_text: str) -> str:
    return hashlib.sha256(template_text.encode("utf-8")).hexdigest()
