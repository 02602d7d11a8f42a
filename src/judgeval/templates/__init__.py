"""Prompt template files and their loaders.

Templates are plain text with angle-bracket placeholders. Their SHA-256 is
taken over the raw file text, markers included, so any edit to a shipped or
user-supplied template is visible in output metadata.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

from ..errors import ConfigError, ParseError
from ..trec_io import read_text


def load_template(default_name: str, path: str | Path | None = None) -> str:
    """A template's text, decoded as UTF-8 with a leading byte-order mark
    dropped; a file that is not UTF-8 is a ConfigError naming it."""
    try:
        return read_text(path if path is not None else resources.files(__package__) / default_name)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc


def template_sha256(template_text: str) -> str:
    return hashlib.sha256(template_text.encode("utf-8")).hexdigest()
