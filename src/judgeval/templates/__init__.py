"""Prompt template files and their loaders.

Templates are plain text with angle-bracket placeholders. Their SHA-256 is
taken over the raw file text, markers included, so any edit to a shipped or
user-supplied template is visible in output metadata.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path


def load_template(default_name: str, path: str | Path | None = None) -> str:
    """A template's text, decoded as UTF-8 with a leading byte-order mark dropped."""
    file = Path(path) if path is not None else resources.files(__package__) / default_name
    return file.read_text(encoding="utf-8-sig")


def template_sha256(template_text: str) -> str:
    return hashlib.sha256(template_text.encode("utf-8")).hexdigest()
