"""Template filling: the split-once ``fill`` gives the bytes of one regex pass."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgeval.judge import GRADE_NUDGE, load_judge_template
from judgeval.summarizer import load_summary_template
from judgeval.templates import fill

_MARKER_RE = re.compile(r"<[A-Z]+>")


def _regex_fill(template: str, values: dict[str, str]) -> str:
    # fill as it was before templates were split once: one regex substitution
    return _MARKER_RE.sub(lambda match: values.get(match[0], match[0]), template)


_VALUES = {"<QUERY>": "what is <PASSAGE>?", "<PASSAGE>": "a <QUERY> b\\1 \\g<0>", "<N>": ""}


@pytest.mark.parametrize(
    "template",
    [
        "",
        "no marker at all",
        "<QUERY><PASSAGE>",  # adjacent
        "<QUERY> and <QUERY> again <QUERY>",  # repeated
        "<UNKNOWN> <QUERY> <lower> <Q1> <> <N>",  # unknown, not markers, empty value
        "<<QUERY>> <QUERY",  # markers next to stray brackets
        load_judge_template(),
        load_judge_template() + "\n\n" + GRADE_NUDGE,
        load_summary_template(),
    ],
)
def test_fill_equals_the_regex_pass(template):
    assert fill(template, _VALUES) == _regex_fill(template, _VALUES)
    assert fill(template, {}) == template


_PIECES = st.sampled_from(["<QUERY>", "<PASSAGE>", "<X>", "<", ">", "Q", "a", " ", "\\"])
_TEXTS = st.lists(_PIECES, max_size=12).map("".join)


@settings(max_examples=200, deadline=None)
@given(_TEXTS, st.dictionaries(st.sampled_from(["<QUERY>", "<PASSAGE>", "<N>"]), _TEXTS))
def test_fill_equals_the_regex_pass_on_any_marker_mix(template, values):
    assert fill(template, values) == _regex_fill(template, values)
