"""Config-edit sweep: a run of an edited config over the bundle of the
original gives what a fresh run of the edited config gives in an empty
directory, the manifest and every file its stage records list.

Two edits fail today, by one fault (ROADMAP item 22): a cached reply is keyed
by its request alone, so it answers for another seed's mock, and for another
backend. Both are the replay ``FOUND:`` lines of CHANGES.md, and both cases
below are strict xfails, so the fix has to turn them on.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import build_toy_experiment
from judgeval.config import load_config
from judgeval.pipeline import run_pipeline
from judgeval.trec_io import FULL_DOCUMENT, Modality
from test_http_backend import _endpoint, _mock_reply, stub_server  # noqa: F401 (a fixture)


def _priced(root: Path, **prices: float) -> Path:
    """A price table giving each named model ``prices[model]`` per 1M input
    and output tokens, next to the toy experiment's own."""
    path = root / "prices-edited.json"
    table = {model: {"input_usd_per_1m": usd, "output_usd_per_1m": usd}
             for model, usd in prices.items()}
    path.write_text(json.dumps(table), encoding="utf-8")
    return path


# edit name -> the config fields it changes, given the experiment's directory
EDITS = {
    "ndcg_k": lambda root: {"ndcg_k": 5},
    "gain": lambda root: {"gain": "exponential"},
    "binarize_threshold": lambda root: {"binarize_threshold": 2},
    "rbo_p": lambda root: {"rbo_p": 0.8},
    "bootstrap_samples": lambda root: {"bootstrap_samples": 300},
    "pool": lambda root: {"pool": "runs"},
    "models": lambda root: {
        "models": ["mock-judge", "other"],
        "prices": _priced(root, **{"mock-judge": 2.5, "other": 1.0}),
    },
    "summarizer_model": lambda root: {
        "summarizer_model": "other",
        "prices": _priced(root, **{"mock-judge": 2.5, "other": 1.0}),
    },
    "dataset": lambda root: {"dataset": "renamed"},
    "prices": lambda root: {"prices": _priced(root, **{"mock-judge": 4.0})},
    "max_attempts": lambda root: {"max_attempts": 2},
    # a run keeps the records and files of the dropped cells (README), so only
    # the kept cells' are compared
    "modalities": lambda root: {"modalities": [FULL_DOCUMENT, Modality("summary", 80)]},
}

REPLAYS = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 22: a cached reply answers for another seed or backend",
)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory) -> Path:
    """Input directory of one completed toy ``run``; the bundle is under ``out/``."""
    config_path = build_toy_experiment(tmp_path_factory.mktemp("toy-edited"))
    run_pipeline(load_config(config_path))
    return config_path.parent


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def _assert_resumes_to_a_fresh_run(toy_run: Path, tmp_path: Path, changes, narrowed=False):
    root = tmp_path / "toy"
    shutil.copytree(toy_run, root)
    edited = replace(load_config(root / "config.ini"), **changes(root))
    run_pipeline(edited)
    fresh = run_pipeline(replace(edited, output_dir=root / "fresh")).output_dir
    resumed, expected = _manifest(edited.output_dir), _manifest(fresh)
    if narrowed:
        kept = expected["stages"]
        assert kept.keys() < resumed["stages"].keys()
        resumed["stages"] = {name: resumed["stages"][name] for name in kept}
    assert resumed == expected
    listed = [rel for record in expected["stages"].values() for rel in record["outputs"]]
    assert len(listed) >= 20
    for rel in listed:
        assert (edited.output_dir / rel).read_bytes() == (fresh / rel).read_bytes(), rel


@pytest.mark.parametrize("edit", list(EDITS))
def test_an_edited_config_resumes_to_a_fresh_runs_bundle(toy_run, tmp_path, edit):
    _assert_resumes_to_a_fresh_run(toy_run, tmp_path, EDITS[edit], narrowed=edit == "modalities")


@REPLAYS
def test_a_seed_edit_resumes_to_a_fresh_runs_bundle(toy_run, tmp_path):
    # the mock's replies depend on the seed, but its cached replies are found by request alone
    _assert_resumes_to_a_fresh_run(toy_run, tmp_path, lambda root: {"seed": 7})


@REPLAYS
def test_a_backend_edit_resumes_to_a_fresh_runs_bundle(toy_run, tmp_path, stub_server):
    # the stub answers as the mock at seed 7, the toy config's seed is 42: a
    # replayed mock reply gives other grades than the stub's
    stub_server.reply = _mock_reply
    changes = {"backend": "http", "endpoint": _endpoint(stub_server)}
    _assert_resumes_to_a_fresh_run(toy_run, tmp_path, lambda root: changes)
