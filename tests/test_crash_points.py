"""Crash points: a run killed at any write resumes to a fresh run's bundle.

A run's write events are each ``Path.replace`` of an atomic write and each
``ResponseCache.put``. Each case kills a toy run at one of them, checks that
every digest the manifest's stage records list still matches its file, then
resumes with no kill and compares the bundle with a fresh run's. The cold
run is swept at one request in flight and, at a sample of its puts, at two.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import bundle_digests
from judgeval.config import load_config
from judgeval.gateway import LOOKAHEAD, MockBackend, ResponseCache
from judgeval.pipeline import run_pipeline, sha256_file


class Killed(BaseException):
    """A kill at a write event: no ``except`` in the package catches it."""


def _instrument(patch, kill_at: int | None = None, how: str = "before"):
    """Count the write events and the backend's sends. The event of index
    ``kill_at`` raises ``Killed``: ``before`` its write, ``after`` it, or
    (a put) ``torn``, after half its line. Returns the events, each
    ``(kind, path)``, and the sends, each a request hash."""
    events, sends = [], []
    path_replace, cache_put, backend_send = Path.replace, ResponseCache.put, MockBackend.send

    def event(kind: str, path: Path, write):
        events.append((kind, path))
        if len(events) - 1 != kill_at:
            return write()
        if how == "after":
            write()
        elif how == "torn":
            size = path.stat().st_size if path.exists() else 0
            write()
            os.truncate(path, size + (path.stat().st_size - size) // 2)
        raise Killed(f"{how} {kind} {path}")

    patch.setattr(Path, "replace", lambda tmp, target: event(
        "replace", Path(target), lambda: path_replace(tmp, target)))
    patch.setattr(ResponseCache, "put", lambda cache, entry: event(
        "put", cache.path, lambda: cache_put(cache, entry)))
    patch.setattr(MockBackend, "send", lambda backend, req, request_hash: sends.append(
        request_hash) or backend_send(backend, req, request_hash))
    return events, sends


def _listed(out: Path) -> dict[str, str]:
    """Each output the manifest's stage records list, with the digest of its file now."""
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    return {
        rel: sha256_file(out / rel) if (out / rel).exists() else "missing"
        for record in stages.values()
        for rel in record["outputs"]
    }


def _stale(out: Path) -> list[str]:
    """The outputs whose digest in the manifest's stage records is not their file's."""
    if not (out / "manifest.json").exists():  # killed before the first save
        return []
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    return [
        rel
        for record in stages.values()
        for rel, digest in record["outputs"].items()
        if not (out / rel).exists() or sha256_file(out / rel) != digest
    ]


def _toy_config(config_path: Path):
    """The toy config at one request in flight, so a kill loses at most one
    reply, and with a smaller bootstrap, which changes no write event."""
    return replace(load_config(config_path), max_in_flight=1, bootstrap_samples=50)


def _kill_and_resume(monkeypatch, config, kill_at: int, how: str):
    """Kill a run of ``config`` at one write event, then resume it. Returns
    the outputs left stale by the kill, the resume's result, and the sends
    of both runs."""
    with monkeypatch.context() as patch:
        _, sends = _instrument(patch, kill_at, how)
        with pytest.raises(Killed):
            run_pipeline(config)
    stale = _stale(config.output_dir)
    with monkeypatch.context() as patch:
        _, resent = _instrument(patch)
        resumed = run_pipeline(config)
    return stale, resumed, sends + resent


def test_a_cold_run_killed_at_any_write_resumes_to_a_fresh_runs_bundle(
    toy_experiment, monkeypatch
):
    config = _toy_config(toy_experiment)
    out = config.output_dir
    with monkeypatch.context() as patch:
        events, cold_sends = _instrument(patch)
        fresh = bundle_digests(run_pipeline(replace(config, output_dir=out.parent / "fresh"))
                               .output_dir)
    puts = [k for k, (kind, _) in enumerate(events) if kind == "put"]
    # 27 stage outputs, a manifest save after each of the 10 stages and one at the end
    assert (len(events) - len(puts), len(puts)) == (38, 93)
    # every replace, and a seeded sample of puts: each cut before its line and half-way in
    cases = [(k, "before") for k, (kind, _) in enumerate(events) if kind == "replace"]
    cases += [(k, how) for k in random.Random(21).sample(puts, 8) for how in ("before", "torn")]
    for k, how in cases:
        shutil.rmtree(out, ignore_errors=True)
        stale, _, sends = _kill_and_resume(monkeypatch, config, k, how)
        case = (k, how, *events[k])
        assert stale == [], case
        assert not list(out.rglob("*.tmp")), case
        assert len(sends) <= len(cold_sends) + 1, case  # at most the reply the kill lost
        assert bundle_digests(out) == fresh, case


def test_a_cold_run_at_two_in_flight_killed_at_a_put_resumes_to_a_fresh_runs_bundle(
    toy_experiment, monkeypatch
):
    # above one in flight the gateway sends up to LOOKAHEAD requests per slot
    # ahead of the reply it settles, so a kill can lose each of those replies
    config = replace(_toy_config(toy_experiment), max_in_flight=2)
    out = config.output_dir
    with monkeypatch.context() as patch:
        events, cold_sends = _instrument(patch)
        fresh = bundle_digests(run_pipeline(replace(config, output_dir=out.parent / "fresh"))
                               .output_dir)
    puts = [k for k, (kind, _) in enumerate(events) if kind == "put"]
    assert len(puts) == 93
    for k in random.Random(22).sample(puts, 6):  # each cut before its line and half-way in
        for how in ("before", "torn"):
            shutil.rmtree(out, ignore_errors=True)
            stale, _, sends = _kill_and_resume(monkeypatch, config, k, how)
            assert stale == [], (k, how)
            assert not list(out.rglob("*.tmp")), (k, how)
            assert len(sends) <= len(cold_sends) + LOOKAHEAD * config.max_in_flight, (k, how)
            assert bundle_digests(out) == fresh, (k, how)


@pytest.fixture
def ndcg_rerun(toy_experiment, monkeypatch):
    """The toy bundle at ``ndcg_k = 10``, kept as ``base``; the config edited
    to ``ndcg_k = 5``; the write events of its rerun over a copy of the
    bundle; and a fresh run of the edited config."""
    config = _toy_config(toy_experiment)
    base = config.output_dir.parent / "base"
    run_pipeline(replace(config, output_dir=base))
    edited = replace(config, ndcg_k=5)
    fresh = run_pipeline(replace(edited, output_dir=base.parent / "fresh")).output_dir
    shutil.copytree(base, edited.output_dir)
    with monkeypatch.context() as patch:
        events, sends = _instrument(patch)
        assert run_pipeline(edited).stages_run() == ["effectiveness", "stability"]
    assert sends == []
    shutil.rmtree(edited.output_dir)
    return base, edited, events, fresh


def _assert_resumed_to(out: Path, fresh: Path, case) -> None:
    # the old scatter_ndcg10.csv stays by design: no record lists it
    assert _listed(out) == _listed(fresh), case
    assert (out / "manifest.json").read_bytes() == (fresh / "manifest.json").read_bytes(), case
    assert not list(out.rglob("*.tmp")), case


def test_an_edited_rerun_killed_after_a_report_is_rewritten_withdrew_its_stage_record(
    ndcg_rerun, monkeypatch
):
    base, edited, events, fresh = ndcg_rerun
    out = edited.output_dir
    shutil.copytree(base, out)
    k = events.index(("replace", out / "reports" / "effectiveness.csv"))
    stale, resumed, sends = _kill_and_resume(monkeypatch, edited, k, "after")
    assert stale == []
    assert resumed.stages_run() == ["effectiveness", "stability"]
    assert sends == [] and resumed.backend_calls == 0
    _assert_resumed_to(out, fresh, k)


def test_an_edited_rerun_killed_at_any_write_resumes_to_a_fresh_edited_run(
    ndcg_rerun, monkeypatch
):
    base, edited, events, fresh = ndcg_rerun
    out = edited.output_dir
    # each report stage that runs withdraws its record, writes its outputs and
    # saves; the run's last save follows
    assert len(events) == 2 * 2 + 6 + 1
    for k, (kind, path) in enumerate(events):
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(base, out)
        stale, _, sends = _kill_and_resume(monkeypatch, edited, k, "before")
        assert stale == [] and sends == [], (k, path)
        _assert_resumed_to(out, fresh, (k, path))
