"""Benchmark for ``judgeval run``: cold, warm and HTTP-sweep workloads.

Run from the repository root::

    python3 perfbench/run.py --workload dl19-cold --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

Each timed repetition is a fresh child process (``perfbench/child.py``)
that imports ``judgeval.cli`` from this checkout's ``src/`` and calls
``judgeval.cli.main(["run", ...])`` on inputs generated from ``--seed``.
Repetitions start until ``--seconds`` of measuring have passed (at least
one). With ``--trace 0`` the end-to-end metrics are medians over the
repetitions; ``setup_s`` also pools a few set-up-only children. With
``--trace 1`` the repetitions alternate untraced and traced (every layer
wrapped from outside, see ``tracer.py``) and the per-layer metrics are
medians over the traced ones.

Every repetition is checked: the child exits 0, bundles are byte-identical
across repetitions, every judge cell accounts for its whole pool, nothing
failed, the warm run makes no backend call and changes no byte, and on the
HTTP workload the stub server's log agrees with the client. Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted`` (repetitions), ``failed`` (repetitions with a
failed check) and ``metrics``. The exit code is 1 if any check failed and 2
if the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BUDGET_S = 170.0  # one invocation must finish within 180 s
SETUP_PROBES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "cold" | "warm" | "http"
    spec: gen.Spec
    why: str
    latency_ms: float = 50.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dl19-cold",
            "cold",
            gen.DL19,
            "DL19-shaped grid from an empty output dir on the mock backend: every "
            "layer runs, including cache writes, effectiveness and the bootstrap",
        ),
        Workload(
            "dl19-warm",
            "warm",
            gen.DL19,
            "same inputs over a completed cold bundle: every stage is skipped, so "
            "start-up, parsing, cache load, manifest checks and skipped-stage work remain",
        ),
        Workload(
            "http-sweep",
            "http",
            gen.HTTP_SWEEP,
            "small grid against a local stub server with 50 ms per request and "
            "injected 429s: the gateway's HTTP, retry and concurrency path dominates",
        ),
    )
}

# (name, unit, better): printed with --trace 0, and listed in BENCHMARK.json.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better, end-to-end metric and workload it should move).
_HTTP = "backend_requests_per_s and wall_s on http-sweep"
_COLD_HTTP = "wall_s on dl19-cold and http-sweep"
_JUDGE = "wall_s and failed_share on dl19-cold and http-sweep"
_EFF = "wall_s on dl19-cold and dl19-warm"
PER_LAYER = [
    ("cli.main_s", "s", "lower", "wall_s on every workload"),
    ("config.load_config_s", "s", "lower", "setup_s on every workload"),
    ("trec_io.load_corpus_s", "s", "lower", "wall_s on dl19-warm"),
    ("trec_io.load_runs_dir_s", "s", "lower", "wall_s on dl19-warm"),
    ("trec_io.parse_qrels_s", "s", "lower", "wall_s on dl19-warm"),
    ("trec_io.grades_for_topic_calls", "count", "lower", _EFF),
    ("trec_io.grades_for_topic_s", "s", "lower", _EFF),
    ("gateway.cache_load_s", "s", "lower", "wall_s on dl19-warm"),
    ("gateway.cache_entries", "count", "lower", "wall_s on dl19-warm"),
    ("gateway.cache_put_calls", "count", "lower", "wall_s on dl19-cold"),
    ("gateway.cache_put_s", "s", "lower", "wall_s on dl19-cold"),
    ("gateway.digest_calls", "count", "lower", "wall_s on dl19-cold"),
    ("gateway.digest_s", "s", "lower", "wall_s on dl19-cold"),
    ("gateway.complete_calls", "count", "lower", "wall_s on dl19-cold"),
    ("gateway.complete_self_s", "s", "lower", "wall_s on dl19-cold"),
    ("gateway.cache_hits", "count", "higher", "wall_s on dl19-cold"),
    ("gateway.hit_ratio", "ratio", "higher", "wall_s on dl19-cold"),
    ("gateway.backend_calls", "count", "lower", _HTTP),
    ("gateway.backend_send_s", "s", "lower", _HTTP),
    ("gateway.inflight_max", "count", "higher", _HTTP),
    ("gateway.request_p50_ms", "ms", "lower", _HTTP),
    ("gateway.request_p99_ms", "ms", "lower", _HTTP),
    ("gateway.retries", "count", "lower", _HTTP),
    ("gateway.backoff_sleep_s", "s", "lower", _HTTP),
    ("summarizer.summarize_corpus_s", "s", "lower", _COLD_HTTP),
    ("summarizer.docs", "count", "lower", _COLD_HTTP),
    ("summarizer.summary_equals_source", "count", "lower", _COLD_HTTP),
    ("judge.judge_pool_s", "s", "lower", _JUDGE),
    ("judge.tasks", "count", "lower", _JUDGE),
    ("judge.nudged_requests", "count", "lower", _JUDGE),
    ("judge.failed_tasks", "count", "lower", _JUDGE),
    ("agreement.agreement_report_s", "s", "lower", "wall_s on dl19-cold"),
    ("effectiveness.ndcg_at_k_s", "s", "lower", _EFF),
    ("effectiveness.average_precision_s", "s", "lower", _EFF),
    ("effectiveness.calls", "count", "lower", _EFF),
    ("stability.stability_report_s", "s", "lower", "wall_s on dl19-cold"),
    ("stability.bootstrap_tau_ci_s", "s", "lower", "wall_s on dl19-cold"),
    ("stability.kendall_tau_calls", "count", "lower", "wall_s on dl19-cold"),
    ("stability.kendall_tau_s", "s", "lower", "wall_s on dl19-cold"),
    ("cost.tally_observed_s", "s", "lower", "wall_s on dl19-cold"),
    ("pipeline.sha256_file_calls", "count", "lower", _EFF),
    ("pipeline.sha256_bytes", "bytes", "lower", _EFF),
    ("pipeline.sha256_file_s", "s", "lower", _EFF),
    ("pipeline.run_self_s", "s", "lower", "wall_s on every workload"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
]

_DONE_RE = re.compile(
    r"^done: (\d+) stages ran, (\d+) skipped, (\d+) backend calls \((\d+) cache hits\)$",
    re.M,
)
_STAGE_RE = re.compile(r"^\s*(ran|skipped)  (\S+)$", re.M)


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


@dataclass
class Rep:
    wall_s: float
    setup_s: float
    rss_mb: float
    stages: dict[str, str] = field(default_factory=dict)
    backend_calls: int = 0
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Result:
    reps: list[Rep] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    failed_reps: int = 0
    reports_sha256: str = ""
    tasks: int = 0
    failed_tasks: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


# --- processes -----------------------------------------------------------


def _spawn_child(config: Path, out: Path, rep_dir: Path, deadline: float, *,
                 setup_only: bool = False, trace: Path | None = None) -> Rep:
    """Run child.py once; time it from spawn to exit and read its stamp."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    stamp = rep_dir / "stamp.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--stamp", str(stamp), "--config", str(config), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(rep_dir / "stdout.txt", "wb") as out_fh, open(rep_dir / "stderr.txt", "wb") as err_fh:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out_fh, stderr=err_fh, env=env, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = (rep_dir / "stdout.txt").read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0 or not stamp.exists():
        tail = (rep_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-800:]
        raise CheckFailed(f"child exited with {proc.returncode}: {tail.strip()}")
    stamp_data = json.loads(stamp.read_text(encoding="utf-8"))
    rep = Rep(wall_s=wall, setup_s=stamp_data["setup_done"] - start,
              rss_mb=usage.ru_maxrss / 1024.0, traced=trace is not None)
    if not setup_only:
        done = _DONE_RE.search(stdout)
        if done is None:
            raise CheckFailed(f"no summary line in judgeval output: {stdout[-400:]!r}")
        rep.backend_calls = int(done.group(3))
        rep.stages = {name: status for status, name in _STAGE_RE.findall(stdout)}
    return rep


class StubProcess:
    """``stub_server.py`` as a child process, for one repetition."""

    def __init__(self, log: Path, latency_ms: float):
        self.log = log
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), "--log", str(log),
             "--latency-ms", str(latency_ms)],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("PORT "):
            self.stop()
            raise CheckFailed(f"stub server did not start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}/v1/chat/completions"

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def records(self) -> list[dict]:
        if not self.log.exists():
            return []
        lines = self.log.read_text(encoding="utf-8").splitlines()
        return [json.loads(line) for line in lines if line]


# --- bundle checks ---------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def bundle_digest(out: Path, reports_only: bool = False) -> str:
    """SHA-256 over (relative path, content digest) of a bundle's files.

    ``reports_only`` keeps ``reports/*.csv`` and ``judgments/*.qrels``: the
    files that carry no wall-clock stamp under the HTTP backend, and the
    ones a change must leave byte-identical.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if reports_only and not (
            (rel.startswith("reports/") and rel.endswith(".csv"))
            or (rel.startswith("judgments/") and rel.endswith(".qrels"))
        ):
            continue
        digest.update(f"{rel}\0{_sha256(path)}\n".encode())
    return digest.hexdigest()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def check_bundle(out: Path, pool: int, docs: int) -> tuple[int, int]:
    """Check every judge cell's ledger; return (tasks attempted, tasks failed).

    A cell must account for its whole pool: judged pairs plus failed tasks
    plus skipped pairs. Summary errors (documents with no summary record)
    count as failed tasks.
    """
    ledgers = sorted((out / "judgments").glob("*.errors.json"))
    summaries = sorted((out / "summaries").glob("summ*.jsonl"))
    if not ledgers:
        raise CheckFailed(f"no judge cells in {out}")
    tasks = failed = 0
    for ledger_path in ledgers:
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
        cell = ledger_path.name[: -len(".errors.json")]
        judged = _count_lines(out / "judgments" / f"{cell}.qrels")
        n_failed, n_skipped = len(ledger["failed_tasks"]), len(ledger["skipped_pairs"])
        if judged + n_failed + n_skipped != pool:
            raise CheckFailed(
                f"cell {cell}: {judged} judged + {n_failed} failed + {n_skipped} "
                f"skipped != pool of {pool}"
            )
        tasks += pool - n_skipped
        failed += n_failed
    for path in summaries:
        tasks += docs
        failed += docs - _count_lines(path)
    return tasks, failed


# --- workloads ---------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    result = Result()
    try:
        _measure(w, seed, seconds, trace, work, result)
    except CheckFailed as exc:
        result.problems.append(str(exc))
        result.failed_reps += 1
    return result


def _measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
             result: Result) -> None:
    deadline = time.monotonic() + BUDGET_S
    # Set-up probes only load the config; each HTTP repetition rewrites it
    # with the port of its own stub server.
    placeholder = "http://127.0.0.1:9/v1/chat/completions" if w.mode == "http" else None
    inputs = work / "inputs"
    config = gen.generate(inputs, w.spec, seed, endpoint=placeholder)
    pool = _count_lines(inputs / "qrels.txt")
    docs = _count_lines(inputs / "corpus.jsonl")

    base = work / "base"
    base_digest = ""
    if w.mode == "warm":
        _spawn_child(config, base, work / "base-build", deadline)
        check_bundle(base, pool, docs)
        base_digest = bundle_digest(base)

    if not trace:
        for i in range(SETUP_PROBES):
            probe = _spawn_child(config, work / "unused", work / f"probe{i}", deadline,
                                 setup_only=True)
            result.setup_samples.append(probe.setup_s)

    digests: set[str] = set()
    measuring = time.monotonic()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        rep_dir = work / f"rep{index}"
        out = base if w.mode == "warm" else rep_dir / "out"
        spans_path = rep_dir / "spans.json" if traced else None
        server = None
        try:
            rep_dir.mkdir(parents=True, exist_ok=True)
            if w.mode == "http":
                server = StubProcess(rep_dir / "server.jsonl", w.latency_ms)
                config = gen.write_config(inputs, w.spec, seed, endpoint=server.endpoint)
            rep = _spawn_child(config, out, rep_dir, deadline, trace=spans_path)
            if server is not None:
                server.stop()
            if traced:
                rep.layers = tracer.layer_metrics(
                    json.loads(spans_path.read_text(encoding="utf-8")))
            _check_rep(w, rep, out, server, pool, docs, base_digest, digests, result)
        except CheckFailed as exc:
            raise CheckFailed(f"repetition {index}: {exc}") from exc
        finally:
            if server is not None:
                server.stop()
        result.reps.append(rep)
        if not trace:
            result.setup_samples.append(rep.setup_s)
        if w.mode != "warm":
            shutil.rmtree(out, ignore_errors=True)
        index += 1
        enough = time.monotonic() - measuring >= seconds
        if enough and (not trace or index >= 2):
            break
        if time.monotonic() + (time.monotonic() - measuring) / index > deadline:
            result.notes.append(f"stopped after {index} repetitions to stay within the time limit")
            break


def _check_rep(w: Workload, rep: Rep, out: Path, server: StubProcess | None, pool: int,
               docs: int, base_digest: str, digests: set[str], result: Result) -> None:
    tasks, failed = check_bundle(out, pool, docs)
    result.tasks, result.failed_tasks = tasks, failed
    if failed:
        raise CheckFailed(f"{failed} of {tasks} judge/summary tasks failed")
    reports = bundle_digest(out, reports_only=True)
    if result.reports_sha256 and reports != result.reports_sha256:
        raise CheckFailed("reports differ between repetitions")
    result.reports_sha256 = reports
    if w.mode == "http":
        records = server.records()
        refused = sum(1 for r in records if r["status"] == 429)
        if len(records) != rep.backend_calls:
            raise CheckFailed(
                f"server saw {len(records)} requests, client made {rep.backend_calls} calls")
        if refused == 0 or any(r["status"] not in (200, 429) for r in records):
            raise CheckFailed(f"expected only 200s and some injected 429s, got {records[:3]}")
        if rep.traced and rep.layers["gateway.retries"] != refused:
            raise CheckFailed(
                f"gateway.retries {rep.layers['gateway.retries']} != {refused} injected 429s")
        result.notes.append(
            f"rep {len(result.reps)}: server saw {len(records)} requests, {refused} refused "
            f"with 429, at most {max(r['inflight'] for r in records)} in flight")
        return
    digest = bundle_digest(out)
    if w.mode == "warm":
        if digest != base_digest:
            raise CheckFailed("warm run changed the cold bundle")
        if rep.backend_calls != 0:
            raise CheckFailed(f"warm run made {rep.backend_calls} backend calls")
        ran = [name for name, status in rep.stages.items() if status != "skipped"]
        if ran or not rep.stages:
            raise CheckFailed(f"warm run re-ran stages {ran}")
    digests.add(digest)
    if len(digests) > 1:
        raise CheckFailed("bundles differ between repetitions")


# --- reporting -----------------------------------------------------------------


def _spread(values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f} {unit}"
    supported = [p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10]
    if supported:
        p = supported[0]
        text += f", p{p} {ordered[min(n - 1, -(-n * p // 100) - 1)]:.4f} {unit}"
    else:
        text += f", max {ordered[-1]:.4f} {unit} (too few samples for a percentile)"
    return text + f", n={n}"


def report(w: Workload, seed: int, trace: bool, result: Result) -> dict:
    """Print the human-readable block and return the metrics object."""
    reps = result.reps
    timed = [r for r in reps if not r.traced]
    print(f"== {w.name}  seed={seed}  trace={int(trace)}  repetitions={len(reps)}")
    print(f"   reports_sha256 {result.reports_sha256 or '-'}")
    for note in result.notes:
        print(f"   {note}")
    for problem in result.problems:
        print(f"   FAILED {problem}")
    metrics: dict[str, dict] = {}
    if not timed:
        return metrics
    if not trace:
        walls = [r.wall_s for r in timed]
        rates = [r.backend_calls / r.wall_s for r in timed]
        share = result.failed_tasks / result.tasks if result.tasks else 0.0
        values = {
            "wall_s": walls,
            "setup_s": result.setup_samples,
            "peak_rss_mb": [r.rss_mb for r in timed],
        }
        print(f"   {'wall_s samples':<24} {' '.join(f'{v:.3f}' for v in walls)}")
        for name, unit, _better in END_TO_END:
            print(f"   {name:<24} {_spread(values[name], unit)}")
            metrics[name] = {"value": _median(values[name]), "unit": unit}
        print(f"   {'backend_requests_per_s':<24} {_spread(rates, '1/s')}")
        print(f"   {'failed_share':<24} {share:.6f} ({result.failed_tasks} of "
              f"{result.tasks} tasks)")
        return metrics
    traced = [r for r in reps if r.traced]
    for name, unit, _better, moves in PER_LAYER:
        if name == "trace.overhead_s":
            value = _median([r.wall_s for r in traced]) - _median([r.wall_s for r in timed])
        else:
            value = _median([r.layers[name] for r in traced])
        metrics[name] = {"value": value, "unit": unit}
        shown = f"{value:>14.6f}" if isinstance(value, float) else f"{value:>7}       "
        print(f"   {name:<36} {shown} {unit:<6} -> {moves}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="judgeval benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "judgeval" / "cli.py").is_file():
        print(f"error: no judgeval sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, trace) for w in WORKLOADS.values() for trace in (False, True)]
    else:
        runs = [(WORKLOADS[args.workload], bool(args.trace))]

    outcomes = []
    for w, trace in runs:
        work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            result = run_workload(w, args.seed, args.seconds, trace, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        outcomes.append((w, trace, result, report(w, args.seed, trace, result)))
    try:
        WORK.rmdir()
    except OSError:
        pass

    correct = all(result.correct for _, _, result, _ in outcomes)
    attempted = sum(len(result.reps) + result.failed_reps for _, _, result, _ in outcomes)
    failed = sum(result.failed_reps for _, _, result, _ in outcomes)
    if len(outcomes) == 1:
        metrics = outcomes[0][3]
    else:
        metrics = {
            f"{w.name}:{'trace' if trace else 'e2e'}:{name}": value
            for w, trace, _, ms in outcomes
            for name, value in ms.items()
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
