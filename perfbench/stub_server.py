"""Deterministic chat-completion stub server for the HTTP workload.

Speaks the OpenAI-style payloads that ``judgeval.gateway.HttpBackend``
sends. Replies are a pure function of the request body:

- judge prompts (``Query:`` and ``Passage:``) get a grade 0-3 taken from
  the request hash;
- summary prompts (a trailing ``Document:``) get the longest word prefix of
  the document that fits the ``about N tokens`` budget;
- anything else gets ``ok <hash prefix>``.

Every reply carries ``usage`` token counts and is held back by a fixed
latency. The first attempt of a small fixed set of requests (hash divisible
by ``FAIL_MOD``, at most ``MAX_FAILURES`` of them) is refused with 429,
so the client's retry path runs. One JSON line per request is written to
``--log``: hash, arrival and departure times (``time.monotonic``), status,
and the number of requests in flight on arrival.

Run: ``python3 perfbench/stub_server.py --log PATH [--latency-ms 50]``.
It listens on 127.0.0.1, prints ``PORT <n>`` once ready, and exits on
SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import hashlib
import http.server
import json
import re
import signal
import sys
import threading
import time

_BUDGET_RE = re.compile(r"about (\d+) tokens")
# About 1 in FAIL_MOD requests qualifies for a refused first attempt, and the
# first MAX_FAILURES that qualify are refused: every run of a workload retries
# the same number of times and so waits out the same client backoff.
FAIL_MOD = 16
MAX_FAILURES = 3


def count_tokens(text: str) -> int:
    """Approximate tokens: whitespace words x 4/3, rounded up."""
    return (4 * len(text.split()) + 2) // 3


def request_hash(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reply_text(body: dict, digest: str) -> str:
    user = body["messages"][-1]["content"]
    if "Query:" in user and "Passage:" in user:
        return str(int(digest[:2], 16) % 4)
    if "Document:" in user:
        doc = user.rsplit("Document:", 1)[1].strip()
        if not doc:
            return "NO_CONTENT"
        match = _BUDGET_RE.search(user)
        budget = int(match.group(1)) if match else int(body.get("max_tokens", 256))
        return " ".join(doc.split()[: (3 * budget) // 4])
    return f"ok {digest[:12]}"


def completion(body: dict, digest: str) -> dict:
    text = reply_text(body, digest)
    prompt = "\n".join(m["content"] for m in body["messages"])
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {
            "prompt_tokens": count_tokens(prompt),
            "completion_tokens": count_tokens(text),
        },
    }


class FailurePolicy:
    """Refuses the first attempt of hashes divisible by ``mod``, up to ``limit``."""

    def __init__(self, mod: int, limit: int):
        self.mod = mod
        self.limit = limit
        self.failed: set[str] = set()
        self._lock = threading.Lock()

    def should_fail(self, digest: str) -> bool:
        if self.mod <= 0 or int(digest[:8], 16) % self.mod:
            return False
        with self._lock:
            if digest in self.failed or len(self.failed) >= self.limit:
                return False
            self.failed.add(digest)
            return True


class StubServer(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, log_path: str, latency_s: float, policy: FailurePolicy):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.latency_s = latency_s
        self.policy = policy
        self.inflight = 0
        self._lock = threading.Lock()
        self._log = open(log_path, "w", encoding="utf-8")

    def record(self, entry: dict) -> None:
        with self._lock:
            self._log.write(json.dumps(entry, sort_keys=True) + "\n")
            self._log.flush()

    def enter(self) -> int:
        with self._lock:
            self.inflight += 1
            return self.inflight

    def leave(self) -> None:
        with self._lock:
            self.inflight -= 1

    def server_close(self) -> None:
        super().server_close()
        self._log.close()


class _Handler(http.server.BaseHTTPRequestHandler):
    server: StubServer

    def do_POST(self) -> None:
        arrived = time.monotonic()
        inflight = self.server.enter()
        try:
            raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            try:
                body = json.loads(raw)
                body["messages"][-1]["content"]
            except (json.JSONDecodeError, KeyError, IndexError, TypeError):
                self._send(400, b"")
                self._log(arrived, inflight, "-", 400)
                return
            digest = request_hash(body)
            time.sleep(self.server.latency_s)
            if self.server.policy.should_fail(digest):
                status, payload = 429, b""
            else:
                status, payload = 200, json.dumps(completion(body, digest)).encode("utf-8")
            self._send(status, payload)
            self._log(arrived, inflight, digest, status)
        finally:
            self.server.leave()

    def _send(self, status: int, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _log(self, arrived: float, inflight: int, digest: str, status: int) -> None:
        self.server.record(
            {
                "hash": digest,
                "arrived": arrived,
                "done": time.monotonic(),
                "status": status,
                "inflight": inflight,
            }
        )

    def log_message(self, *args) -> None:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--log", required=True, help="JSONL request log to write")
    parser.add_argument("--latency-ms", type=float, default=50.0)
    args = parser.parse_args(argv)

    server = StubServer(
        args.log, args.latency_ms / 1000.0, FailurePolicy(FAIL_MOD, MAX_FAILURES)
    )

    def stop(_signum, _frame) -> None:
        # shutdown() waits for serve_forever() to return, so it cannot run on
        # the thread that is inside serve_forever().
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
