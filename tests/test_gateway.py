"""Gateway behavior: token counting, caching, retries, mock determinism."""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgeval.errors import GatewayError, ProtocolError
from judgeval.gateway import (
    BackendReply,
    CacheEntry,
    ChatRequest,
    Gateway,
    HttpBackend,
    MockBackend,
    ResponseCache,
    TransportError,
    count_tokens,
)


def _req(text="hello there", **kwargs):
    defaults = dict(model="m", user_text=text, max_output_tokens=32)
    defaults.update(kwargs)
    return ChatRequest(**defaults)


def _gateway(backend, tmp_path, **kwargs):
    kwargs.setdefault("sleep", lambda _s: None)
    return Gateway(backend, tmp_path / "cache.jsonl", **kwargs)


# -- token counting -----------------------------------------------------------


def test_count_tokens_examples():
    assert count_tokens("") == 0
    assert count_tokens("a b c") == 4


def test_count_tokens_concatenation_bound():
    rng = random.Random(11)
    alphabet = "ab c  d\ne"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        assert count_tokens(text + text) <= 2 * count_tokens(text) + 1


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=60), st.text(max_size=20))
def test_count_tokens_monotone_under_extension(text, suffix):
    assert count_tokens(text + suffix) >= count_tokens(text)


# -- request digests ----------------------------------------------------------


def test_equal_requests_equal_hashes():
    assert _req().digest() == _req().digest()
    assert _req().digest() != _req(max_output_tokens=33).digest()


def test_request_digest_is_pinned():
    # cache keys must not move between versions, or old caches stop replaying
    assert _req().digest() == "fde2dd954ec0ccec472552f5269d7134806e1fc8ccaf3ebbb2f267a2849158ae"


# -- cache contract -----------------------------------------------------------


def test_same_request_twice_hits_cache(tmp_path):
    gw = _gateway(MockBackend(seed=1), tmp_path)
    first = gw.complete(_req())
    second = gw.complete(_req())
    assert first.cached is False
    assert second.cached is True
    assert second.text == first.text
    assert (second.input_tokens, second.output_tokens) == (
        first.input_tokens,
        first.output_tokens,
    )
    assert gw.backend_calls == 1


def test_cache_persists_across_gateways(tmp_path):
    first = _gateway(MockBackend(seed=1), tmp_path).complete(_req())
    gw2 = _gateway(MockBackend(seed=1), tmp_path)
    second = gw2.complete(_req())
    assert second.cached is True
    assert second.text == first.text
    assert gw2.backend_calls == 0


def test_cache_file_uses_documented_fields(tmp_path):
    gw = _gateway(MockBackend(seed=1), tmp_path)
    gw.complete(_req())
    line = (tmp_path / "cache.jsonl").read_text().strip()
    assert set(json.loads(line)) == {"hash", "model", "text", "in_tok", "out_tok"}


def test_cache_last_write_wins_on_duplicate_hash(tmp_path):
    lines = [
        json.dumps({"hash": "h1", "model": "m", "text": "old", "in_tok": 1, "out_tok": 1, "ts": 0.0}),
        json.dumps({"hash": "h1", "model": "m", "text": "new", "in_tok": 2, "out_tok": 2, "ts": 1.0}),
    ]
    (tmp_path / "cache.jsonl").write_text("\n".join(lines) + "\n")
    cache = ResponseCache(tmp_path / "cache.jsonl")
    assert len(cache) == 1
    assert cache.get("h1").text == "new"


def test_corrupt_cache_line_is_an_error(tmp_path):
    (tmp_path / "cache.jsonl").write_text("not json\n")
    with pytest.raises(GatewayError):
        _gateway(MockBackend(seed=1), tmp_path)


def _cache_line(i: int) -> bytes:
    # non-ASCII text, written unescaped as ResponseCache.put does, so some
    # cuts fall inside a multi-byte character; the "ts" key is the format
    # of older caches, which still load
    record = {"hash": f"h{i}", "model": "m", "text": f"réponse {i}", "in_tok": i, "out_tok": 1, "ts": 0.0}
    return (json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n").encode()


def test_torn_last_cache_line_is_dropped_and_cut(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    intact = _cache_line(0) + _cache_line(1)
    last = _cache_line(2)
    for cut in range(len(last)):  # every byte offset of the final record
        path.write_bytes(intact + last[:cut])
        cache = ResponseCache(path)
        assert path.read_bytes() == intact
        assert [e.request_hash for e in cache.entries()] == ["h0", "h1"]
        warning = capsys.readouterr().err
        assert warning.count("\n") == (1 if cut else 0)
        assert ("unterminated" in warning) == bool(cut)

        entry = CacheEntry("h9", "m", "late", 1, 1)
        cache.put(entry)
        reloaded = ResponseCache(path)
        assert [e.request_hash for e in reloaded.entries()] == ["h0", "h1", "h9"]
        assert reloaded.get("h9") == entry
        assert capsys.readouterr().err == ""


def test_corrupt_line_before_the_last_stays_an_error(tmp_path):
    path = tmp_path / "cache.jsonl"
    data = _cache_line(0)[:10] + b"\n" + _cache_line(1)
    path.write_bytes(data)
    with pytest.raises(GatewayError, match=r"cache\.jsonl:1"):
        ResponseCache(path)
    assert path.read_bytes() == data


class _CountingBackend:
    """Records every request hash it serves."""

    def __init__(self):
        self.calls = []

    def send(self, req):
        self.calls.append(req.digest())
        return BackendReply(text="ok", input_tokens=1, output_tokens=1)


def test_each_distinct_request_reaches_the_backend_once(tmp_path):
    backend = _CountingBackend()
    gw = _gateway(backend, tmp_path)
    requests = [_req(f"prompt {i % 7}") for i in range(60)]
    responses = [gw.complete(r) for r in requests]
    distinct = {r.digest() for r in requests}
    assert len(distinct) == 7
    assert sorted(backend.calls) == sorted(distinct)
    assert len(gw.cache) == 7
    assert (gw.backend_calls, gw.cache_hits) == (7, 53)
    assert [resp.request_hash for resp in responses] == [r.digest() for r in requests]


class _ThreadedBackend:
    """Answers after a short hash-derived delay, so replies finish out of
    order; fails every attempt at prompts starting with "down", and the
    first two attempts at prompts starting with "flaky". Each sleep is
    logged under the prompt whose retry it delays."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempts = Counter()
        self.in_flight = self.peak = 0
        self.sleeps: dict[str, list[float]] = {}
        self._current = threading.local()

    def send(self, req):
        with self.lock:
            self.attempts[req.user_text] += 1
            attempt = self.attempts[req.user_text]
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            self._current.text = req.user_text
            time.sleep(int(req.digest()[:2], 16) / 255 * 0.002)
            if req.user_text.startswith("down") or (
                req.user_text.startswith("flaky") and attempt <= 2
            ):
                raise TransportError("unavailable")
            return BackendReply(text=f"re {req.user_text}", input_tokens=1, output_tokens=1)
        finally:
            with self.lock:
                self.in_flight -= 1

    def sleep(self, seconds):
        self.sleeps.setdefault(self._current.text, []).append(seconds)


def _run_many(tmp_path, name, requests, in_flight):
    backend = _ThreadedBackend()
    gw = Gateway(
        backend, tmp_path / name / "cache.jsonl",
        max_attempts=3, max_in_flight=in_flight, sleep=backend.sleep,
    )
    outcomes = list(gw.complete_many(requests))
    return backend, gw, outcomes


def test_complete_many_is_the_serial_result_at_any_in_flight(tmp_path):
    texts = [f"prompt {i % 23}" for i in range(120)] + ["down once", "flaky twice", "down once"]
    requests = [_req(text) for text in texts]
    serial = _gateway(_ThreadedBackend(), tmp_path / "serial", max_attempts=3)
    expected = []
    for req in requests:
        try:
            expected.append(serial.complete(req))
        except GatewayError as exc:
            expected.append(str(exc))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        for in_flight in (1, 2, 16):
            backend, gw, outcomes = _run_many(tmp_path, f"n{in_flight}", requests, in_flight)
            got = [str(o) if isinstance(o, GatewayError) else o for o in outcomes]
            assert got == expected
            cache = (tmp_path / f"n{in_flight}" / "cache.jsonl").read_bytes()
            assert cache == (tmp_path / "serial" / "cache.jsonl").read_bytes()
            assert gw.backend_calls == serial.backend_calls == sum(backend.attempts.values())
            assert gw.cache_hits == serial.cache_hits
            assert backend.peak <= in_flight
    finally:
        sys.setswitchinterval(interval)
    assert backend.peak > 1


def test_backoff_sleeps_depend_only_on_the_request(tmp_path):
    requests = [_req("flaky a"), _req("down b"), _req("flaky c")]
    alone, _, _ = _run_many(tmp_path, "alone", requests[2:], 1)
    for in_flight in (1, 8):
        backend, _, _ = _run_many(tmp_path, f"n{in_flight}", requests, in_flight)
        assert [len(backend.sleeps[r.user_text]) for r in requests] == [2, 2, 2]
        assert backend.sleeps["flaky c"] == alone.sleeps["flaky c"]
        assert backend.sleeps["flaky a"] != backend.sleeps["flaky c"]


def test_complete_many_stopped_early_leaves_no_thread(tmp_path):
    before = set(threading.enumerate())
    backend = _ThreadedBackend()
    gw = Gateway(backend, tmp_path / "cache.jsonl", max_in_flight=4)
    stream = gw.complete_many(_req(f"prompt {i}") for i in range(200))
    first = [next(stream) for _ in range(3)]
    assert [r.text for r in first] == ["re prompt 0", "re prompt 1", "re prompt 2"]
    stream.close()
    assert set(threading.enumerate()) <= before
    assert sum(backend.attempts.values()) < 200  # queued requests were never sent
    assert len(gw.cache) == 3


def test_complete_many_stopped_early_makes_no_further_retry(tmp_path):
    backend = _ThreadedBackend()
    sleeping = threading.Event()

    def sleep(seconds):
        sleeping.set()
        time.sleep(0.2)

    gw = Gateway(backend, tmp_path / "cache.jsonl", max_in_flight=2, sleep=sleep)
    stream = gw.complete_many([_req("prompt 0"), _req("down 1"), _req("prompt 2")])
    assert next(stream).text == "re prompt 0"
    assert sleeping.wait(5)
    stream.close()  # "down 1" is in its first backoff sleep
    assert backend.attempts["down 1"] == 1  # five without the stop
    assert len(gw.cache) == 1


# -- mock determinism ----------------------------------------------------------


def test_mock_backend_deterministic_across_instances():
    req = _req("some judging Query: q Passage: p")
    a = MockBackend(seed=5).send(req)
    b = MockBackend(seed=5).send(req)
    assert a == b
    c = MockBackend(seed=6).send(req)
    assert a.text != c.text or a == c  # different seed may change the grade


def test_mock_backend_grade_in_range():
    for i in range(20):
        reply = MockBackend(seed=i).send(_req("Query: q\nPassage: p\nRate it."))
        assert reply.text in {"0", "1", "2", "3"}


def test_mock_backend_summary_respects_budget():
    doc = " ".join(f"w{i}" for i in range(200))
    req = _req(f"Summarize at maximum about 80 tokens.\nDocument: {doc}", max_output_tokens=160)
    reply = MockBackend(seed=3).send(req)
    assert count_tokens(reply.text) <= 80


# -- retries --------------------------------------------------------------------


class _FlakyBackend:
    def __init__(self, failures: int):
        self.failures = failures
        self.attempts = 0

    def send(self, req):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransportError("boom")
        return BackendReply(text="fine", input_tokens=1, output_tokens=1)


def test_retry_exhaustion_raises_gateway_error(tmp_path):
    backend = _FlakyBackend(failures=5)
    gw = _gateway(backend, tmp_path, max_attempts=5)
    with pytest.raises(GatewayError, match="after 5 attempts"):
        gw.complete(_req())
    assert backend.attempts == 5


def test_retry_recovers_before_exhaustion(tmp_path):
    sleeps = []
    backend = _FlakyBackend(failures=4)
    gw = Gateway(
        backend, tmp_path / "cache.jsonl", max_attempts=5, sleep=sleeps.append
    )
    response = gw.complete(_req())
    assert response.text == "fine"
    assert len(sleeps) == 4
    assert sleeps == sorted(sleeps)  # exponential backoff grows


def test_protocol_error_not_retried(tmp_path):
    class _BadProtocol:
        def __init__(self):
            self.attempts = 0

        def send(self, req):
            self.attempts += 1
            raise ProtocolError("weird payload")

    backend = _BadProtocol()
    gw = _gateway(backend, tmp_path)
    with pytest.raises(ProtocolError):
        gw.complete(_req())
    assert backend.attempts == 1


# -- approximate token fallback ---------------------------------------------------


def test_tokens_approximated_when_backend_omits_usage(tmp_path):
    class _NoUsage:
        def send(self, req):
            return BackendReply(text="three words here")

    prompt = "five words in this prompt"
    for name, backend in (("no-usage", _NoUsage()), ("mock", MockBackend(seed=1))):
        gw = _gateway(backend, tmp_path / name)
        response = gw.complete(_req(prompt))
        assert response.input_tokens == count_tokens(prompt)
        assert response.output_tokens == count_tokens(response.text)


# -- http payload parsing ----------------------------------------------------------


def test_http_payload_parsing():
    payload = json.dumps(
        {
            "choices": [{"message": {"content": "answer"}}],
            "usage": {"prompt_tokens": 12, "completion_tokens": 3},
        }
    ).encode()
    reply = HttpBackend._parse(payload)
    assert reply == BackendReply(text="answer", input_tokens=12, output_tokens=3)
    with pytest.raises(ProtocolError):
        HttpBackend._parse(b"{}")
    with pytest.raises(ProtocolError):
        HttpBackend._parse(b"not json")
