"""Gateway behavior: token counting, caching, retries, mock determinism."""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judgeval.errors import GatewayError, ProtocolError
from judgeval.gateway import (
    LOOKAHEAD,
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


# the ten ASCII characters str.split() splits on; NUL and DEL, which it does
# not; four non-ASCII spaces, which it does; and letters
_SPLIT_TEST_CHARS = st.sampled_from(
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x00\x7f\x85\xa0\u2028\u3000"
) | st.characters(categories=["L"])


@settings(max_examples=300, deadline=None)
@given(st.text(_SPLIT_TEST_CHARS, max_size=60))
def test_count_tokens_is_exact_against_str_split(text):
    assert count_tokens(text) == (4 * len(text.split()) + 2) // 3


def test_count_tokens_is_exact_on_long_ascii_text():
    rng = random.Random(13)
    ascii_chars = [chr(c) for c in range(128)]
    spaces = [c for c in ascii_chars if c.isspace()]
    for _ in range(200):
        space_weight = rng.uniform(0, 40)  # from mostly words to mostly whitespace
        weights = [space_weight] * len(spaces) + [1] * len(ascii_chars)
        text = "".join(rng.choices(spaces + ascii_chars, weights, k=rng.randint(1000, 6000)))
        assert count_tokens(text) == (4 * len(text.split()) + 2) // 3


# -- request digests ----------------------------------------------------------


def test_equal_requests_equal_hashes():
    assert _req().digest() == _req().digest()
    assert _req().digest() != _req(max_output_tokens=33).digest()


def test_request_digest_is_pinned():
    # cache keys must not move between versions, or old caches stop replaying
    assert _req().digest() == "fde2dd954ec0ccec472552f5269d7134806e1fc8ccaf3ebbb2f267a2849158ae"


def test_request_digest_is_pinned_on_non_ascii_text():
    # "é" and "😀" are hashed as UTF-8 bytes, not as \u escapes; quotes, the
    # backslash and the control character are escaped
    req = _req('café "q" \\ \x01 😀')
    assert req.digest() == "48edc4078918a2549529d33d1a7ec4f75c8b3e286fc7fe4fc1067d2c8f25acd6"


@pytest.mark.parametrize("max_output_tokens", [True, 32.0, "32"], ids=["bool", "float", "string"])
def test_max_output_tokens_that_is_not_an_int_is_rejected(max_output_tokens):
    # the digest frame writes the value as it is: True, where json.dumps wrote true
    with pytest.raises(TypeError, match="not an int"):
        ChatRequest("m", "x", max_output_tokens)


# any text, lone surrogates included, which no UTF-8 file can hold
_TEXT = st.text() | st.text(st.characters() | st.characters(categories=["Cs"]))


def _json_dumps_digest(req: ChatRequest) -> str:
    # the digest as it was computed before the fixed frame
    fields = {"model": req.model, "system_text": None, "user_text": req.user_text,
              "max_output_tokens": req.max_output_tokens, "temperature": 0.0}
    payload = json.dumps(fields, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _json_dumps_cache_line(entry: CacheEntry) -> bytes:
    # the cache line as it was written before the fixed frame
    record = {"hash": entry.request_hash, "model": entry.model, "text": entry.text,
              "in_tok": entry.input_tokens, "out_tok": entry.output_tokens}
    return (json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


def _or_encode_error(compute):
    try:
        return compute()
    except UnicodeEncodeError:
        return UnicodeEncodeError


@settings(max_examples=300, deadline=None)
@given(_TEXT, _TEXT, st.integers(min_value=1))
def test_framed_digest_is_the_json_dumps_digest(model, user_text, max_output_tokens):
    req = ChatRequest(model, user_text, max_output_tokens)
    assert _or_encode_error(req.digest) == _or_encode_error(lambda: _json_dumps_digest(req))


@settings(max_examples=300, deadline=None)
@given(_TEXT, _TEXT, _TEXT, st.integers(min_value=0), st.integers(min_value=0))
def test_framed_cache_line_is_the_json_dumps_line_and_loads_back(
    request_hash, model, text, input_tokens, output_tokens
):
    entry = CacheEntry(request_hash, model, text, input_tokens, output_tokens)
    expected = _or_encode_error(lambda: _json_dumps_cache_line(entry))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        if expected is UnicodeEncodeError:
            with pytest.raises(UnicodeEncodeError):
                ResponseCache(path).put(entry)
            assert not path.exists()  # nothing of the line was written
            return
        ResponseCache(path).put(entry)
        assert path.read_bytes() == expected
        assert list(ResponseCache(path).entries()) == [entry]


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


@pytest.mark.parametrize(
    "counts",
    [(2.9, 1), (1, True), ("12", 1), (12, -7), (None, 1), (1, 2.0)],
    ids=["float", "bool", "string", "negative", "null", "integral-float"],
)
def test_cache_line_with_a_token_count_that_is_not_a_count_is_corrupt(tmp_path, counts):
    # read through int(), each would enter cost.csv as a wrong count
    good = {"hash": "h0", "model": "m", "text": "ok", "in_tok": 3, "out_tok": 1}
    bad = {**good, "hash": "h1", "in_tok": counts[0], "out_tok": counts[1]}
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(GatewayError, match=r"corrupt cache line .*cache\.jsonl:2"):
        ResponseCache(path)


@pytest.mark.parametrize(
    "fields",
    [{"hash": 5}, {"model": None}, {"hash": 5, "model": None}, {"text": ["x"]}],
    ids=["int-hash", "null-model", "both", "list-text"],
)
def test_cache_line_whose_hash_model_or_text_is_not_a_string_is_corrupt(tmp_path, fields):
    # such a line can never be looked up by a digest, so it would be kept unseen
    good = {"hash": "h0", "model": "m", "text": "ok", "in_tok": 3, "out_tok": 1}
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **fields}) + "\n")
    match = r"corrupt cache line .*cache\.jsonl:2: \w+ is .*, not a string"
    with pytest.raises(GatewayError, match=match):
        ResponseCache(path)


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

    def send(self, req, request_hash):
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
    logged under the prompt whose retry it delays; ``replies`` counts the
    requests answered."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempts = Counter()
        self.in_flight = self.peak = self.replies = 0
        self.sleeps: dict[str, list[float]] = {}
        self._current = threading.local()

    def send(self, req, request_hash):
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
            with self.lock:
                self.replies += 1
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
    # only the window read ahead of the 3 settled requests was ever sent
    assert sum(backend.attempts.values()) <= 3 + LOOKAHEAD * 4
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


def test_a_send_that_gets_its_slot_after_a_stop_makes_no_attempt(tmp_path):
    sent, release, blocked = [], threading.Event(), threading.Semaphore(0)

    class _Blocking:
        def send(self, req, request_hash):
            sent.append(req.user_text)
            if req.user_text.startswith("block"):
                blocked.release()
                release.wait(5)
            return BackendReply(text=f"re {req.user_text}", input_tokens=1, output_tokens=1)

    def requests():
        yield from (_req("fast 0"), _req("block 1"), _req("block 2"))
        assert blocked.acquire(timeout=5) and blocked.acquire(timeout=5)  # both slots held
        yield _req("third")

    gw = _gateway(_Blocking(), tmp_path, max_in_flight=2)
    stream = gw.complete_many(requests())
    assert next(stream).text == "re fast 0"
    time.sleep(0.05)  # a free pool thread takes "third", which waits for a slot
    threading.Timer(0.1, release.set).start()
    stream.close()  # returns once both blocked sends are answered
    assert sorted(sent) == ["block 1", "block 2", "fast 0"]  # "third" was never sent
    assert len(gw.cache) == 1


def test_a_request_in_backoff_holds_no_slot(tmp_path):
    """The head request's backoff lasts until the 31 requests behind it are
    answered; both slots stay busy meanwhile."""
    backend = _ThreadedBackend()
    during = []

    def sleep(seconds):
        if during:  # the second backoff of "flaky 0" need not wait
            return
        with backend.lock:
            backend.peak = backend.in_flight
        deadline = time.monotonic() + 5
        while backend.replies < 31 and time.monotonic() < deadline:
            time.sleep(0.001)
        with backend.lock:
            during.append((backend.replies, backend.peak))

    requests = [_req("flaky 0")] + [_req(f"prompt {i}") for i in range(1, 32)]
    gw = Gateway(backend, tmp_path / "cache.jsonl", max_in_flight=2, sleep=sleep)
    outcomes = list(gw.complete_many(requests))
    assert [o.text for o in outcomes] == [f"re {r.user_text}" for r in requests]
    assert during == [(31, 2)]  # no timeout, and 2 in flight during the backoff


def test_backoffs_overlap_sends_within_the_cap_on_two_threads_per_slot(tmp_path):
    """Every request fails twice, under a real 10 ms backoff: the sends stay
    within the cap, on at most two pool threads per slot."""
    before = set(threading.enumerate())
    workers = []

    def sleep(seconds):
        workers.append(len(set(threading.enumerate()) - before))
        time.sleep(0.01)

    backend = _ThreadedBackend()
    gw = Gateway(backend, tmp_path / "cache.jsonl", max_in_flight=4, sleep=sleep)
    outcomes = list(gw.complete_many(_req(f"flaky {i}") for i in range(40)))
    assert [o.text for o in outcomes] == [f"re flaky {i}" for i in range(40)]
    assert sum(backend.attempts.values()) == 3 * 40
    assert 4 < max(workers) <= 8  # one thread per request would reach 40
    assert 1 < backend.peak <= 4


# -- mock determinism ----------------------------------------------------------


def test_mock_backend_deterministic_across_instances():
    req = _req("some judging Query: q Passage: p")
    a = MockBackend(seed=5).send(req, req.digest())
    b = MockBackend(seed=5).send(req, req.digest())
    assert a == b
    c = MockBackend(seed=6).send(req, req.digest())
    assert a.text != c.text or a == c  # different seed may change the grade


def test_mock_backend_replies_are_pinned():
    # the mock seeds its reply from the hash the gateway passes, which is
    # the request digest: replies, and so mock bundles, must not move
    requests = [
        _req("Query: q\nPassage: p\nRate it."),
        _req("hello there"),
        _req("Summarize in about 8 tokens.\nDocument: " + " ".join(f"w{i}" for i in range(12))),
    ]
    expected = {
        3: ["2", "ok cd4e85267259"],
        5: ["1", "ok fb47e0ab9646"],
        6: ["3", "ok 8cbb4618a2b5"],
    }
    for seed, texts in expected.items():
        replies = [MockBackend(seed).send(req, req.digest()).text for req in requests]
        assert replies == texts + ["w0 w1 w2 w3 w4 w5"]


def test_mock_backend_grade_in_range():
    for i in range(20):
        req = _req("Query: q\nPassage: p\nRate it.")
        reply = MockBackend(seed=i).send(req, req.digest())
        assert reply.text in {"0", "1", "2", "3"}


def test_mock_backend_summary_respects_budget():
    doc = " ".join(f"w{i}" for i in range(200))
    req = _req(f"Summarize at maximum about 80 tokens.\nDocument: {doc}", max_output_tokens=160)
    reply = MockBackend(seed=3).send(req, req.digest())
    assert count_tokens(reply.text) <= 80


# -- retries --------------------------------------------------------------------


class _FlakyBackend:
    def __init__(self, failures: int):
        self.failures = failures
        self.attempts = 0

    def send(self, req, request_hash):
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

        def send(self, req, request_hash):
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
        def send(self, req, request_hash):
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


@pytest.mark.parametrize(
    "payload",
    [
        {"choices": [{"message": {"content": None}}], "usage": {"prompt_tokens": 1}},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": ["a"]}}]},
        {"choices": [{"message": {"content": "2"}}], "usage": {"prompt_tokens": "12"}},
        {"choices": [{"message": {"content": "2"}}], "usage": {"completion_tokens": 1.5}},
        {"choices": [{"message": {"content": "2"}}], "usage": ["not", "a", "mapping"]},
    ],
    ids=["null-content", "null-content-no-usage", "list-content", "string-count",
         "float-count", "list-usage"],
)
def test_http_payload_off_protocol_is_protocol_error(payload):
    with pytest.raises(ProtocolError):
        HttpBackend._parse(json.dumps(payload).encode())


def test_http_reply_with_a_lone_surrogate_ends_as_a_protocol_error(tmp_path):
    # the \ud800 escape decodes, but the reply could not be written to the cache
    payload = b'{"choices":[{"message":{"content":"2 \\ud800"}}]}'
    with pytest.raises(ProtocolError, match="not UTF-8 text"):
        HttpBackend._parse(payload)

    class _SurrogateReply:
        def send(self, req, request_hash):
            return HttpBackend._parse(payload)

    gw = _gateway(_SurrogateReply(), tmp_path)
    [outcome] = gw.complete_many([_req()])
    assert isinstance(outcome, ProtocolError)  # the task goes to the error ledger
    assert len(gw.cache) == 0 and not (tmp_path / "cache.jsonl").exists()


@pytest.mark.parametrize(
    "usage",
    [{"prompt_tokens": -1, "completion_tokens": 3}, {"prompt_tokens": 12, "completion_tokens": -7},
     {"prompt_tokens": True, "completion_tokens": 3}],
    ids=["negative-prompt", "negative-completion", "bool"],
)
def test_http_usage_count_below_zero_or_bool_is_protocol_error(usage):
    payload = {"choices": [{"message": {"content": "2"}}], "usage": usage}
    with pytest.raises(ProtocolError, match="not integers >= 0"):
        HttpBackend._parse(json.dumps(payload).encode())
    zero = {**payload, "usage": {"prompt_tokens": 0, "completion_tokens": 0}}
    assert HttpBackend._parse(json.dumps(zero).encode()) == BackendReply("2", 0, 0)


@pytest.mark.parametrize(
    "reply, message",
    [((None,), "not a string"), (("2 \ud800",), "not UTF-8 text"),
     (("x", True, 1), "not integers >= 0"), (("x", 1, -1), "not integers >= 0"),
     (("x", 1.0, None), "not integers >= 0")],
    ids=["null-content", "lone-surrogate", "bool-count", "negative-count", "float-count"],
)
def test_any_backend_reply_the_cache_cannot_hold_is_a_protocol_error(tmp_path, reply, message):
    class _Custom:
        def send(self, req, request_hash):
            if req.user_text == "bad":
                return BackendReply(*reply)
            return BackendReply(text="fine", input_tokens=1, output_tokens=1)

    gw = _gateway(_Custom(), tmp_path)
    good, bad = gw.complete_many([_req("good"), _req("bad")])
    assert good.text == "fine"
    assert isinstance(bad, ProtocolError) and message in str(bad)  # the task goes to the ledger
    assert [e.text for e in ResponseCache(tmp_path / "cache.jsonl").entries()] == ["fine"]
