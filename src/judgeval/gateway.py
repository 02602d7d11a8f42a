"""Chat-completion access with caching, retries, and token accounting.

One configured backend per gateway: either a deterministic offline mock or
a JSON-over-HTTP endpoint speaking the common chat-completion protocol.
Responses are cached in a line-oriented JSON file keyed by a digest of the
full request, so repeated runs never hit the backend twice for the same
prompt. A backend is any object with ``send(req, request_hash)`` returning a
``BackendReply``; ``request_hash`` is the digest the gateway computed once for
the request (the mock seeds its reply from it, ``HttpBackend`` ignores it).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_str  # the str encoder of ensure_ascii=False
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import GatewayError, ProtocolError

if TYPE_CHECKING:
    from concurrent.futures import Future

BACKOFF_BASE_S = 1.0  # first retry waits 0.5-1.0 s, doubling per attempt
HTTP_TIMEOUT_S = 60.0
# requests read ahead per request in flight: at 50 ms replies, enough for the
# other slots to keep sending through a first backoff (0.5-1.0 s) at the head
LOOKAHEAD = 32
_NEVER_STOPPED = threading.Event()
# each byte to b" " if str.split() splits on it (ten ASCII characters), else to b"x"
_WORD_MARKS = bytes(32 if chr(c).isspace() else 120 for c in range(256))


def count_tokens(text: str) -> int:
    """Approximate token count: whitespace word count x 4/3, rounded up.

    Deterministic and monotone under text extension. The one token count
    used for corpus entries, summary budget checks, and the usage of
    backends that report none. ASCII text takes one C pass with no word list:
    a word starts at a non-space mark after a space mark or at the start.
    """
    if text.isascii():
        marks = text.encode("ascii").translate(_WORD_MARKS)
        words = marks.count(b" x") + marks.startswith(b"x")
    else:
        words = len(text.split())
    return (4 * words + 2) // 3


@dataclass(frozen=True)
class ChatRequest:
    """One user message, sent without a system message at temperature 0."""

    model: str
    user_text: str
    max_output_tokens: int = 256

    def __post_init__(self) -> None:
        if type(self.max_output_tokens) is not int:  # no bool: the digest writes it as digits
            raise TypeError(f"max_output_tokens is {self.max_output_tokens!r}, not an int")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")

    def digest(self) -> str:
        """SHA-256 over every request field; equal requests hash equally.

        The payload is the bytes of ``json.dumps(..., sort_keys=True,
        ensure_ascii=False)`` of the five fields, written as one fixed frame.
        It also carries the constant ``system_text`` (null) and
        ``temperature`` (0.0) keys: they are part of every cache key, and
        dropping them would leave existing caches unable to replay.
        """
        payload = (
            f'{{"max_output_tokens": {self.max_output_tokens}, "model": {_json_str(self.model)}, '
            f'"system_text": null, "temperature": 0.0, "user_text": {_json_str(self.user_text)}}}'
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChatResponse:
    text: str
    input_tokens: int
    output_tokens: int
    cached: bool
    request_hash: str


@dataclass(frozen=True, slots=True)
class CacheEntry:
    request_hash: str
    model: str
    text: str
    input_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class BackendReply:
    """Raw backend output; token counts are None when the backend reports none."""

    text: str
    input_tokens: int | None = None
    output_tokens: int | None = None

    def __post_init__(self) -> None:
        """Reject a reply the cache could not write or load back, whatever its backend."""
        if not isinstance(self.text, str):  # a filtered reply can come back as null
            raise ProtocolError(f"backend reply content is {self.text!r}, not a string")
        try:
            self.text.encode("utf-8")  # a lone surrogate escape decodes, but cannot be cached
        except UnicodeEncodeError as exc:
            raise ProtocolError(f"backend reply content is not UTF-8 text: {exc}") from exc
        counts = self.input_tokens, self.output_tokens
        for n in counts:  # a loop, not any(): this runs once per reply
            if n is not None and (type(n) is not int or n < 0):  # no bool or float
                raise ProtocolError(f"backend usage counts {counts} are not integers >= 0")


class TransportError(Exception):
    """Retriable backend failure (connection, timeout, throttling, 5xx)."""


class ResponseCache:
    """Append-only JSONL store of responses, one live entry per request hash.

    Lookups read an in-memory dict rebuilt from the file at open time (last
    write wins on duplicate hashes); ``put`` appends one line per entry
    through one handle, flushed after each line.
    An unterminated last line, which is what an append cut short leaves, is
    dropped and cut from the file; any other unreadable line is an error.
    Keys beyond the five that ``put`` writes, such as the time stamp that
    older caches carry, are ignored. The cache keeps no digest of its file,
    and no stage record of the pipeline's manifest covers it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, CacheEntry] = {}
        self._append = None  # the one append handle, opened by the first put
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        size = 0  # bytes up to the end of the last complete line
        with open(self.path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):  # only the last line can lack it
                    print(
                        f"warning: dropping the unterminated last line of {self.path} "
                        f"(line {line_no}, {len(line)} bytes)",
                        file=sys.stderr,
                    )
                    os.truncate(self.path, size)
                    break
                size += len(line)
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                    for key in ("hash", "model", "text"):
                        if not isinstance(raw[key], str):
                            raise TypeError(f"{key} is {raw[key]!r}, not a string")
                    counts = raw["in_tok"], raw["out_tok"]
                    if not all(type(n) is int and n >= 0 for n in counts):  # no bool or float
                        raise ValueError(f"token counts {counts} are not integers >= 0")
                    entry = CacheEntry(raw["hash"], raw["model"], raw["text"], *counts)
                except (KeyError, TypeError, ValueError) as exc:
                    raise GatewayError(
                        f"corrupt cache line {self.path}:{line_no}: {exc}"
                    ) from exc
                self._entries[entry.request_hash] = entry

    def get(self, request_hash: str) -> CacheEntry | None:
        return self._entries.get(request_hash)

    def put(self, entry: CacheEntry) -> None:
        """Append ``entry`` as the line ``json.dumps(..., sort_keys=True,
        ensure_ascii=False)`` gives for its five keys, written as one fixed frame."""
        line = (
            f'{{"hash": {_json_str(entry.request_hash)}, "in_tok": {entry.input_tokens}, '
            f'"model": {_json_str(entry.model)}, "out_tok": {entry.output_tokens}, '
            f'"text": {_json_str(entry.text)}}}\n'
        ).encode("utf-8")
        if self._append is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._append = open(self.path, "ab")
        self._append.write(line)
        self._append.flush()  # a crash loses at most the line being written
        self._entries[entry.request_hash] = entry

    def close(self) -> None:
        """Close the append handle, if a put opened it; a later put opens it again."""
        if self._append is not None:
            self._append.close()
            self._append = None

    def entries(self) -> Iterator[CacheEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


_SUMMARY_BUDGET_RE = re.compile(r"about (\d+) tokens")


class MockBackend:
    """Deterministic offline backend for dry runs and tests.

    The reply depends only on (seed, ``request_hash``), so transcripts are
    reproducible across processes. Judge-style prompts (a ``Query:`` plus a
    ``Passage:`` section) get a pseudo-random grade in 0-3; summary-style
    prompts (a trailing ``Document:`` section with a token budget) get an
    extractive prefix of the document that fits the stated budget under the
    approximate tokenizer. It has no tokenizer of its own, so it reports no
    usage and the gateway approximates the token counts.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def send(self, req: ChatRequest, request_hash: str) -> BackendReply:
        h = hashlib.sha256(f"{self.seed}:{request_hash}".encode("utf-8")).digest()
        user = req.user_text
        if "Passage:" in user and "Query:" in user:
            return BackendReply(str(h[0] % 4))
        if "Document:" in user:
            doc = user.rsplit("Document:", 1)[1].strip()
            if not doc:
                return BackendReply("NO_CONTENT")
            match = _SUMMARY_BUDGET_RE.search(user)
            budget = int(match.group(1)) if match else req.max_output_tokens
            max_words = (3 * budget) // 4  # ceil(words * 4/3) <= budget
            return BackendReply(" ".join(doc.split()[:max_words]))
        return BackendReply(f"ok {h.hex()[:12]}")


class HttpBackend:
    """JSON-over-HTTP chat-completion backend (OpenAI-style payloads).

    The API key is read from the environment variable named in the config;
    the request body carries the model, one user message, temperature 0 and
    max_tokens.
    Transport-level failures (including 429/5xx) raise TransportError and
    are retried by the gateway; unparseable payloads raise ProtocolError.
    """

    def __init__(self, endpoint: str, api_key_env: str = ""):
        self.endpoint = endpoint
        self.api_key_env = api_key_env

    def send(self, req: ChatRequest, request_hash: str) -> BackendReply:
        import urllib.error
        import urllib.request  # with http.client, ssl and email: 30 ms at import

        body = json.dumps(
            {
                "model": req.model,
                "messages": [{"role": "user", "content": req.user_text}],
                "temperature": 0.0,
                "max_tokens": req.max_output_tokens,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        request = urllib.request.Request(self.endpoint, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as resp:
                payload = resp.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 429 or exc.code >= 500:
                raise TransportError(f"HTTP {exc.code}") from exc
            raise ProtocolError(f"HTTP {exc.code} from backend") from exc
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(str(exc)) from exc
        return self._parse(payload)

    @staticmethod
    def _parse(payload: bytes) -> BackendReply:
        try:
            data = json.loads(payload)
            text = data["choices"][0]["message"]["content"]
            usage = data.get("usage") or {}
            counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
        except (json.JSONDecodeError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ProtocolError(f"unexpected backend payload: {exc}") from exc
        return BackendReply(text, *counts)  # checks the content and the counts


class Gateway:
    """Cached, retrying front door to a single chat backend.

    ``complete`` is the one reply path. A request whose digest is in the
    cache is answered from it; any other goes to the backend, with transport
    failures retried under jittered exponential backoff, and its reply is
    appended to the cache, so each distinct request reaches the backend at
    most once. Token counts a backend leaves out are approximated here, with
    ``count_tokens``, before the reply is cached.

    ``complete_many`` keeps up to ``max_in_flight`` requests at the backend
    but settles each through ``complete``, on the calling thread and in input
    order, so the cache bytes and the counters do not depend on it. A
    request holds one of those slots only while at the backend, not while it
    waits out a backoff.
    """

    def __init__(
        self,
        backend,
        cache_path: str | Path,
        *,
        max_attempts: int = 5,
        max_in_flight: int = 1,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.backend = backend
        self.cache = ResponseCache(cache_path)
        self.max_attempts = max_attempts
        self.max_in_flight = max_in_flight
        self._sleep = sleep
        # held around each backend call; at one slot a lock does the same, 6x faster
        self._slots = (
            threading.BoundedSemaphore(max_in_flight) if max_in_flight > 1 else threading.Lock()
        )
        self.backend_calls = 0
        self.cache_hits = 0

    def complete(
        self, req: ChatRequest, *, request_hash: str | None = None, sent: Future | None = None
    ) -> ChatResponse:
        """Answer ``req``. ``request_hash`` is its digest if already known;
        ``sent`` is its backend call if one was already started, and is used
        only when the cache has no reply."""
        request_hash = request_hash or req.digest()
        entry = self.cache.get(request_hash)
        cached = entry is not None
        if cached:
            self.cache_hits += 1
        else:
            reply, attempts = sent.result() if sent else self._send(req, request_hash)
            self.backend_calls += attempts
            if isinstance(reply, GatewayError):
                raise reply
            in_tok, out_tok = reply.input_tokens, reply.output_tokens
            if in_tok is None or out_tok is None:
                in_tok, out_tok = count_tokens(req.user_text), count_tokens(reply.text)
            entry = CacheEntry(request_hash, req.model, reply.text, in_tok, out_tok)
            self.cache.put(entry)
        return ChatResponse(
            text=entry.text,
            input_tokens=entry.input_tokens,
            output_tokens=entry.output_tokens,
            cached=cached,
            request_hash=request_hash,
        )

    def complete_many(
        self, requests: Iterable[ChatRequest]
    ) -> Iterator[ChatResponse | GatewayError]:
        """One outcome per request, in input order: its response or the
        ``GatewayError`` it ended in.

        Above one in flight, the distinct cache misses among the next
        ``LOOKAHEAD * max_in_flight`` requests are sent from a pool of
        ``2 * max_in_flight`` threads while earlier ones settle: per slot, one
        at the backend and one waiting out a backoff or waiting for a slot.
        When the stream ends or the caller stops reading it, queued sends are
        dropped and started ones make no further attempt; the call returns
        once the sends already at the backend and the backoff sleeps already
        begun do.
        """
        if self.max_in_flight == 1:  # on the mock, a pool of one made a cold run 27% slower
            yield from map(self._outcome, requests)
            return
        from concurrent.futures import ThreadPoolExecutor  # +0.6 MB RSS at import

        pool = ThreadPoolExecutor(2 * self.max_in_flight)
        stop = threading.Event()
        todo = iter(requests)
        ahead: deque[tuple[ChatRequest, str]] = deque()
        sent: dict[str, Future] = {}
        try:
            while True:
                for req in itertools.islice(todo, LOOKAHEAD * self.max_in_flight - len(ahead)):
                    request_hash = req.digest()
                    if request_hash not in sent and self.cache.get(request_hash) is None:
                        sent[request_hash] = pool.submit(self._send, req, request_hash, stop)
                    ahead.append((req, request_hash))
                if not ahead:
                    return
                req, request_hash = ahead.popleft()
                yield self._outcome(req, request_hash, sent.pop(request_hash, None))
        finally:
            stop.set()
            pool.shutdown(cancel_futures=True)

    def _outcome(
        self, req: ChatRequest, request_hash: str | None = None, sent: Future | None = None
    ) -> ChatResponse | GatewayError:
        try:
            return self.complete(req, request_hash=request_hash, sent=sent)
        except GatewayError as exc:
            return exc

    def _send(
        self, req: ChatRequest, request_hash: str, stop: threading.Event = _NEVER_STOPPED
    ) -> tuple[BackendReply | GatewayError, int]:
        """The reply, or the error ``req`` ended in, and the attempts made.
        It may run on a pool thread, so it changes no shared state and
        jitters each backoff from the request's own hash. Each attempt holds
        a slot only while at the backend. Once ``stop`` is set it makes no
        further attempt, also when it was waiting for a slot."""
        attempt = 1
        while True:
            with self._slots:
                if stop.is_set():
                    return GatewayError(f"stopped before attempt {attempt}"), attempt - 1
                try:
                    return self.backend.send(req, request_hash), attempt
                except GatewayError as exc:  # the backend answered; retrying will not help
                    return exc, attempt
                except TransportError as exc:
                    failure = exc
            if attempt == self.max_attempts or stop.is_set():
                return GatewayError(f"backend failed after {attempt} attempts: {failure}"), attempt
            delay = BACKOFF_BASE_S * (2 ** (attempt - 1))
            jitter = random.Random(f"{request_hash}:{attempt}").random()
            self._sleep(delay * (0.5 + jitter / 2))
            attempt += 1
