"""HTTP backend against a local chat-completion stub server."""

from __future__ import annotations

import hashlib
import http.server
import json
import re
import threading
import time
from dataclasses import replace

import pytest

from conftest import build_toy_experiment, bundle_digests
from judgeval import gateway as gateway_module
from judgeval.cli import main
from judgeval.config import load_config
from judgeval.errors import GatewayError, ProtocolError
from judgeval.gateway import ChatRequest, Gateway, HttpBackend, MockBackend
from judgeval.pipeline import run_pipeline


class _StubHandler(http.server.BaseHTTPRequestHandler):
    # class-level knobs set per test via the server factory
    fail_first = 0
    status_on_fail = 500

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            record = {"headers": dict(self.headers), "body": body}
            server.requests.append(record)
            refuse = record["refused"] = server.remaining_failures > 0 or server.refuse(body)
            server.remaining_failures -= refuse
        if refuse:
            self.send_response(server.status_on_fail)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        reply = server.reply(body) if callable(server.reply) else server.reply
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _StubServer(http.server.ThreadingHTTPServer):
    # socketserver's default backlog of 5 drops connections beyond it, which
    # then wait a second for the SYN retry when 8 requests are in flight
    request_queue_size = 64


@pytest.fixture
def stub_server():
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.lock = threading.Lock()
    server.remaining_failures = 0
    server.refuse = lambda _body: False
    server.status_on_fail = 500
    server.reply = {
        "choices": [{"message": {"content": "grade: 2"}}],
        "usage": {"prompt_tokens": 40, "completion_tokens": 3},
    }
    # shutdown() waits up to one poll interval (0.5 s by default) for the loop to stop
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _endpoint(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"


def _request():
    return ChatRequest(
        model="remote-model",
        user_text="Query: q\nPassage: p",
        max_output_tokens=16,
    )


def test_http_backend_round_trip_with_auth_and_usage(stub_server, monkeypatch):
    monkeypatch.setenv("STUB_KEY", "sekrit")
    backend = HttpBackend(_endpoint(stub_server), api_key_env="STUB_KEY")
    request = _request()
    reply = backend.send(request, request.digest())
    assert reply.text == "grade: 2"
    assert (reply.input_tokens, reply.output_tokens) == (40, 3)
    sent = stub_server.requests[0]
    assert sent["headers"]["Authorization"] == "Bearer sekrit"
    assert sent["body"]["model"] == "remote-model"
    assert sent["body"]["messages"] == [{"role": "user", "content": "Query: q\nPassage: p"}]
    assert sent["body"]["temperature"] == 0.0
    assert sent["body"]["max_tokens"] == 16


def test_gateway_retries_transient_500s(stub_server, tmp_path):
    stub_server.remaining_failures = 2
    backend = HttpBackend(_endpoint(stub_server))
    gw = Gateway(backend, tmp_path / "cache.jsonl", max_attempts=5, sleep=lambda _s: None)
    response = gw.complete(_request())
    assert response.text == "grade: 2"
    assert len(stub_server.requests) == 3


def test_gateway_retries_429_then_gives_up(stub_server, tmp_path):
    stub_server.remaining_failures = 99
    stub_server.status_on_fail = 429
    backend = HttpBackend(_endpoint(stub_server))
    gw = Gateway(backend, tmp_path / "cache.jsonl", max_attempts=3, sleep=lambda _s: None)
    with pytest.raises(GatewayError, match="after 3 attempts"):
        gw.complete(_request())
    assert len(stub_server.requests) == 3


def test_http_4xx_is_protocol_error_not_retried(stub_server, tmp_path):
    stub_server.remaining_failures = 99
    stub_server.status_on_fail = 400
    backend = HttpBackend(_endpoint(stub_server))
    gw = Gateway(backend, tmp_path / "cache.jsonl", max_attempts=5, sleep=lambda _s: None)
    with pytest.raises(ProtocolError):
        gw.complete(_request())
    assert len(stub_server.requests) == 1


def test_malformed_payload_is_protocol_error(stub_server, tmp_path):
    stub_server.reply = {"unexpected": "shape"}
    backend = HttpBackend(_endpoint(stub_server))
    gw = Gateway(backend, tmp_path / "cache.jsonl", sleep=lambda _s: None)
    with pytest.raises(ProtocolError):
        gw.complete(_request())


def test_http_responses_cached_like_any_other(stub_server, tmp_path):
    backend = HttpBackend(_endpoint(stub_server))
    gw = Gateway(backend, tmp_path / "cache.jsonl", sleep=lambda _s: None)
    first = gw.complete(_request())
    second = gw.complete(_request())
    assert second.cached is True
    assert second.text == first.text
    assert len(stub_server.requests) == 1


def _mock_reply(body: dict) -> dict:
    """The mock backend's reply to the request a chat-completion body encodes:
    a function of the body alone, as a deterministic model would give. Like
    the mock, it reports no usage."""
    (message,) = body["messages"]
    request = ChatRequest(
        model=body["model"], user_text=message["content"], max_output_tokens=body["max_tokens"]
    )
    reply = MockBackend(seed=7).send(request, request.digest())
    return {"choices": [{"message": {"content": reply.text}}]}


def test_http_bundles_are_byte_identical_across_fresh_and_forced_runs(stub_server, tmp_path):
    stub_server.reply = _mock_reply
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace(
        "backend = mock\n", f"backend = http\nendpoint = {_endpoint(stub_server)}\n"
    )
    config_path.write_text(text)
    config = load_config(config_path)

    first = run_pipeline(replace(config, output_dir=tmp_path / "out_a"))
    assert first.backend_calls == len(stub_server.requests) > 0
    second = run_pipeline(replace(config, output_dir=tmp_path / "out_b"))
    fresh = bundle_digests(first.output_dir)
    assert bundle_digests(second.output_dir) == fresh

    sent = len(stub_server.requests)
    forced = run_pipeline(replace(config, output_dir=tmp_path / "out_a"), force=True)
    assert forced.stages_skipped() == []
    assert forced.backend_calls == 0
    assert len(stub_server.requests) == sent
    assert bundle_digests(forced.output_dir) == fresh


def _http_toy_config(tmp_path, server, in_flight: int, max_attempts: int = 5):
    """The toy experiment against ``server`` with ``in_flight`` requests at once."""
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace(
        "backend = mock\n", f"backend = http\nendpoint = {_endpoint(server)}\n"
    )
    config_path.write_text(text)
    return replace(
        load_config(config_path), max_in_flight=in_flight, max_attempts=max_attempts
    )


@pytest.fixture
def counted_sends(monkeypatch):
    """Counts HttpBackend.send calls at once, on the client side."""
    counts = {"now": 0, "peak": 0}
    lock = threading.Lock()
    send = HttpBackend.send

    def counted(self, req, request_hash):
        with lock:
            counts["now"] += 1
            counts["peak"] = max(counts["peak"], counts["now"])
        try:
            return send(self, req, request_hash)
        finally:
            with lock:
                counts["now"] -= 1

    monkeypatch.setattr(HttpBackend, "send", counted)
    return counts


def test_http_bundles_do_not_depend_on_max_in_flight(stub_server, counted_sends, tmp_path):
    def slow_reply(body):
        time.sleep(0.002)
        return _mock_reply(body)

    stub_server.reply = slow_reply
    bundles = {}
    for in_flight in (1, 2, 8):
        counted_sends["peak"] = 0
        config = _http_toy_config(tmp_path, stub_server, in_flight)
        sent = len(stub_server.requests)
        result = run_pipeline(replace(config, output_dir=tmp_path / f"out{in_flight}"))
        assert result.backend_calls == len(stub_server.requests) - sent > 0
        assert counted_sends["peak"] <= in_flight
        bundles[in_flight] = bundle_digests(result.output_dir)
    assert counted_sends["peak"] > 1
    assert "cache.jsonl" in bundles[1] and "manifest.json" in bundles[1]
    assert bundles[2] == bundles[1]
    assert bundles[8] == bundles[1]


def test_429_storm_ends_in_retries_or_ledger_entries(stub_server, tmp_path, monkeypatch):
    monkeypatch.setattr(gateway_module, "BACKOFF_BASE_S", 0.001)

    def refuse(body):
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).digest()
        if digest[0] % 7 == 0:
            return True  # refused at every attempt
        seen = sum(r["body"] == body for r in stub_server.requests)
        return digest[0] % 2 == 0 and seen == 1  # refused at the first attempt only

    stub_server.status_on_fail = 429
    stub_server.refuse = refuse
    stub_server.reply = _mock_reply
    config = _http_toy_config(tmp_path, stub_server, in_flight=8, max_attempts=2)
    result = run_pipeline(config)

    answered = sum(not r["refused"] for r in stub_server.requests)
    assert result.backend_calls == len(stub_server.requests) > answered
    lines = (result.output_dir / "cache.jsonl").read_text().splitlines()
    hashes = [json.loads(line)["hash"] for line in lines]
    assert len(hashes) == len(set(hashes)) == answered
    failed = 0
    for ledger in result.output_dir.glob("judgments/*.errors.json"):
        failed += len(json.loads(ledger.read_text())["failed_tasks"])
    assert failed > 0
    assert all(stage.status == "ran" for stage in result.outcomes)


def test_null_reply_content_is_a_ledger_entry_and_is_not_cached(stub_server, tmp_path, capsys):
    def nulled(text: str) -> bool:
        return "Passage:" in text and hashlib.sha256(text.encode()).digest()[0] % 3 == 0

    def reply(body):
        answer = _mock_reply(body)
        if nulled(body["messages"][0]["content"]):
            answer["choices"][0]["message"]["content"] = None  # as for a filtered reply
        return answer

    stub_server.reply = reply
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace(
        "backend = mock\n", f"backend = http\nendpoint = {_endpoint(stub_server)}\n"
    )
    config_path.write_text(text)
    assert main(["run", "--config", str(config_path)]) == 0
    sent = [r["body"]["messages"][0]["content"] for r in stub_server.requests]
    assert any(map(nulled, sent))

    out = tmp_path / "out"
    reasons = [
        task["reason"]
        for ledger in out.glob("judgments/*.errors.json")
        for task in json.loads(ledger.read_text())["failed_tasks"]
    ]
    assert reasons
    assert all(reason == "backend reply content is None, not a string" for reason in reasons)
    texts = [json.loads(line)["text"] for line in (out / "cache.jsonl").read_text().splitlines()]
    assert all(isinstance(t, str) for t in texts)
    assert len(texts) == len(set(sent) - set(filter(nulled, sent)))
    # a forced re-run asks the backend again for exactly the replies it did not cache
    assert main(["run", "--config", str(config_path), "--force"]) == 0
    resent = [r["body"]["messages"][0]["content"] for r in stub_server.requests[len(sent):]]
    assert set(resent) == set(filter(nulled, sent))
    capsys.readouterr()


def test_judge_subcommand_writes_the_ledger_of_its_failed_tasks(stub_server, tmp_path, capsys):
    def reply(body):
        answer = _mock_reply(body)
        text = body["messages"][0]["content"]
        if hashlib.sha256(text.encode()).digest()[0] % 3 == 0:
            answer["choices"][0]["message"]["content"] = None  # as for a filtered reply
        return answer

    stub_server.reply = reply
    config_path = build_toy_experiment(tmp_path)
    text = config_path.read_text().replace(
        "backend = mock\n", f"backend = http\nendpoint = {_endpoint(stub_server)}\n"
    )
    config_path.write_text(text)
    out = tmp_path / "judged.qrels"
    argv = [
        "judge", "--config", str(config_path), "--model", "mock-judge",
        "--out", str(out),
    ]
    assert main(argv) == 0
    failed = int(re.search(r"\((\d+) failed", capsys.readouterr().out).group(1))
    assert failed > 0
    ledger = json.loads((tmp_path / "judged.errors.json").read_text())
    reasons = [task["reason"] for task in ledger["failed_tasks"]]
    assert reasons == ["backend reply content is None, not a string"] * failed
