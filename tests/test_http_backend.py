"""HTTP backend against a local chat-completion stub server."""

from __future__ import annotations

import http.server
import json
import threading
from dataclasses import replace

import pytest

from conftest import build_toy_experiment, bundle_digests
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
        server.requests.append({"headers": dict(self.headers), "body": body})
        if server.remaining_failures > 0:
            server.remaining_failures -= 1
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


@pytest.fixture
def stub_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.remaining_failures = 0
    server.status_on_fail = 500
    server.reply = {
        "choices": [{"message": {"content": "grade: 2"}}],
        "usage": {"prompt_tokens": 40, "completion_tokens": 3},
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


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
    reply = backend.send(_request())
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
    reply = MockBackend(seed=7).send(request)
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
