import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import requests

from cboost.backend import Backend, BackendInfo, CachingBackend, token_logprobs
from cboost.errors import BackendError, ContractError
from cboost.remote import (
    BODY_ALLOWANCE,
    BODY_BYTES_PER_TOKEN,
    REPLY_TOL,
    BackendServer,
    RemoteBackend,
)
from cboost.toy_lm import ToyBackend

from conftest import CountingBackend


@pytest.fixture(scope="module")
def served(trained_params):
    backend = ToyBackend(trained_params, max_context=64)
    with BackendServer(backend) as server:
        yield backend, server


@pytest.fixture(scope="module")
def counted(trained_params):
    counting = CountingBackend(ToyBackend(trained_params))
    with BackendServer(counting) as server:
        yield counting, server


def make_client(server, **kw):
    kw.setdefault("backoff_base", 0.01)
    return RemoteBackend(server.url, **kw)


class TestProtocol:
    def test_info(self, served):
        local, server = served
        client = make_client(server)
        info = client.info()
        assert info.vocab_size == 8
        assert info.max_context == 64
        assert info.name == local.info().name

    def test_next_logprobs_roundtrip_exact(self, served):
        local, server = served
        client = make_client(server)
        ctx = (1, 2, 3, 4)
        assert np.array_equal(client.next_logprobs(ctx), local.next_logprobs(ctx))

    def test_score_roundtrip(self, served):
        local, server = served
        client = make_client(server)
        got = client.score_continuation((0, 1), (2, 3))
        assert abs(got - local.score_continuation((0, 1), (2, 3))) < 1e-12

    def test_score_per_token_field(self, served):
        local, server = served
        resp = requests.post(
            server.url + "/v1/score",
            json={"context": [0, 1], "continuation": [2, 3]},
            timeout=5,
        )
        body = resp.json()
        assert resp.status_code == 200
        assert len(body["per_token"]) == 2
        assert abs(sum(body["per_token"]) - body["logprob"]) < 1e-12

    def test_score_per_token_equals_in_process_terms(self, served):
        local, server = served
        ctx, cont = (0, 1, 5), (2, 3, 7, 1, 1)
        body = requests.post(
            server.url + "/v1/score",
            json={"context": list(ctx), "continuation": list(cont)},
            timeout=5,
        ).json()
        gather = [float(local.next_logprobs(ctx + cont[:i])[tok]) for i, tok in enumerate(cont)]
        assert body["per_token"] == gather
        assert body["per_token"] == token_logprobs(local, ctx + cont, 3, 64).tolist()
        assert body["logprob"] == local.score_continuation(ctx, cont)

    def test_score_over_budget_is_400(self, served):
        _, server = served
        resp = requests.post(
            server.url + "/v1/score", json={"context": [1] * 60, "continuation": [2] * 5}, timeout=5
        )
        assert resp.status_code == 400

    @pytest.mark.parametrize("length", ["-1", "999999999", "bound+1"])
    def test_bad_content_length_is_400_without_reading(self, served, length):
        local, server = served
        bound = BODY_BYTES_PER_TOKEN * local.info().max_context + BODY_ALLOWANCE
        host, port = server.url[len("http://"):].split(":")
        # no body follows: a server that tried to read one would wait
        # until the socket timeout fails the test
        conn = http.client.HTTPConnection(host, int(port), timeout=3)
        conn.putrequest("POST", "/v1/next_logprobs")
        conn.putheader("Content-Length", str(bound + 1) if length == "bound+1" else length)
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400
        assert "Content-Length" in json.loads(resp.read())["error"]
        conn.close()

    def test_body_at_the_bound_is_read(self, served):
        local, server = served
        bound = BODY_BYTES_PER_TOKEN * local.info().max_context + BODY_ALLOWANCE
        body = json.dumps({"tokens": [1, 2]}).ljust(bound).encode()
        resp = requests.post(server.url + "/v1/next_logprobs", data=body, timeout=5)
        assert resp.status_code == 200
        assert np.array_equal(resp.json()["logprobs"], local.next_logprobs((1, 2)))

    def test_malformed_body_is_400(self, served):
        _, server = served
        resp = requests.post(server.url + "/v1/next_logprobs", data=b"not json", timeout=5)
        assert resp.status_code == 400

    def test_contract_violation_is_400(self, served):
        _, server = served
        resp = requests.post(
            server.url + "/v1/next_logprobs", json={"tokens": []}, timeout=5
        )
        assert resp.status_code == 400

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/next_logprobs", {"tokens": [1.9]}),
            ("/v1/next_logprobs", {"tokens": [True]}),
            ("/v1/next_logprobs", {"tokens": ["1"]}),
            ("/v1/next_logprobs", {"tokens": "abc"}),
            ("/v1/score", {"context": "12", "continuation": [3]}),
            ("/v1/score", {"context": [1, 2], "continuation": [3.0]}),
        ],
        ids=["float", "bool", "string-id", "string", "string-context", "float-continuation"],
    )
    def test_token_list_not_of_integers_is_400(self, counted, path, body):
        counting, server = counted
        calls = counting.logprob_calls
        resp = requests.post(server.url + path, json=body, timeout=5)
        assert resp.status_code == 400
        assert "must be a list of integers" in resp.json()["error"]
        assert counting.logprob_calls == calls  # checked before the backend runs

    def test_unknown_path_is_400(self, served):
        _, server = served
        resp = requests.get(server.url + "/v1/bogus", timeout=5)
        assert resp.status_code == 400

    def test_client_maps_400_to_contract_error(self, served):
        _, server = served
        client = make_client(server)
        with pytest.raises(ContractError):
            client.next_logprobs(tuple([0] * 100))  # beyond server max_context


class _FlakyHandler(BaseHTTPRequestHandler):
    failures_left = 2
    hits = 0

    def log_message(self, *a):
        pass

    def do_POST(self):
        cls = type(self)
        cls.hits += 1
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        if cls.failures_left > 0:
            cls.failures_left -= 1
            self.send_response(503)
            self.end_headers()
            return
        body = json.dumps({"logprobs": [float(np.log(0.5))] * 2}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        body = json.dumps({"vocab_size": 2, "max_context": 16, "name": "flaky"}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def flaky_server():
    handler = type("Handler", (_FlakyHandler,), {"failures_left": 2, "hits": 0})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}", handler
    httpd.shutdown()
    httpd.server_close()


class TestRetries:
    def test_transient_503_retried(self, flaky_server):
        url, handler = flaky_server
        client = RemoteBackend(url, backoff_base=0.01)
        out = client.next_logprobs((0,))
        assert np.allclose(out, np.log(0.5))
        assert handler.hits == 3  # two failures + one success

    def test_exhausted_retries_raise_backend_error(self, flaky_server):
        url, handler = flaky_server
        handler.failures_left = 10**9
        client = RemoteBackend(url, backoff_base=0.01)
        with pytest.raises(BackendError, match="retries"):
            client.next_logprobs((0,))
        assert handler.hits == 4  # initial try + 3 retries

    def test_connection_refused_raises_backend_error(self):
        client = RemoteBackend("http://127.0.0.1:1", backoff_base=0.001, timeout=0.2)
        with pytest.raises(BackendError):
            client.next_logprobs((0,))


class TestCachingOverRemote:
    def test_repeat_query_hits_no_http(self, served):
        _, server = served
        client = CachingBackend(make_client(server))
        a = client.next_logprobs((3, 2, 1))
        hits_before = client.hits
        b = client.next_logprobs((3, 2, 1))
        assert client.hits == hits_before + 1
        assert np.array_equal(a, b)

    def test_auth_header_sent(self, trained_params):
        seen = {}

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *a):
                pass

            def do_GET(self):
                seen["auth"] = self.headers.get("Authorization")
                body = json.dumps(
                    {"vocab_size": 8, "max_context": 64, "name": "auth-check"}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            host, port = httpd.server_address[:2]
            client = RemoteBackend(f"http://{host}:{port}", auth_header="Bearer sesame")
            client.info()
            assert seen["auth"] == "Bearer sesame"
        finally:
            httpd.shutdown()
            httpd.server_close()


class _StubHandler(BaseHTTPRequestHandler):
    """Answers /v1/info for a 4-token vocabulary and every POST with the
    class's fixed status and reply (a JSON value, or raw bytes)."""

    INFO = {"vocab_size": 4, "max_context": 16, "name": "stub"}
    status = 200
    reply: dict = {}
    info = INFO
    hits = 0

    def log_message(self, *a):
        pass

    def _send(self, code, payload):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._send(200, type(self).info)

    def do_POST(self):
        cls = type(self)
        cls.hits += 1
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._send(cls.status, cls.reply)


@pytest.fixture(scope="module")
def _stub_httpd():
    handler = type("Handler", (_StubHandler,), {})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}", handler
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture
def stub_server(_stub_httpd):
    """start(reply, status=200, info=None) -> (client, handler class)."""
    url, handler = _stub_httpd

    def start(reply, status=200, info=None):
        handler.reply, handler.status, handler.hits = reply, status, 0
        handler.info = _StubHandler.INFO if info is None else info
        return RemoteBackend(url, backoff_base=0.01), handler

    return start


QUARTER = float(np.log(0.25))


class TestReplyValidation:
    @pytest.mark.parametrize(
        "logprobs, match",
        [
            ([float("nan"), 0.0, 0.0, 0.0], "NaN"),
            ([float("inf"), -np.inf, -np.inf, -np.inf], r"\+inf"),
            ([5.0, 1.0, 0.0, 0.0], "unnormalized"),
            ([-np.inf] * 4, "unnormalized"),
            ([QUARTER + 10 * REPLY_TOL] * 4, "unnormalized"),
        ],
        ids=["nan", "pos-inf", "unnormalized", "all-neg-inf", "past-tolerance"],
    )
    def test_bad_logprob_vector_is_backend_error(self, stub_server, logprobs, match):
        client, _ = stub_server({"logprobs": logprobs})
        with pytest.raises(BackendError, match=match):
            client.next_logprobs((0, 1))

    def test_vector_within_tolerance_accepted(self, stub_server):
        vec = [QUARTER + REPLY_TOL / 2] * 4
        client, _ = stub_server({"logprobs": vec})
        assert np.array_equal(client.next_logprobs((0,)), vec)

    def test_zero_probability_tokens_accepted(self, stub_server):
        vec = [float(np.log(0.5)), float(np.log(0.5)), -np.inf, -np.inf]
        client, _ = stub_server({"logprobs": vec})
        assert np.array_equal(client.next_logprobs((0,)), vec)

    @pytest.mark.parametrize(
        "reply, match",
        [
            ({"logprob": float("nan"), "per_token": [float("nan")]}, "invalid"),
            ({"logprob": float("inf"), "per_token": [float("inf")]}, "invalid"),
            ({"logprob": 5.0, "per_token": [5.0]}, "invalid"),
            ({"logprob": -1.0, "per_token": [-0.5, -0.5]}, "2 per-token"),
            ({"logprob": -1.0, "per_token": []}, "0 per-token"),
            ({"logprob": -1.0, "per_token": [-0.5]}, "sum to"),
            ({"logprob": -1.0, "per_token": [float("nan")]}, "sum to"),
        ],
        ids=["nan", "pos-inf", "positive", "too-many", "too-few", "bad-sum", "nan-term"],
    )
    def test_bad_score_is_backend_error(self, stub_server, reply, match):
        client, _ = stub_server(reply)
        with pytest.raises(BackendError, match=match):
            client.score_continuation((0, 1), (2,))

    @pytest.mark.parametrize(
        "reply", [{"oops": 1}, {"logprobs": "x", "logprob": [], "per_token": 3}, b"not json"],
        ids=["missing-fields", "wrong-types", "not-json"],
    )
    def test_malformed_reply_is_backend_error(self, stub_server, reply):
        client, _ = stub_server(reply)
        with pytest.raises(BackendError):
            client.next_logprobs((0,))
        with pytest.raises(BackendError):
            client.score_continuation((0,), (1,))

    @pytest.mark.parametrize(
        "info",
        [{"vocab_size": 4}, {"vocab_size": "many", "max_context": 16, "name": "x"},
         {"vocab_size": 1, "max_context": 16, "name": "x"}],
        ids=["missing-fields", "wrong-type", "vocab-too-small"],
    )
    def test_malformed_info_is_backend_error(self, stub_server, info):
        client, _ = stub_server({}, info=info)
        with pytest.raises(BackendError, match="info"):
            client.info()

    def test_zero_probability_score_accepted(self, stub_server):
        client, _ = stub_server({"logprob": -np.inf, "per_token": [-1.0, -np.inf]})
        assert client.score_continuation((0,), (1, 2)) == -np.inf

    def test_unnormalized_reference_server_reply_rejected(self):
        class Unnormalized(Backend):
            def info(self):
                return BackendInfo(4, 16, "unnormalized")

            def next_logprobs(self, context):
                return np.array([5.0, 1.0, 0.0, 0.0])

        with BackendServer(Unnormalized()) as server:
            client = make_client(server)
            with pytest.raises(BackendError):
                client.score_continuation((1,), (0,))  # would score +5.0
            with pytest.raises(BackendError):
                client.next_logprobs((1,))


class TestServerErrors:
    def test_500_not_retried(self, stub_server):
        client, handler = stub_server({"error": "boom"}, status=500)
        with pytest.raises(BackendError, match="HTTP 500"):
            client.next_logprobs((0,))
        assert handler.hits == 1

    def test_internal_error_is_500(self):
        class Broken(Backend):
            def info(self):
                return BackendInfo(4, 16, "broken")

            def next_logprobs(self, context):
                raise RuntimeError("model crashed")

        with BackendServer(Broken()) as server:
            resp = requests.post(server.url + "/v1/next_logprobs", json={"tokens": [1]}, timeout=5)
            assert resp.status_code == 500
            assert "model crashed" in resp.json()["error"]
