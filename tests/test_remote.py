import base64
import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from cboost.backend import Backend, BackendInfo, CachingBackend, token_logprobs
from cboost import remote
from cboost.boosting import MAX_CONTEXT, BoostSpec, boosted_next_dist_batch
from cboost.cli import main
from cboost.errors import BackendError, ContractError
from cboost.remote import (
    BODY_ALLOWANCE,
    BODY_BYTES_PER_TOKEN,
    MAX_BATCH_ROWS,
    REPLY_TOL,
    BackendServer,
    RemoteBackend,
)
from cboost.tasks import LamaItem, eval_lama_style
from cboost.toy_lm import ToyBackend, ToyLMParams, WhitespaceTokenizer

from conftest import CountingBackend, SparseBackend


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    """Retries wait 10, 20 and 40 ms instead of the client's half-second base."""
    monkeypatch.setattr(remote, "BACKOFF_BASE_SECONDS", 0.01)


@pytest.fixture(scope="module")
def served(trained_params):
    backend = ToyBackend(trained_params, max_context=64)
    with BackendServer(backend) as server:
        yield backend, server


@pytest.fixture(scope="module")
def counted(trained_params):
    counting = CountingBackend(ToyBackend(trained_params, max_context=64))
    with BackendServer(counting) as server:
        yield counting, server


def make_client(server, **kw):
    return RemoteBackend(server.url, **kw)


class PathRecordingSession(requests.Session):
    """Records the path of every request the client sends."""

    def __init__(self):
        super().__init__()
        self.paths = []

    def request(self, method, url, *args, **kwargs):
        self.paths.append(urlsplit(url).path)
        return super().request(method, url, *args, **kwargs)


def random_contexts(n, vocab_size, max_len, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, n)
    return [tuple(rng.integers(0, vocab_size, length).tolist()) for length in lengths]


def f64le(rows):
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


class TestProtocol:
    def test_info(self, served):
        local, server = served
        client = make_client(server)
        info = client.info()
        assert info.vocab_size == 8
        assert info.max_context == 64
        assert info.name == local.info().name
        resp = requests.get(server.url + "/v1/info", timeout=5)
        assert resp.json()["max_batch_rows"] == MAX_BATCH_ROWS
        assert resp.json()["max_score_pairs"] == MAX_BATCH_ROWS

    def test_next_logprobs_roundtrip_exact(self, served):
        local, server = served
        client = make_client(server)
        ctx = (1, 2, 3, 4)
        assert np.array_equal(client.next_logprobs(ctx), local.next_logprobs(ctx))

    def test_next_logprobs_reply_bytes_unchanged(self):
        vec = np.array([np.log(0.5), np.log(0.25), -np.inf, np.log(0.125), -np.inf, np.log(0.125)])

        class WithZeros(Backend):
            def info(self):
                return BackendInfo(6, 16, "with-zeros")

            def next_logprobs(self, context):
                return vec

        with BackendServer(WithZeros()) as server:
            resp = requests.post(server.url + "/v1/next_logprobs", json={"tokens": [1]}, timeout=5)
        assert resp.status_code == 200
        assert resp.content == json.dumps({"logprobs": [float(x) for x in vec]}).encode("utf-8")
        assert b"-Infinity" in resp.content

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
        client = RemoteBackend(url)
        out = client.next_logprobs((0,))
        assert np.allclose(out, np.log(0.5))
        assert handler.hits == 3  # two failures + one success

    def test_exhausted_retries_raise_backend_error(self, flaky_server):
        url, handler = flaky_server
        handler.failures_left = 10**9
        client = RemoteBackend(url)
        with pytest.raises(BackendError, match="retries"):
            client.next_logprobs((0,))
        assert handler.hits == 4  # initial try + 3 retries

    def test_connection_refused_raises_backend_error(self):
        client = RemoteBackend("http://127.0.0.1:1")
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
    paths: list = []  # of the POSTs since start()

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
        cls.paths.append(self.path)
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
    """start(reply, status=200, info=None, session=None) -> (client, handler
    class)."""
    url, handler = _stub_httpd

    def start(reply, status=200, info=None, session=None):
        handler.reply, handler.status, handler.paths = reply, status, []
        handler.info = _StubHandler.INFO if info is None else info
        return RemoteBackend(url, session=session), handler

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
            ([QUARTER] * 3, "wrong length"),
            ([[QUARTER] * 4], "wrong length"),
        ],
        ids=["nan", "pos-inf", "unnormalized", "all-neg-inf", "past-tolerance", "short", "nested"],
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
         {"vocab_size": 1, "max_context": 16, "name": "x"},
         {"vocab_size": 8.5, "max_context": 16, "name": "x"},
         {"vocab_size": "8", "max_context": 16, "name": "x"},
         {"vocab_size": True, "max_context": 16, "name": "x"},
         {"vocab_size": 4, "max_context": 16.0, "name": "x"},
         {"vocab_size": 4, "max_context": True, "name": "x"},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_batch_rows": 0},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_batch_rows": -3},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_batch_rows": 8.0},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_batch_rows": "8"},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_batch_rows": True},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_batch_rows": None},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_score_pairs": 0},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_score_pairs": True},
         {"vocab_size": 4, "max_context": 16, "name": "x", "max_score_pairs": 8.0}],
        ids=["missing-fields", "wrong-type", "vocab-too-small", "vocab-float", "vocab-string",
             "vocab-bool", "context-float", "context-bool", "rows-zero", "rows-negative",
             "rows-float", "rows-string", "rows-bool", "rows-null", "pairs-zero", "pairs-bool",
             "pairs-float"],
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
        assert handler.paths == ["/v1/next_logprobs"]

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


BATCH_INFO = dict(_StubHandler.INFO, max_batch_rows=8)


class TestBatchExactness:
    @pytest.mark.parametrize(
        "n, requests_sent", [(1, 1), (MAX_BATCH_ROWS, 1), (MAX_BATCH_ROWS + 1, 2)]
    )
    def test_batch_equals_in_process_bit_for_bit(self, served, n, requests_sent):
        local, server = served
        session = PathRecordingSession()
        client = make_client(server, session=session)
        contexts = random_contexts(n, local.info().vocab_size, local.info().max_context, seed=n)
        got = client.next_logprobs_batch(contexts)
        assert np.array_equal(got, local.next_logprobs_batch(contexts))
        assert session.paths == ["/v1/info"] + ["/v1/next_logprobs_batch"] * requests_sent

    def test_zero_probability_rows_bit_for_bit(self):
        local = SparseBackend(16, seed=3)
        with BackendServer(local) as server:
            client = make_client(server)
            contexts = random_contexts(MAX_BATCH_ROWS + 1, 16, 64, seed=4)
            got = client.next_logprobs_batch(contexts)
        want = local.next_logprobs_batch(contexts)
        assert np.isneginf(want).any()
        assert np.array_equal(got, want)

    def test_one_row_is_next_logprobs(self, served):
        local, server = served
        session = PathRecordingSession()
        client = make_client(server, session=session)
        assert np.array_equal(client.next_logprobs((5, 1, 7)), local.next_logprobs((5, 1, 7)))
        assert session.paths == ["/v1/info", "/v1/next_logprobs_batch"]

    def test_empty_batch_sends_no_request(self, served):
        _, server = served
        session = PathRecordingSession()
        client = make_client(server, session=session)
        assert client.next_logprobs_batch([]).shape == (0, 8)
        assert session.paths == ["/v1/info"]

    def test_boosted_batch_through_cache_equals_in_process(self, served):
        local, server = served
        spec = BoostSpec(weights={MAX_CONTEXT: 1.5, 2: -0.5})
        contexts = random_contexts(40, local.info().vocab_size, 12, seed=9)
        client = CachingBackend(make_client(server))
        got = boosted_next_dist_batch(client, contexts, spec)
        assert np.array_equal(got, boosted_next_dist_batch(local, contexts, spec))

    def test_server_without_batch_endpoint_gets_one_json_request_per_row(self, stub_server):
        vec = [float(np.log(0.5)), -np.inf, float(np.log(0.25)), float(np.log(0.25))]
        client, handler = stub_server({"logprobs": vec})
        got = client.next_logprobs_batch([(0,), (1, 2), (3,)])
        assert handler.paths == ["/v1/next_logprobs"] * 3
        assert np.array_equal(got, np.array([vec] * 3))


class TestBatchReplyValidation:
    @pytest.mark.parametrize(
        "reply, match",
        [
            ({"logprobs_f64le": "not base64!"}, "malformed"),
            # decodes to three good rows once the stray character is skipped
            ({"logprobs_f64le": "*" + f64le([[QUARTER] * 4] * 3)}, "malformed"),
            ({"logprobs_f64le": f64le([[QUARTER] * 4] * 3)[:-1]}, "malformed"),
            ({"logprobs_f64le": f64le([[QUARTER] * 4] * 2)}, "bytes for 3 rows"),
            ({"logprobs_f64le": f64le([[QUARTER] * 4] * 4)}, "bytes for 3 rows"),
            ({"logprobs": [[QUARTER] * 4] * 3}, "malformed"),
            ({"logprobs_f64le": 7}, "malformed"),
            ({"logprobs_f64le": f64le([[QUARTER] * 4, [float("nan")] + [QUARTER] * 3,
                                       [QUARTER] * 4])}, "NaN"),
            ({"logprobs_f64le": f64le([[QUARTER] * 4, [QUARTER] * 4, [5.0, 1.0, 0.0, 0.0]])},
             "unnormalized.*row 2"),
        ],
        ids=["bad-base64", "stray-character", "bad-padding", "too-few-bytes", "too-many-bytes",
             "missing-field", "not-a-string", "nan-row", "unnormalized-row"],
    )
    def test_bad_batch_reply_is_backend_error_without_retry(self, stub_server, reply, match):
        client, handler = stub_server(reply, info=BATCH_INFO)
        with pytest.raises(BackendError, match=match):
            client.next_logprobs_batch([(0,), (1, 2), (3,)])
        assert handler.paths == ["/v1/next_logprobs_batch"]

    def test_good_batch_reply_accepted(self, stub_server):
        rows = [[QUARTER] * 4, [float(np.log(0.5)), float(np.log(0.5)), -np.inf, -np.inf]]
        client, handler = stub_server({"logprobs_f64le": f64le(rows)}, info=BATCH_INFO)
        assert np.array_equal(client.next_logprobs_batch([(0,), (1,)]), rows)

    def test_chunks_follow_advertised_rows(self, stub_server):
        client, handler = stub_server({"logprobs_f64le": f64le([[QUARTER] * 4] * 3)},
                                      info=dict(BATCH_INFO, max_batch_rows=3))
        assert client.next_logprobs_batch([(0,)] * 9).shape == (9, 4)
        assert handler.paths == ["/v1/next_logprobs_batch"] * 3


class TestBatchServerErrors:
    @pytest.mark.parametrize(
        "contexts, match",
        [
            ([], "1 to"),
            ([[1]] * (MAX_BATCH_ROWS + 1), "1 to"),
            ("[[1]]", "1 to"),
            ([[True]], "must be a list of integers"),
            ([[1, 2], [1.0]], "must be a list of integers"),
            ([[1, 2], 3], "must be a list of integers"),
            ([[1, 2], []], "non-empty"),
            ([[1, 2], [1] * 65], "max_context"),
        ],
        ids=["no-rows", "too-many-rows", "not-a-list", "bool-token", "float-token",
             "int-context", "empty-context", "over-max-context"],
    )
    def test_bad_batch_is_400_before_the_backend_runs(self, counted, contexts, match):
        counting, server = counted
        calls = counting.logprob_calls
        resp = requests.post(
            server.url + "/v1/next_logprobs_batch", json={"contexts": contexts}, timeout=5
        )
        assert resp.status_code == 400
        assert match in resp.json()["error"]
        assert counting.logprob_calls == calls

    def test_out_of_range_token_is_400(self, served):
        _, server = served
        resp = requests.post(
            server.url + "/v1/next_logprobs_batch", json={"contexts": [[1], [99]]}, timeout=5
        )
        assert resp.status_code == 400

    def test_missing_field_is_400(self, served):
        _, server = served
        resp = requests.post(
            server.url + "/v1/next_logprobs_batch", json={"tokens": [1]}, timeout=5
        )
        assert resp.status_code == 400

    def test_content_length_over_scaled_bound_is_400_without_reading(self, served):
        local, server = served
        bound = MAX_BATCH_ROWS * (BODY_BYTES_PER_TOKEN * local.info().max_context + BODY_ALLOWANCE)
        host, port = server.url[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=3)
        conn.putrequest("POST", "/v1/next_logprobs_batch")
        conn.putheader("Content-Length", str(bound + 1))
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400
        assert "Content-Length" in json.loads(resp.read())["error"]
        conn.close()

    def test_body_at_the_scaled_bound_is_read(self, served):
        local, server = served
        bound = MAX_BATCH_ROWS * (BODY_BYTES_PER_TOKEN * local.info().max_context + BODY_ALLOWANCE)
        body = json.dumps({"contexts": [[1, 2], [3]]}).ljust(bound).encode()
        resp = requests.post(server.url + "/v1/next_logprobs_batch", data=body, timeout=5)
        assert resp.status_code == 200
        rows = np.frombuffer(base64.b64decode(resp.json()["logprobs_f64le"]), dtype="<f8")
        assert np.array_equal(rows.reshape(2, 8), local.next_logprobs_batch([(1, 2), (3,)]))

    def test_internal_error_is_500(self):
        class Broken(Backend):
            def info(self):
                return BackendInfo(4, 16, "broken")

            def next_logprobs(self, context):
                raise RuntimeError("model crashed")

        with BackendServer(Broken()) as server:
            client = make_client(server)
            with pytest.raises(BackendError, match="HTTP 500"):
                client.next_logprobs_batch([(1,), (2,)])


# ---------------------------------------------------------------------------
# /v1/score_batch
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def served_sparse():
    backend = SparseBackend(8, seed=5)  # rows with -inf entries
    with BackendServer(backend) as server:
        yield backend, server


_pair_tokens = st.lists(st.integers(0, 7), min_size=1, max_size=6).map(tuple)
# repeats drawn from a small pool, as a LAMA item whose last-k context is
# its whole prompt repeats its pairs
_score_pairs = st.lists(st.tuples(_pair_tokens, _pair_tokens), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=12)
)


class TestScoreBatchExactness:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["toy", "sparse"]), _score_pairs)
    def test_equals_per_pair_bit_for_bit(self, served, served_sparse, kind, pairs):
        local, server = served if kind == "toy" else served_sparse
        client = make_client(server)
        expected = [local.score_continuation(c, k) for c, k in pairs]
        assert client.score_batch(pairs) == expected
        assert [client.score_continuation(c, k) for c, k in pairs] == expected

    def test_minus_inf_scores_arrive(self, served_sparse):
        local, server = served_sparse
        pairs = [((c,), (t, t)) for c in range(8) for t in range(8)]
        got = make_client(server).score_batch(pairs)
        assert -np.inf in got
        assert got == [local.score_continuation(*pair) for pair in pairs]

    def test_chunks_of_max_score_pairs(self, served):
        local, server = served
        session = PathRecordingSession()
        client = make_client(server, session=session)
        pairs = [((i % 8, 1), (i // 8 % 8,)) for i in range(2 * MAX_BATCH_ROWS + 1)]
        assert client.score_batch(pairs) == [local.score_continuation(*pair) for pair in pairs]
        assert session.paths == ["/v1/info"] + ["/v1/score_batch"] * 3

    def test_reply_equals_per_pair_score_replies(self, served):
        _, server = served
        pairs = [[[0, 1, 5], [2, 3, 7]], [[4], [4, 4]], [[0, 1, 5], [2, 3, 7]]]
        batch = requests.post(server.url + "/v1/score_batch", json={"pairs": pairs}, timeout=5)
        assert batch.status_code == 200
        singles = [
            requests.post(
                server.url + "/v1/score", json={"context": c, "continuation": k}, timeout=5
            ).json()
            for c, k in pairs
        ]
        assert batch.json() == {"scores": singles}

    @settings(max_examples=40, deadline=None)
    @given(_score_pairs)
    def test_cache_over_remote_counts_per_pair(self, served, pairs):
        local, server = served
        session = PathRecordingSession()
        batched = CachingBackend(make_client(server, session=session))
        per_pair = CachingBackend(local)
        expected = [per_pair.score_continuation(c, k) for c, k in pairs]
        assert batched.score_batch(pairs) == expected
        assert (batched.hits, batched.misses) == (per_pair.hits, per_pair.misses)
        assert session.paths == (["/v1/info", "/v1/score_batch"] if pairs else [])

    def test_server_without_score_batch_gets_one_score_per_pair(self, stub_server):
        session = PathRecordingSession()
        client, handler = stub_server({"logprob": -1.5, "per_token": [-1.0, -0.5]}, session=session)
        assert client.score_batch([((0,), (1, 2)), ((3,), (2, 1)), ((0,), (1, 2))]) == [-1.5] * 3
        assert session.paths == ["/v1/info"] + ["/v1/score"] * 3

    def test_lama_eval_sends_one_score_batch(self, tmp_path, monkeypatch):
        words = [f"w{i}" for i in range(6)]
        tokenizer = WhitespaceTokenizer(words)
        rng = np.random.default_rng(11)
        params = ToyLMParams(rng.normal(size=8), rng.normal(size=(3, 8, 8)))
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(words))
        item = LamaItem("q0", "w1 w2 w3 w4 w5", ("w0", "w1 w2", "w3", "w4 w0"), 2)
        data = tmp_path / "lama.jsonl"
        data.write_text(json.dumps(
            {"id": item.item_id, "prompt": item.prompt, "candidates": list(item.candidates),
             "gold": item.gold}
        ) + "\n")
        session = PathRecordingSession()
        monkeypatch.setattr(requests, "Session", lambda: session)
        report = tmp_path / "r.json"
        with BackendServer(CachingBackend(ToyBackend(params, tokenizer))) as server:
            rc = main([
                "eval", "--task", "lama", "--data", str(data), "--backend", f"remote:{server.url}",
                "--vocab", str(vocab), "--k", "2", "--alpha", "-0.5", "--report", str(report),
            ])
        assert rc == 0
        # 4 candidates under 2 contexts: one round trip where 8 /v1/score went
        assert session.paths == ["/v1/info", "/v1/score_batch"]
        local = eval_lama_style(ToyBackend(params, tokenizer), [item], 2, -0.5)
        assert json.loads(report.read_text())["per_item"] == local.per_item


SCORE_INFO = dict(_StubHandler.INFO, max_score_pairs=8)
GOOD_SCORE = {"logprob": -1.0, "per_token": [-1.0]}


class TestScoreBatchReplyValidation:
    @pytest.mark.parametrize(
        "reply, match",
        [
            ({"scores": [GOOD_SCORE] * 2}, "2 scores for 3 pairs"),
            ({"scores": [GOOD_SCORE] * 4}, "4 scores for 3 pairs"),
            ({"scores": [GOOD_SCORE, {"logprob": float("nan"), "per_token": [float("nan")]},
                         GOOD_SCORE]}, "invalid"),
            ({"scores": [GOOD_SCORE, GOOD_SCORE, {"logprob": 0.5, "per_token": [0.5]}]},
             "invalid"),
            ({"scores": [GOOD_SCORE, {"logprob": -1.0, "per_token": [-0.5, -0.5]}, GOOD_SCORE]},
             "2 per-token"),
            ({"scores": [{"logprob": -1.0, "per_token": [-0.5]}, GOOD_SCORE, GOOD_SCORE]},
             "sum to"),
            ({"scores": [GOOD_SCORE, [-1.0], GOOD_SCORE]}, "malformed score reply"),
            ({"scores": "many"}, "malformed score_batch"),
            ({"logprob": -1.0, "per_token": [-1.0]}, "malformed score_batch"),
            ([GOOD_SCORE] * 3, "malformed score_batch"),
        ],
        ids=["too-few", "too-many", "nan", "positive", "per-token-length", "bad-sum",
             "not-an-object", "not-a-list", "missing-field", "bare-list"],
    )
    def test_bad_reply_is_backend_error_without_retry(self, stub_server, reply, match):
        client, handler = stub_server(reply, info=SCORE_INFO)
        with pytest.raises(BackendError, match=match):
            client.score_batch([((0,), (1,)), ((1, 2), (3,)), ((3,), (2,))])
        assert handler.paths == ["/v1/score_batch"]

    def test_chunks_follow_advertised_pairs(self, stub_server):
        client, handler = stub_server({"scores": [GOOD_SCORE] * 3},
                                      info=dict(SCORE_INFO, max_score_pairs=3))
        assert client.score_batch([((0,), (1,))] * 9) == [-1.0] * 9
        assert handler.paths == ["/v1/score_batch"] * 3

    def test_pairs_checked_before_any_request(self, stub_server):
        client, handler = stub_server({"scores": [GOOD_SCORE]}, info=SCORE_INFO)
        with pytest.raises(ContractError):
            client.score_batch([((0,), (1,)), ((0,), ())])
        assert handler.paths == []

    def test_bad_reply_in_cli_eval_exit_3(self, stub_server, tmp_path, capsys):
        client, _ = stub_server({"scores": [GOOD_SCORE]}, info=SCORE_INFO)
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(["a", "b"]))
        data = tmp_path / "lama.jsonl"
        data.write_text(json.dumps({"id": 1, "prompt": "a b", "candidates": ["a", "b"], "gold": 0}))
        rc = main([
            "eval", "--task", "lama", "--data", str(data), "--backend", f"remote:{client.base_url}",
            "--vocab", str(vocab), "--k", "1", "--alpha", "-0.5", "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 3
        assert "1 scores for 4 pairs" in capsys.readouterr().err


class TestScoreBatchServerErrors:
    @pytest.mark.parametrize(
        "pairs, match",
        [
            ("[[1], [2]]", "1 to"),
            ({"context": [1], "continuation": [2]}, "1 to"),
            ([], "1 to"),
            ([[[1], [2]]] * (MAX_BATCH_ROWS + 1), "1 to"),
            ([[[1], [2]], [[1]]], "[context, continuation]"),
            ([[[1], [2]], [[1], [2], [3]]], "[context, continuation]"),
            ([[[1], [2]], 3], "[context, continuation]"),
            ([[[1], [2]], [[True], [2]]], "must be a list of integers"),
            ([[[1], [2]], [[1], [2.0]]], "must be a list of integers"),
            ([[[1], [2]], [[1], "2"]], "must be a list of integers"),
            ([[[1], [2]], [[], [2]]], "non-empty"),
            ([[[1], [2]], [[1] * 60, [2] * 5]], "exceeds max_context"),
            ([[[1], [2]], [[1], [99]]], "out of range"),
        ],
        ids=["string", "object", "no-pairs", "too-many-pairs", "one-part", "three-parts",
             "int-pair", "bool-token", "float-token", "string-continuation", "empty-context",
             "over-max-context", "out-of-range"],
    )
    def test_bad_batch_is_400_before_the_backend_runs(self, counted, pairs, match):
        counting, server = counted
        calls = counting.logprob_calls
        resp = requests.post(server.url + "/v1/score_batch", json={"pairs": pairs}, timeout=5)
        assert resp.status_code == 400
        assert match in resp.json()["error"]
        assert counting.logprob_calls == calls

    def test_missing_field_is_400(self, served):
        _, server = served
        resp = requests.post(server.url + "/v1/score_batch", json={"contexts": [[1]]}, timeout=5)
        assert resp.status_code == 400

    def test_content_length_over_scaled_bound_is_400_without_reading(self, served):
        local, server = served
        bound = MAX_BATCH_ROWS * (BODY_BYTES_PER_TOKEN * local.info().max_context + BODY_ALLOWANCE)
        host, port = server.url[len("http://"):].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=3)
        conn.putrequest("POST", "/v1/score_batch")
        conn.putheader("Content-Length", str(bound + 1))
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400
        assert "Content-Length" in json.loads(resp.read())["error"]
        conn.close()

    def test_body_at_the_scaled_bound_is_read(self, served):
        local, server = served
        bound = MAX_BATCH_ROWS * (BODY_BYTES_PER_TOKEN * local.info().max_context + BODY_ALLOWANCE)
        body = json.dumps({"pairs": [[[1, 2], [3]]]}).ljust(bound).encode()
        resp = requests.post(server.url + "/v1/score_batch", data=body, timeout=5)
        assert resp.status_code == 200
        assert resp.json()["scores"][0]["logprob"] == local.score_continuation((1, 2), (3,))
