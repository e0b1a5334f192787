"""Remote logit protocol: HTTP client and a reference server.

Wire format (JSON bodies, UTF-8):

    GET  /v1/info          -> {"vocab_size": int, "max_context": int, "name": str,
                               "max_batch_rows": int, "max_score_pairs": int}
    POST /v1/next_logprobs {"tokens": [int...]}
                           -> {"logprobs": [float x vocab_size]}
    POST /v1/next_logprobs_batch {"contexts": [[int...]...]}
                           -> {"logprobs_f64le": str}
    POST /v1/score         {"context": [int...], "continuation": [int...]}
                           -> {"logprob": float, "per_token": [float...]}
    POST /v1/score_batch   {"pairs": [[[int...], [int...]]...]}
                           -> {"scores": [{"logprob": float, "per_token": [float...]}...]}

``logprobs_f64le`` is the base64 of the (N, vocab_size) matrix of the N
contexts' next-token log-probabilities: row-major little-endian IEEE
float64, N * vocab_size * 8 bytes, so every value arrives exactly.  A
batch holds 1 to ``max_batch_rows`` contexts.  A score batch holds 1 to
``max_score_pairs`` [context, continuation] pairs, and its reply holds
one /v1/score reply per pair, in order.  Both limits are optional in
``/v1/info``: the client sends a server that does not give
``max_batch_rows`` one ``/v1/next_logprobs`` per context, and a server
that does not give ``max_score_pairs`` one ``/v1/score`` per pair.  The
integer fields of ``/v1/info`` must be JSON integers, and both limits at
least 1.

Status 400 signals a contract violation, 503 a transient overload and
500 an internal server error.  The reference server answers 400 to a
token list (tokens, context, continuation, each of contexts, each part
of a pair) that is not a JSON list of JSON integers, to a pair that is
not a list of two token lists, and to a batch of no contexts or pairs or
of more than ``MAX_BATCH_ROWS``; a batch is checked whole before the
backend runs.  It also answers 400, and closes the connection without
reading the body, when Content-Length is negative or exceeds
BODY_BYTES_PER_TOKEN bytes per token of the backend's max_context plus
BODY_ALLOWANCE, a bound ``MAX_BATCH_ROWS`` times larger for either batch.
The client retries only transient failures (connection errors and 503)
three times with exponential backoff before giving up; any other status
fails at once.  Replies are checked at the boundary: a reply must be
JSON with the fields above, a batch matrix must have the expected byte
length, every log-probability vector must be free of NaN and +inf and
normalized to within ``REPLY_TOL``, a score batch must hold one score
per pair, and a score must be a non-positive number whose ``per_token``
terms, one per continuation token, sum to it.  A reply that fails these
checks is the server's fault and raises ``BackendError``.  Any server
may implement the protocol; the bundled reference server wraps an
in-process backend.
"""

from __future__ import annotations

import base64
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence
from urllib.parse import urlsplit

import numpy as np
import requests

from .backend import Backend, BackendInfo, Tokens, as_tokens, scored_pairs
from .dist import LogProbs, logsumexp
from .errors import BackendError, ContractError

MAX_RETRIES = 3
BACKOFF_BASE_SECONDS = 0.5
TIMEOUT_SECONDS = 30.0  # per request
# How far a reply may stray from exact normalization (|logsumexp| of a
# next-token vector) or from exact summation (per_token against logprob,
# relative to |logprob| when that exceeds 1).  JSON round trips are exact,
# so only servers computing in lower precision come near it.
REPLY_TOL = 1e-6
# bound on a request body (see the module docstring); a token id takes at
# most 20 digits and a separator in JSON
BODY_BYTES_PER_TOKEN = 24
BODY_ALLOWANCE = 4096
# contexts one /v1/next_logprobs_batch request, and pairs one
# /v1/score_batch request, may carry, as the reference server advertises in
# /v1/info
MAX_BATCH_ROWS = 64


class RemoteBackend(Backend):
    """Client for a server speaking the remote logit protocol.

    The protocol is token-level only; pass a client-side ``tokenizer``
    matching the server's vocabulary to work with text inputs.
    """

    def __init__(
        self,
        base_url: str,
        auth_header: str | None = None,
        session: requests.Session | None = None,
        tokenizer=None,
    ):
        try:  # an unclosed IPv6 bracket or a port out of range raises ValueError
            parts = urlsplit(base_url)
            valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
        except ValueError:
            valid = False
        if not valid:
            raise ContractError(f"remote URL must be http(s)://host[:port], got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self._headers = {"Content-Type": "application/json"}
        if auth_header:
            self._headers["Authorization"] = auth_header
        self._session = session or requests.Session()
        self.tokenizer = tokenizer
        self._info: BackendInfo | None = None
        self._max_batch_rows: int | None = None  # None: no batch endpoint
        self._max_score_pairs: int | None = None  # None: no score batch endpoint

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        url = self.base_url + path
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
            try:
                resp = self._session.request(
                    method,
                    url,
                    data=None if body is None else json.dumps(body),
                    headers=self._headers,
                    timeout=TIMEOUT_SECONDS,
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise BackendError(f"server reply is not JSON: {exc}") from None
            if resp.status_code == 400:
                raise ContractError(f"server rejected request: {resp.text}")
            last_error = BackendError(f"HTTP {resp.status_code}: {resp.text}")
            if resp.status_code != 503:
                raise last_error  # a server bug does not go away by asking again
        raise BackendError(f"remote backend failed after {MAX_RETRIES} retries: {last_error}")

    def info(self) -> BackendInfo:
        if self._info is None:
            payload = self._request("GET", "/v1/info")
            try:
                info = BackendInfo(
                    vocab_size=_json_int(payload, "vocab_size"),
                    max_context=_json_int(payload, "max_context"),
                    name=str(payload["name"]),
                )
                rows = _json_limit(payload, "max_batch_rows")
                pairs = _json_limit(payload, "max_score_pairs")
            except (KeyError, TypeError, ValueError) as exc:
                raise BackendError(f"malformed info reply: {exc!r}") from None
            self._info, self._max_batch_rows, self._max_score_pairs = info, rows, pairs
        return self._info

    def next_logprobs(self, context: Sequence[int]) -> LogProbs:
        return self.next_logprobs_batch([context])[0]

    def next_logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """One /v1/next_logprobs_batch request per ``max_batch_rows``
        contexts, or one /v1/next_logprobs request per context when the
        server does not advertise the batch endpoint.  Every reply's rows
        are checked before the next request is sent."""
        contexts = [as_tokens(c) for c in contexts]
        for context in contexts:
            self._check_context(context)
        self.info()  # reads max_batch_rows with the rest of /v1/info
        step = self._max_batch_rows
        if step is None:
            chunks, fetch = [[c] for c in contexts], self._json_row
        else:
            chunks = [contexts[i : i + step] for i in range(0, len(contexts), step)]
            fetch = self._binary_rows
        parts = [self._checked_rows(fetch(chunk), len(chunk)) for chunk in chunks]
        return np.concatenate(parts) if parts else np.empty((0, self.info().vocab_size))

    def _json_row(self, contexts: list[Tokens]) -> np.ndarray:
        (context,) = contexts
        payload = self._request("POST", "/v1/next_logprobs", {"tokens": list(context)})
        try:
            # one row: a list of numbers becomes shape (1, V), anything else not
            return np.asarray([payload["logprobs"]], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed next_logprobs reply: {exc!r}") from None

    def _binary_rows(self, contexts: list[Tokens]) -> np.ndarray:
        payload = self._request(
            "POST", "/v1/next_logprobs_batch", {"contexts": [list(c) for c in contexts]}
        )
        try:
            raw = base64.b64decode(payload["logprobs_f64le"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed next_logprobs_batch reply: {exc!r}") from None
        v = self.info().vocab_size
        if len(raw) != len(contexts) * v * 8:
            raise BackendError(
                f"server returned {len(raw)} bytes for {len(contexts)} rows of "
                f"{v} float64 log-probabilities"
            )
        return np.frombuffer(raw, dtype="<f8").reshape(len(contexts), v)

    def _checked_rows(self, rows: np.ndarray, n: int) -> np.ndarray:
        """``rows``, the reply for ``n`` contexts, once it has shape
        (n, vocab_size) and every row is a normalized log-probability vector."""
        if rows.shape != (n, self.info().vocab_size):
            raise BackendError("server returned a logprob vector of the wrong length")
        if np.any(np.isnan(rows)) or np.any(rows == np.inf):
            raise BackendError("server returned a logprob vector with NaN or +inf entries")
        z = logsumexp(rows)
        bad = np.flatnonzero(~(np.abs(z) <= REPLY_TOL))
        if bad.size:
            row = bad[0]
            raise BackendError(
                f"server returned an unnormalized logprob vector: logsumexp={z[row]} in row {row}"
            )
        return rows

    def score_batch(self, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[float]:
        """One /v1/score_batch request per ``max_score_pairs`` pairs, or one
        /v1/score request per pair when the server does not advertise the
        score batch endpoint.  Every pair is checked before any score
        request, and every reply before the next request is sent."""
        pairs = [(as_tokens(c), as_tokens(k)) for c, k in pairs]
        for context, continuation in pairs:
            self._check_score_args(context, continuation)
        self.info()  # reads max_score_pairs with the rest of /v1/info
        step = self._max_score_pairs
        if step is None:
            chunks, fetch = [[p] for p in pairs], self._json_score
        else:
            chunks = [pairs[i : i + step] for i in range(0, len(pairs), step)]
            fetch = self._batch_scores
        return [
            _checked_score(reply, len(continuation))
            for chunk in chunks
            for reply, (_, continuation) in zip(fetch(chunk), chunk)
        ]

    def score_continuation(self, context: Sequence[int], continuation: Sequence[int]) -> float:
        # the client's own entry point, so that a tracer can wrap it
        return self.score_batch([(context, continuation)])[0]

    def _json_score(self, pairs: list[tuple[Tokens, Tokens]]) -> list:
        ((context, continuation),) = pairs
        body = {"context": list(context), "continuation": list(continuation)}
        return [self._request("POST", "/v1/score", body)]

    def _batch_scores(self, pairs: list[tuple[Tokens, Tokens]]) -> list:
        payload = self._request(
            "POST", "/v1/score_batch", {"pairs": [[list(c), list(k)] for c, k in pairs]}
        )
        try:
            replies = payload["scores"]
            if not isinstance(replies, list):
                raise TypeError(f"scores must be a list, got {replies!r}")
        except (KeyError, TypeError) as exc:
            raise BackendError(f"malformed score_batch reply: {exc!r}") from None
        if len(replies) != len(pairs):
            raise BackendError(f"server returned {len(replies)} scores for {len(pairs)} pairs")
        return replies


def _checked_score(reply, n: int) -> float:
    """The logprob of ``reply``, the score of a continuation of ``n`` tokens,
    once it is a non-positive number whose ``per_token`` terms, one per
    token, sum to it."""
    try:
        logprob = float(reply["logprob"])
        per_token = [float(x) for x in reply["per_token"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendError(f"malformed score reply: {exc!r}") from None
    if math.isnan(logprob) or logprob > 0:
        raise BackendError(f"server returned an invalid continuation logprob {logprob}")
    if len(per_token) != n:
        raise BackendError(
            f"server returned {len(per_token)} per-token logprobs for {n} continuation tokens"
        )
    total = sum(per_token)
    if total != logprob and not abs(total - logprob) <= REPLY_TOL * max(1.0, abs(logprob)):
        raise BackendError(f"server's per-token logprobs sum to {total}, not {logprob}")
    return logprob


def _json_int(payload: dict, field: str) -> int:
    """``payload[field]``, which must be a JSON integer."""
    value = payload[field]
    # bool is a subclass of int, and JSON true is not a count
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def _json_limit(payload: dict, field: str) -> int | None:
    """``payload[field]``, an optional JSON integer of at least 1; None
    when the field is absent."""
    if field not in payload:
        return None
    value = _json_int(payload, field)
    if value < 1:
        raise ValueError(f"{field} must be >= 1, got {value}")
    return value


def _score_replies(backend: Backend, pairs: list[tuple[Tokens, Tokens]]) -> list[dict]:
    """The {"logprob", "per_token"} reply of every pair, from one
    ``scored_pairs`` call: the per-pair scorer of /v1/score and
    /v1/score_batch."""
    scored = scored_pairs(backend, pairs)
    return [{"logprob": logprob, "per_token": terms.tolist()} for logprob, terms in scored]


def _token_list(tokens, field: str) -> tuple[int, ...]:
    """``tokens``, the request's ``field``, which must be a JSON list of
    JSON integers."""
    # bool is a subclass of int, and JSON true is not a token id
    if not (isinstance(tokens, list) and all(type(t) is int for t in tokens)):
        raise ContractError(f"{field} must be a list of integers")
    return tuple(tokens)


class _Handler(BaseHTTPRequestHandler):
    backend: Backend  # set on the server class

    def log_message(self, fmt, *args):  # quiet
        pass

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/v1/info":
            self._send(400, {"error": f"unknown path {self.path}"})
            return
        info = self.server.backend.info()  # type: ignore[attr-defined]
        self._send(
            200,
            {
                "vocab_size": info.vocab_size,
                "max_context": info.max_context,
                "name": info.name,
                "max_batch_rows": MAX_BATCH_ROWS,
                "max_score_pairs": MAX_BATCH_ROWS,
            },
        )

    def do_POST(self):
        backend: Backend = self.server.backend  # type: ignore[attr-defined]
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        bound = BODY_BYTES_PER_TOKEN * backend.info().max_context + BODY_ALLOWANCE
        if self.path in ("/v1/next_logprobs_batch", "/v1/score_batch"):
            bound *= MAX_BATCH_ROWS
        if not 0 <= length <= bound:
            # the body stays unread, so the connection cannot carry another request
            self.close_connection = True
            self._send(400, {"error": "bad Content-Length"})
            return
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError:
            self._send(400, {"error": "malformed JSON body"})
            return
        try:
            if self.path == "/v1/next_logprobs":
                vec = backend.next_logprobs(_token_list(body["tokens"], "tokens"))
                self._send(200, {"logprobs": np.asarray(vec, dtype=np.float64).tolist()})
            elif self.path == "/v1/next_logprobs_batch":
                contexts = body["contexts"]
                if not (isinstance(contexts, list) and 1 <= len(contexts) <= MAX_BATCH_ROWS):
                    raise ContractError(
                        f"contexts must be a list of 1 to {MAX_BATCH_ROWS} token lists"
                    )
                contexts = [_token_list(c, "each of contexts") for c in contexts]
                for context in contexts:
                    backend._check_context(context)
                rows = np.ascontiguousarray(backend.next_logprobs_batch(contexts), dtype="<f8")
                encoded = base64.b64encode(rows.tobytes()).decode("ascii")
                self._send(200, {"logprobs_f64le": encoded})
            elif self.path == "/v1/score":
                pair = (
                    _token_list(body["context"], "context"),
                    _token_list(body["continuation"], "continuation"),
                )
                self._send(200, _score_replies(backend, [pair])[0])
            elif self.path == "/v1/score_batch":
                pairs = body["pairs"]
                if not (isinstance(pairs, list) and 1 <= len(pairs) <= MAX_BATCH_ROWS):
                    raise ContractError(
                        f"pairs must be a list of 1 to {MAX_BATCH_ROWS} "
                        "[context, continuation] pairs"
                    )
                if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
                    raise ContractError("each of pairs must be a [context, continuation] list")
                pairs = [
                    (_token_list(c, "context"), _token_list(k, "continuation")) for c, k in pairs
                ]
                self._send(200, {"scores": _score_replies(backend, pairs)})
            else:
                self._send(400, {"error": f"unknown path {self.path}"})
        except (ContractError, KeyError, TypeError) as exc:
            self._send(400, {"error": str(exc)})
        except Exception as exc:
            self._send(500, {"error": str(exc)})


class BackendServer:
    """Threaded reference server exposing a backend over the protocol."""

    def __init__(self, backend: Backend, host: str = "127.0.0.1", port: int = 0):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.backend = backend  # type: ignore[attr-defined]
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "BackendServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def __enter__(self) -> "BackendServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
