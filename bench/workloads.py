"""The benchmark's four workloads.

Each workload drives the library entry points that one CLI command calls,
in a closed loop: one caller issues one op and waits for it before the
next.  Inputs come only from the run's seed.  A *pass* is one CLI-sized
invocation over a fixed, seeded input set and starts with cold caches, as
every CLI run does; the harness repeats passes until the run's time is
used.  Every pass of a run gets the same inputs, so the same op of each
pass does the same work from the same cache state, and the harness can
compare each op's times across passes.  Every pass runs the same mix of
op kinds in *rounds*, and the mix is chosen so that the median and
90th-percentile op latencies fall inside one kind's latencies rather than
on the edge between two kinds.  Where
ops of one kind would all be the same size, their sizes are spread evenly
over a range around the nominal one, in seeded order: on a machine whose
speed shifts between levels, a quantile inside a narrow cluster of equal
ops jumps with the share of slow time, where over a spread of sizes it
moves about as smoothly as a mean.  Every seed draws the same sizes, so
the quantiles do not depend on which sizes a seed happens to draw.

Correctness checks run after each op or pass, untimed and untraced.  A
failed check marks the op it concerns as failed.  Checks that re-run the
model on an uncached backend run on the first pass only (``check``); the
harness requires every later pass to reproduce the first pass's outputs
exactly.
"""

from __future__ import annotations

import math
import socket
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable
from urllib.parse import urlsplit

import numpy as np

import cboost.analysis as analysis
import cboost.boosting as boosting
import cboost.decode as decode
import cboost.dist as dist
import cboost.metrics as metrics
import cboost.tasks as tasks
import cboost.tuning as tuning
from cboost.backend import CachingBackend
from cboost.cli import parse_boost_arg
from cboost.remote import BackendServer, RemoteBackend
from cboost.rng import named_rng
from cboost.toy_lm import (
    ToyBackend,
    ToyLMParams,
    TrainConfig,
    WhitespaceTokenizer,
    train_uniform_scalarization,
)

from counters import ConnectionCounter, CountingSession, ModelTimer
from spans import Target, Tracer


@dataclass
class Op:
    kind: str
    seconds: float
    items: int = 0
    tokens: int = 0
    failed: bool = False


class PassAborted(Exception):
    """An op inside grid_search's evaluate hook raised; the pass stops."""


class Recorder:
    """Times ops, records their work and failures, and runs checks."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.checks = 0
        self.stats: dict = {}

    def op(self, kind: str, work: Callable, fn: Callable, *args):
        """Run ``fn(*args)`` as one timed op; ``work(result)`` gives its
        (items, tokens).  A raising op is recorded as failed and yields None."""
        if self.tracer is not None:
            self.tracer.op_id = len(self.ops)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # the op loop keeps running; the failure is reported
            self.ops.append(Op(kind, perf_counter() - t0, failed=True))
            self.failures.append(f"op {len(self.ops) - 1} ({kind}) raised:\n{traceback.format_exc()}")
            return None
        seconds = perf_counter() - t0
        items, tokens = work(result)
        self.ops.append(Op(kind, seconds, items, tokens))
        return result

    def check(self, ok: bool, op_index: int, what: str) -> None:
        self.checks += 1
        if not ok:
            self.ops[op_index].failed = True
            self.failures.append(f"op {op_index} ({self.ops[op_index].kind}): {what}")

    @contextmanager
    def untimed(self):
        if self.tracer is None:
            yield
        else:
            with self.tracer.paused():
                yield


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _spread_sizes(rng, lo: float, hi: float, n: int) -> list[int]:
    """``n`` sizes evenly spaced from ``lo`` to ``hi``, in seeded order."""
    return [int(v) for v in rng.permutation(np.linspace(lo, hi, n).round())]


class Workload:
    name = ""
    min_ops = 100  # a p90 needs at least ten samples beyond it
    one_cpu = False  # run the whole process on one CPU

    def setup(self, seed: int):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def run_pass(self, state, rec: Recorder, check: bool) -> list:
        """Run one pass and return its outputs (JSON-serializable); with
        ``check``, also run the costly reference checks."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep-copy: grid_search over alpha x k on the copy-source task
# ---------------------------------------------------------------------------

@dataclass
class SweepState:
    seed: int
    params: ToyLMParams
    val: list
    test: list
    train_s: float


class SweepCopy(Workload):
    name = "sweep-copy"

    def __init__(self, tiny: bool = False) -> None:
        self.val_items = 700
        if tiny:
            self.alpha_grid = [-0.5, 0.0]
            self.k_grid = [9]
            self.min_ops = 1
        else:
            self.alpha_grid = [round(a, 2) for a in np.arange(-1.0, 0.2001, 0.05)]
            self.k_grid = list(range(1, 13))

    def setup(self, seed: int) -> SweepState:
        task = tasks.make_copy_source_task(8, 200_000, 10, 0.7, seed, eval_len=2000)
        t0 = perf_counter()
        params = train_uniform_scalarization(
            task.train, TrainConfig(max_context=12, steps=12, seed=seed)
        )
        train_s = perf_counter() - t0
        val = task.items[: self.val_items]
        test = task.items[self.val_items : 2 * self.val_items]
        return SweepState(seed, params, val, test, train_s)

    def run_pass(self, state: SweepState, rec: Recorder, check: bool) -> list:
        backend = CachingBackend(ToyBackend(state.params))
        cell_ops: list[int] = []

        def evaluate(be, dataset, k, alpha, objective):
            score = rec.op(
                "cell", lambda s: (len(dataset), len(dataset)),
                tasks.evaluate_cell, be, dataset, k, alpha, objective,
            )
            if score is None:
                raise PassAborted
            cell_ops.append(len(rec.ops) - 1)
            return score

        try:
            result = boosting.grid_search(
                backend, state.val, self.k_grid, self.alpha_grid, evaluate=evaluate
            )
        except PassAborted:
            return [{"aborted": True}]

        with rec.untimed():
            table = result.table
            best = next(
                i for i, (k, a, _) in enumerate(table) if k == result.k and a == result.alpha
            )
            if check:
                rng = named_rng(state.seed, "bench-sweep-check")
                others = [i for i in range(len(table)) if i != best]
                picks = [best] + [int(i) for i in rng.choice(others, size=min(2, len(others)), replace=False)]
                plain = ToyBackend(state.params)
                for i in picks:
                    k, alpha, score = table[i]
                    again = tasks.eval_last_token(plain, state.val, k, alpha).accuracy
                    rec.check(
                        again == score, cell_ops[i], f"cell k={k} alpha={alpha} rescored {again!r} != {score!r}"
                    )
            test_score = tasks.evaluate_cell(backend, state.test, result.k, result.alpha)
            base_score = tasks.evaluate_cell(backend, state.test, result.k, 0.0)
            rec.check(
                result.alpha < 0 and test_score > base_score,
                cell_ops[best],
                f"paper claim: alpha*={result.alpha} test {test_score} vs base {base_score}",
            )
        return [
            {
                "table": [[k, a, s] for k, a, s in table],
                "best": [result.k, result.alpha, result.score],
                "test": test_score,
                "test_base": base_score,
            }
        ]


# ---------------------------------------------------------------------------
# generate-wide: boosted generation at V=512, round-robin over modes
# ---------------------------------------------------------------------------

MODES = ("greedy", "topp", "beam")


@dataclass
class GenerateState:
    seed: int
    params: ToyLMParams
    spec: boosting.BoostSpec


def synthetic_params(seed: int, name: str, vocab: int, lag_depth: int, decay: float) -> ToyLMParams:
    """Seeded random lag tables whose scale decays with lag distance."""
    rng = named_rng(seed, name)
    bias = rng.normal(0.0, 1.0, vocab)
    tables = rng.normal(0.0, 1.0, (lag_depth, vocab, vocab))
    tables *= (decay ** np.arange(lag_depth))[:, None, None]
    return ToyLMParams(bias, tables)


class GenerateWide(Workload):
    name = "generate-wide"
    boost = "4:-0.3"
    prompt_len = 32

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.vocab, self.lag_depth, self.rounds = 64, 4, 1
            self.new_tokens = {"greedy": 8, "topp": 8, "beam": 3}
            self.min_ops = 1
        else:
            self.vocab, self.lag_depth, self.rounds = 512, 8, 12
            # beam-4 costs about 20x greedy per token at V=512; these mean
            # lengths keep every mode under half of the pass's wall time
            self.new_tokens = {"greedy": 128, "topp": 128, "beam": 12}

    def setup(self, seed: int) -> GenerateState:
        params = synthetic_params(seed, "bench-generate-params", self.vocab, self.lag_depth, 0.7)
        return GenerateState(seed, params, parse_boost_arg(self.boost, None, None))

    def config(self, mode: str, n: int, spec, seed: int) -> decode.GenConfig:
        if mode == "greedy":
            return decode.GenConfig(max_new_tokens=n, mode="greedy", seed=seed, boost=spec)
        if mode == "topp":  # the CLI's --mode topp: sampling under top-p 0.95
            return decode.GenConfig(max_new_tokens=n, mode="sample", top_p=0.95, seed=seed, boost=spec)
        return decode.GenConfig(max_new_tokens=n, mode="beam", beam_width=4, seed=seed, boost=spec)

    def run_pass(self, state: GenerateState, rec: Recorder, check: bool) -> list:
        backend = CachingBackend(ToyBackend(state.params))
        rng = named_rng(state.seed, "bench-generate-pass")
        # each mode's lengths: mean/2 to 3*mean/2 over the pass's rounds
        lengths = {m: _spread_sizes(rng, n / 2, 3 * n / 2, self.rounds) for m, n in self.new_tokens.items()}
        outputs = []
        for r in range(self.rounds):
            for mode in MODES:
                prompt = _ints(rng.integers(0, self.vocab, self.prompt_len))
                n = lengths[mode][r]
                cfg = self.config(mode, n, state.spec, int(rng.integers(0, 2**31)))
                res = rec.op(
                    mode, lambda g: (1, len(g.tokens)),
                    decode.generate, backend, prompt, cfg,
                )
                idx = len(rec.ops) - 1
                if res is None:
                    outputs.append({"mode": mode, "raised": True})
                    continue
                with rec.untimed():
                    rec.check(res.error is None, idx, f"generation error: {res.error}")
                    if check and mode == "beam":
                        self._check_beam(state, prompt, cfg, res, idx, rec)
                outputs.append({"mode": mode, "prompt": list(prompt), "tokens": list(res.tokens)})
        return outputs

    @staticmethod
    def _check_beam(state, prompt, cfg, res, idx, rec) -> None:
        plain = ToyBackend(state.params)
        step_cfg = replace(cfg, mode="greedy", beam_width=None)
        greedy = decode.generate(plain, prompt, step_cfg)
        beam_lp = decode.sequence_logprob(plain, prompt, res.tokens, step_cfg)
        greedy_lp = decode.sequence_logprob(plain, prompt, greedy.tokens, step_cfg)
        rec.check(beam_lp >= greedy_lp, idx, f"beam logprob {beam_lp} < greedy {greedy_lp}")


# ---------------------------------------------------------------------------
# remote-eval: eval over CachingBackend(RemoteBackend) against BackendServer
# ---------------------------------------------------------------------------

@dataclass
class RemoteState:
    seed: int
    params: ToyLMParams
    tokenizer: WhitespaceTokenizer
    server: BackendServer
    thread: threading.Thread
    timer: ModelTimer
    connections: ConnectionCounter
    reference: ToyBackend


class RemoteEval(Workload):
    name = "remote-eval"
    # The client and the in-process server take turns under the GIL.  On one
    # CPU each round trip is a thread switch; across two it is a cross-CPU
    # wake-up, whose cost follows the other CPU's state and read 1.5x apart
    # from run to run on a two-core VM.
    one_cpu = True
    context_len = 16
    prompt_words = 12
    candidates = 4
    k = 2
    alpha = -0.5
    # two last-token items (two large replies each) to one LAMA item (eight
    # small replies), so neither kind holds the median op latency on its edge
    last_token_per_round = 2

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.vocab, self.rounds, self.min_ops = 64, 2, 1
        else:
            self.vocab, self.rounds = 2048, 30
        self.lag_depth = 4

    def setup(self, seed: int) -> RemoteState:
        params = synthetic_params(seed, "bench-remote-params", self.vocab, self.lag_depth, 1.0)
        tokenizer = WhitespaceTokenizer([f"w{i}" for i in range(self.vocab - 2)])
        # what `cboost serve` hands the server, wrapped to time the model
        timer = ModelTimer(CachingBackend(ToyBackend(params, tokenizer)))
        server = BackendServer(timer)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        connections = ConnectionCounter().install()
        return RemoteState(
            seed, params, tokenizer, server, thread, timer, connections, ToyBackend(params, tokenizer)
        )

    def teardown(self, state: RemoteState) -> None:
        state.connections.uninstall()
        stop_server(state.server)
        state.thread.join()

    def _items(self, state: RemoteState):
        rng = named_rng(state.seed, "bench-remote-items")
        words = state.tokenizer.id_to_word
        for r in range(self.rounds):
            for i in range(self.last_token_per_round):
                ctx = _ints(rng.integers(2, self.vocab, self.context_len))
                yield tasks.LastTokenItem(f"r{r}-{i}", ctx, int(rng.integers(2, self.vocab)))
            prompt = " ".join(words[t] for t in rng.integers(2, self.vocab, self.prompt_words))
            cands = tuple(
                " ".join(words[t] for t in rng.integers(2, self.vocab, int(rng.integers(1, 3))))
                for _ in range(self.candidates)
            )
            yield tasks.LamaItem(f"r{r}-lama", prompt, cands, int(rng.integers(0, self.candidates)))

    def run_pass(self, state: RemoteState, rec: Recorder, check: bool) -> list:
        # a cold server cache for every pass, as a fresh `cboost serve` has
        state.timer.inner = CachingBackend(ToyBackend(state.params, state.tokenizer))
        session = CountingSession()
        # built as load_backend builds "remote:URL" with a vocabulary file
        client = CachingBackend(RemoteBackend(state.server.url, tokenizer=state.tokenizer, session=session))
        conn0, model_s0 = state.connections.connections, state.timer.seconds
        outputs = []
        try:
            for item in self._items(state):
                if isinstance(item, tasks.LastTokenItem):
                    kind, fn, tokens = "lasttoken", tasks.eval_last_token, 1
                else:
                    kind, fn = "lama", tasks.eval_lama_style
                    tokens = sum(len(state.tokenizer.encode(c)) for c in item.candidates)
                res = rec.op(kind, lambda _: (1, tokens), fn, client, [item], self.k, self.alpha)
                idx = len(rec.ops) - 1
                if res is None:
                    outputs.append({"id": item.item_id, "raised": True})
                    continue
                if check:
                    with rec.untimed():
                        ref = fn(state.reference, [item], self.k, self.alpha)
                        rec.check(
                            res.per_item == ref.per_item, idx, f"item {item.item_id} differs from in-process eval"
                        )
                outputs.extend(res.per_item)
        finally:
            session.close()
        rec.stats = {
            "requests": session.requests,
            "rtt_s": session.rtt_s,
            "bytes": session.bytes_sent + session.bytes_received,
            "connections": state.connections.connections - conn0,
            "model_s": state.timer.seconds - model_s0,
        }
        return outputs


def stop_server(server: BackendServer) -> None:
    """Stop ``server`` without waiting on its poll timeout.

    ``stop()`` sets a flag that the serve loop reads only when its poll
    returns.  A process idle in nothing but that timed poll was seen to
    stall for good, now and then, so connections wake the poll by I/O
    until the loop has ended and the socket is closed.  A connection
    attempt gives up after 0.1 s: one that reaches a closing socket can
    otherwise wait for SYN retries.
    """
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    address = urlsplit(server.url)
    while stopper.is_alive():
        try:
            socket.create_connection((address.hostname, address.port), timeout=0.1).close()
        except OSError:  # refused or timed out once the socket is closing
            pass
    stopper.join()


# ---------------------------------------------------------------------------
# distill-metrics: tune, metrics and analyze on the trained copy-source model
# ---------------------------------------------------------------------------

@dataclass
class DistillState:
    seed: int
    params: ToyLMParams
    spec: boosting.BoostSpec
    heldout: tuple
    documents: list[metrics.Document]
    train_s: float


class DistillMetrics(Workload):
    name = "distill-metrics"
    boost = "5:-0.5"
    k = 5
    short_len = 5
    train_len = 200_000
    doc_len = 125
    seq_len = 32

    def __init__(self, tiny: bool = False) -> None:
        # criterion 6's well-trained model: at the default 12-step budget the
        # boosted target barely differs from the base and tuning KL grows
        self.train_steps = 3000
        if tiny:
            self.heldout_len, self.docs, self.rounds, self.min_ops = 2000, 4, 1, 1
        else:
            self.heldout_len, self.docs, self.rounds = 20_000, 16, 4
        # two generation files per round, each scored by its own report op,
        # so a round is tune, report, report, derivative, pareto: the median
        # op is a report and the 90th percentile a tune call.  The files of
        # a pass hold a quarter to three quarters of the sampled documents.
        self.corpora = 2
        # eight steps of six to ten sequences: enough updates that the KL
        # trace falls within one call
        self.tune_steps, self.tune_batch = 8, (6, 10)

    def setup(self, seed: int) -> DistillState:
        stream = tasks.make_copy_source_task(
            8, self.train_len + self.heldout_len, 10, 0.7, seed, eval_len=0
        ).train
        t0 = perf_counter()
        params = train_uniform_scalarization(
            stream[: self.train_len], TrainConfig(max_context=12, steps=self.train_steps, seed=seed)
        )
        train_s = perf_counter() - t0
        spec = parse_boost_arg(self.boost, ToyBackend(params), None)
        sampler = ToyBackend(params)
        rng = named_rng(seed, "bench-distill-corpus")
        docs = []
        for _ in range(self.docs):
            cfg = decode.GenConfig(max_new_tokens=self.doc_len, mode="sample", seed=int(rng.integers(0, 2**31)))
            docs.append(metrics.Document(tokens=decode.generate(sampler, (0,), cfg).tokens, prompt=(0,)))
        return DistillState(seed, params, spec, stream[self.train_len :], docs, train_s)

    def run_pass(self, state: DistillState, rec: Recorder, check: bool) -> list:
        rng = named_rng(state.seed, "bench-distill-pass")
        heldout_positions = len(state.heldout) - state.params.lag_depth
        batches = _spread_sizes(rng, *self.tune_batch, self.rounds)
        file_sizes = iter(_spread_sizes(rng, self.docs / 4, 3 * self.docs / 4, self.rounds * self.corpora))
        outputs = []
        for r in range(self.rounds):
            cfg = tuning.TuneConfig(
                spec=state.spec, steps=self.tune_steps, batch=batches[r],
                seq_len=self.seq_len, seed=int(rng.integers(0, 2**31)),
            )
            n = cfg.steps * cfg.batch * (cfg.seq_len - 1)
            res = rec.op("tune", lambda _: (n, n), tuning.coherence_tune, state.params, cfg)
            if res is not None:
                with rec.untimed():
                    trace = res.kl_trace
                    rec.check(trace[-1] < trace[0], len(rec.ops) - 1, f"KL {trace[0]} -> {trace[-1]}")
                outputs.append({"kl_trace": trace})

            for _ in range(self.corpora):
                picks = sorted(int(i) for i in rng.choice(self.docs, size=next(file_sizes), replace=False))
                corpus = metrics.Corpus([state.documents[i] for i in picks])
                positions = sum(len(d.tokens) for d in corpus.documents)
                res = rec.op(
                    "report", lambda _: (positions, positions),
                    metrics.coherence_report, corpus,
                    CachingBackend(ToyBackend(state.params)), (50, 100), self.short_len,
                )
                if res is not None:
                    report = res.to_dict()
                    with rec.untimed():
                        rec.check(_finite(report.values()), len(rec.ops) - 1, f"non-finite report {report}")
                    outputs.append(report)

            res = rec.op(
                "derivative", lambda _: (heldout_positions, heldout_positions),
                analysis.boost_derivative_check, state.params, state.heldout, self.k,
            )
            if res is not None:
                with rec.untimed():
                    gap = abs(res.analytic_derivative - res.fd_derivative)
                    # the acceptance suite's tolerance for the derivative identity
                    rec.check(gap <= 1e-4, len(rec.ops) - 1, f"derivative gap {gap}")
                outputs.append(res.to_dict())

            res = rec.op(
                "pareto", lambda _: (heldout_positions, heldout_positions),
                analysis.pareto_profile, state.params, state.heldout,
            )
            if res is not None:
                profile = res.to_dict()
                with rec.untimed():
                    values = profile["per_length_nll"] + profile["kl_from_max"]
                    rec.check(_finite(values), len(rec.ops) - 1, "non-finite pareto profile")
                outputs.append(profile)
        return outputs


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SweepCopy, GenerateWide, RemoteEval, DistillMetrics)
}


# ---------------------------------------------------------------------------
# What the traced run wraps
# ---------------------------------------------------------------------------

def _count_items(tracer: Tracer, idx, args, result, pre) -> None:
    tracer.count("tasks.items", len(args[1]))


def _cache_hits(args):
    return args[0].hits


def _cache_after(tracer: Tracer, idx, args, result, hits_before) -> None:
    if args[0].hits > hits_before:
        tracer.count("backend.cache.hits")


def _cache_vector_after(tracer: Tracer, idx, args, result, hits_before) -> None:
    cache = args[0]
    if cache.hits > hits_before:
        tracer.count("backend.cache.hits")
    else:
        tracer.count(("backend.cache.vectors", id(cache), len(result)))


def _step_after(tracer: Tracer, idx, args, result, pre) -> None:
    parent = tracer.parent[idx]
    if parent >= 0 and tracer.names[tracer.name[parent]] == "decode.beam_search":
        tracer.count("decode.beam.candidates", int(np.count_nonzero(result > 0)))


def layer_targets() -> list[Target]:
    return [
        Target(tasks, "evaluate_cell", "tasks.evaluate_cell"),
        Target(tasks, "eval_last_token", "tasks.eval", after=_count_items),
        Target(tasks, "eval_lama_style", "tasks.eval", after=_count_items),
        Target(tasks, "eval_multiple_choice", "tasks.eval", after=_count_items),
        Target(boosting, "grid_search", "boosting.grid_search"),
        Target(boosting, "boosted_next_dist", "boosting.boosted_next_dist"),
        Target(boosting, "resolve_expert_contexts", "boosting.resolve_expert_contexts"),
        Target(boosting, "score_choice", "boosting.score_choice"),
        Target(dist, "log_linear_mix", "dist.log_linear_mix"),
        Target(dist, "log_softmax", "dist.log_softmax"),
        Target(dist, "truncate_top_p", "dist.truncate"),
        Target(dist, "truncate_top_k", "dist.truncate"),
        Target(CachingBackend, "next_logprobs", "backend.cache", _cache_hits, _cache_vector_after),
        Target(CachingBackend, "score_continuation", "backend.cache", _cache_hits, _cache_after),
        Target(ToyBackend, "next_logprobs", "toy_lm.forward"),
        Target(decode, "generate", "decode.generate"),
        Target(decode, "beam_search", "decode.beam_search"),
        Target(decode, "step_dist", "decode.step_dist", after=_step_after),
        Target(decode, "sequence_logprob", "decode.sequence_logprob"),
        Target(RemoteBackend, "next_logprobs", "remote.client"),
        Target(RemoteBackend, "score_continuation", "remote.client"),
        Target(tuning, "coherence_tune", "tuning.coherence_tune"),
        Target(tuning, "sample_sequences", "tuning.sample_sequences"),
        Target(tuning, "kl_and_gradient", "tuning.kl_and_gradient"),
        Target(metrics, "coherence_report", "metrics.coherence_report"),
        Target(analysis, "boost_derivative_check", "analysis.boost_derivative_check"),
        Target(analysis, "pareto_profile", "analysis.pareto_profile"),
    ]
