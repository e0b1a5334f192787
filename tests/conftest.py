"""Shared fixtures: trained toy models, synthetic tasks, and a table-driven
fake backend for hand-computed cases."""

from __future__ import annotations

import json
import math
from typing import Mapping, Sequence

import numpy as np
import pytest

from cboost import cli
from cboost.backend import Backend, BackendInfo, as_tokens
from cboost.dist import log_softmax
from cboost.tasks import make_copy_source_task
from cboost.toy_lm import (
    ToyBackend,
    TrainConfig,
    WhitespaceTokenizer,
    train_uniform_scalarization,
)


class TableBackend(Backend):
    """Backend with prescribed conditional distributions.

    ``table`` maps context tuples to probability vectors.  Lookups fall
    back to the longest matching suffix of the query context, then to the
    uniform distribution, so hand-written cases only need to pin the
    contexts they care about.
    """

    def __init__(
        self,
        vocab_size: int,
        table: Mapping[Sequence[int], Sequence[float]],
        max_context: int = 4096,
        tokenizer: WhitespaceTokenizer | None = None,
        name: str = "table",
    ):
        self.vocab_size = vocab_size
        self.table = {as_tokens(k): np.asarray(v, dtype=np.float64) for k, v in table.items()}
        for ctx, p in self.table.items():
            if p.shape != (vocab_size,):
                raise ValueError(f"bad distribution length for context {ctx}")
            if abs(p.sum() - 1.0) > 1e-9:
                raise ValueError(f"distribution for context {ctx} not normalized")
        self._info = BackendInfo(vocab_size, max_context, name)
        self.tokenizer = tokenizer
        self.calls = 0

    def info(self) -> BackendInfo:
        return self._info

    def next_logprobs(self, context):
        context = as_tokens(context)
        self._check_context(context)
        self.calls += 1
        for start in range(len(context)):
            suffix = context[start:]
            if suffix in self.table:
                with np.errstate(divide="ignore"):
                    return np.log(self.table[suffix])
        return np.full(self.vocab_size, -np.log(self.vocab_size))


class SparseBackend(Backend):
    """Seeded random next-token distributions in which some tokens have
    probability zero (-inf log-probability), one fixed draw per context."""

    def __init__(self, vocab_size: int, seed: int):
        self._info = BackendInfo(vocab_size, 64, "sparse")
        self.seed = seed

    def info(self) -> BackendInfo:
        return self._info

    def next_logprobs(self, context):
        context = as_tokens(context)
        self._check_context(context)
        rng = np.random.default_rng([self.seed, *context])
        logits = rng.normal(size=self._info.vocab_size) * 2
        logits[rng.random(logits.size) < 0.3] = -np.inf
        logits[rng.integers(logits.size)] = 0.0  # at least one live token
        return log_softmax(logits)


class CountingBackend(Backend):
    """Wrapper that counts the next_logprobs calls and the scored pairs
    reaching the inner backend."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.tokenizer = inner.tokenizer
        self.logprob_calls = 0
        self.score_calls = 0

    def info(self):
        return self.inner.info()

    def next_logprobs(self, context):
        self.logprob_calls += 1
        return self.inner.next_logprobs(context)

    def score_batch(self, pairs):
        pairs = list(pairs)
        self.score_calls += len(pairs)
        return self.inner.score_batch(pairs)


def _strict_constant(name: str) -> float:
    # -Infinity is what a zero-probability token legitimately scores
    if name != "-Infinity":
        raise AssertionError(f"CLI output holds the non-JSON constant {name}")
    return -math.inf


def load_strict(path: str, lines: bool = False) -> list:
    """The JSON values of a CLI output file, one per line with ``lines``,
    read by a parser that accepts -Infinity and rejects NaN and Infinity."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    chunks = text.splitlines() if lines else [text]
    return [json.loads(c, parse_constant=_strict_constant) for c in chunks if c.strip()]


@pytest.fixture(scope="session", autouse=True)
def strict_cli_outputs():
    """Every JSON report and generations file a CLI run writes is parsed
    strictly as soon as it is written; yields the list of checked paths."""
    checked: list[str] = []
    write_report, cmd_generate = cli.write_json_report, cli.cmd_generate

    def write_checked_report(path, payload):
        write_report(path, payload)
        load_strict(path)
        checked.append(path)

    def checked_generate(args):
        rc = cmd_generate(args)
        load_strict(args.out, lines=True)
        checked.append(args.out)
        return rc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "write_json_report", write_checked_report)
        mp.setattr(cli, "cmd_generate", checked_generate)
        yield checked


@pytest.fixture(scope="session")
def copy_task():
    """The desk-scale long-range benchmark: |V|=8, offset 10, q=0.7."""
    return make_copy_source_task(
        vocab_size=8, length=200_000, copy_offset=10, copy_prob=0.7, seed=1, eval_len=2000
    )


@pytest.fixture(scope="session")
def copy_heldout():
    """A held-out stream from the same process, different seed."""
    return make_copy_source_task(
        vocab_size=8, length=20_000, copy_offset=10, copy_prob=0.7, seed=7, eval_len=0
    ).train


@pytest.fixture(scope="session")
def undertrained_params(copy_task):
    """Copy-source model at the default (deliberately small) budget."""
    return train_uniform_scalarization(copy_task.train, TrainConfig())


@pytest.fixture(scope="session")
def trained_params(copy_task):
    """Well-trained copy-source model."""
    return train_uniform_scalarization(
        copy_task.train, TrainConfig(max_context=12, steps=3000, seed=0)
    )


@pytest.fixture(scope="session")
def trained_backend(trained_params):
    return ToyBackend(trained_params)


@pytest.fixture(scope="session")
def alternating_params():
    """Model fit on a deterministic alternating stream, lag depth 2."""
    corpus = tuple([0, 1] * 2000)
    return train_uniform_scalarization(
        corpus, TrainConfig(max_context=2, steps=2500, seed=0)
    )


@pytest.fixture(scope="session")
def uniform_backend():
    """Zero-parameter model: uniform predictions everywhere."""
    from cboost.toy_lm import ToyLMParams

    return ToyBackend(ToyLMParams.zeros(8, 3))
