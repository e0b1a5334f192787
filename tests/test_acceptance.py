"""Acceptance suite: every criterion gets one test that prints a PASS line
(run with `pytest tests/test_acceptance.py -s` to see them)."""

import json
import math
import re

import numpy as np
import pytest

from cboost.backend import CachingBackend
from cboost.boosting import MAX_CONTEXT, BoostSpec, grid_search, score_choice
from cboost.cli import main, vocab_sidecar_path
from cboost.decode import GenConfig, generate
from cboost.dist import kl_divergence, log_linear_mix, log_softmax, logsumexp
from cboost.metrics import (
    Corpus,
    Document,
    bleu,
    corpus_perplexity,
    delta,
    distinct_n,
    entropy_n,
    lr_score,
    rouge,
    zipf_coefficient,
)
from cboost.rng import named_rng
from cboost.tasks import MCItem, eval_last_token, eval_multiple_choice
from cboost.analysis import boost_derivative_check
from cboost.toy_lm import (
    ToyBackend,
    TrainConfig,
    WhitespaceTokenizer,
    train_uniform_scalarization,
    window_loss_and_gradient,
)
from cboost.tuning import TuneConfig, coherence_tune

from test_boosting import flip_params_and_tokenizer
from test_toy_lm import finite_difference_gradient, random_coords


def ok(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_01_product_of_experts_exactness():
    import mpmath as mp

    mp.mp.dps = 50
    a = mp.mpf("0.8") ** mp.mpf("1.5") * mp.mpf("0.5") ** mp.mpf("-0.5")
    b = mp.mpf("0.2") ** mp.mpf("1.5") * mp.mpf("0.5") ** mp.mpf("-0.5")
    oracle = np.array([float(a / (a + b)), float(b / (a + b))])
    got = np.exp(log_linear_mix([np.log([0.8, 0.2]), np.log([0.5, 0.5])], [1.5, -0.5]))
    assert np.max(np.abs(got - np.array([0.8889, 0.1111]))) <= 1e-4
    assert np.max(np.abs(got - oracle)) <= 1e-12

    rng = named_rng(1001, "acceptance-mixes")
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 4))
        experts = [log_softmax(rng.normal(size=n) * 3) for _ in range(k)]
        weights = list(rng.normal(size=k) * 2)
        worst = max(worst, abs(logsumexp(log_linear_mix(experts, weights))))
    assert worst <= 1e-9
    ok(f"criterion 1: product-of-experts mix exact (worst normalization {worst:.2e})")


def test_criterion_02_boosting_identities(trained_backend):
    # generate: alpha = 0 path byte-identical to the unboosted path
    cfg_plain = GenConfig(max_new_tokens=40, mode="sample", temperature=0.9, seed=11)
    spec0 = BoostSpec(weights={MAX_CONTEXT: 1.0, 5: 0.0})
    cfg_boost = GenConfig(
        max_new_tokens=40, mode="sample", temperature=0.9, seed=11, boost=spec0
    )
    a = generate(trained_backend, (1, 2, 3), cfg_plain)
    b = generate(trained_backend, (1, 2, 3), cfg_boost)
    assert json.dumps(a.tokens).encode() == json.dumps(b.tokens).encode()

    # eval_last_token: alpha = 0 equals the base path bit-for-bit
    items = [
        __import__("cboost.tasks", fromlist=["LastTokenItem"]).LastTokenItem(
            f"it{i}",
            tuple(int(t) for t in named_rng(i, "c2").integers(0, 8, size=12)),
            int(named_rng(i, "t2").integers(0, 8)),
        )
        for i in range(25)
    ]
    base = eval_last_token(trained_backend, items, None, 0.0)
    boosted = eval_last_token(trained_backend, items, 5, 0.0)
    assert base.accuracy == boosted.accuracy
    for x, y in zip(base.per_item, boosted.per_item):
        assert x["pred"] == y["pred"]
        assert x["logprob_target"] == y["logprob_target"]

    # eval_multiple_choice: alpha = 0 combined scores equal full scores exactly
    params, tok, _, _ = flip_params_and_tokenizer()
    mc_backend = ToyBackend(params, tok)
    mc_items = [MCItem("m0", "p q", "q", ("x", "y"), gold=1)]
    res = eval_multiple_choice(mc_backend, mc_items, alpha=0.0)
    for rec in res.per_item:
        for s in rec["scores"]:
            assert s["combined"] == s["full"]

    # alpha = -1 equals independently computed conditional PMI
    full, short = tok.encode("p q"), tok.encode("q")
    for choice in ("x", "y"):
        ans = tok.encode(choice)
        got = score_choice(mc_backend, full, short, ans, -1.0).combined
        pmi = mc_backend.score_continuation(full, ans) - mc_backend.score_continuation(
            short, ans
        )
        assert abs(got - pmi) <= 1e-12
    ok("criterion 2: alpha=0 paths byte-identical; alpha=-1 equals conditional PMI")


def test_criterion_03_gradient_check():
    rng = named_rng(1003, "acceptance-grad")
    checked = 0
    for cfg_idx in range(5):
        vocab = int(rng.integers(2, 7))
        lags = int(rng.integers(1, 5))
        params = __import__("cboost.toy_lm", fromlist=["ToyLMParams"]).ToyLMParams(
            rng.normal(size=vocab) * 0.5,
            rng.normal(size=(lags, vocab, vocab)) * 0.5,
        )
        window = tuple(int(t) for t in rng.integers(0, vocab, size=lags + 4))
        _, grad = window_loss_and_gradient(params, window)
        coords = random_coords(rng, vocab, lags, 50)
        fd = finite_difference_gradient(params, window, coords)
        analytic = np.asarray(
            [
                grad.bias[c[1]] if c[0] == "bias" else grad.lag_tables[c[1], c[2], c[3]]
                for c in coords
            ]
        )
        rel = np.abs(analytic - fd) / np.maximum(1e-8, np.maximum(np.abs(analytic), np.abs(fd)))
        assert np.max(rel) <= 1e-5
        checked += len(coords)
    assert checked >= 250
    ok(f"criterion 3: analytic gradient matches central differences on {checked} coordinates")


def test_criterion_04_desk_scale_qualitative_reproduction(copy_task):
    params = train_uniform_scalarization(copy_task.train, TrainConfig())
    backend = CachingBackend(ToyBackend(params))
    val = copy_task.items[: len(copy_task.items) // 2]
    test = copy_task.items[len(copy_task.items) // 2 :]
    alpha_grid = [round(a, 2) for a in np.arange(-1.0, 0.2001, 0.05)]
    result = grid_search(backend, val, list(range(1, 13)), alpha_grid)
    base_acc = eval_last_token(backend, test, None, 0.0).accuracy
    boosted_acc = eval_last_token(backend, test, result.k, result.alpha).accuracy
    assert result.alpha < 0
    assert boosted_acc - base_acc >= 0.02
    ok(
        f"criterion 4: copy-source sweep alpha*={result.alpha:g} (<0), "
        f"test {100 * base_acc:.2f}% -> {100 * boosted_acc:.2f}% "
        f"(+{100 * (boosted_acc - base_acc):.2f} points)"
    )


def test_criterion_05_derivative_identity(trained_params, copy_heldout):
    # k = max context: exactly zero analytic, negligible finite difference
    rep = boost_derivative_check(trained_params, copy_heldout, k=12, h=1e-3)
    assert rep.analytic_derivative == 0.0
    assert abs(rep.fd_derivative) <= 1e-6

    rng = named_rng(1005, "acceptance-derivative")
    worst = 0.0
    for trial in range(10):
        v = int(rng.integers(3, 8))
        lags = int(rng.integers(2, 6))
        stream = tuple(int(t) for t in rng.integers(0, v, size=4000))
        params = train_uniform_scalarization(
            stream,
            TrainConfig(max_context=lags, steps=int(rng.integers(30, 80)), seed=trial),
            vocab_size=v,
        )
        heldout = tuple(int(t) for t in rng.integers(0, v, size=1500))
        k = int(rng.integers(1, lags + 1))
        rep = boost_derivative_check(params, heldout, k=k, h=1e-3)
        worst = max(worst, abs(rep.analytic_derivative - rep.fd_derivative))
    assert worst <= 1e-4
    ok(f"criterion 5: derivative identity holds on 10 random models (worst gap {worst:.2e})")


def _self_generated_delta(params, n_docs=8, doc_len=125, seed=123, short_len=5):
    backend = ToyBackend(params)
    docs = []
    for i in range(n_docs):
        cfg = GenConfig(max_new_tokens=doc_len, mode="sample", seed=seed + i)
        out = generate(backend, (0,), cfg)
        docs.append(Document(tokens=out.tokens, prompt=(0,)))
    return delta(Corpus(docs), backend, short_len=short_len)


def test_criterion_06_coherence_tuning(trained_params):
    spec = BoostSpec(weights={MAX_CONTEXT: 1.5, 5: -0.5})
    cfg = TuneConfig(spec=spec, steps=32, batch=32, seq_len=32, seed=0)
    pre_delta = _self_generated_delta(trained_params)
    result = coherence_tune(trained_params, cfg)
    assert result.kl_trace[-1] < result.kl_trace[0]
    post_delta = _self_generated_delta(result.params)
    assert post_delta > pre_delta
    ok(
        f"criterion 6: tuning KL {result.kl_trace[0]:.4f} -> {result.kl_trace[-1]:.4f}, "
        f"self-generated delta {pre_delta:.4f} -> {post_delta:.4f}"
    )


def test_criterion_07_metric_oracles(uniform_backend):
    assert lr_score(Corpus.from_token_seqs([("a", "b", "a")]), 2) == 0.5
    assert distinct_n(Corpus.from_token_seqs([("a", "a", "b")]), 1) == 2 / 3
    assert abs(entropy_n(Corpus.from_token_seqs([("a", "a", "b")]), 1) - 0.6365) <= 1e-4
    assert abs(
        bleu(("the", "cat", "sat"), [("the", "cat", "sat", "down")], max_n=3) - 0.7165
    ) <= 1e-4
    assert rouge(("a", "b", "c", "d"), ("a", "c", "d"), "L").f1 == 6 / 7
    docs = [tuple([t] * c) for t, c in enumerate([1000, 500, 333, 250])]
    assert abs(zipf_coefficient(Corpus.from_token_seqs(docs)) - 1.0) <= 0.01
    assert abs(
        kl_divergence(np.array([0.8, 0.2]), np.array([0.5, 0.5])) - 0.19274
    ) <= 1e-5
    corpus = Corpus.from_token_seqs([(0, 1, 2, 3), (4, 5, 6)])
    assert abs(corpus_perplexity(corpus, uniform_backend) - 8.0) <= 1e-9
    ok("criterion 7: all eight metric oracles match their hand-computed values")


def test_criterion_08_chain_rule_and_cache(trained_params):
    plain = ToyBackend(trained_params)
    cached = CachingBackend(ToyBackend(trained_params))
    rng = named_rng(1008, "acceptance-chain")
    worst = 0.0
    for _ in range(1000):
        ctx = tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(1, 8)))
        a = tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(1, 4)))
        b = tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(1, 4)))
        whole = plain.score_continuation(ctx, a + b)
        split = plain.score_continuation(ctx, a) + plain.score_continuation(ctx + a, b)
        worst = max(worst, abs(whole - split))
        # cache on vs off: identical to the last bit
        assert cached.score_continuation(ctx, a + b) == whole
        assert np.array_equal(cached.next_logprobs(ctx), plain.next_logprobs(ctx))
        assert np.array_equal(cached.next_logprobs(ctx), cached.next_logprobs(ctx))
    assert worst <= 1e-9
    ok(f"criterion 8: chain rule holds on 1000 cases (worst {worst:.2e}); cache bit-identical")


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-cli")
    rng = named_rng(77, "acceptance-corpus")
    words = [f"w{i}" for i in range(6)]
    lines = [
        " ".join(words[int(t)] for t in rng.integers(0, 6, size=40)) for _ in range(50)
    ]
    (root / "corpus.txt").write_text("\n".join(lines), encoding="utf-8")
    with open(root / "items.jsonl", "w", encoding="utf-8") as f:
        for i in range(10):
            ctx = " ".join(words[int(t)] for t in rng.integers(0, 6, size=6))
            f.write(json.dumps({"id": f"i{i}", "context": ctx, "target": words[i % 6]}) + "\n")
    with open(root / "prompts.jsonl", "w", encoding="utf-8") as f:
        for i in range(3):
            f.write(json.dumps({"id": f"p{i}", "prompt": "w0 w1 w2"}) + "\n")
    model = root / "model.tlm"
    rc = main([
        "train", "--corpus", str(root / "corpus.txt"), "--max-context", "4",
        "--steps", "40", "--seed", "5", "--out", str(model),
    ])
    assert rc == 0
    return root


def test_criterion_09_table_shapes(cli_workspace):
    root = cli_workspace
    model = root / "model.tlm"
    gen = root / "gen.jsonl"
    rc = main([
        "generate", "--backend", f"toy:{model}", "--prompts", str(root / "prompts.jsonl"),
        "--mode", "sample", "--seed", "3", "--max-new-tokens", "25", "--out", str(gen),
    ])
    assert rc == 0
    metrics_report = root / "metrics.json"
    rc = main([
        "metrics", "--generations", str(gen), "--backend", f"toy:{model}",
        "--report", str(metrics_report), "--short-len", "3",
    ])
    assert rc == 0
    payload = json.load(open(metrics_report))
    header = payload["table"].splitlines()[0]
    for col in ("ppl", "BLEU-4", "Zipf", "rep %", "LR_50 %", "LR_100 %", "delta %", "LTF %"):
        assert col in header

    eval_report = root / "eval.json"
    rc = main([
        "eval", "--task", "lasttoken", "--data", str(root / "items.jsonl"),
        "--backend", f"toy:{model}", "--alpha", "-0.5", "--k", "2",
        "--report", str(eval_report),
    ])
    assert rc == 0
    payload = json.load(open(eval_report))
    assert {"accuracy", "alpha", "k"} <= set(payload)
    ok("criterion 9: metrics table carries the generation-metrics columns; eval reports (accuracy, alpha, k)")


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp":\s*"[^"]*"', '"timestamp": "X"', text)


def test_criterion_10_cli_determinism(cli_workspace):
    root = cli_workspace
    model = str(root / "model.tlm")
    corpus = str(root / "corpus.txt")
    items = str(root / "items.jsonl")
    prompts = str(root / "prompts.jsonl")

    runs = {
        "train": (
            ["train", "--corpus", corpus, "--max-context", "3", "--steps", "30",
             "--seed", "4", "--out", str(root / "det-train.tlm")],
            [str(root / "det-train.tlm"), str(root / "det-train.tlm.manifest.json")],
        ),
        "eval": (
            ["eval", "--task", "lasttoken", "--data", items, "--backend", f"toy:{model}",
             "--alpha", "-0.5", "--k", "2",
             "--report", str(root / "det-eval.json")],
            [str(root / "det-eval.json")],
        ),
        "sweep": (
            ["sweep", "--task", "lasttoken", "--backend", f"toy:{model}",
             "--val", items, "--test", items, "--alpha-grid=-0.5:0:0.25",
             "--k-grid", "1..3", "--report", str(root / "det-sweep.json")],
            [str(root / "det-sweep.json")],
        ),
        "generate": (
            ["generate", "--backend", f"toy:{model}", "--prompts", prompts,
             "--mode", "topp", "--p", "0.9", "--seed", "6",
             "--max-new-tokens", "15", "--out", str(root / "det-gen.jsonl")],
            [str(root / "det-gen.jsonl")],
        ),
        "tune": (
            ["tune", "--model", model, "--boost", "2:-0.4", "--steps", "3",
             "--batch", "4", "--seq-len", "8", "--lr", "0.5", "--seed", "8",
             "--out", str(root / "det-tuned.tlm"), "--trace", str(root / "det-trace.csv")],
            [str(root / "det-tuned.tlm"), str(root / "det-trace.csv")],
        ),
        "analyze": (
            ["analyze", "--model", model, "--heldout", corpus, "--k", "2",
             "--report", str(root / "det-analysis.json")],
            [str(root / "det-analysis.json")],
        ),
    }
    # metrics depends on a generations file; produce it once up front
    rc = main(runs["generate"][0])
    assert rc == 0
    runs["metrics"] = (
        ["metrics", "--generations", str(root / "det-gen.jsonl"),
         "--backend", f"toy:{model}", "--short-len", "3",
         "--report", str(root / "det-metrics.json")],
        [str(root / "det-metrics.json")],
    )

    for name, (argv, outputs) in runs.items():
        captures = []
        for _ in range(2):
            rc = main(argv)
            assert rc == 0, name
            captures.append(
                [strip_timestamp(open(p, "rb").read().decode("utf-8", "replace")) for p in outputs]
            )
        assert captures[0] == captures[1], f"{name} output not deterministic"
    ok(f"criterion 10: {len(runs)} CLI commands byte-identical across repeated runs")
