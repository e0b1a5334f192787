import struct
from pathlib import Path

import numpy as np
import pytest

from cboost.dist import MANY_ROWS, NARROW_WIDTH, log_softmax
from cboost.errors import ContractError
from cboost.rng import named_rng
from cboost.toy_lm import (
    EOT_TOKEN,
    MAGIC,
    ToyBackend,
    ToyLMParams,
    TrainConfig,
    UNK_TOKEN,
    WhitespaceTokenizer,
    _batch_loss_and_gradient,
    corpus_tokens,
    load_params,
    loss_profile,
    save_params,
    train_uniform_scalarization,
    window_loss_and_gradient,
)


def finite_difference_gradient(params, window, coords, h=1e-5):
    """Central-difference oracle for the window loss at chosen coordinates.

    Each coordinate is ("bias", i) or ("lag", j, a, w)."""
    out = []
    for coord in coords:
        plus = params.copy()
        minus = params.copy()
        if coord[0] == "bias":
            plus.bias[coord[1]] += h
            minus.bias[coord[1]] -= h
        else:
            _, j, a, w = coord
            plus.lag_tables[j, a, w] += h
            minus.lag_tables[j, a, w] -= h
        lp, _ = window_loss_and_gradient(plus, window)
        lm, _ = window_loss_and_gradient(minus, window)
        out.append((lp - lm) / (2 * h))
    return np.asarray(out)


def random_coords(rng, vocab, lags, n):
    coords = []
    for _ in range(n):
        if rng.random() < 0.2:
            coords.append(("bias", int(rng.integers(vocab))))
        else:
            coords.append(
                (
                    "lag",
                    int(rng.integers(lags)),
                    int(rng.integers(vocab)),
                    int(rng.integers(vocab)),
                )
            )
    return coords


class TestGradient:
    def test_uniform_single_prediction(self):
        params = ToyLMParams.zeros(2, 1)
        grad = window_loss_and_gradient(params, (1, 0))[1]  # predict token 0 after context [1]
        assert np.allclose(grad.bias, [-0.5, 0.5], atol=1e-15)
        assert np.allclose(grad.lag_tables[0][1], [-0.5, 0.5], atol=1e-15)
        assert np.allclose(grad.lag_tables[0][0], [0.0, 0.0], atol=1e-15)

    def test_matches_finite_differences(self):
        rng = named_rng(17, "grad-check")
        for cfg_idx in range(5):
            vocab = int(rng.integers(2, 6))
            lags = int(rng.integers(1, 5))
            params = ToyLMParams(
                rng.normal(size=vocab) * 0.5,
                rng.normal(size=(lags, vocab, vocab)) * 0.5,
            )
            window = tuple(int(t) for t in rng.integers(0, vocab, size=lags + 3))
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

    def test_l2_gradient_applied_in_training(self):
        # one extra step from known params must subtract lr*(grad + 2*l2*theta)
        corpus = tuple(int(t) for t in named_rng(0, "l2-corpus").integers(0, 4, size=400))
        cfg_a = TrainConfig(max_context=2, steps=2, seed=3, l2=0.0)
        cfg_b = TrainConfig(max_context=2, steps=2, seed=3, l2=0.05)
        pa = train_uniform_scalarization(corpus, cfg_a)
        pb = train_uniform_scalarization(corpus, cfg_b)

        # replay the two SGD steps by hand with the l2 term
        rng = named_rng(3, "toy-lm-train-windows")
        params = ToyLMParams.zeros(4, 2)
        arr = np.asarray(corpus)
        for _ in range(2):
            starts = rng.integers(0, len(corpus) - 3 + 1, size=32)
            gb = ToyLMParams.zeros(4, 2)
            for s in starts:
                g = window_loss_and_gradient(params, tuple(arr[s : s + 3]))[1]
                gb.bias += g.bias / 32
                gb.lag_tables += g.lag_tables / 32
            params.bias -= 0.1 * (gb.bias + 2 * 0.05 * params.bias)
            params.lag_tables -= 0.1 * (gb.lag_tables + 2 * 0.05 * params.lag_tables)
        assert np.allclose(params.bias, pb.bias, atol=1e-12)
        assert np.allclose(params.lag_tables, pb.lag_tables, atol=1e-12)
        assert not np.allclose(pa.lag_tables, pb.lag_tables, atol=1e-12)

    def test_short_window_rejected(self):
        with pytest.raises(ContractError):
            window_loss_and_gradient(ToyLMParams.zeros(2, 1), (0,))


class TestTraining:
    def test_degenerate_single_token_corpus(self):
        corpus = tuple([3] * 500)
        params = train_uniform_scalarization(
            corpus, TrainConfig(max_context=4, steps=1500, seed=0), vocab_size=8
        )
        backend = ToyBackend(params)
        for ctx in ((3,), (3, 3), (3, 3, 3, 3, 3)):
            assert np.exp(backend.next_logprobs(ctx))[3] >= 0.99

    def test_alternating_corpus_low_l1(self, alternating_params):
        heldout = tuple([0, 1] * 500)
        prof = loss_profile(alternating_params, heldout, 2)
        assert prof[1] < 0.01
        assert prof[2] < 0.01

    def test_copy_source_long_context_wins(self, trained_params, copy_heldout):
        prof = loss_profile(trained_params, copy_heldout, 12)
        assert prof[12] < prof[1]
        # lag-10 dependence: long-context losses sit well below short ones
        for k_long in (11, 12):
            for k_short in range(1, 10):
                assert prof[k_long] <= prof[k_short] - 0.1

    def test_determinism_bit_identical(self, copy_task):
        cfg = TrainConfig(max_context=4, steps=30, seed=9)
        corpus = copy_task.train[:5000]
        a = train_uniform_scalarization(corpus, cfg)
        b = train_uniform_scalarization(corpus, cfg)
        assert np.array_equal(a.bias, b.bias)
        assert np.array_equal(a.lag_tables, b.lag_tables)

    @pytest.mark.parametrize("lags", [2, 5])
    def test_batch_gradient_is_mean_of_window_oracle(self, lags):
        # windows of 6 tokens: the first predictions see fewer tokens than
        # the lag depth, the last ones more
        rng = named_rng(lags, "batch-vs-window")
        params = ToyLMParams(rng.normal(size=5), rng.normal(size=(lags, 5, 5)))
        batch = rng.integers(0, 5, size=(7, 6))
        loss, grad = _batch_loss_and_gradient(params, batch)
        oracle = [window_loss_and_gradient(params, tuple(w)) for w in batch]
        assert np.isclose(loss, np.mean([l for l, _ in oracle]), rtol=0, atol=1e-12)
        assert np.allclose(grad.bias, np.mean([g.bias for _, g in oracle], axis=0), rtol=0, atol=1e-12)
        assert np.allclose(
            grad.lag_tables, np.mean([g.lag_tables for _, g in oracle], axis=0), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("field, value", [("batch_size", 0), ("steps", -3)])
    def test_config_bounds(self, field, value):
        with pytest.raises(ContractError, match=field):
            TrainConfig(**{field: value})

    def test_corpus_too_short_rejected(self):
        with pytest.raises(ContractError, match="too short"):
            train_uniform_scalarization(tuple(range(8)) * 10, TrainConfig(max_context=12))

    def test_training_loss_smoothed_monotone(self, copy_task):
        trace: list[float] = []
        train_uniform_scalarization(
            copy_task.train,
            TrainConfig(max_context=12, steps=600, seed=0),
            loss_trace=trace,
        )
        windows = [np.mean(trace[i : i + 100]) for i in range(0, 600, 100)]
        for prev, cur in zip(windows, windows[1:]):
            assert cur <= prev + 1e-9


class TestLossProfile:
    def test_uniform_model_ln_vocab(self, copy_heldout):
        params = ToyLMParams.zeros(8, 12)
        prof = loss_profile(params, copy_heldout[:2000], 12)
        assert np.allclose(prof.per_length_nll, np.log(8), atol=1e-9)

    def test_alternating_all_lengths_equal(self, alternating_params):
        prof = loss_profile(alternating_params, tuple([0, 1] * 300), 2)
        assert abs(prof[2] - prof[1]) < 0.01

    @pytest.mark.parametrize("max_context", [5, 12, 14])
    def test_matches_per_length_backend_forward(self, trained_params, copy_heldout, max_context):
        # max_context 14 runs past the lag depth: lengths 13 and 14 see
        # the same model as 12
        heldout = copy_heldout[:400]
        backend = ToyBackend(trained_params)
        pos = range(max_context, len(heldout))
        prof = loss_profile(trained_params, heldout, max_context)
        for k in range(1, max_context + 1):
            nll = [-backend.next_logprobs(heldout[p - k : p])[heldout[p]] for p in pos]
            assert abs(prof[k] - np.mean(nll)) <= 1e-12

    def test_heldout_too_short(self):
        with pytest.raises(ContractError):
            loss_profile(ToyLMParams.zeros(4, 3), (0, 1, 2), 3)


class TestBatchForwardMatchesPerContext:
    """A (lags, N) id array (gathered with ``take``) gives row for row the
    bytes of the forward of each context alone as Python ints (indexed), on
    either side of the row-max rule and for a few wide rows."""

    @pytest.mark.parametrize(
        "n, vocab",
        [
            (MANY_ROWS, NARROW_WIDTH),
            (MANY_ROWS - 1, NARROW_WIDTH),
            (MANY_ROWS, NARROW_WIDTH + 1),
            (4, 64),
        ],
    )
    def test_logits_and_prefix_logprobs(self, n, vocab):
        rng = named_rng(18, "batch-forward")
        lags = 5
        params = ToyLMParams(rng.standard_normal(vocab), rng.standard_normal((lags, vocab, vocab)))
        ids = rng.integers(0, vocab, size=(n, lags + 2))  # two tokens past the lag depth
        contexts = [tuple(int(t) for t in row) for row in ids]
        recent = ids[:, ::-1].T
        rows = [params.logits(c[::-1]) for c in contexts]
        assert params.logits(recent).tobytes() == np.stack(rows).tobytes()
        assert params.logits(ids[0, ::-1]).tobytes() == rows[0].tobytes()
        prefixes = list(params.prefix_logprobs(recent))
        assert len(prefixes) == lags + 2
        for k, lf in enumerate(prefixes, start=1):
            want = [log_softmax(params.logits(c[::-1][:k])) for c in contexts]
            assert lf.tobytes() == np.stack(want).tobytes()

    def test_zero_lag_depth_rejected(self):
        with pytest.raises(ContractError, match="lag depth must be at least 1"):
            ToyLMParams(np.zeros(4), np.zeros((0, 4, 4)))


class TestTruncationSemantics:
    def test_truncated_context_equals_zeroed_lags(self, trained_params):
        backend = ToyBackend(trained_params)
        rng = named_rng(6, "fk-semantics")
        for _ in range(20):
            n = int(rng.integers(4, 14))
            ctx = tuple(int(t) for t in rng.integers(0, 8, size=n))
            for k in (1, 3, 7):
                if k >= n:
                    continue
                # way 1: evaluate on the k-token suffix
                lp_suffix = backend.next_logprobs(ctx[-k:])
                # way 2: zero lag tables beyond k, evaluate on the full context
                clipped = trained_params.copy()
                clipped.lag_tables[k:] = 0.0
                lp_zeroed = ToyBackend(clipped).next_logprobs(ctx)
                assert np.max(np.abs(lp_suffix - lp_zeroed)) <= 1e-12


class TestPersistence:
    def test_roundtrip_bit_identical(self, trained_params, tmp_path):
        path = str(tmp_path / "model.tlm")
        save_params(trained_params, path)
        loaded = load_params(path)
        assert np.array_equal(loaded.bias, trained_params.bias)
        assert np.array_equal(loaded.lag_tables, trained_params.lag_tables)

    def test_container_layout(self, tmp_path):
        params = ToyLMParams(np.arange(3, dtype=float), np.arange(18, dtype=float).reshape(2, 3, 3))
        path = str(tmp_path / "layout.tlm")
        save_params(params, path)
        blob = Path(path).read_bytes()
        assert blob[:4] == MAGIC == b"TLM1"
        v, m = struct.unpack("<II", blob[4:12])
        assert (v, m) == (3, 2)
        floats = np.frombuffer(blob[12:], dtype="<f8")
        assert np.array_equal(floats[:3], params.bias)
        assert np.array_equal(floats[3:], params.lag_tables.reshape(-1))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tlm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContractError):
            load_params(str(path))

    def test_truncated_file_rejected(self, trained_params, tmp_path):
        path = tmp_path / "trunc.tlm"
        save_params(trained_params, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ContractError, match="corrupt"):
            load_params(str(path))


class TestTokenizer:
    def test_specials_reserved(self):
        tok = WhitespaceTokenizer(["b", "a"])
        assert tok.id_to_word[0] == UNK_TOKEN
        assert tok.id_to_word[1] == EOT_TOKEN
        assert tok.unk_id == 0 and tok.eot_id == 1

    def test_encode_decode_roundtrip(self):
        tok = WhitespaceTokenizer.from_corpus("the cat sat on the mat")
        ids = tok.encode("the cat sat")
        assert tok.decode(ids) == "the cat sat"

    def test_unknown_maps_to_unk(self):
        tok = WhitespaceTokenizer.from_corpus("a b")
        assert tok.encode("a z")[1] == tok.unk_id

    def test_from_corpus_sorted_deterministic(self):
        a = WhitespaceTokenizer.from_corpus("c a b")
        b = WhitespaceTokenizer.from_corpus("b c a a")
        assert a.id_to_word == b.id_to_word

    def test_corpus_tokens_joins_documents_with_eot(self):
        tok = WhitespaceTokenizer.from_corpus("a b\nc")
        stream = corpus_tokens("a b\nc", tok)
        a, b, c = tok.encode("a")[0], tok.encode("b")[0], tok.encode("c")[0]
        assert stream == (a, b, tok.eot_id, c)

    def test_single_document_no_eot(self):
        tok = WhitespaceTokenizer.from_corpus("a b a")
        assert tok.eot_id not in corpus_tokens("a b a", tok)

    def test_empty_corpus_rejected(self):
        tok = WhitespaceTokenizer.from_corpus("a")
        with pytest.raises(ContractError):
            corpus_tokens("", tok)

    def test_vocab_mismatch_rejected(self, trained_params):
        tok = WhitespaceTokenizer(["a"])  # vocab 3 != 8
        with pytest.raises(ContractError):
            ToyBackend(trained_params, tok)
