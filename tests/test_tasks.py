import json
import logging

import numpy as np
import pytest

from cboost.boosting import score_choice
from cboost.decode import GenConfig, generate
from cboost.dist import logsumexp
from cboost.errors import ContractError
from cboost.rng import named_rng
from cboost.tasks import (
    LamaItem,
    LastTokenItem,
    MCItem,
    SummarizeItem,
    eval_lama_style,
    eval_last_token,
    eval_multiple_choice,
    evaluate_cell,
    make_copy_source_task,
    read_lama_items,
    read_last_token_items,
    read_mc_items,
    read_summarize_items,
    split_sentences,
    summarize_eval,
)
from cboost.toy_lm import (
    ToyBackend,
    ToyLMParams,
    TrainConfig,
    WhitespaceTokenizer,
    corpus_tokens,
    train_uniform_scalarization,
)

from conftest import TableBackend
from test_boosting import flip_params_and_tokenizer


class TestCopySourceTask:
    def test_full_copy_targets_equal_offset_token(self):
        task = make_copy_source_task(6, 2000, copy_offset=4, copy_prob=1.0, seed=3, eval_len=300)
        assert task.items
        for item in task.items:
            assert item.target == item.context[-4]

    def test_no_copy_uniform_accuracy(self, uniform_backend):
        task = make_copy_source_task(8, 3000, copy_offset=4, copy_prob=0.0, seed=3, eval_len=400)
        assert task.items  # with no copy events every position is an item
        res = eval_last_token(uniform_backend, task.items, None, 0.0)
        n = len(task.items)
        sigma = np.sqrt((1 / 8) * (7 / 8) / n)
        assert abs(res.accuracy - 1 / 8) <= 3 * sigma

    def test_copy_event_rate(self, copy_task):
        assert abs(copy_task.copy_event_rate - 0.7) <= 0.01

    def test_default_context_length(self, copy_task):
        assert all(len(i.context) == 12 for i in copy_task.items)

    def test_chain_copies_propagate_values(self):
        # with q=1 the whole chain repeats the first fresh draws
        task = make_copy_source_task(4, 100, copy_offset=5, copy_prob=1.0, seed=0, eval_len=0)
        stream = task.train
        for t in range(5, 100):
            assert stream[t] == stream[t - 5]

    def test_bad_params_rejected(self):
        with pytest.raises(ContractError):
            make_copy_source_task(8, 100, copy_offset=0, copy_prob=0.5, seed=0)
        with pytest.raises(ContractError):
            make_copy_source_task(8, 100, copy_offset=2, copy_prob=1.5, seed=0)
        with pytest.raises(ContractError):
            make_copy_source_task(8, 100, copy_offset=4, copy_prob=0.5, seed=0, context_len=3)


class TestEvalLastToken:
    def test_alpha_zero_equals_base_argmax(self, trained_backend, copy_task):
        items = copy_task.items[:50]
        res = eval_last_token(trained_backend, items, 5, 0.0)
        correct = 0
        for item in items:
            pred = int(np.argmax(trained_backend.next_logprobs(item.context)))
            correct += pred == item.target
        assert res.accuracy == correct / len(items)

    def test_boosting_helps_on_copy_task(self, undertrained_params, copy_task):
        backend = ToyBackend(undertrained_params)
        items = copy_task.items[:300]
        base = eval_last_token(backend, items, None, 0.0).accuracy
        best = max(
            eval_last_token(backend, items, 5, alpha).accuracy
            for alpha in (-0.25, -0.5, -0.75, -1.0)
        )
        assert best >= base

    def test_accuracy_matches_naive_loop(self, trained_backend, copy_task):
        items = copy_task.items[:40]
        res = eval_last_token(trained_backend, items, 3, -0.5)
        naive = sum(r["correct"] for r in res.per_item) / len(items)
        assert res.accuracy == naive

    def test_order_invariance(self, trained_backend, copy_task):
        items = list(copy_task.items[:30])
        a = eval_last_token(trained_backend, items, 4, -0.4).accuracy
        b = eval_last_token(trained_backend, items[::-1], 4, -0.4).accuracy
        assert a == b

    def test_no_items_rejected(self, trained_backend):
        with pytest.raises(ContractError):
            eval_last_token(trained_backend, [], 1, 0.0)


class TestEvalMultipleChoice:
    def test_alpha_zero_prefers_full_score(self):
        params, tok, _, _ = flip_params_and_tokenizer()
        backend = ToyBackend(params, tok)
        item = MCItem("i0", "p q", "q", ("x", "y"), gold=1)
        res = eval_multiple_choice(backend, [item], alpha=0.0)
        assert res.per_item[0]["pred"] == 1
        assert res.accuracy == 1.0

    def test_alpha_minus_one_flips(self):
        params, tok, _, _ = flip_params_and_tokenizer()
        backend = ToyBackend(params, tok)
        item = MCItem("i0", "p q", "q", ("x", "y"), gold=0)
        res = eval_multiple_choice(backend, [item], alpha=-1.0)
        assert res.per_item[0]["pred"] == 0

    def test_pmi_matches_independent_two_pass_scorer(self):
        params, tok, _, _ = flip_params_and_tokenizer()
        backend = ToyBackend(params, tok)
        item = MCItem("i0", "p q", "q", ("x", "y"), gold=0)
        res = eval_multiple_choice(backend, [item], alpha=-1.0)
        # second pass: recompute rankings from raw continuation scores
        full_ctx, short_ctx = tok.encode("p q"), tok.encode("q")
        combined = []
        for choice in ("x", "y"):
            ans = tok.encode(choice)
            combined.append(
                backend.score_continuation(full_ctx, ans)
                - backend.score_continuation(short_ctx, ans)
            )
        assert res.per_item[0]["pred"] == int(np.argmax(combined))
        got = [s["combined"] for s in res.per_item[0]["scores"]]
        assert np.allclose(got, combined, atol=1e-12)

    def test_tie_goes_to_lowest_index(self, uniform_backend):
        tok = WhitespaceTokenizer(["a", "b", "q"])
        backend = ToyBackend(
            __import__("cboost.toy_lm", fromlist=["ToyLMParams"]).ToyLMParams.zeros(5, 2),
            tok,
        )
        item = MCItem("t", "q q", "q", ("a", "b"), gold=0)
        res = eval_multiple_choice(backend, [item], alpha=0.0)
        assert res.per_item[0]["pred"] == 0

    def test_suffix_mismatch_warns_only(self, caplog):
        params, tok, _, _ = flip_params_and_tokenizer()
        backend = ToyBackend(params, tok)
        item = MCItem("w", "p q", "p", ("x", "y"), gold=0)  # "p" is not a suffix
        with caplog.at_level(logging.WARNING):
            eval_multiple_choice(backend, [item], alpha=0.0)
        assert "not a token suffix" in caplog.text

    def test_item_validation(self):
        with pytest.raises(ContractError):
            MCItem("bad", "c", "c", ("only",), gold=0)
        with pytest.raises(ContractError):
            MCItem("bad", "c", "c", ("a", "b"), gold=5)


class TestEvalLamaStyle:
    def test_k_covering_prompt_scales_scores(self, trained_backend):
        # premise-free context == prompt: combined = (1 + alpha) * full
        tok_free_items = [
            LamaItem("l0", "prompt", ("a", "b"), 0),
        ]

        class WordBackend(TableBackend):
            pass

        tok = WhitespaceTokenizer(["a", "b", "prompt"])
        params = __import__("cboost.toy_lm", fromlist=["ToyLMParams"]).ToyLMParams
        backend = ToyBackend(params.zeros(5, 3), tok)
        alpha = -0.7
        res = eval_lama_style(backend, tok_free_items, k=5, alpha=alpha)
        scores = res.per_item[0]["scores"]
        for s in scores:
            assert abs(s["combined"] - (1 + alpha) * s["full"]) <= 1e-12
        base = eval_lama_style(backend, tok_free_items, k=5, alpha=0.0)
        assert base.per_item[0]["scores"][0]["combined"] == base.per_item[0]["scores"][0]["full"]

    def test_relation_prior_fixed_by_boosting(self):
        # biased template corpus: almost every city is "rome"
        names = ["marco", "paolo", "luca", "pietro", "carlo", "anna", "maria", "sofia"]
        lines = []
        for n in names:
            lines += [f"{n} was bornin rome"] * 12
        lines += ["dante was bornin florence"] * 3
        text = "\n".join(lines * 4)
        tok = WhitespaceTokenizer.from_corpus(text)
        tokens = corpus_tokens(text, tok)
        params = train_uniform_scalarization(
            tokens, TrainConfig(max_context=3, steps=9600, seed=0), vocab_size=tok.vocab_size
        )
        backend = ToyBackend(params, tok)
        item = LamaItem("dante", "dante was bornin", ("rome", "florence"), gold=1)
        base = eval_lama_style(backend, [item], k=2, alpha=0.0)
        boosted = eval_lama_style(backend, [item], k=2, alpha=-0.5)
        assert base.accuracy == 0.0  # misled by the relation-only prior
        assert boosted.accuracy == 1.0

    def test_k_validation(self, trained_backend):
        with pytest.raises(ContractError):
            eval_lama_style(trained_backend, [LamaItem("x", "p", ("a", "b"), 0)], k=0, alpha=0.0)


class TestEvaluateCell:
    def test_dispatch_last_token(self, trained_backend, copy_task):
        items = copy_task.items[:20]
        acc = evaluate_cell(trained_backend, items, 5, -0.5, "accuracy")
        assert acc == eval_last_token(trained_backend, items, 5, -0.5).accuracy

    def test_nll_finite_and_ordered(self, trained_backend, copy_task):
        items = copy_task.items[:20]
        nll = evaluate_cell(trained_backend, items, 5, -0.5, "nll")
        assert np.isfinite(nll) and nll > 0

    def test_unknown_type_rejected(self, trained_backend):
        with pytest.raises(ContractError):
            evaluate_cell(trained_backend, ["nope"], 1, 0.0, "accuracy")

    @staticmethod
    def word_backend():
        tok = WhitespaceTokenizer(["a", "b", "c", "d", "e"])
        rng = named_rng(4, "cell-nll-model")
        params = ToyLMParams(rng.normal(size=7), rng.normal(size=(3, 7, 7)))
        return ToyBackend(params, tok)

    @staticmethod
    def listwise_nll_oracle(backend, items, full_short, answers, alpha):
        nll = []
        for item in items:
            full, short = full_short(item)
            combined = np.array([
                score_choice(backend, full, short, backend.encode(a), alpha).combined
                for a in answers(item)
            ])
            nll.append(logsumexp(combined) - combined[item.gold])
        return np.mean(nll)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_mc_nll_is_listwise_logsumexp(self, alpha):
        backend = self.word_backend()
        items = [
            MCItem("m0", "a b c", "b c", ("d", "e a", "b"), gold=1),
            MCItem("m1", "e d", "d", ("a", "c c"), gold=0),
            MCItem("m2", "c a e b", "e b", ("b d", "a", "e", "d"), gold=3),
        ]
        oracle = self.listwise_nll_oracle(
            backend, items,
            lambda it: (backend.encode(it.full_context), backend.encode(it.premise_free_context)),
            lambda it: it.choices, alpha,
        )
        got = evaluate_cell(backend, items, None, alpha, "nll")
        assert abs(got - oracle) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_lama_nll_is_listwise_logsumexp(self, alpha):
        backend = self.word_backend()
        items = [
            LamaItem("l0", "a b c d", ("e", "a b"), gold=0),
            LamaItem("l1", "d", ("c", "d e", "a"), gold=2),
        ]
        oracle = self.listwise_nll_oracle(
            backend, items,
            lambda it: (backend.encode(it.prompt), backend.encode(it.prompt)[-2:]),
            lambda it: it.candidates, alpha,
        )
        got = evaluate_cell(backend, items, 2, alpha, "nll")
        assert abs(got - oracle) <= 1e-12

    @pytest.mark.parametrize("objective", ["accuracy", "nll"])
    def test_suffix_warning_under_both_objectives(self, objective, caplog):
        item = MCItem("w", "a b", "a", ("c", "d"), gold=0)  # "a" is not a suffix
        with caplog.at_level(logging.WARNING):
            evaluate_cell(self.word_backend(), [item], None, -0.5, objective)
        assert "not a token suffix" in caplog.text

    @pytest.mark.parametrize("objective", ["accuracy", "nll"])
    def test_empty_lama_prompt_same_error_under_both_objectives(self, objective):
        item = LamaItem("empty", "", ("a", "b"), gold=0)
        with pytest.raises(ContractError, match="item empty: empty prompt"):
            evaluate_cell(self.word_backend(), [item], 2, -0.5, objective)


class TestSummarize:
    def summarizing_backend(self):
        """Deterministic chain that emits the reference summary after the
        separator."""
        words = ["article", "body", "great", "news", "today.", "tldr:"]
        tok = WhitespaceTokenizer(words)
        enc = lambda w: tok.encode(w)[0]
        table = {}
        # after the separator: emit "great news today." then eot forever
        table[(enc("tldr:"),)] = self.one_hot(tok, "great")
        table[(enc("great"),)] = self.one_hot(tok, "news")
        table[(enc("news"),)] = self.one_hot(tok, "today.")
        table[(enc("today."),)] = self.one_hot(tok, "<eot>")
        return TableBackend(tok.vocab_size, table, tokenizer=tok), tok

    @staticmethod
    def one_hot(tok, word):
        v = np.zeros(tok.vocab_size)
        idx = tok.word_to_id[word] if word in tok.word_to_id else tok.eot_id
        v[idx] = 1.0
        return v

    def test_reference_reproduction_scores_one(self):
        backend, tok = self.summarizing_backend()
        items = [SummarizeItem("s0", "article body", "great news today.")]
        cfg = GenConfig(max_new_tokens=8, stop_tokens=frozenset({tok.eot_id}))
        report = summarize_eval(backend, items, alpha=0.0, cfg=cfg, separator_text="tldr:")
        assert report.rows[0].summary == "great news today."
        assert report.rows[0].rouge1.f1 == 1.0
        assert report.rows[0].rougeL.f1 == 1.0
        assert report.mean_f1()["rouge1"] == 1.0

    def test_alpha_zero_equals_plain_continuation(self, trained_params, copy_task):
        tok = WhitespaceTokenizer([f"w{i}" for i in range(6)])
        backend = ToyBackend(trained_params, tok)
        items = [SummarizeItem("s0", "w0 w1 w2", "w3 w4")]
        cfg = GenConfig(max_new_tokens=6)
        report = summarize_eval(backend, items, alpha=0.0, cfg=cfg, separator_text="w5")
        prompt = tok.encode("w0 w1 w2 w5")
        plain = generate(backend, prompt, cfg)
        assert report.rows[0].summary == " ".join(
            split_sentences(tok.decode(plain.tokens))[:3]
        )

    def test_sentence_splitting(self):
        text = "first one. second two! third three? fourth"
        assert split_sentences(text) == [
            "first one.",
            "second two!",
            "third three?",
            "fourth",
        ]

    def test_sentence_count_truncation(self):
        backend, tok = self.summarizing_backend()
        items = [SummarizeItem("s0", "article body", "great news today.")]
        cfg = GenConfig(max_new_tokens=8, stop_tokens=frozenset({tok.eot_id}))
        report = summarize_eval(
            backend, items, alpha=0.0, cfg=cfg, sentence_count=1, separator_text="tldr:"
        )
        assert report.rows[0].summary == "great news today."


class TestReaders:
    def write_jsonl(self, path, records):
        with open(path, "w", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")

    def test_last_token_roundtrip(self, tmp_path, trained_params):
        tok = WhitespaceTokenizer([f"w{i}" for i in range(6)])
        backend = ToyBackend(trained_params, tok)
        path = tmp_path / "items.jsonl"
        self.write_jsonl(path, [{"id": "a", "context": "w0 w1", "target": "w2"}])
        items = read_last_token_items(str(path), backend)
        assert items[0].context == tok.encode("w0 w1")
        assert items[0].target == tok.encode("w2")[0]

    def test_multi_token_target_rejected(self, tmp_path, trained_params):
        tok = WhitespaceTokenizer([f"w{i}" for i in range(6)])
        backend = ToyBackend(trained_params, tok)
        path = tmp_path / "items.jsonl"
        self.write_jsonl(path, [{"id": "a", "context": "w0", "target": "w1 w2"}])
        with pytest.raises(ContractError, match="single token"):
            read_last_token_items(str(path), backend)

    def test_mc_and_lama_and_summarize(self, tmp_path):
        mc = tmp_path / "mc.jsonl"
        self.write_jsonl(
            mc,
            [{"id": "m", "full_context": "a b", "premise_free_context": "b",
              "choices": ["x", "y"], "gold": 1}],
        )
        assert read_mc_items(str(mc))[0].gold == 1
        lama = tmp_path / "lama.jsonl"
        self.write_jsonl(lama, [{"id": "l", "prompt": "p", "candidates": ["a", "b"], "gold": 0}])
        assert read_lama_items(str(lama))[0].candidates == ("a", "b")
        summ = tmp_path / "s.jsonl"
        self.write_jsonl(summ, [{"id": "s", "article": "text", "reference": "ref"}])
        assert read_summarize_items(str(summ))[0].reference == "ref"

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"\n', encoding="utf-8")
        with pytest.raises(ContractError, match="malformed"):
            read_mc_items(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ContractError):
            read_lama_items(str(path))


class TestBuildMCItem:
    def test_suffix_by_construction(self):
        from cboost.tasks import build_mc_item

        item = build_mc_item("b0", "A man drops a glass.", "What happens next?", ("it breaks", "it flies"), 0)
        assert item.full_context.endswith(item.premise_free_context)
        assert item.full_context == "A man drops a glass. What happens next?"

    def test_empty_premise(self):
        from cboost.tasks import build_mc_item

        item = build_mc_item("b1", "", "Answer:", ("x", "y"), 1)
        assert item.full_context == "Answer:"
