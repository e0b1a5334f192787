import math
import warnings
from collections import Counter

import numpy as np
import pytest

from cboost.errors import ContractError
from cboost.metrics import (
    COHERENCE_COLUMNS,
    Corpus,
    Document,
    bleu,
    coherence_report,
    corpus_perplexity,
    delta,
    dialog_report,
    distinct_n,
    ends_repeating,
    entropy_n,
    lr_score,
    ltf,
    nist,
    render_coherence_table,
    render_dialog_table,
    repetition_fraction,
    rouge,
    self_bleu4,
    zipf_coefficient,
)
from cboost.rng import named_rng
from cboost.toy_lm import ToyBackend

from conftest import TableBackend


def corpus_of(*docs):
    return Corpus.from_token_seqs(docs)


class TestLongRangeRepetition:
    def test_single_doc_direct_count(self):
        assert lr_score(corpus_of(("a", "b", "a")), 2) == 0.5

    def test_all_distinct_zero(self):
        for n in (1, 2, 5):
            assert lr_score(corpus_of((1, 2, 3, 4)), n) == 0.0

    def test_macro_average_formula(self):
        # doc1: S=2, R_2=1; doc2: S=3, R_2=0 -> (1+0)/(2+3)
        c = corpus_of(("a", "b", "a"), ("x", "y", "z"))
        assert lr_score(c, 2) == 1 / 5

    def test_bad_n(self):
        with pytest.raises(ContractError):
            lr_score(corpus_of((1, 2)), 0)


class TestModelRelativeProbes:
    def test_lag1_model_scores_zero(self, alternating_params):
        backend = ToyBackend(alternating_params)
        docs = [Document(tokens=(0, 1) * 15)]
        assert ltf(Corpus(docs), backend, short_len=20) == 0.0
        assert delta(Corpus(docs), backend, short_len=20) == 0.0

    def test_hand_built_ltf_fraction(self):
        # 10 scored tokens; exactly one has p_full=0.25 >= 0.2 and p_short=0.04 < 0.05
        vocab = 4
        table = {}
        doc = (0, 1, 2) + (3,) * 23 + (1,)  # 27 tokens, 26 scored
        # default: uniform (0.25 full and short: fails the short threshold test)
        # craft position 26 (the final token 1): full context distinctive
        full_ctx = doc[:26]
        short_ctx = doc[26 - 5 : 26]
        table[full_ctx] = [0.05, 0.25, 0.35, 0.35]
        table[short_ctx] = [0.06, 0.04, 0.45, 0.45]
        backend = TableBackend(vocab, table)
        corpus = Corpus([Document(tokens=doc)])
        got = ltf(corpus, backend, short_len=5)
        assert got == 1 / 26

    def test_hand_built_delta(self):
        # doc (7, 0) after prompt (7, 7); short window = 2 tokens
        # position 0: full ctx (7,7) = short ctx -> difference 0
        # position 1: full ctx (7,7,7) gives p(0)=0.25, short (7,7) gives 0.5
        table = {
            (7, 7, 7): [0.25, 0.75] + [0.0] * 6,
            (7, 7): [0.5, 0.5] + [0.0] * 6,
        }
        backend = TableBackend(8, table)
        doc = Document(tokens=(7, 0), prompt=(7, 7))
        got = delta(Corpus([doc]), backend, short_len=2)
        assert abs(got - (0.0 + (0.25 - 0.5)) / 2) < 1e-12

    def test_short_len_at_least_doc_len_zero(self, trained_backend):
        docs = [Document(tokens=(1, 2, 3, 4, 5))]
        assert delta(Corpus(docs), trained_backend, short_len=10) == 0.0
        assert ltf(Corpus(docs), trained_backend, short_len=10) == 0.0


class TestPerplexity:
    def test_uniform_model(self, uniform_backend):
        c = corpus_of((0, 1, 2, 3), (4, 5))
        assert abs(corpus_perplexity(c, uniform_backend) - 8.0) < 1e-9

    def test_two_token_hand_case(self):
        table = {(2,): [0.1, 0.7, 0.2], (2, 1): [0.25, 0.25, 0.5]}
        backend = TableBackend(3, table)
        c = Corpus([Document(tokens=(2, 1, 2))])
        expected = math.exp(-(math.log(0.7) + math.log(0.5)) / 2)
        assert abs(corpus_perplexity(c, backend) - expected) < 1e-12

    def test_prompt_conditioning_scores_all_tokens(self, uniform_backend):
        c = Corpus([Document(tokens=(0, 1), prompt=(3,))])
        assert abs(corpus_perplexity(c, uniform_backend) - 8.0) < 1e-9


class TestZipf:
    def test_inverse_rank_counts(self):
        docs = []
        for tok, count in enumerate([1000, 500, 333, 250]):
            docs.append(tuple([tok] * count))
        got = zipf_coefficient(corpus_of(*docs))
        assert abs(got - 1.0) < 0.01

    def test_single_rank_rejected(self):
        with pytest.raises(ContractError, match="2 ranks"):
            zipf_coefficient(corpus_of((5, 5, 5)))

    def test_count_scale_invariance(self):
        base = [("a",) * 9 + ("b",) * 3 + ("c",)]
        scaled = [t * 4 for t in base]
        assert abs(
            zipf_coefficient(corpus_of(*base)) - zipf_coefficient(corpus_of(*scaled))
        ) < 1e-12


def brute_force_ends_repeating(tokens, min_copies=3, max_span=16):
    """Independent span detector: try every span and count copies."""
    n = len(tokens)
    for span in range(1, min(max_span, n) + 1):
        copies = 1
        while copies * span <= n and tokens[n - (copies) * span : n - (copies - 1) * span] == tokens[n - span : n]:
            if copies >= min_copies:
                break
            copies += 1
        full = 0
        pos = n
        while pos - span >= 0 and tuple(tokens[pos - span : pos]) == tuple(tokens[n - span : n]):
            full += 1
            pos -= span
        if full >= min_copies:
            return True
    return False


class TestRepetition:
    def test_triple_token_tail(self):
        assert ends_repeating((1, 2, 9, 9, 9))

    def test_plain_sequence_not_flagged(self):
        assert not ends_repeating(("a", "b", "c", "d"))

    def test_two_token_span(self):
        assert ends_repeating((5, 0, 1, 0, 1, 0, 1))

    def test_two_copies_not_enough(self):
        assert not ends_repeating((9, 9))

    def test_fraction(self):
        c = corpus_of((1, 2, 3, 3, 3), (1, 2, 3, 4))
        assert repetition_fraction(c) == 0.5

    def test_against_brute_force_oracle(self):
        rng = named_rng(15, "repetition-oracle")
        for _ in range(300):
            n = int(rng.integers(3, 30))
            tokens = tuple(int(t) for t in rng.integers(0, 3, size=n))
            assert ends_repeating(tokens, 3, 8) == brute_force_ends_repeating(tokens, 3, 8)


class TestBleu:
    def test_exact_match(self):
        assert bleu(("a", "b", "c", "d"), [("a", "b", "c", "d")]) == 1.0

    def test_hand_counted_case(self):
        got = bleu(("the", "cat", "sat"), [("the", "cat", "sat", "down")], max_n=3)
        assert abs(got - math.exp(1 - 4 / 3)) < 1e-12
        assert abs(got - 0.7165) < 1e-4

    def test_disjoint_zero(self):
        assert bleu(("a", "b"), [("x", "y")]) == 0.0

    def test_empty_candidate_zero_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert bleu((), [("a",)]) == 0.0
        assert caught

    def test_reference_order_symmetric(self):
        refs = [("a", "b", "c"), ("a", "c"), ("b", "c", "d", "e")]
        cand = ("a", "b", "d")
        assert bleu(cand, refs, max_n=2) == bleu(cand, refs[::-1], max_n=2)

    def test_adding_matching_reference_non_decreasing(self):
        rng = named_rng(21, "bleu-monotone")
        for _ in range(40):
            cand = tuple(int(t) for t in rng.integers(0, 4, size=rng.integers(4, 9)))
            ref = tuple(int(t) for t in rng.integers(0, 4, size=rng.integers(4, 9)))
            before = bleu(cand, [ref])
            after = bleu(cand, [ref, cand])
            assert after >= before - 1e-12

    def test_epsilon_smoothing_nonzero(self):
        got = bleu(("a", "b"), [("a", "x")], max_n=2, smoothing="epsilon")
        assert 0.0 < got < 1.0

    def test_no_references_rejected(self):
        with pytest.raises(ContractError):
            bleu(("a",), [])


class TestSelfBleu:
    def test_identical_documents(self):
        c = corpus_of((1, 2, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
        assert self_bleu4(c) == 1.0

    def test_disjoint_vocabularies(self):
        c = corpus_of((1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3))
        assert self_bleu4(c) == 0.0

    def test_needs_two_docs(self):
        with pytest.raises(ContractError):
            self_bleu4(corpus_of((1, 2, 3, 4)))


def nist_mteval_oracle(candidates, multi_refs, max_n):
    """Independent reimplementation of the mteval NIST formula, written
    from the definition with plain dicts."""
    ngram_count = {}
    total_words = 0
    for refs in multi_refs:
        for ref in refs:
            ref = tuple(ref)
            total_words += len(ref)
            for n in range(1, max_n + 1):
                for i in range(len(ref) - n + 1):
                    g = ref[i : i + n]
                    ngram_count[g] = ngram_count.get(g, 0) + 1

    def info(g):
        if ngram_count.get(g, 0) == 0:
            return 0.0
        parent = total_words if len(g) == 1 else ngram_count.get(g[:-1], 0)
        if parent == 0:
            return 0.0
        return math.log(parent / ngram_count[g], 2)

    total = 0.0
    for n in range(1, max_n + 1):
        num = 0.0
        den = 0
        for cand, refs in zip(candidates, multi_refs):
            cand = tuple(cand)
            cand_grams = [cand[i : i + n] for i in range(len(cand) - n + 1)]
            den += len(cand_grams)
            ref_counts = {}
            for ref in refs:
                ref = tuple(ref)
                here = {}
                for i in range(len(ref) - n + 1):
                    g = ref[i : i + n]
                    here[g] = here.get(g, 0) + 1
                for g, c in here.items():
                    ref_counts[g] = max(ref_counts.get(g, 0), c)
            used = {}
            for g in cand_grams:
                used[g] = used.get(g, 0) + 1
            for g, c in used.items():
                m = min(c, ref_counts.get(g, 0))
                num += m * info(g)
        if den:
            total += num / den
    l_sys = sum(len(tuple(c)) for c in candidates)
    n_refs = sum(len(r) for r in multi_refs)
    l_ref = total_words / n_refs * len(candidates)
    ratio = min(l_sys / l_ref, 1.0)
    beta = math.log(0.5) / math.log(2 / 3) ** 2
    bp = math.exp(beta * math.log(ratio) ** 2) if ratio > 0 else 0.0
    return total * bp


class TestNist:
    def test_empty_overlap_zero(self):
        got = nist([("a", "b")], [[("x", "y")]])
        assert got == 0.0

    def test_micro_corpus_against_oracle(self):
        candidates = [
            ("the", "cat", "sat", "on", "the", "mat"),
            ("dogs", "bark", "loudly"),
        ]
        multi_refs = [
            [("the", "cat", "sat", "on", "a", "mat"), ("a", "cat", "sat", "there")],
            [("the", "dogs", "bark", "loudly"), ("dogs", "often", "bark")],
        ]
        for max_n in (2, 5):
            got = nist(candidates, multi_refs, max_n=max_n)
            want = nist_mteval_oracle(candidates, multi_refs, max_n)
            assert abs(got - want) < 1e-12
            assert got > 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ContractError):
            nist([("a",)], [])


class TestDiversity:
    def test_identical_tokens_distinct1(self):
        c = corpus_of((4,) * 10)
        assert distinct_n(c, 1) == 1 / 10

    def test_distinct_and_entropy_hand_case(self):
        c = corpus_of(("a", "a", "b"))
        assert distinct_n(c, 1) == 2 / 3
        ent = entropy_n(c, 1)
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert abs(ent - expected) < 1e-12
        assert abs(ent - 0.6365) < 1e-4

    def test_no_ngrams_rejected(self):
        with pytest.raises(ContractError):
            distinct_n(corpus_of((1,)), 2)


class TestRouge:
    def test_identical(self):
        for variant in (1, 2, "L"):
            assert rouge(("a", "b", "c"), ("a", "b", "c"), variant).f1 == 1.0

    def test_lcs_hand_case(self):
        got = rouge(("a", "b", "c", "d"), ("a", "c", "d"), "L")
        assert got.recall == 1.0
        assert got.precision == 3 / 4
        assert got.f1 == pytest.approx(6 / 7, abs=0)

    def test_disjoint_zero(self):
        for variant in (1, 2, "L"):
            assert rouge(("a", "b"), ("x", "y"), variant).f1 == 0.0

    def test_bigram_counts(self):
        got = rouge(("a", "b", "c"), ("a", "b", "d"), 2)
        assert got.precision == 1 / 2
        assert got.recall == 1 / 2

    def test_empty_candidate(self):
        assert rouge((), ("a",), "L").f1 == 0.0


class TestCorpusInvariants:
    def test_document_permutation_invariance(self, trained_backend):
        rng = named_rng(33, "perm")
        docs = [
            Document(tokens=tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(5, 20))))
            for _ in range(8)
        ]
        a = Corpus(list(docs))
        b = Corpus(list(docs[::-1]))
        assert lr_score(a, 3) == lr_score(b, 3)
        assert zipf_coefficient(a) == zipf_coefficient(b)
        assert repetition_fraction(a) == repetition_fraction(b)
        assert distinct_n(a, 2) == distinct_n(b, 2)
        assert abs(entropy_n(a, 2) - entropy_n(b, 2)) < 1e-12
        assert abs(self_bleu4(a) - self_bleu4(b)) < 1e-12
        assert abs(corpus_perplexity(a, trained_backend) - corpus_perplexity(b, trained_backend)) < 1e-12

    def test_fractions_in_unit_interval(self, trained_backend):
        rng = named_rng(34, "ranges")
        docs = [
            Document(tokens=tuple(int(t) for t in rng.integers(0, 8, size=25)))
            for _ in range(5)
        ]
        c = Corpus(docs)
        for val in (
            lr_score(c, 5),
            ltf(c, trained_backend),
            repetition_fraction(c),
            self_bleu4(c),
            distinct_n(c, 2),
        ):
            assert 0.0 <= val <= 1.0
        assert corpus_perplexity(c, trained_backend) >= 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            Corpus([])


class TestReports:
    def test_coherence_report_and_table(self, trained_backend):
        rng = named_rng(35, "report")
        docs = [
            Document(tokens=tuple(int(t) for t in rng.integers(0, 8, size=30)))
            for _ in range(4)
        ]
        rep = coherence_report(Corpus(docs), trained_backend, lr_ns=(50, 100), short_len=5)
        d = rep.to_dict()
        for key in ("ppl", "self_bleu4", "zipf", "repetition", "lr_50", "lr_100", "delta", "ltf"):
            assert key in d
        table = render_coherence_table(rep)
        header = table.splitlines()[0]
        for col in COHERENCE_COLUMNS:
            assert col in header

    def test_model_probes_match_per_position_oracle(self, trained_params):
        # the position-by-position scoring the batched report replaced;
        # max_context 12 truncates the longer contexts, and documents with
        # and without a prompt shift the scored positions
        backend = ToyBackend(trained_params, max_context=12)
        rng = named_rng(36, "report-oracle")
        docs = [
            Document(
                tokens=tuple(int(t) for t in rng.integers(0, 8, size=n)),
                prompt=tuple(int(t) for t in rng.integers(0, 8, size=p)),
            )
            for n, p in ((30, 0), (1, 3), (18, 5), (2, 0))
        ]
        nll, p_full, p_short = [], [], []
        for doc in docs:
            for i in range(0 if doc.prompt else 1, len(doc.tokens)):
                ctx = doc.prompt + doc.tokens[:i]
                tok = doc.tokens[i]
                full = backend.next_logprobs(ctx[-12:])[tok]
                nll.append(-float(full))
                p_full.append(math.exp(full))
                p_short.append(math.exp(backend.next_logprobs(ctx[-5:])[tok]))
        p_full, p_short = np.array(p_full), np.array(p_short)
        rep = coherence_report(Corpus(docs), backend, short_len=5)
        assert rep.ppl == float(np.exp(np.mean(nll)))
        assert rep.delta == float(np.mean(p_full - p_short))
        assert rep.ltf == np.count_nonzero((p_full >= 0.2) & (p_short < 0.05)) / len(p_full)
        assert rep.ppl == corpus_perplexity(Corpus(docs), backend)
        assert rep.delta == delta(Corpus(docs), backend, short_len=5)
        assert rep.ltf == ltf(Corpus(docs), backend, short_len=5)

    def test_dialog_report_columns(self):
        candidates = [("a", "b", "c", "d", "e"), ("b", "c", "a", "f", "g")]
        refs = [[("a", "b", "c", "x", "y")], [("b", "c", "a", "z", "w")]]
        rep = dialog_report(candidates, refs)
        table = render_dialog_table(rep)
        for col in ("NIST-2", "NIST-4", "BLEU-2", "BLEU-4", "Ent-4", "Dist-1", "Dist-2", "avg len"):
            assert col in table.splitlines()[0]
        assert rep.avg_len == 5.0
