import json
import os
import re

import numpy as np
import pytest

from cboost.cli import (
    load_backend,
    main,
    parse_alpha_grid,
    parse_boost_arg,
    parse_k_grid,
    vocab_sidecar_path,
)
from cboost.boosting import MAX_CONTEXT, AfterSeparator
from cboost.errors import ContractError
from cboost.rng import named_rng


def strip_timestamps(text: str) -> str:
    return re.sub(r'"timestamp":\s*"[^"]*"', '"timestamp": "X"', text)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny self-contained CLI workspace: corpus, model, task files."""
    root = tmp_path_factory.mktemp("cli")
    rng = named_rng(101, "cli-corpus")
    words = [f"w{i}" for i in range(6)]
    lines = []
    for _ in range(60):
        lines.append(" ".join(words[int(t)] for t in rng.integers(0, 6, size=40)))
    corpus = root / "corpus.txt"
    corpus.write_text("\n".join(lines), encoding="utf-8")

    model = root / "model.tlm"
    rc = main([
        "train", "--corpus", str(corpus), "--max-context", "4",
        "--steps", "60", "--lr", "0.1", "--seed", "3", "--out", str(model),
    ])
    assert rc == 0

    items = root / "items.jsonl"
    with open(items, "w", encoding="utf-8") as f:
        for i in range(12):
            ctx = " ".join(words[int(t)] for t in rng.integers(0, 6, size=6))
            f.write(json.dumps({"id": f"i{i}", "context": ctx, "target": words[i % 6]}) + "\n")

    prompts = root / "prompts.jsonl"
    with open(prompts, "w", encoding="utf-8") as f:
        for i in range(3):
            f.write(json.dumps({"id": f"p{i}", "prompt": "w0 w1 w2"}) + "\n")

    return root, corpus, model, items, prompts


class TestParsers:
    def test_alpha_grid_range(self):
        grid = parse_alpha_grid("-0.2:0.2:0.1")
        assert grid == [-0.2, -0.1, 0.0, 0.1, 0.2]

    def test_alpha_grid_list(self):
        assert parse_alpha_grid("-1,0,0.5") == [-1.0, 0.0, 0.5]

    def test_alpha_grid_bad(self):
        with pytest.raises(ContractError):
            parse_alpha_grid("1:0:0.1")

    def test_k_grid_range_and_list(self):
        assert parse_k_grid("1..4") == [1, 2, 3, 4]
        assert parse_k_grid("2,5,9") == [2, 5, 9]

    def test_boost_arg_fixed_k(self, workspace):
        _, _, model, _, _ = workspace
        backend = load_backend(f"toy:{model}")
        spec = parse_boost_arg("8:-0.25", backend, None)
        assert spec.weights == {MAX_CONTEXT: 1.25, 8: -0.25}

    def test_boost_arg_separator(self, workspace):
        _, _, model, _, _ = workspace
        backend = load_backend(f"toy:{model}")
        spec = parse_boost_arg("sep:-0.3", backend, "w5")
        assert isinstance(spec.policy, AfterSeparator)
        assert spec.weights[MAX_CONTEXT] == 1.0

    def test_boost_arg_bad(self, workspace):
        _, _, model, _, _ = workspace
        backend = load_backend(f"toy:{model}")
        with pytest.raises(ContractError):
            parse_boost_arg("oops", backend, None)


class TestTrain:
    def test_zero_steps_saves_zero_params(self, workspace, tmp_path):
        root, corpus, _, _, _ = workspace
        out = tmp_path / "zero.tlm"
        rc = main([
            "train", "--corpus", str(corpus), "--max-context", "3",
            "--steps", "0", "--out", str(out),
        ])
        assert rc == 0
        from cboost.toy_lm import load_params

        params = load_params(str(out))
        assert not params.bias.any()
        assert not params.lag_tables.any()

    def test_vocab_sidecar_written(self, workspace):
        _, _, model, _, _ = workspace
        sidecar = vocab_sidecar_path(str(model))
        assert os.path.exists(sidecar)
        words = json.load(open(sidecar))
        assert "w0" in words

    def test_determinism_same_flags(self, workspace, tmp_path):
        _, corpus, _, _, _ = workspace
        a, b = tmp_path / "a.tlm", tmp_path / "b.tlm"
        for out in (a, b):
            rc = main([
                "train", "--corpus", str(corpus), "--max-context", "3",
                "--steps", "25", "--seed", "11", "--out", str(out),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_alpha_zero_equals_base(self, workspace, tmp_path):
        _, _, model, items, _ = workspace
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", f"toy:{model}", "--alpha", "0", "--k", "2",
            "--report", str(r1),
        ])
        assert rc == 0
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", f"toy:{model}", "--alpha", "0",
            "--report", str(r2),
        ])
        assert rc == 0
        a, b = json.load(open(r1)), json.load(open(r2))
        assert a["accuracy"] == b["accuracy"]
        assert [r["pred"] for r in a["per_item"]] == [r["pred"] for r in b["per_item"]]

    def test_report_shape(self, workspace, tmp_path):
        _, _, model, items, _ = workspace
        report = tmp_path / "report.json"
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", f"toy:{model}", "--alpha", "-0.5", "--k", "2",
            "--report", str(report),
        ])
        assert rc == 0
        payload = json.load(open(report))
        for key in ("accuracy", "alpha", "k", "manifest", "n_items", "per_item"):
            assert key in payload
        assert payload["k"] == 2 and payload["alpha"] == -0.5


class TestSweep:
    def test_singleton_grid_passthrough(self, workspace, tmp_path):
        _, _, model, items, _ = workspace
        report = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--task", "lasttoken", "--backend", f"toy:{model}",
            "--val", str(items), "--test", str(items),
            "--alpha-grid", "-0.5", "--k-grid", "2", "--report", str(report),
        ])
        assert rc == 0
        payload = json.load(open(report))
        assert payload["best"]["k"] == 2
        assert payload["best"]["alpha"] == -0.5
        # val == test file + singleton grid: identical scores
        assert payload["best"]["val_score"] == payload["test"]["score"]


class TestGenerate:
    def test_boost_zero_identical_to_unboosted(self, workspace, tmp_path):
        _, _, model, _, prompts = workspace
        plain = tmp_path / "plain.jsonl"
        boosted = tmp_path / "boosted.jsonl"
        base_args = [
            "generate", "--backend", f"toy:{model}", "--prompts", str(prompts),
            "--mode", "sample", "--temp", "0.9", "--seed", "4",
            "--max-new-tokens", "12",
        ]
        assert main(base_args + ["--out", str(plain)]) == 0
        assert main(base_args + ["--boost", "2:0", "--out", str(boosted)]) == 0
        read = lambda p: [
            json.loads(l)["output_tokens"]
            for l in open(p)
            if "output_tokens" in json.loads(l)
        ]
        assert read(plain) == read(boosted)

    def test_determinism(self, workspace, tmp_path):
        _, _, model, _, prompts = workspace
        path = tmp_path / "gen.jsonl"
        outs = []
        for _ in range(2):
            rc = main([
                "generate", "--backend", f"toy:{model}", "--prompts", str(prompts),
                "--mode", "topp", "--p", "0.9", "--seed", "9",
                "--max-new-tokens", "10", "--out", str(path),
            ])
            assert rc == 0
            outs.append(strip_timestamps(path.read_text()))
        assert outs[0] == outs[1]

    def test_manifest_first_line(self, workspace, tmp_path):
        _, _, model, _, prompts = workspace
        path = tmp_path / "gen.jsonl"
        main([
            "generate", "--backend", f"toy:{model}", "--prompts", str(prompts),
            "--max-new-tokens", "4", "--out", str(path),
        ])
        first = json.loads(path.read_text().splitlines()[0])
        assert "manifest" in first
        assert first["manifest"]["command"] == "generate"


class TestMetrics:
    def test_coherence_columns(self, workspace, tmp_path, capsys):
        _, _, model, _, prompts = workspace
        gen = tmp_path / "gen.jsonl"
        main([
            "generate", "--backend", f"toy:{model}", "--prompts", str(prompts),
            "--mode", "sample", "--seed", "2", "--max-new-tokens", "30",
            "--out", str(gen),
        ])
        report = tmp_path / "metrics.json"
        rc = main([
            "metrics", "--generations", str(gen), "--backend", f"toy:{model}",
            "--report", str(report), "--short-len", "3",
        ])
        assert rc == 0
        payload = json.load(open(report))
        for key in ("ppl", "self_bleu4", "zipf", "repetition", "lr_50", "lr_100", "delta", "ltf"):
            assert key in payload["coherence"]
        header = payload["table"].splitlines()[0]
        for col in ("ppl", "BLEU-4", "Zipf", "rep %", "LR_50 %", "LR_100 %", "delta %", "LTF %"):
            assert col in header

    def test_dialog_metrics_with_refs(self, workspace, tmp_path):
        _, _, model, _, prompts = workspace
        gen = tmp_path / "gen.jsonl"
        main([
            "generate", "--backend", f"toy:{model}", "--prompts", str(prompts),
            "--mode", "sample", "--seed", "2", "--max-new-tokens", "12",
            "--out", str(gen),
        ])
        refs = tmp_path / "refs.jsonl"
        with open(refs, "w") as f:
            for i in range(3):
                f.write(json.dumps({"id": f"p{i}", "references": ["w0 w1 w2 w3", "w2 w1"]}) + "\n")
        report = tmp_path / "metrics.json"
        rc = main([
            "metrics", "--generations", str(gen), "--backend", f"toy:{model}",
            "--ref", str(refs), "--report", str(report), "--short-len", "3",
        ])
        assert rc == 0
        payload = json.load(open(report))
        assert "dialog" in payload
        for key in ("nist_2", "nist_4", "bleu_2", "bleu_4", "entropy_4", "distinct_1", "distinct_2", "avg_len"):
            assert key in payload["dialog"]


class TestTuneAnalyze:
    def test_tune_writes_trace_and_params(self, workspace, tmp_path):
        _, _, model, _, _ = workspace
        out = tmp_path / "tuned.tlm"
        trace = tmp_path / "trace.csv"
        rc = main([
            "tune", "--model", str(model), "--boost", "2:-0.5",
            "--steps", "4", "--batch", "4", "--seq-len", "8",
            "--lr", "0.5", "--seed", "1", "--out", str(out), "--trace", str(trace),
        ])
        assert rc == 0
        assert out.exists()
        assert trace.read_text().startswith("step,mean_kl")
        assert os.path.exists(vocab_sidecar_path(str(out)))

    def test_no_boost_tune_is_noop(self, workspace, tmp_path):
        _, _, model, _, _ = workspace
        out = tmp_path / "noop.tlm"
        rc = main([
            "tune", "--model", str(model), "--boost", "2:0",
            "--steps", "2", "--batch", "2", "--seq-len", "4",
            "--out", str(out),
        ])
        assert rc == 0
        from cboost.toy_lm import load_params

        a = load_params(str(model))
        b = load_params(str(out))
        assert np.array_equal(a.bias, b.bias)
        assert np.array_equal(a.lag_tables, b.lag_tables)

    def test_analyze_k_equals_max(self, workspace, tmp_path):
        root, corpus, model, _, _ = workspace
        report = tmp_path / "analysis.json"
        pareto = tmp_path / "pareto.txt"
        rc = main([
            "analyze", "--model", str(model), "--heldout", str(corpus),
            "--k", "4", "--report", str(report), "--pareto", str(pareto),
        ])
        assert rc == 0
        payload = json.load(open(report))
        assert payload["derivative"]["analytic_derivative"] == 0.0
        assert abs(payload["derivative"]["fd_derivative"]) <= 1e-6
        assert "pareto" in payload
        assert pareto.exists()


class TestConfigFileAndExitCodes:
    def test_config_file_defaults_flags_win(self, workspace, tmp_path):
        _, _, model, items, _ = workspace
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alpha": -0.5, "k": 2, "jobs": 1}))
        report = tmp_path / "r.json"
        rc = main([
            "--config", str(config),
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", f"toy:{model}", "--alpha", "-0.25",
            "--report", str(report),
        ])
        assert rc == 0
        payload = json.load(open(report))
        assert payload["alpha"] == -0.25  # explicit flag wins
        assert payload["k"] == 2          # config fills the gap

    def test_missing_file_exit_2(self, workspace, tmp_path):
        _, _, model, _, _ = workspace
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(tmp_path / "missing.jsonl"),
            "--backend", f"toy:{model}", "--alpha", "0",
            "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2

    def test_unknown_backend_exit_2(self, workspace, tmp_path):
        _, _, _, items, _ = workspace
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", "mystery:nowhere", "--alpha", "0",
            "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2

    def test_backend_failure_exit_3(self, workspace, tmp_path, monkeypatch):
        _, _, model, items, _ = workspace
        import cboost.remote as remote_mod

        monkeypatch.setattr(remote_mod, "MAX_RETRIES", 1)
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", "remote:http://127.0.0.1:1",
            "--vocab", vocab_sidecar_path(str(model)),
            "--alpha", "0",
            "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 3

    def test_remote_without_vocab_is_contract_error(self, workspace, tmp_path):
        _, _, _, items, _ = workspace
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", "remote:http://127.0.0.1:1", "--alpha", "0",
            "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2

    def test_numerical_guard_exit_4(self, copy_task, tmp_path):
        from cboost.toy_lm import TrainConfig, save_params, train_uniform_scalarization

        weak = train_uniform_scalarization(copy_task.train, TrainConfig())
        model = tmp_path / "weak.tlm"
        save_params(weak, str(model))
        rc = main([
            "tune", "--model", str(model), "--boost", "5:-0.5",
            "--lr", "20.0", "--out", str(tmp_path / "t.tlm"),
        ])
        assert rc == 4

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cboost" in capsys.readouterr().out


class TestRemoteEndToEnd:
    def test_eval_over_the_wire_matches_local(self, workspace, tmp_path):
        from cboost.remote import BackendServer
        from cboost.toy_lm import ToyBackend, load_params

        _, _, model, items, _ = workspace
        vocab = vocab_sidecar_path(str(model))
        params = load_params(str(model))
        tokenizer = json.load(open(vocab))
        from cboost.toy_lm import WhitespaceTokenizer

        backend = ToyBackend(params, WhitespaceTokenizer(tokenizer))
        local_report = tmp_path / "local.json"
        remote_report = tmp_path / "remote.json"
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", f"toy:{model}", "--alpha", "-0.5", "--k", "2",
            "--report", str(local_report),
        ])
        assert rc == 0
        with BackendServer(backend) as server:
            rc = main([
                "eval", "--task", "lasttoken", "--data", str(items),
                "--backend", f"remote:{server.url}", "--vocab", vocab,
                "--alpha", "-0.5", "--k", "2",
                "--report", str(remote_report),
            ])
            assert rc == 0
        local = json.load(open(local_report))
        remote = json.load(open(remote_report))
        assert local["accuracy"] == remote["accuracy"]
        assert [r["pred"] for r in local["per_item"]] == [
            r["pred"] for r in remote["per_item"]
        ]


MC_RECORD = {"id": "m", "full_context": "w0 w1", "premise_free_context": "w1",
             "choices": ["w2", "w3"], "gold": 1}


class TestMalformedInputExit2:
    """Bad task and prompt records exit 2 with a message naming the file,
    the line and the field, not with a traceback."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"choices": None}, "missing field 'choices'"),
            ({"id": None}, "missing field 'id'"),
            ({"gold": "x"}, "field 'gold' must be an integer"),
            ({"choices": "ab"}, "field 'choices' must be a list of strings"),
            ({"full_context": 3}, "field 'full_context' must be a string"),
        ],
        ids=["no-choices", "no-id", "gold-not-int", "choices-string", "context-not-string"],
    )
    def test_bad_mc_record(self, workspace, tmp_path, capsys, change, message):
        _, _, model, _, _ = workspace
        record = {k: v for k, v in {**MC_RECORD, **change}.items() if v is not None}
        data = tmp_path / "mc.jsonl"
        data.write_text(json.dumps(MC_RECORD) + "\n" + json.dumps(record) + "\n")
        rc = main([
            "eval", "--task", "mc", "--data", str(data), "--backend", f"toy:{model}",
            "--alpha", "0", "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert f"{data}:2: {message}" in capsys.readouterr().err

    def test_bad_prompt_record(self, workspace, tmp_path, capsys):
        _, _, model, _, _ = workspace
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text(json.dumps({"id": "p0"}) + "\n")
        rc = main([
            "generate", "--backend", f"toy:{model}", "--prompts", str(prompts),
            "--out", str(tmp_path / "g.jsonl"),
        ])
        assert rc == 2
        assert f"{prompts}:1: missing field 'prompt'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--k-grid", "1..x"), ("--alpha-grid", "0,x")])
    def test_bad_grid_flag(self, workspace, tmp_path, capsys, flag, value):
        _, _, model, items, _ = workspace
        rc = main([
            "sweep", "--task", "lasttoken", "--backend", f"toy:{model}",
            "--val", str(items), "--test", str(items), flag, value,
            "--report", str(tmp_path / "s.json"),
        ])
        assert rc == 2
        assert repr(value) in capsys.readouterr().err


class TestRemoteReplyFaults:
    def test_nan_reply_exit_3(self, workspace, tmp_path):
        from cboost.backend import Backend, BackendInfo
        from cboost.remote import BackendServer

        class NanModel(Backend):
            def info(self):
                return BackendInfo(8, 64, "nan")

            def next_logprobs(self, context):
                return np.array([np.nan] + [0.0] * 7)

        _, _, model, items, _ = workspace
        with BackendServer(NanModel()) as server:
            rc = main([
                "eval", "--task", "lasttoken", "--data", str(items),
                "--backend", f"remote:{server.url}",
                "--vocab", vocab_sidecar_path(str(model)),
                "--alpha", "0",
                "--report", str(tmp_path / "r.json"),
            ])
        assert rc == 3  # the server's fault, not bad input (2)


class TestTrainReachesLowLoss:
    def test_alternating_corpus_cli_run(self, tmp_path):
        corpus = tmp_path / "alt.txt"
        corpus.write_text(" ".join(["a b"] * 2000), encoding="utf-8")
        model = tmp_path / "alt.tlm"
        rc = main([
            "train", "--corpus", str(corpus), "--max-context", "2",
            "--steps", "2500", "--seed", "0", "--out", str(model),
        ])
        assert rc == 0
        from cboost.toy_lm import WhitespaceTokenizer, load_params, loss_profile

        params = load_params(str(model))
        vocab = json.load(open(vocab_sidecar_path(str(model))))
        tok = WhitespaceTokenizer(vocab)
        heldout = tok.encode(" ".join(["a b"] * 400))
        prof = loss_profile(params, heldout, 2)
        assert prof[1] < 0.01
