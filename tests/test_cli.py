import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cboost.cli import (
    build_parser,
    load_backend,
    main,
    parse_alpha_grid,
    parse_boost_arg,
    parse_k_grid,
    vocab_sidecar_path,
)
from cboost.boosting import MAX_CONTEXT
from cboost.errors import ContractError
from cboost.rng import named_rng

from conftest import load_strict


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

    @pytest.mark.parametrize("arg", ["nan", "0,inf", "-inf:0:0.5", "0:1:nan"])
    def test_alpha_grid_non_finite(self, arg):
        with pytest.raises(ContractError, match="bad grid spec"):
            parse_alpha_grid(arg)

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
        assert spec.separator == backend.encode("w5")[-1]
        assert spec.weights[MAX_CONTEXT] == 1.0

    def test_boost_arg_bad(self, workspace):
        _, _, model, _, _ = workspace
        backend = load_backend(f"toy:{model}")
        with pytest.raises(ContractError):
            parse_boost_arg("oops", backend, None)


def test_readme_cli_examples_parse():
    """Every `cboost` command in README's CLI block names real flags."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [
        line for line in block.replace("\\\n", " ").splitlines() if line.startswith("cboost ")
    ]
    assert len(commands) == 8
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])


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
        words = json.loads(Path(sidecar).read_text())
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
        a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
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
        payload = json.loads(report.read_text())
        for key in ("accuracy", "alpha", "k", "manifest", "n_items", "per_item"):
            assert key in payload
        assert payload["k"] == 2 and payload["alpha"] == -0.5

    def test_summarize_report(self, workspace, tmp_path):
        _, _, model, _, _ = workspace
        report = tmp_path / "summ.json"
        rc = main([
            "eval", "--task", "summarize", "--data", str(summarize_items(tmp_path)),
            "--backend", f"toy:{model}", "--alpha", "-0.5", "--max-new-tokens", "4",
            "--report", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert sorted(payload) == ["alpha", "manifest", "mean", "rows", "sentence_count"]
        assert payload["alpha"] == -0.5 and payload["sentence_count"] == 3
        assert sorted(payload["mean"]) == ["rouge1", "rouge2", "rougeL"]
        assert [row["id"] for row in payload["rows"]] == ["s0", "s1"]


def summarize_items(tmp_path):
    path = tmp_path / "summ.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"id": "s0", "article": "w0 w1 w2 w3", "reference": "w1 w2"}) + "\n")
        f.write(json.dumps({"id": "s1", "article": "w4 w5 w4", "reference": "w5"}) + "\n")
    return path


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
        payload = json.loads(report.read_text())
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
            for l in p.read_text().splitlines()
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
        payload = json.loads(report.read_text())
        for key in ("ppl", "self_bleu4", "zipf", "repetition", "lr_50", "lr_100", "delta", "ltf"):
            assert key in payload["coherence"]
        header = payload["table"].splitlines()[0]
        for col in ("ppl", "BLEU-4", "Zipf", "rep %", "LR_50 %", "LR_100 %", "delta %", "LTF %"):
            assert col in header

    def test_lr_columns_follow_lr_ns(self, workspace, tmp_path, capsys):
        _, _, model, _, prompts = workspace
        gen = tmp_path / "gen.jsonl"
        main([
            "generate", "--backend", f"toy:{model}", "--prompts", str(prompts),
            "--mode", "sample", "--seed", "2", "--max-new-tokens", "30",
            "--out", str(gen),
        ])
        capsys.readouterr()
        report = tmp_path / "metrics.json"
        rc = main([
            "metrics", "--generations", str(gen), "--backend", f"toy:{model}",
            "--report", str(report), "--lr-ns", "5,10",
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert {"lr_5", "lr_10"} <= set(payload["coherence"])
        header = payload["table"].splitlines()[0].split("  ")
        assert "LR_5 %" in header and "LR_10 %" in header
        assert "nan" not in payload["table"]
        assert capsys.readouterr().out == payload["table"] + "\n"

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
        payload = json.loads(report.read_text())
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
        payload = json.loads(report.read_text())
        assert payload["derivative"]["analytic_derivative"] == 0.0
        assert abs(payload["derivative"]["fd_derivative"]) <= 1e-6
        assert "pareto" in payload
        assert pareto.exists()


class TestConfigFileAndExitCodes:
    def test_config_file_defaults_flags_win(self, workspace, tmp_path):
        _, _, model, items, _ = workspace
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alpha": -0.5, "k": 2}))
        report = tmp_path / "r.json"
        rc = main([
            "--config", str(config),
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", f"toy:{model}", "--alpha", "-0.25",
            "--report", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
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

    @pytest.mark.parametrize("url", ["localhost:8642", "ftp://localhost:8642"])
    def test_remote_url_not_http_exit_2_without_retry(self, workspace, tmp_path, monkeypatch, capsys, url):
        # a URL no request can reach is bad input, not a transient failure
        _, _, model, items, _ = workspace
        import cboost.remote as remote_mod

        def no_sleep(seconds):
            raise AssertionError("a malformed URL was retried")

        monkeypatch.setattr(remote_mod.time, "sleep", no_sleep)
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", f"remote:{url}", "--vocab", vocab_sidecar_path(str(model)),
            "--alpha", "0", "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert f"got {url!r}" in capsys.readouterr().err

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
        tokenizer = json.loads(Path(vocab).read_text())
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
        local = json.loads(local_report.read_text())
        remote = json.loads(remote_report.read_text())
        assert local["accuracy"] == remote["accuracy"]
        # every record, logprob_target included, to the last bit
        assert "logprob_target" in local["per_item"][0]
        assert local["per_item"] == remote["per_item"]

    def test_text_task_without_vocab_exit_2(self, workspace, tmp_path, capsys):
        from cboost.remote import BackendServer

        _, _, model, _, _ = workspace
        data = tmp_path / "mc.jsonl"
        data.write_text(json.dumps(MC_RECORD) + "\n")
        with BackendServer(load_backend(f"toy:{model}")) as server:
            rc = main([
                "eval", "--task", "mc", "--data", str(data),
                "--backend", f"remote:{server.url}", "--alpha", "-0.5",
                "--report", str(tmp_path / "r.json"),
            ])
        assert rc == 2
        assert "--vocab" in capsys.readouterr().err


class TestStrictOutputs:
    """Reports and generations files are JSON that a strict reader accepts:
    -Infinity, the score of a zero-probability token, and no NaN or
    Infinity.  The session fixture ``strict_cli_outputs`` checks every such
    file the CLI writes in this suite."""

    @pytest.mark.parametrize("constant", ["NaN", "Infinity"])
    def test_parser_rejects_nan_and_infinity(self, tmp_path, constant):
        path = tmp_path / "r.json"
        path.write_text(f'{{"score": {constant}}}')
        with pytest.raises(AssertionError, match=constant):
            load_strict(str(path))

    def test_parser_accepts_minus_infinity(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"a": 1}\n{"logprob": -Infinity}\n')
        assert load_strict(str(path), lines=True) == [{"a": 1}, {"logprob": float("-inf")}]

    def test_report_and_generations_checked(self, workspace, tmp_path, strict_cli_outputs):
        _, _, model, items, prompts = workspace
        report, gen = str(tmp_path / "r.json"), str(tmp_path / "g.jsonl")
        assert main([
            "eval", "--task", "lasttoken", "--data", str(items), "--backend", f"toy:{model}",
            "--alpha", "-0.5", "--k", "2", "--report", report,
        ]) == 0
        assert main([
            "generate", "--backend", f"toy:{model}", "--prompts", str(prompts), "--out", gen,
        ]) == 0
        assert strict_cli_outputs[-2:] == [report, gen]


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


GEN_RECORD = {"id": "g", "prompt_tokens": [2, 3], "output_tokens": [4, 5, 6, 7, 2], "text": "w2 w3"}


class TestMalformedMetricsInputExit2:
    """Bad generation and reference records exit 2 naming the file, the
    line and the field."""

    def run_metrics(self, workspace, tmp_path, gen_lines, ref_lines=None):
        _, _, model, _, _ = workspace
        gen = tmp_path / "gen.jsonl"
        gen.write_text("\n".join([json.dumps({"manifest": {}})] + gen_lines) + "\n")
        argv = ["metrics", "--generations", str(gen), "--backend", f"toy:{model}",
                "--report", str(tmp_path / "m.json"), "--short-len", "2"]
        if ref_lines is not None:
            refs = tmp_path / "refs.jsonl"
            refs.write_text("\n".join(ref_lines) + "\n")
            argv += ["--ref", str(refs)]
        return main(argv), gen

    def test_missing_output_tokens(self, workspace, tmp_path, capsys):
        record = {k: v for k, v in GEN_RECORD.items() if k != "output_tokens"}
        rc, gen = self.run_metrics(workspace, tmp_path, [json.dumps(GEN_RECORD), json.dumps(record)])
        assert rc == 2
        assert f"{gen}:3: missing field 'output_tokens'" in capsys.readouterr().err

    def test_line_not_json(self, workspace, tmp_path, capsys):
        rc, gen = self.run_metrics(workspace, tmp_path, [json.dumps(GEN_RECORD), "{not json"])
        assert rc == 2
        assert f"{gen}:3: malformed JSON" in capsys.readouterr().err

    def test_ref_missing_references(self, workspace, tmp_path, capsys):
        rc, _ = self.run_metrics(
            workspace, tmp_path, [json.dumps(GEN_RECORD)], [json.dumps({"id": "g"})]
        )
        assert rc == 2
        assert "refs.jsonl:1: missing field 'references'" in capsys.readouterr().err

    def test_ref_missing_id_exits_before_scoring(self, workspace, tmp_path, capsys, monkeypatch):
        from cboost.toy_lm import ToyBackend

        rows = []  # contexts the toy model scored
        batch, one = ToyBackend.next_logprobs_batch, ToyBackend.next_logprobs
        monkeypatch.setattr(ToyBackend, "next_logprobs_batch",
                            lambda self, contexts: rows.append(len(contexts)) or batch(self, contexts))
        monkeypatch.setattr(ToyBackend, "next_logprobs",
                            lambda self, context: rows.append(1) or one(self, context))
        text = "w2 w3 w4 w5 w2"  # long enough for BLEU's 4-grams
        gen_lines = [json.dumps(dict(GEN_RECORD, id=i, text=text)) for i in ("g", "h")]
        refs = [json.dumps({"id": "g", "references": [text]})]
        rc, _ = self.run_metrics(workspace, tmp_path, gen_lines, refs)
        assert rc == 2
        assert "no references for generation h" in capsys.readouterr().err
        assert rows == []
        refs.append(json.dumps({"id": "h", "references": [text]}))
        rc, _ = self.run_metrics(workspace, tmp_path, gen_lines, refs)
        assert rc == 0
        assert sum(rows) > 0  # the wrap counts what a good run scores

    def test_text_checked_only_with_refs(self, workspace, tmp_path, capsys):
        record = {k: v for k, v in GEN_RECORD.items() if k != "text"}
        rc, _ = self.run_metrics(workspace, tmp_path, [json.dumps(record)])
        assert rc == 0
        refs = [json.dumps({"id": "g", "references": ["w2"]})]
        rc, gen = self.run_metrics(workspace, tmp_path, [json.dumps(record)], refs)
        assert rc == 2
        assert f"{gen}:2: missing field 'text'" in capsys.readouterr().err


class TestOtherInputFilesExit2:
    def test_misspelt_config_key(self, workspace, tmp_path, capsys):
        _, _, model, items, _ = workspace
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alpah": -0.5}))
        rc = main([
            "--config", str(config),
            "eval", "--task", "lasttoken", "--data", str(items),
            "--backend", f"toy:{model}", "--alpha", "0", "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert "'alpah'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_non_integer_heldout_without_sidecar(self, workspace, tmp_path, capsys):
        _, corpus, model, _, _ = workspace
        bare = tmp_path / "bare.tlm"
        bare.write_bytes(model.read_bytes())  # no vocabulary sidecar
        rc = main([
            "analyze", "--model", str(bare), "--heldout", str(corpus),
            "--k", "2", "--report", str(tmp_path / "a.json"),
        ])
        assert rc == 2
        assert str(corpus) in capsys.readouterr().err

    def test_heldout_shorter_than_lag_depth(self, tmp_path, capsys):
        from cboost.toy_lm import ToyLMParams, save_params

        model = tmp_path / "lag6.tlm"
        save_params(ToyLMParams.zeros(4, 6), str(model))
        heldout = tmp_path / "heldout.txt"
        heldout.write_text("0 1 2", encoding="utf-8")
        rc = main([
            "analyze", "--model", str(model), "--heldout", str(heldout),
            "--k", "2", "--report", str(tmp_path / "a.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "held-out stream has 3 tokens; needs at least 7 (lags + 1)" in err
        assert not (tmp_path / "a.json").exists()

    def test_model_header_truncated(self, workspace, tmp_path, capsys):
        # "TLM1" and 5 of the 8 header bytes: struct.unpack must not run
        _, _, _, items, _ = workspace
        model = tmp_path / "short.tlm"
        model.write_bytes(b"TLM1" + b"\x08\x00\x00\x00\x02")
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items), "--backend", f"toy:{model}",
            "--alpha", "0", "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "corrupt parameter file: 5 header bytes, expected 8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_model_body_not_whole_float64s(self, workspace, tmp_path, capsys):
        # a valid model with 3 bytes cut off its end: np.frombuffer must not run
        _, _, model, items, _ = workspace
        cut = tmp_path / "cut.tlm"
        cut.write_bytes(model.read_bytes()[:-3])
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items), "--backend", f"toy:{cut}",
            "--alpha", "0", "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "is not whole float64s" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["eval", "generate"])
    def test_model_lag_depth_zero(self, workspace, tmp_path, capsys, command):
        # a well-formed file whose header gives lag depth 0 (just the bias),
        # next to the workspace model's vocabulary
        _, _, trained, items, prompts = workspace
        model = tmp_path / "lag0.tlm"
        model.write_bytes(b"TLM1" + struct.pack("<II", 8, 0) + np.zeros(8).tobytes())
        shutil.copy(vocab_sidecar_path(str(trained)), vocab_sidecar_path(str(model)))
        out = tmp_path / "out.json"
        if command == "eval":
            argv = ["eval", "--task", "lasttoken", "--data", str(items), "--alpha", "0", "--report", str(out)]
        else:
            argv = ["generate", "--prompts", str(prompts), "--max-new-tokens", "4", "--out", str(out)]
        rc = main(argv + ["--backend", f"toy:{model}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lag depth must be at least 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("h", ["nan", "inf", "-inf", "0", "-1e-3"])
    def test_analyze_step_not_finite_positive(self, workspace, tmp_path, capsys, h):
        _, corpus, model, _, _ = workspace
        report = tmp_path / "a.json"
        rc = main([
            "analyze", "--model", str(model), "--heldout", str(corpus),
            "--k", "2", f"--h={h}", "--report", str(report),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite-difference step h must be finite and positive" in err
        assert "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("h", ["1e-300", "5e-324", "1e-12"])
    def test_analyze_step_below_rounding(self, workspace, tmp_path, capsys, h):
        # below sqrt(float64 eps) the two NLLs' rounding swamps their
        # difference: 1e-300 and 5e-324 give a finite difference of 0
        _, corpus, model, _, _ = workspace
        report = tmp_path / "a.json"
        rc = main([
            "analyze", "--model", str(model), "--heldout", str(corpus),
            "--k", "2", f"--h={h}", "--report", str(report),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite-difference step h must be at least 1.49e-08" in err
        assert "Traceback" not in err
        assert not report.exists()

    def test_analyze_small_step_runs(self, workspace, tmp_path):
        _, corpus, model, _, _ = workspace
        report = tmp_path / "a.json"
        rc = main([
            "analyze", "--model", str(model), "--heldout", str(corpus),
            "--k", "2", "--h", "1e-7", "--report", str(report),
        ])
        assert rc == 0
        derivative = json.loads(report.read_text())["derivative"]
        assert derivative["h"] == 1e-7
        assert abs(derivative["fd_derivative"] - derivative["analytic_derivative"]) < 1e-4

    def test_analyze_step_overflows_mix(self, workspace, tmp_path, capsys):
        # 1e308 is a finite step, but (1 + h) * log f_max overflows: the
        # finite difference would be NaN
        _, corpus, model, _, _ = workspace
        report = tmp_path / "a.json"
        rc = main([
            "analyze", "--model", str(model), "--heldout", str(corpus),
            "--k", "2", "--h", "1e308", "--report", str(report),
        ])
        assert rc == 4
        err = capsys.readouterr().err
        assert "held-out NLL of the boosted mix is not finite" in err
        assert "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("via", ["sidecar", "--vocab"])
    def test_malformed_vocabulary(self, workspace, tmp_path, capsys, via):
        _, _, model, items, _ = workspace
        copy = tmp_path / "m.tlm"
        copy.write_bytes(model.read_bytes())
        bad = tmp_path / "bad.vocab.json" if via == "--vocab" else vocab_sidecar_path(str(copy))
        with open(bad, "w") as f:
            f.write('["w0", "w1"')
        argv = ["eval", "--task", "lasttoken", "--data", str(items), "--backend", f"toy:{copy}",
                "--alpha", "0", "--report", str(tmp_path / "r.json")]
        rc = main(argv + (["--vocab", str(bad)] if via == "--vocab" else []))
        assert rc == 2
        assert f"{bad}: malformed JSON" in capsys.readouterr().err


class TestBadSettingsExit2:
    def test_last_token_boosting_without_k(self, workspace, tmp_path, capsys):
        # with no short expert, the report must not show alpha -3 over plain-model scores
        _, _, model, items, _ = workspace
        report = tmp_path / "r.json"
        rc = main([
            "eval", "--task", "lasttoken", "--data", str(items), "--backend", f"toy:{model}",
            "--alpha", "-3", "--report", str(report),
        ])
        assert rc == 2
        assert "needs k" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--steps", "-3")])
    def test_train_bounds(self, workspace, tmp_path, capsys, flag, value):
        _, corpus, _, _, _ = workspace
        rc = main(["train", "--corpus", str(corpus), flag, value, "--out", str(tmp_path / "m.tlm")])
        assert rc == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "m.tlm").exists()

    @pytest.mark.parametrize("tail", ["0", "-5"])
    def test_tune_tail_bound(self, workspace, tmp_path, capsys, tail):
        _, _, model, _, _ = workspace
        rc = main([
            "tune", "--model", str(model), "--boost", "2:-0.5", "--steps", "1",
            "--tail", tail, "--out", str(tmp_path / "t.tlm"),
        ])
        assert rc == 2
        assert "tail_positions" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_summary_sentence_count(self, workspace, tmp_path, capsys, count):
        # 0 would score empty summaries, and -1 would drop each summary's last sentence
        _, _, model, _, _ = workspace
        report = tmp_path / "summ.json"
        rc = main([
            "eval", "--task", "summarize", "--data", str(summarize_items(tmp_path)),
            "--backend", f"toy:{model}", "--alpha", "-0.5", "--max-new-tokens", "4",
            "--sentences", count, "--report", str(report),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"sentence_count must be >= 1, got {count}" in err
        assert "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--rep-min-copies", "0"), ("--rep-min-copies", "1"), ("--rep-max-span", "0")]
    )
    def test_repetition_bounds(self, workspace, tmp_path, capsys, flag, value):
        # fewer than two copies flags every document, and no span flags none
        _, _, model, _, _ = workspace
        gen = tmp_path / "gen.jsonl"
        gen.write_text(json.dumps({"manifest": {}}) + "\n" + json.dumps(GEN_RECORD) + "\n")
        report = tmp_path / "m.json"
        rc = main([
            "metrics", "--generations", str(gen), "--backend", f"toy:{model}",
            "--short-len", "2", flag, value, "--report", str(report),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "repetition needs min_copies >= 2 and max_span >= 1" in err
        assert "Traceback" not in err
        assert not report.exists()


class TestNonUtf8InputExit2:
    """An input file that is not UTF-8 exits 2 naming the file, not with a
    UnicodeDecodeError traceback."""

    @staticmethod
    def non_utf8(path):
        path.write_bytes(b"\xff\xfe" + "w0 w1 w2".encode("utf-16-le"))
        return path

    def test_task_file(self, workspace, tmp_path, capsys):
        _, _, model, _, _ = workspace
        data = self.non_utf8(tmp_path / "mc.jsonl")
        rc = main([
            "eval", "--task", "mc", "--data", str(data), "--backend", f"toy:{model}",
            "--alpha", "0", "--report", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert f"{data}: not UTF-8 text" in capsys.readouterr().err

    def test_corpus(self, tmp_path, capsys):
        corpus = self.non_utf8(tmp_path / "corpus.txt")
        rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.tlm")])
        assert rc == 2
        assert f"{corpus}: not UTF-8 text" in capsys.readouterr().err

    def test_heldout(self, workspace, tmp_path, capsys):
        _, _, model, _, _ = workspace
        heldout = self.non_utf8(tmp_path / "heldout.txt")
        rc = main([
            "analyze", "--model", str(model), "--heldout", str(heldout),
            "--k", "2", "--report", str(tmp_path / "a.json"),
        ])
        assert rc == 2
        assert f"{heldout}: not UTF-8 text" in capsys.readouterr().err


class TestNonFiniteFlagsExit2:
    """A non-finite --alpha or grid value, and a generation setting outside
    its range, exit 2 before any output file is written."""

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_eval_alpha(self, workspace, tmp_path, capsys, alpha):
        _, _, model, _, _ = workspace
        data = tmp_path / "mc.jsonl"
        data.write_text(json.dumps(MC_RECORD) + "\n")
        report = tmp_path / "r.json"
        rc = main([
            "eval", "--task", "mc", "--data", str(data), "--backend", f"toy:{model}",
            f"--alpha={alpha}", "--report", str(report),
        ])
        assert rc == 2
        assert "--alpha must be finite" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("grid", ["nan,0", "0,-inf", "nan:0:0.5", "-1:inf:0.5", "-1:0:nan"])
    def test_sweep_alpha_grid(self, workspace, tmp_path, capsys, grid):
        _, _, model, _, _ = workspace
        data = tmp_path / "mc.jsonl"
        data.write_text(json.dumps(MC_RECORD) + "\n")
        report = tmp_path / "s.json"
        rc = main([
            "sweep", "--task", "mc", "--backend", f"toy:{model}", "--val", str(data),
            "--test", str(data), f"--alpha-grid={grid}", "--report", str(report),
        ])
        assert rc == 2
        assert f"bad grid spec {grid!r}" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--temp", "nan"], "temperature"),
            (["--temp", "inf"], "temperature"),
            (["--mode", "topp", "--p", "1.5"], "top_p"),
            (["--mode", "topp", "--p", "0"], "top_p"),
            (["--mode", "sample", "--top-k", "0"], "top_k"),
        ],
        ids=["temp-nan", "temp-inf", "p-above-1", "p-zero", "top-k-zero"],
    )
    def test_generate_settings(self, workspace, tmp_path, capsys, flags, message):
        _, _, model, _, prompts = workspace
        out = tmp_path / "g.jsonl"
        rc = main([
            "generate", "--backend", f"toy:{model}", "--prompts", str(prompts),
            "--max-new-tokens", "4", *flags, "--out", str(out),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTuneVocabularyCheckedFirst:
    @pytest.mark.parametrize(
        "sidecar, message",
        [(b"\xff\xfe[]", "not UTF-8 text"), (b"[1, 2]", "vocabulary must be a JSON list of strings")],
        ids=["not-utf8", "not-strings"],
    )
    def test_bad_sidecar_writes_nothing(self, workspace, tmp_path, capsys, sidecar, message):
        _, _, model, _, _ = workspace
        copy = tmp_path / "m.tlm"
        copy.write_bytes(model.read_bytes())
        (tmp_path / "m.tlm.vocab.json").write_bytes(sidecar)
        rc = main([
            "tune", "--model", str(copy), "--boost", "2:-0.5", "--steps", "1",
            "--batch", "2", "--seq-len", "4", "--out", str(tmp_path / "out.tlm"),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("out.tlm*")) == []

    def test_sidecar_copied_byte_for_byte(self, workspace, tmp_path):
        _, _, model, _, _ = workspace
        out = tmp_path / "out.tlm"
        rc = main([
            "tune", "--model", str(model), "--boost", "2:-0.5", "--steps", "1",
            "--batch", "2", "--seq-len", "4", "--out", str(out),
        ])
        assert rc == 0
        with open(vocab_sidecar_path(str(model)), "rb") as f:
            assert (tmp_path / "out.tlm.vocab.json").read_bytes() == f.read()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.tlm", "out.tlm.manifest.json", "out.tlm.vocab.json"
        ]


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

    @staticmethod
    def failing_server(model, good_calls):
        """A BackendServer over the workspace model whose replies turn to
        NaN after ``good_calls`` next_logprobs calls."""
        from cboost.backend import Backend
        from cboost.remote import BackendServer
        from cboost.toy_lm import ToyBackend, load_params

        class FailsAfter(Backend):
            def __init__(self):
                self.inner = ToyBackend(load_params(str(model)))
                self.calls = 0

            def info(self):
                return self.inner.info()

            def next_logprobs(self, context):
                self.calls += 1
                if self.calls > good_calls:
                    return np.full(self.info().vocab_size, np.nan)
                return self.inner.next_logprobs(context)

        return BackendServer(FailsAfter())

    def test_summarize_failure_exit_3_names_the_item(self, workspace, tmp_path, capsys):
        _, _, model, _, _ = workspace
        # s0 takes 7 model calls (one unboosted step, then two experts
        # per step), so the 8th call belongs to s1
        with self.failing_server(model, good_calls=7) as server:
            rc = main([
                "eval", "--task", "summarize", "--data", str(summarize_items(tmp_path)),
                "--backend", f"remote:{server.url}",
                "--vocab", vocab_sidecar_path(str(model)),
                "--alpha", "-0.5", "--max-new-tokens", "4",
                "--report", str(tmp_path / "r.json"),
            ])
        assert rc == 3
        assert "backend error: generation failed for item s1: " in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_generate_failure_exit_3_names_the_prompt(self, workspace, tmp_path, capsys):
        _, _, model, _, prompts = workspace
        # p0 takes 4 greedy model calls, so the 6th call belongs to p1,
        # after the manifest and p0's record were written
        later = tmp_path / "later.jsonl"
        later.write_text(
            "".join(
                json.dumps({"id": f"p{i}", "prompt": text}) + "\n"
                for i, text in enumerate(["w0 w1 w2", "w3 w4 w5"])
            ),
            encoding="utf-8",
        )
        out = tmp_path / "g.jsonl"
        for mode, prompt_file, good_calls, failing in (
            (["--mode", "greedy"], prompts, 2, "p0"),
            (["--mode", "beam", "--beam", "2"], prompts, 2, "p0"),
            (["--mode", "greedy"], later, 5, "p1"),
        ):
            with self.failing_server(model, good_calls=good_calls) as server:
                rc = main([
                    "generate", "--prompts", str(prompt_file), *mode,
                    "--backend", f"remote:{server.url}",
                    "--vocab", vocab_sidecar_path(str(model)),
                    "--max-new-tokens", "4", "--out", str(out),
                ])
            assert rc == 3
            assert f"backend error: generation failed for {failing}: " in capsys.readouterr().err
            assert not out.exists()
            assert not (tmp_path / "g.jsonl.tmp").exists()


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
        vocab = json.loads(Path(vocab_sidecar_path(str(model))).read_text())
        tok = WhitespaceTokenizer(vocab)
        heldout = tok.encode(" ".join(["a b"] * 400))
        prof = loss_profile(params, heldout, 2)
        assert prof[1] < 0.01


class TestItemWarningsOncePerRun:
    """A sweep scores every item in every grid cell; each item's warning
    reaches stderr once per run, naming the item."""

    def test_sweep_mc_stderr_lines(self, workspace, tmp_path):
        _, _, model, _, _ = workspace
        data = tmp_path / "mc.jsonl"
        with open(data, "w", encoding="utf-8") as f:
            for i in range(8):
                premise_free = "" if i < 3 else ("w0" if i == 3 else "w1")
                record = {**MC_RECORD, "id": f"m{i}", "premise_free_context": premise_free}
                f.write(json.dumps(record) + "\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        run = subprocess.run(
            [
                sys.executable, "-m", "cboost.cli", "sweep", "--task", "mc",
                "--backend", f"toy:{model}", "--val", str(data), "--test", str(data),
                "--alpha-grid=-1:0:0.5", "--report", str(tmp_path / "s.json"),
            ],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        lines = run.stderr.splitlines()
        empty = [line for line in lines if "empty premise-free context" in line]
        assert sorted(empty) == [
            f"item m{i}: empty premise-free context: substituting a single end-of-text token"
            for i in range(3)
        ]
        assert lines.count(
            "item m3: premise-free context is not a token suffix of the full context"
        ) == 1
        assert len(lines) == 4
