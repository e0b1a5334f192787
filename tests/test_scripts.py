"""Smoke runs of the scripts in scripts/ at small sizes, through their main."""

import csv
import importlib.util
import os
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_copy_source_sweep(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    run_script(
        "copy_source_sweep", ["--length", "20000", "--alpha-step", "0.2", "--out", str(out)], monkeypatch
    )
    printed = capsys.readouterr().out
    assert "best cell: k*=" in printed and "test accuracy: base" in printed
    rows = read_csv(out)
    assert rows[0] == ["k", "alpha", "val_accuracy"]
    assert len(rows) == 1 + 12 * 7  # k 1..12 x alpha -1.0..0.2 in steps of 0.2


def test_undertraining_profile(tmp_path, monkeypatch, capsys):
    out = tmp_path / "profile.csv"
    run_script("undertraining_profile", ["--steps", "4", "--out", str(out)], monkeypatch)
    assert "steps=     4" in capsys.readouterr().out
    rows = read_csv(out)
    assert rows[0] == ["steps", "base_acc", "boosted_acc", "gain", "loss_gap_nats"]
    steps, base, boosted, gain = rows[1][0], *map(float, rows[1][1:4])
    assert steps == "4" and 0 <= base <= 1 and 0 <= boosted <= 1
    assert gain == pytest.approx(boosted - base, abs=2e-6)


def test_tune_and_compare(tmp_path, monkeypatch, capsys):
    trace = tmp_path / "trace.csv"
    run_script("tune_and_compare", ["--train-steps", "20", "--trace", str(trace)], monkeypatch)
    assert "self-generated delta" in capsys.readouterr().out
    rows = read_csv(trace)
    assert rows[0] == ["step", "mean_kl"]
    assert len(rows) == 1 + 32  # TuneConfig's default step count
    assert all(float(kl) >= 0 for _, kl in rows[1:])
