"""Batch command-line surface.

Subcommands: train, eval, sweep, generate, metrics, tune, analyze, serve.
Every command is deterministic given its flags and seed, and every output
artifact embeds a run manifest (command, resolved config, config hash,
input digests, timestamp, tool version).  Exit codes: 0 success, 2 input
contract violation, 3 backend failure, 4 numerical guard tripped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import shutil
import sys
from datetime import datetime, timezone

from . import __version__
from .backend import Backend, CachingBackend
from .boosting import MAX_CONTEXT, BoostSpec, GridSearchResult, grid_search
from .decode import GenConfig, generate, generation_record
from .errors import BackendError, ContractError, NumericalGuardError
from .metrics import (
    Corpus,
    Document,
    coherence_report,
    dialog_report,
    render_coherence_table,
    render_dialog_table,
)
from .remote import BackendServer, RemoteBackend
from .tasks import (
    eval_items,
    evaluate_cell,
    read_records,
    read_task_items,
    read_text,
    render_summary_table,
    summarize_eval,
)
from .toy_lm import (
    ToyBackend,
    TrainConfig,
    WhitespaceTokenizer,
    corpus_tokens,
    load_params,
    save_params,
    train_uniform_scalarization,
)
from .tuning import TuneConfig, coherence_tune, write_kl_trace
from .analysis import (
    boost_derivative_check,
    pareto_profile,
    render_derivative_report,
    render_pareto_table,
)

AUTH_ENV_VAR = "CBOOST_AUTH_HEADER"


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:16]


def build_manifest(command: str, config: dict, inputs: list[str], backend_desc: str | None) -> dict:
    return {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": config.get("seed"),
        "backend": backend_desc,
        "inputs": {p: _sha256_file(p) for p in inputs},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }


def write_json_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Backend construction
# ---------------------------------------------------------------------------

def vocab_sidecar_path(model_path: str) -> str:
    return model_path + ".vocab.json"


def _read_json(path: str):
    """The value of a JSON input file; malformed JSON raises ContractError
    naming the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ContractError(f"{path}: malformed JSON: {exc}") from None


def _load_vocab(path: str) -> WhitespaceTokenizer:
    words = _read_json(path)
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
        raise ContractError(f"{path}: vocabulary must be a JSON list of strings")
    return WhitespaceTokenizer(words)


def load_backend(descriptor: str, vocab: str | None = None) -> Backend:
    """Build a cached backend from "toy:PATH" or "remote:URL".

    Toy backends pick up the vocabulary sidecar written at training time;
    remote backends take an explicit vocabulary file for client-side
    tokenization (the wire protocol itself is token-level).
    """
    if descriptor.startswith("toy:"):
        path = descriptor[len("toy:"):]
        params = load_params(path)
        tokenizer = None
        sidecar = vocab if vocab else vocab_sidecar_path(path)
        if os.path.exists(sidecar):
            tokenizer = _load_vocab(sidecar)
        backend: Backend = ToyBackend(params, tokenizer, name=os.path.basename(path))
    elif descriptor.startswith("remote:"):
        url = descriptor[len("remote:"):]
        tokenizer = _load_vocab(vocab) if vocab else None
        backend = RemoteBackend(
            url, auth_header=os.environ.get(AUTH_ENV_VAR), tokenizer=tokenizer
        )
    else:
        raise ContractError(f"unknown backend descriptor {descriptor!r}; use toy:PATH or remote:URL")
    return CachingBackend(backend)


def parse_boost_arg(arg: str, backend: Backend, sep_text: str | None) -> BoostSpec:
    """Parse --boost "K:ALPHA" (fixed-length short expert, weights
    {K: alpha, max: 1-alpha}) or "sep:ALPHA" (after-separator policy,
    weights {short: alpha, max: 1})."""
    try:
        key, alpha_str = arg.split(":", 1)
        alpha = float(alpha_str)
    except ValueError as exc:
        raise ContractError(f"bad --boost value {arg!r}; expected K:ALPHA or sep:ALPHA") from exc
    if key == "sep":
        if sep_text:
            sep_tokens = backend.encode(sep_text)
            if not sep_tokens:
                raise ContractError(f"--sep-text {sep_text!r} tokenizes to nothing")
            separator = sep_tokens[-1]
        else:
            separator = backend.eot_token_id
        return BoostSpec.after_separator(separator, alpha)
    try:
        k = int(key)
    except ValueError as exc:
        raise ContractError(f"bad --boost key {key!r}") from exc
    return BoostSpec(weights={MAX_CONTEXT: 1.0 - alpha, k: alpha})


def parse_alpha_grid(arg: str) -> list[float]:
    """"a:b:step" inclusive range, or a comma-separated list; every value
    must be finite."""
    if ":" in arg:
        try:
            lo, hi, step = (float(x) for x in arg.split(":"))
        except ValueError as exc:
            raise ContractError(f"bad grid spec {arg!r}") from exc
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise ContractError(f"bad grid spec {arg!r}")
        n = int(round((hi - lo) / step))
        values = [round(lo + i * step, 12) for i in range(n + 1)]
        return [v for v in values if v <= hi + 1e-12]
    try:
        values = [float(x) for x in arg.split(",") if x.strip()]
    except ValueError as exc:
        raise ContractError(f"bad grid spec {arg!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ContractError(f"bad grid spec {arg!r}: values must be finite")
    return values


def parse_k_grid(arg: str) -> list[int]:
    """"lo..hi" inclusive range, or a comma-separated list."""
    try:
        if ".." in arg:
            lo, hi = arg.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(x) for x in arg.split(",") if x.strip()]
    except ValueError as exc:
        raise ContractError(f"bad --k-grid value {arg!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    text = read_text(args.corpus)
    tokenizer = WhitespaceTokenizer.from_corpus(text)
    tokens = corpus_tokens(text, tokenizer)
    cfg = TrainConfig(
        max_context=args.max_context,
        learning_rate=args.lr,
        steps=args.steps,
        batch_size=args.batch_size,
        seed=args.seed,
        l2=args.l2,
    )
    params = train_uniform_scalarization(tokens, cfg, vocab_size=tokenizer.vocab_size)
    save_params(params, args.out)
    with open(vocab_sidecar_path(args.out), "w", encoding="utf-8") as f:
        json.dump(tokenizer.id_to_word[2:], f)
        f.write("\n")
    manifest = build_manifest("train", _resolved(args), [args.corpus], None)
    write_json_report(
        args.out + ".manifest.json",
        {"manifest": manifest, "vocab_size": tokenizer.vocab_size, "lag_depth": cfg.max_context},
    )
    print(f"trained {tokenizer.vocab_size}-token model with lag depth {cfg.max_context} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if not math.isfinite(args.alpha):
        raise ContractError(f"--alpha must be finite, got {args.alpha}")
    backend = load_backend(args.backend, vocab=args.vocab)
    items = read_task_items(args.task, args.data, backend)
    manifest = build_manifest("eval", _resolved(args), [args.data], args.backend)
    if args.task == "summarize":
        cfg = GenConfig(max_new_tokens=args.max_new_tokens, seed=args.seed)
        report = summarize_eval(
            backend, items, args.alpha, cfg, sentence_count=args.sentences
        )
        write_json_report(args.report, {"manifest": manifest, **report.to_dict()})
        print(render_summary_table(report))
        return 0
    result = eval_items(backend, items, args.k, args.alpha)
    payload = {
        "manifest": manifest,
        "task": args.task,
        "accuracy": result.accuracy,
        "alpha": args.alpha,
        "k": args.k,
        "n_items": len(result.per_item),
        "per_item": result.per_item,
    }
    write_json_report(args.report, payload)
    k_str = "-" if args.k is None else str(args.k)
    print(f"{'accuracy':>10} {'alpha':>8} {'k':>4}")
    print(f"{100 * result.accuracy:>9.2f}% {args.alpha:>8.2f} {k_str:>4}")
    return 0


def cmd_sweep(args) -> int:
    backend = load_backend(args.backend, vocab=args.vocab)
    alpha_grid = parse_alpha_grid(args.alpha_grid)
    k_grid: list[int | None] = list(parse_k_grid(args.k_grid)) if args.k_grid else [None]
    val = read_task_items(args.task, args.val, backend)
    test = read_task_items(args.task, args.test, backend)
    if args.task == "mc":
        k_grid = [None]  # MC ignores k: one table row per alpha
    result: GridSearchResult = grid_search(
        backend, val, k_grid, alpha_grid, objective=args.objective
    )
    test_score = evaluate_cell(backend, test, result.k, result.alpha, args.objective)
    base_test = evaluate_cell(backend, test, result.k, 0.0, args.objective)
    manifest = build_manifest("sweep", _resolved(args), [args.val, args.test], args.backend)
    payload = {
        "manifest": manifest,
        "task": args.task,
        "objective": args.objective,
        "best": {"k": result.k, "alpha": result.alpha, "val_score": result.score},
        "test": {"score": test_score, "alpha": result.alpha, "k": result.k},
        "test_base": {"score": base_test, "alpha": 0.0},
        "val_table": [
            {"k": k, "alpha": a, "score": s} for k, a, s in result.table
        ],
    }
    write_json_report(args.report, payload)
    print(
        f"best (k={result.k}, alpha={result.alpha:g}) val={result.score:.4f} "
        f"test={test_score:.4f} (base test={base_test:.4f})"
    )
    return 0


def cmd_generate(args) -> int:
    backend = load_backend(args.backend, vocab=args.vocab)
    boost = parse_boost_arg(args.boost, backend, args.sep_text) if args.boost else None
    mode = args.mode
    top_p = args.p
    if mode == "topp":
        mode = "sample"
        top_p = args.p if args.p is not None else 0.95
    stop = frozenset(backend.encode(args.stop_text)) if args.stop_text else frozenset()
    cfg = GenConfig(
        max_new_tokens=args.max_new_tokens,
        mode=mode,
        temperature=args.temp,
        top_p=top_p,
        top_k=args.top_k,
        beam_width=args.beam if mode == "beam" else None,
        stop_tokens=stop,
        seed=args.seed,
        boost=boost,
    )
    manifest = build_manifest("generate", _resolved(args), [args.prompts], args.backend)
    chash = manifest["config_hash"]
    prompts = read_records(args.prompts, [("id", "id"), ("prompt", "text")])
    # written under a temporary name and renamed after the last prompt, so
    # a failure leaves no partial output behind
    tmp = args.out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            out.write(json.dumps({"manifest": manifest}, sort_keys=True) + "\n")
            for prompt_id, prompt in prompts:
                prompt_tokens = backend.encode(prompt)
                if not prompt_tokens:
                    raise ContractError(f"prompt {prompt_id} tokenizes to nothing")
                try:
                    result = generate(backend, prompt_tokens, cfg)
                except BackendError as exc:
                    raise BackendError(f"generation failed for {prompt_id}: {exc}") from exc
                record = generation_record(
                    prompt_id, prompt_tokens, result, backend.decode(result.tokens), chash
                )
                out.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, args.out)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    print(f"wrote {len(prompts)} generations -> {args.out}")
    return 0


def cmd_metrics(args) -> int:
    backend = load_backend(args.backend, vocab=args.vocab)
    fields = [("id", "id"), ("prompt_tokens", "tokens"), ("output_tokens", "tokens")]
    records = read_records(args.generations, fields + ([("text", "text")] if args.ref else []))
    corpus = Corpus([
        Document(prompt + output) if args.score_prompt else Document(output, prompt)
        for _, prompt, output, *_ in records
        if output
    ])
    try:
        lr_ns = tuple(int(x) for x in args.lr_ns.split(","))
    except ValueError as exc:
        raise ContractError(f"bad --lr-ns value {args.lr_ns!r}") from exc
    if args.ref:  # matched before the corpus is scored, so a missing id costs no model rows
        refs_by_id = dict(read_records(args.ref, [("id", "id"), ("references", "texts")]))
        candidates = []
        references = []
        for rid, _, _, text in records:
            if rid not in refs_by_id:
                raise ContractError(f"no references for generation {rid}")
            candidates.append(text.split())
            references.append([ref.split() for ref in refs_by_id[rid]])
        dialog = dialog_report(candidates, references)
    report = coherence_report(
        corpus,
        backend,
        lr_ns=lr_ns,
        short_len=args.short_len,
        repetition_min_copies=args.rep_min_copies,
        repetition_max_span=args.rep_max_span,
        zipf_min_count=args.zipf_min_count,
    )
    inputs = [args.generations] + ([args.ref] if args.ref else [])
    manifest = build_manifest("metrics", _resolved(args), inputs, args.backend)
    payload = {"manifest": manifest, "coherence": report.to_dict()}
    table = render_coherence_table(report)
    if args.ref:
        payload["dialog"] = dialog.to_dict()
        table += "\n\n" + render_dialog_table(dialog)
    payload["table"] = table
    write_json_report(args.report, payload)
    print(table)
    return 0


def cmd_tune(args) -> int:
    params = load_params(args.model)
    backend_for_parse = ToyBackend(params)
    spec = parse_boost_arg(args.boost, backend_for_parse, None)
    cfg = TuneConfig(
        spec=spec,
        steps=args.steps,
        batch=args.batch,
        seq_len=args.seq_len,
        learning_rate=args.lr,
        tail_positions=args.tail,
        seed=args.seed,
    )
    sidecar = vocab_sidecar_path(args.model)
    has_vocab = os.path.exists(sidecar)
    if has_vocab:
        _load_vocab(sidecar)  # a bad sidecar fails before anything is written
    result = coherence_tune(params, cfg)
    # both files are written under temporary names and then renamed, so a
    # failure never leaves a half-written model or vocabulary behind
    save_params(result.params, args.out + ".tmp")
    if has_vocab:
        shutil.copyfile(sidecar, vocab_sidecar_path(args.out) + ".tmp")
        os.replace(vocab_sidecar_path(args.out) + ".tmp", vocab_sidecar_path(args.out))
    os.replace(args.out + ".tmp", args.out)
    if args.trace:
        write_kl_trace(args.trace, result.kl_trace)
    manifest = build_manifest("tune", _resolved(args), [args.model], f"toy:{args.model}")
    write_json_report(
        args.out + ".manifest.json",
        {
            "manifest": manifest,
            "initial_kl": result.kl_trace[0],
            "final_kl": result.kl_trace[-1],
            "steps": len(result.kl_trace),
        },
    )
    print(
        f"tuned {args.steps} steps: mean KL {result.kl_trace[0]:.6f} -> "
        f"{result.kl_trace[-1]:.6f}; params -> {args.out}"
    )
    return 0


def cmd_analyze(args) -> int:
    params = load_params(args.model)
    sidecar = vocab_sidecar_path(args.model)
    text = read_text(args.heldout)
    if os.path.exists(sidecar):
        heldout = corpus_tokens(text, _load_vocab(sidecar))
    else:
        try:
            heldout = tuple(int(t) for t in text.split())
            if any(t < 0 or t >= params.vocab_size for t in heldout):
                raise ValueError
        except ValueError:
            raise ContractError(
                f"{args.heldout}: without a vocabulary sidecar the held-out file must "
                f"hold token ids in [0, {params.vocab_size})"
            ) from None
    report = boost_derivative_check(params, heldout, args.k, h=args.h)
    manifest = build_manifest("analyze", _resolved(args), [args.model, args.heldout], f"toy:{args.model}")
    payload = {"manifest": manifest, "derivative": report.to_dict()}
    if args.pareto:
        profile = pareto_profile(params, heldout)
        payload["pareto"] = profile.to_dict()
        with open(args.pareto, "w", encoding="utf-8") as f:
            f.write(render_pareto_table(profile) + "\n")
    write_json_report(args.report, payload)
    print(render_derivative_report(report))
    return 0


def cmd_serve(args) -> int:  # pragma: no cover - interactive
    backend = load_backend(f"toy:{args.model}")
    server = BackendServer(backend, host=args.host, port=args.port)
    print(f"serving toy backend on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _resolved(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    return config


def _add_backend_arg(p) -> None:
    p.add_argument("--backend", required=True, help="toy:PATH or remote:URL")
    p.add_argument(
        "--vocab", default=None,
        help="vocabulary JSON for client-side tokenization (remote backends)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cboost",
        description="Coherence-boosted language model decoding, scoring and evaluation",
    )
    parser.add_argument("--version", action="version", version=f"cboost {__version__}")
    parser.add_argument(
        "--config", help="JSON file of flag defaults (explicit flags win)", default=None
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit the toy LM by uniform-scalarization SGD")
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-context", type=int, default=12)
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a task file at fixed boosting parameters")
    p.add_argument("--task", choices=["lasttoken", "mc", "lama", "summarize"], required=True)
    p.add_argument("--data", required=True)
    _add_backend_arg(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sentences", type=int, default=3, help="summary sentence count")
    p.add_argument("--max-new-tokens", type=int, default=100)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid search on validation, apply best to test")
    p.add_argument("--task", choices=["lasttoken", "mc", "lama"], required=True)
    _add_backend_arg(p)
    p.add_argument("--val", required=True)
    p.add_argument("--test", required=True)
    p.add_argument(
        "--alpha-grid", default="-5:1:0.05", help='"lo:hi:step" or comma list'
    )
    p.add_argument("--k-grid", default="1..16", help='"lo..hi" or comma list')
    p.add_argument("--objective", choices=["accuracy", "nll"], default="accuracy")
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="generate continuations for a prompt file")
    _add_backend_arg(p)
    p.add_argument("--prompts", required=True, help='JSONL {"id", "prompt"}')
    p.add_argument("--mode", choices=["greedy", "sample", "topp", "beam"], default="greedy")
    p.add_argument("--temp", type=float, default=1.0)
    p.add_argument("--p", type=float, default=None, help="top-p threshold")
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--boost", default=None, help='"K:ALPHA" or "sep:ALPHA"')
    p.add_argument("--sep-text", default=None, help="separator text for sep boosting")
    p.add_argument("--stop-text", default=None)
    p.add_argument("--max-new-tokens", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("metrics", help="score a generations file")
    p.add_argument("--generations", required=True)
    _add_backend_arg(p)
    p.add_argument("--ref", default=None, help='JSONL {"id", "references"}')
    p.add_argument("--report", required=True)
    p.add_argument("--short-len", type=int, default=20)
    p.add_argument("--lr-ns", default="50,100")
    p.add_argument("--rep-min-copies", type=int, default=3)
    p.add_argument("--rep-max-span", type=int, default=16)
    p.add_argument("--zipf-min-count", type=int, default=1)
    p.add_argument(
        "--score-prompt", action="store_true",
        help="include prompt tokens in perplexity and the likelihood probes",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("tune", help="coherence-tune a toy model toward its boosted self")
    p.add_argument("--model", required=True)
    p.add_argument("--boost", required=True, help='"K:ALPHA"')
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seq-len", type=int, default=32)
    p.add_argument("--lr", type=float, default=2.0)
    p.add_argument("--tail", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="CSV path for the KL trace")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("analyze", help="boosted-NLL derivative check and loss profile")
    p.add_argument("--model", required=True)
    p.add_argument("--heldout", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--report", required=True)
    p.add_argument("--pareto", default=None, help="emit the loss/KL profile table here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("serve", help="serve a toy model over the remote logit protocol")
    p.add_argument("--model", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.set_defaults(func=cmd_serve)

    return parser


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser) -> None:
    """Resolve --config by inserting file values as defaults (flags win);
    a key that names no flag of the command being run is rejected once
    the command line is parsed."""
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ContractError("--config needs a path")
    path = argv[idx + 1]
    defaults = _read_json(path)
    if not isinstance(defaults, dict):
        raise ContractError(f"{path}: config must be a JSON object")
    commands = parser._subparsers._group_actions[0].choices  # type: ignore[union-attr]
    for sp in commands.values():
        sp.set_defaults(**defaults)
    command = parser.parse_args(argv).command
    flags = {a.dest for a in commands[command]._actions if a.option_strings} - {"help"}
    unknown = sorted(set(defaults) - flags)
    if unknown:
        raise ContractError(f"{path}: config key {unknown[0]!r} names no flag of {command}")


class _FirstOccurrence(logging.Filter):
    """Passes each distinct message once: a sweep scores every item in
    every grid cell, and an item's warning is news only the first time."""

    def __init__(self):
        super().__init__()
        self.seen: set[str] = set()

    def filter(self, record: logging.LogRecord) -> bool:
        message = record.getMessage()
        first = message not in self.seen
        self.seen.add(message)
        return first


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    warnings_once = logging.StreamHandler(sys.stderr)
    warnings_once.addFilter(_FirstOccurrence())
    logger = logging.getLogger("cboost")
    logger.addHandler(warnings_once)
    try:
        _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(warnings_once)


if __name__ == "__main__":
    sys.exit(main())
