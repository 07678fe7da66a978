"""Command-line interface.

``bizcorpus run`` drives the whole pipeline from one config file; the stage
commands run one stage of it, with that config's settings, over a corpus
file; the other subcommands plan mixtures and operate the benchmark
(run / judge / score). Exit codes: 0 success, 1 usage or validation error
(a missing, unknown or mistyped flag included), 2 stage failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from functools import partial
from pathlib import Path

from . import __version__
from .backends import CommandModel, CommandSearch, EchoModel
from .bench import (
    SettingKind,
    TaskSetting,
    check_run,
    compute_accuracy,
    load_judgments,
    load_questions,
    record_judgments,
    run_benchmark,
)
from .core import (
    ConfigError,
    PipelineStats,
    SourceTag,
    StageStats,
    count_tokens,
    read_corpus_jsonl,
    run_stage,
)
from .mixture import MixtureSpec, UpdateMixSpec, plan_epoch, sample_update_mix, verify_plan
from .pipeline import STAGES, StageFailure, emit_manifest, load_config, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STAGE = 2


def _print_stage_summary(stats: PipelineStats) -> None:
    for stage in stats.stages:
        print(f"{stage.stage}: {stage.total_in} -> {stage.total_out} docs", end="")
        if stage.doc_removals:
            reasons = ", ".join(f"{k}={v}" for k, v in sorted(stage.doc_removals.items()))
            print(f" (removed: {reasons})", end="")
        print()


def cmd_run(args: argparse.Namespace) -> int:
    """``run``, or a stage command: ``args.stages`` over the config's sources,
    or over the corpus file ``--in`` with the outputs in directory ``--out``."""
    config = load_config(args.config, start_classifier="lang_id" in args.stages)
    try:
        corpus = None
        if args.command != "run":
            if "curate" in args.stages and config.rules is None:
                raise ConfigError(f"{args.config}: curate needs curation.rules_file")
            corpus = read_corpus_jsonl(args.input)
            config.output_dir = Path(args.output)
        stats = run_pipeline(config, args.stages, corpus=corpus)
    finally:
        config.close()
    _print_stage_summary(stats)
    print(f"total tokens: {stats.total_tokens}")
    print(f"wrote {config.output_dir / 'cleaned.jsonl'} and {config.output_dir / 'manifest.json'}")
    return EXIT_OK


def cmd_mix(args: argparse.Namespace) -> int:
    if args.kind == "epoch":
        weights = {}
        for item in args.weight:
            tag, _, value = item.partition("=")
            try:
                weights[SourceTag(tag)] = float(value)
            except ValueError:
                raise ConfigError(f"--weight {item!r} is not TAG=W (a source and a number)") from None
        spec = MixtureSpec(weights=weights, seed=args.seed) if weights else MixtureSpec(seed=args.seed)
        corpus = read_corpus_jsonl(args.input)
        plan = plan_epoch(spec, corpus)
    else:
        spec = UpdateMixSpec(r=args.r, total=args.total, seed=args.seed)
        latest = read_corpus_jsonl(args.latest)
        non_latest = read_corpus_jsonl(args.non_latest)
        plan = sample_update_mix(spec, latest, non_latest)
        report = verify_plan(plan, spec)
        print(json.dumps(report.to_dict(), ensure_ascii=False))
        if not report.ok:
            return EXIT_STAGE
    plan.to_jsonl(args.output)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(plan.source_counts.items()))
    print(f"plan: {len(plan)} entries ({counts}) -> {args.output}")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = read_corpus_jsonl(args.input)
    stats = count_tokens(corpus)
    list(run_stage(stats, StageStats("stats"), corpus, lambda doc: doc))  # counts them per source
    emit_manifest(stats, args.output)
    print(f"{len(corpus)} documents, {stats.total_tokens} tokens -> {args.output}")
    return EXIT_OK


def cmd_bench_run(args: argparse.Namespace) -> int:
    if args.echo_model and args.model_id is not None:
        raise ConfigError("--model-id names a --model-cmd model; the echo model's id is always 'echo'")
    questions = load_questions(args.questions)
    setting = TaskSetting(SettingKind(args.setting), truncation_chars=args.truncation)
    # before any backend child is spawned
    check_run(setting, questions, searching=args.search_cmd is not None, max_in_flight=args.max_in_flight)
    model = EchoModel() if args.echo_model else CommandModel(args.model_cmd, model_id=args.model_id)
    search = None
    try:
        search = CommandSearch(args.search_cmd) if args.search_cmd is not None else None
        responses = run_benchmark(
            setting,
            questions,
            model,
            search=search,
            out_dir=args.out,
            max_in_flight=args.max_in_flight,
        )
    finally:
        for backend in (model, search):
            if hasattr(backend, "close"):
                backend.close()
    print(f"{len(responses)}/{len(questions)} responses -> {args.out}")
    return EXIT_OK


def cmd_bench_judge(args: argparse.Namespace) -> int:
    judgments = record_judgments(args.run, args.verdicts, args.judge)
    print(f"recorded {len(judgments)} judgment(s) -> {Path(args.run) / 'judgments.jsonl'}")
    return EXIT_OK


def cmd_bench_score(args: argparse.Namespace) -> int:
    judgments = []
    for path in args.judgments:
        judgments.extend(load_judgments(path))
    if not judgments:
        print("no judgments found")
        return EXIT_OK
    counts = Counter((j.model_id, j.setting.value) for j in judgments)
    for (model_id, setting), accuracy in sorted(compute_accuracy(judgments).items()):
        n = counts[model_id, setting]
        print(f"model={model_id} setting={setting} n={n} accuracy={accuracy:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(prog="bizcorpus", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)
    corpus_in = argparse.ArgumentParser(add_help=False)
    corpus_in.add_argument("--in", dest="input", required=True)
    corpus_out = argparse.ArgumentParser(add_help=False)
    corpus_out.add_argument("--out", dest="output", required=True)
    corpus_io = [corpus_in, corpus_out]

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)

    p = sub.add_parser("run", parents=[config], help="run the full pipeline from a config file")
    p.set_defaults(func=cmd_run, stages=tuple(STAGES))
    for command, stages, text in (
        ("curate", ("curate",), "rule-based curation"),
        ("langid", ("lang_id",), "drop non-Japanese documents"),
        ("denoise", ("noise_filter",), "strip noise lines / drop non-sentential docs"),
        ("dedup", ("dedup_documents", "dedup_sentences"), "document- and sentence-level dedup"),
    ):
        help_text = f"{text} of --in, as run does it, into directory --out"
        p = sub.add_parser(command, parents=[config, *corpus_io], help=help_text)
        p.set_defaults(func=cmd_run, stages=stages)

    p = sub.add_parser("mix", help="plan an epoch or an update mix")
    p.set_defaults(func=cmd_mix)
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=strict)
    p = kinds.add_parser("epoch", parents=corpus_io, help="repeat each source by its weight")
    p.add_argument("--weight", action="append", default=[], help="epoch weight as TAG=W, repeatable")
    p.add_argument("--seed", type=int, default=0)
    p = kinds.add_parser("update", parents=[corpus_out], help="draw round(r * total) older instances")
    p.add_argument("--latest", required=True)
    p.add_argument("--non-latest", dest="non_latest", required=True)
    p.add_argument("--r", type=float, required=True, help="non-latest proportion")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("stats", parents=corpus_io, help="token counts and manifest for a corpus file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench-run", help="run one benchmark setting")
    p.add_argument("--questions", required=True)
    p.add_argument("--setting", required=True, choices=[k.value for k in SettingKind])
    p.add_argument("--out", required=True)
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument("--model-cmd")
    model.add_argument("--echo-model", action="store_true")
    p.add_argument("--model-id", default=None, help="with --model-cmd only")
    p.add_argument("--search-cmd", default=None)
    p.add_argument("--truncation", type=int, default=TaskSetting.truncation_chars)
    p.add_argument("--max-in-flight", type=int, default=1)
    p.set_defaults(func=cmd_bench_run)

    p = sub.add_parser("bench-judge", help="record a judge's verdict file")
    p.add_argument("--run", required=True)
    p.add_argument("--verdicts", required=True)
    p.add_argument("--judge", required=True)
    p.set_defaults(func=cmd_bench_judge)

    p = sub.add_parser("bench-score", help="accuracy per (model, setting)")
    p.add_argument("judgments", nargs="+")
    p.set_defaults(func=cmd_bench_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version exit 0, a usage error 1
        return EXIT_CONFIG if exc.code else EXIT_OK
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StageFailure, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
