"""Command-line interface.

``bizcorpus run`` drives the whole pipeline from one config file; the other
subcommands run individual stages, plan mixtures, and operate the benchmark
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
from .backends import CommandModel, CommandSearch, EchoModel, SubprocessClassifier
from .bench import (
    SettingKind,
    TaskSetting,
    check_max_in_flight,
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
    write_corpus_jsonl,
)
from .curation import curate, load_rules
from .dedup import DedupConfig, count_sentences, dedup_documents, dedup_sentences
from .langid import LangIdConfig, filter_non_japanese
from .mixture import MixtureSpec, UpdateMixSpec, plan_epoch, sample_update_mix, verify_plan
from .noise import NoiseConfig, denoise_corpus
from .pipeline import StageFailure, emit_manifest, load_config, run_pipeline

log = logging.getLogger("bizcorpus")

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
    config = load_config(args.config)
    try:
        stats = run_pipeline(config)
    finally:
        config.close()
    _print_stage_summary(stats)
    print(f"total tokens: {stats.total_tokens}")
    print(f"wrote {config.output_dir / 'cleaned.jsonl'} and {config.output_dir / 'manifest.json'}")
    return EXIT_OK


def _stage_command(args: argparse.Namespace, stage) -> int:
    """Read ``--in``, run ``stage(corpus, stats=...)``, write ``--out`` and
    print the summary; shared by the standalone stage commands."""
    corpus = read_corpus_jsonl(args.input)
    stats = PipelineStats()
    write_corpus_jsonl(stage(corpus, stats=stats), args.output)
    _print_stage_summary(stats)
    return EXIT_OK


def cmd_curate(args: argparse.Namespace) -> int:
    return _stage_command(args, partial(curate, load_rules(args.rules)))


def cmd_langid(args: argparse.Namespace) -> int:
    config = LangIdConfig(uncertainty_threshold=args.threshold, jp_script_ratio_threshold=args.jp_ratio)

    def stage(corpus, *, stats):  # the child starts once the input is read
        if args.classifier_cmd is not None:  # an empty command is refused, not ignored
            config.classifier = SubprocessClassifier(args.classifier_cmd)
        try:
            return filter_non_japanese(config, corpus, stats=stats)
        finally:
            if config.classifier is not None:
                config.classifier.close()

    return _stage_command(args, stage)


def cmd_denoise(args: argparse.Namespace) -> int:
    return _stage_command(args, partial(denoise_corpus, NoiseConfig(min_sentential_ratio=args.ratio)))


def cmd_dedup(args: argparse.Namespace) -> int:
    config = DedupConfig(sentence_frequency_threshold=args.threshold)

    def stage(corpus, *, stats):
        corpus = dedup_documents(config, corpus, stats=stats)
        table = count_sentences(config, corpus)
        if args.dump_freq:
            table.dump_jsonl(args.dump_freq)
        return dedup_sentences(config, corpus, table, stats=stats)

    return _stage_command(args, stage)


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
    check_max_in_flight(args.max_in_flight)  # before any backend child is spawned
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
    parser = argparse.ArgumentParser(prog="bizcorpus", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    corpus_in = argparse.ArgumentParser(add_help=False)
    corpus_in.add_argument("--in", dest="input", required=True)
    corpus_out = argparse.ArgumentParser(add_help=False)
    corpus_out.add_argument("--out", dest="output", required=True)
    corpus_io = [corpus_in, corpus_out]

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("curate", parents=corpus_io, help="rule-based curation of a corpus file")
    p.add_argument("--rules", required=True)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("langid", parents=corpus_io, help="drop non-Japanese documents")
    p.add_argument("--threshold", type=float, default=LangIdConfig.uncertainty_threshold)
    p.add_argument("--jp-ratio", type=float, default=LangIdConfig.jp_script_ratio_threshold)
    p.add_argument("--classifier-cmd", default=None)
    p.set_defaults(func=cmd_langid)

    p = sub.add_parser("denoise", parents=corpus_io, help="strip noise lines / drop non-sentential docs")
    p.add_argument("--ratio", type=float, default=NoiseConfig.min_sentential_ratio)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("dedup", parents=corpus_io, help="document- and sentence-level dedup")
    p.add_argument("--threshold", type=int, default=DedupConfig.sentence_frequency_threshold)
    p.add_argument("--dump-freq", default=None, help="dump sentence frequency table here")
    p.set_defaults(func=cmd_dedup)

    p = sub.add_parser("mix", help="plan an epoch or an update mix")
    p.set_defaults(func=cmd_mix)
    kinds = p.add_subparsers(dest="kind", required=True)
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
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
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
