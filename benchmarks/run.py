"""Repository benchmark: seeded workloads, timed from outside the program.

    python3 benchmarks/run.py --workload corpus_ja --seed 1 --seconds 35 --trace 0

Run from the repository root. The benchmark generates the workload's inputs
and planted truth from ``--seed``, then repeats the workload in fresh child
processes until ``--seconds`` have passed. Each repetition is checked against
the planted truth and against the first repetition's output digests. With
``--trace 0`` it reports the end-to-end metrics (medians over repetitions);
with ``--trace 1`` it adds one traced repetition and reports the per-layer
metrics from its spans instead. The last stdout line is the JSON result.

Workloads (see README.md for why each exists):

* ``corpus_ja``    ``run_pipeline`` on article-length Japanese documents, workers 1.
* ``corpus_crawl`` ``run_pipeline`` on short web pages, workers = nproc, stub classifier.
* ``bench_qa``     ``run_benchmark`` for the three settings against stub model/search.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # one invocation must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "run_mb_per_s": "MB/s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_STAGES = (
    "core.ingest_jsonl", "curation.curate", "langid.filter_non_japanese", "noise.denoise_corpus",
    "dedup.dedup_documents", "dedup.count_sentences", "dedup.dedup_sentences", "core.count_tokens",
    "core.write_corpus_jsonl",
)

# name -> unit. A layer that the workload never calls reports 0.
PER_LAYER = {
    "core.ingest_jsonl.s": "s",
    "core.count_tokens.s": "s",
    "core.write_corpus_jsonl.s": "s",
    "curation.curate.s": "s",
    "curation.docs_removed": "count",
    "langid.filter_non_japanese.s": "s",
    "langid.filter_non_japanese.self_s": "s",
    "langid.fallback_share": "ratio",
    "langid.docs_in": "count",
    "langid.docs_removed": "count",
    "backends.classifier.calls": "count",
    "backends.classifier.call_us_p50": "us",
    "backends.classifier.call_us_p99": "us",
    "backends.classifier.failures": "count",
    "noise.denoise_corpus.s": "s",
    "noise.lines_stripped": "count",
    "noise.docs_removed": "count",
    "dedup.dedup_documents.s": "s",
    "dedup.duplicates_removed": "count",
    "dedup.count_sentences.s": "s",
    "dedup.table_entries": "count",
    "dedup.dedup_sentences.s": "s",
    "dedup.sentences_removed": "count",
    "pipeline.load_config.s": "s",
    "pipeline.emit_manifest.s": "s",
    "pipeline.run_pipeline.self_s": "s",
    **{f"{stage}.maxrss_mb": "MB" for stage in _STAGES},
    "mixture.plan_epoch.s": "s",
    "mixture.sample_update_mix.s": "s",
    "backends.model.calls": "count",
    "backends.model.call_ms_p50": "ms",
    "backends.model.call_ms_p99": "ms",
    "backends.model.failures": "count",
    "backends.model.wait_ms_p50": "ms",
    "backends.model.wait_ms_p99": "ms",
    "backends.search.calls": "count",
    "backends.search.call_ms_p50": "ms",
    "bench.load_questions.s": "s",
    "bench.build_prompt.us_p50": "us",
    **{f"bench.run_benchmark.{s}.s": "s" for s in gen.SETTINGS},
    "bench.run_benchmark.self_s": "s",
    "bench.resume.s": "s",
    "bench.record_judgments.s": "s",
    "bench.compute_accuracy.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tally:
    """Operations attempted and failed; every failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"FAIL {label}: {p}", file=sys.stderr)


def run_child(spec_path: Path, out: Path, trace_path: Path | None, deadline: float):
    """One repetition in a fresh process: (result, None) or (None, reason)."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), BIZCORPUS_OUTPUT_DIR=str(out))
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(out), str(trace_path or "-")]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    finally:
        try:  # the child's own children (stub backends) must not outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {stderr.strip()[-1500:]}"
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result, None


# ---------------------------------------------------------------------------
# Checks against planted truth
# ---------------------------------------------------------------------------


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in sorted(d.items()) if v}


def check_corpus(spec: dict, out: Path) -> tuple[list[str], tuple[str, str] | None]:
    """Problems found in one pipeline output, and its (cleaned, manifest) digests."""
    truth = spec["truth"]
    try:
        cleaned = (out / "cleaned.jsonl").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except OSError as exc:
        return [f"output missing: {exc}"], None
    problems = []
    if manifest.get("status") != "complete":
        problems.append(f"manifest status {manifest.get('status')!r}")
    got_stages = manifest.get("stages", [])
    if [s["stage"] for s in got_stages] != [s["stage"] for s in truth["stages"]]:
        problems.append(f"stages {[s['stage'] for s in got_stages]}")
    for want, got in zip(truth["stages"], got_stages):
        if _nonzero(got["doc_removals"]) != want["doc_removals"]:
            problems.append(f"{want['stage']} removals {got['doc_removals']} != {want['doc_removals']}")
        if want["detail"] is not None and _nonzero(got["detail"]) != want["detail"]:
            problems.append(f"{want['stage']} detail {got['detail']} != {want['detail']}")
    records = [json.loads(line) for line in cleaned.decode("utf-8").splitlines()]
    survivors = [[r["id"], r["source"], r["text"]] for r in records]
    if survivors != truth["survivors"]:
        wrong = sum(1 for a, b in zip(survivors, truth["survivors"]) if a != b)
        problems.append(f"cleaned.jsonl: {len(survivors)} docs, {wrong} differ; expected {len(truth['survivors'])}")
    if any(r.get("lang") != "ja" for r in records):
        problems.append("cleaned.jsonl has a document not labelled ja")
    manifest.pop("created_at", None)
    digests = (
        hashlib.sha256(cleaned).hexdigest(),
        hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest(),
    )
    return problems, digests


def check_qa(spec: dict, out: Path, result: dict, tally: Tally, label: str) -> None:
    """Three operations per setting: the fresh run, the resume, the judging."""
    limit = spec["truncation"]
    for setting, truth in spec["truth"].items():
        got = result["settings"].get(setting)
        if got is None:
            for op in ("run", "resume", "judge"):
                tally.op(f"{label} {setting} {op}", ["setting did not run"])
            continue
        records = {}
        for path in (out / setting / "responses").glob("*.json"):
            record = json.loads(path.read_text(encoding="utf-8"))
            records[record["question_id"]] = record
        fresh = []
        statuses = {qid: r["status"] for qid, r in records.items()}
        if statuses != truth["status"]:
            wrong = sum(1 for qid, s in truth["status"].items() if statuses.get(qid) != s)
            fresh.append(f"{wrong} question statuses differ from plan")
        n_ok = truth["status_counts"].get("ok", 0)
        if got["answered"] != n_ok:
            fresh.append(f"{got['answered']} answered, planned {n_ok}")
        for qid, page in truth["pages"].items():
            prompt = records.get(qid, {}).get("prompt", "")
            if truth["status"][qid] == "ok" and (
                page[:limit] not in prompt or (len(page) > limit and page[: limit + 1] in prompt)
            ):
                fresh.append(f"{qid}: context not truncated to its first {limit} characters")
                break
        tally.op(f"{label} {setting} run", fresh)

        resume = []
        if got["resume_model_calls"] != 0:
            resume.append(f"resume made {got['resume_model_calls']} model calls")
        if not got["resume_same"]:
            resume.append("resume returned other responses")
        manifest = json.loads((out / setting / "manifest.json").read_text(encoding="utf-8"))
        if manifest["status_counts"] != truth["status_counts"]:
            resume.append(f"status counts {manifest['status_counts']} != {truth['status_counts']}")
        tally.op(f"{label} {setting} resume", resume)

        judge = []
        if got["judged"] != n_ok:
            judge.append(f"{got['judged']} judgments for {n_ok} answered questions")
        if got["accuracy"] != [["stub-model", setting, truth["accuracy"]]]:
            judge.append(f"accuracy {got['accuracy']} != {truth['accuracy']}")
        tally.op(f"{label} {setting} judge", judge)


def check_mixture(mix: dict, tally: Tally) -> None:
    """Default weights double both corpus_ja sources; r = 0.1 rounds half up."""
    problems = []
    if mix["epoch_entries"] != 2 * mix["docs"]:
        problems.append(f"epoch plan has {mix['epoch_entries']} entries for {mix['docs']} docs")
    expected = int(Fraction(mix["docs"], 10) + Fraction(1, 2))
    if not mix["update_ok"] or mix["update_non_latest"] != expected or mix["update_entries"] != mix["docs"]:
        problems.append(f"update mix {mix}, expected {expected} non-latest")
    tally.op("traced mixture", problems)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _pct(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 when nothing was measured."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def per_layer(spans: list[dict], self_s: dict, result: dict, out: Path, untraced_run_s: float) -> dict:
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        durations[s["name"]].append(s["end"] - s["start"])

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def by_name(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    removals, detail = defaultdict(int), defaultdict(int)
    manifest = out / "manifest.json"
    if manifest.exists():
        for stage in json.loads(manifest.read_text(encoding="utf-8"))["stages"]:
            removals[stage["stage"]] += sum(stage["doc_removals"].values())
            for key, value in stage["detail"].items():
                detail[key] += value

    clf = by_name("backends.classifier.classify")
    model = by_name("backends.model.generate")
    docs_in = result.get("langid_docs_in", 0)
    if clf:
        fallback = sum(1 for s in clf if s.get("fallback") or s.get("error")) / docs_in
    else:
        fallback = 1.0 if docs_in else 0.0  # no classifier configured: fallback decides all
    waits = [(s["end"] - s["start"]) * 1e3 - s["sim_ms"] for s in model if "sim_ms" in s]
    m = {
        "core.ingest_jsonl.s": total("core.ingest_jsonl"),
        "core.count_tokens.s": total("core.count_tokens"),
        "core.write_corpus_jsonl.s": total("core.write_corpus_jsonl"),
        "curation.curate.s": total("curation.curate"),
        "curation.docs_removed": removals["curate"],
        "langid.filter_non_japanese.s": total("langid.filter_non_japanese"),
        "langid.filter_non_japanese.self_s": self_s.get("langid.filter_non_japanese", 0.0),
        "langid.fallback_share": fallback,
        "langid.docs_in": docs_in,
        "langid.docs_removed": removals["lang_id"],
        "backends.classifier.calls": len(clf),
        "backends.classifier.call_us_p50": _pct([(s["end"] - s["start"]) * 1e6 for s in clf], 50),
        "backends.classifier.call_us_p99": _pct([(s["end"] - s["start"]) * 1e6 for s in clf], 99),
        "backends.classifier.failures": sum(1 for s in clf if s.get("error")),
        "noise.denoise_corpus.s": total("noise.denoise_corpus"),
        "noise.lines_stripped": sum(v for k, v in detail.items() if k.startswith("lines_")),
        "noise.docs_removed": removals["noise_filter"],
        "dedup.dedup_documents.s": total("dedup.dedup_documents"),
        "dedup.duplicates_removed": removals["dedup_documents"],
        "dedup.count_sentences.s": total("dedup.count_sentences"),
        "dedup.table_entries": result.get("table_entries", 0),
        "dedup.dedup_sentences.s": total("dedup.dedup_sentences"),
        "dedup.sentences_removed": detail["sentences_removed"],
        "pipeline.load_config.s": total("pipeline.load_config"),
        "pipeline.emit_manifest.s": total("pipeline.emit_manifest"),
        "pipeline.run_pipeline.self_s": self_s.get("pipeline.run_pipeline", 0.0),
        **{f"{st}.maxrss_mb": result.get("stage_maxrss_mb", {}).get(st, 0.0) for st in _STAGES},
        "mixture.plan_epoch.s": total("mixture.plan_epoch"),
        "mixture.sample_update_mix.s": total("mixture.sample_update_mix"),
        "backends.model.calls": len(model),
        "backends.model.call_ms_p50": _pct([(s["end"] - s["start"]) * 1e3 for s in model], 50),
        "backends.model.call_ms_p99": _pct([(s["end"] - s["start"]) * 1e3 for s in model], 99),
        "backends.model.failures": sum(1 for s in model if s.get("error")),
        "backends.model.wait_ms_p50": _pct(waits, 50),
        "backends.model.wait_ms_p99": _pct(waits, 99),
        "backends.search.calls": len(durations["backends.search.search"]),
        "backends.search.call_ms_p50": _pct([d * 1e3 for d in durations["backends.search.search"]], 50),
        "bench.load_questions.s": total("bench.load_questions"),
        "bench.build_prompt.us_p50": _pct([d * 1e6 for d in durations["bench.build_prompt"]], 50),
        **{f"bench.run_benchmark.{s}.s": total(f"bench.run_benchmark.{s}") for s in gen.SETTINGS},
        "bench.run_benchmark.self_s": sum(self_s.get(f"bench.run_benchmark.{s}", 0.0) for s in gen.SETTINGS),
        "bench.resume.s": total("bench.resume"),
        "bench.record_judgments.s": total("bench.record_judgments"),
        "bench.compute_accuracy.s": total("bench.compute_accuracy"),
        "trace.spans": len(spans),
        "trace.overhead_s": result["run_s"] - untraced_run_s,
    }
    assert set(m) == set(PER_LAYER)
    return m


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(args: argparse.Namespace, work: Path) -> int:
    started = time.monotonic()
    deadline = started + BUDGET_S
    spec = gen.WORKLOADS[args.workload](args.seed, args.scale, work)
    spec.update(workload=args.workload, mixture=args.workload == "corpus_ja")
    # the child reads only what it needs: parsing the truth would count as set-up
    spec_path = work / "spec.json"
    child_spec = {k: v for k, v in spec.items() if k != "truth"}
    spec_path.write_text(json.dumps(child_spec, ensure_ascii=False), encoding="utf-8")
    corpus = args.workload != "bench_qa"
    passes = 1 if corpus else len(gen.SETTINGS)  # bench_qa runs every question once per setting
    input_bytes = passes * sum(Path(p).stat().st_size for p in spec["inputs"])
    records = passes * spec["records"]

    tally, reps, first_digests = Tally(), [], None
    measure_start = time.monotonic()
    while True:
        k = len(reps)
        t0 = time.monotonic()
        result, error = run_child(spec_path, work / f"rep{k}", None, deadline)
        label = f"rep {k}"
        if result is None:
            tally.op(label, [error])
        elif corpus:
            problems, digests = check_corpus(spec, work / f"rep{k}")
            first_digests = first_digests or digests
            if digests and digests != first_digests:
                problems.append("cleaned.jsonl or manifest differs from the first repetition")
            tally.op(label, problems)
        else:
            check_qa(spec, work / f"rep{k}", result, tally, label)
        reps.append(result)
        shutil.rmtree(work / f"rep{k}", ignore_errors=True)
        rep_s = time.monotonic() - t0
        if time.monotonic() - measure_start >= args.seconds or time.monotonic() + 3 * rep_s > deadline:
            break
    ran = [r for r in reps if r is not None]
    if not ran:
        print("error: no repetition ran; see the failures above", file=sys.stderr)
        return 1

    run_s = [r["run_s"] for r in ran]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in ran),
        "run_mb_per_s": statistics.median(input_bytes / 1e6 / s for s in run_s),
        "records_per_s": statistics.median(records / s for s in run_s),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in ran),
    }
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, {input_bytes / 1e6:.3f} MB, {records} records in")
    throughput = ("run_mb_per_s", "MB/s") if corpus else ("qa_qps", "questions/s")
    print(f"  setup_s        {e2e['setup_s']:.4f} s")
    print(f"  {throughput[0]:<14} {e2e['run_mb_per_s' if corpus else 'records_per_s']:.4f} {throughput[1]}")
    print(f"  records_per_s  {e2e['records_per_s']:.2f} 1/s")
    print(f"  peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        trace_path = HERE / "out" / "traces" / f"{args.workload}-seed{args.seed}.json"
        result, error = run_child(spec_path, work / "traced", trace_path, deadline)
        if result is None:
            tally.op("traced", [error])
            print("error: the traced repetition did not run", file=sys.stderr)
            return 1
        if corpus:
            problems, digests = check_corpus(spec, work / "traced")
            if digests != first_digests:
                problems.append("traced output is not byte-identical to the untraced output")
            tally.op("traced", problems)
            if "mixture" in result:
                check_mixture(result["mixture"], tally)
        else:
            check_qa(spec, work / "traced", result, tally, "traced")
        spans = json.loads(trace_path.read_text(encoding="utf-8"))["spans"]
        self_s = tracing.self_times(spans)
        layer = per_layer(spans, self_s, result, work / "traced", statistics.median(run_s))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        print(f"  traced run: {len(spans)} spans in {trace_path.relative_to(ROOT)}, "
              f"overhead {layer['trace.overhead_s']:.4f} s; largest self times:")
        for name, t in sorted(self_s.items(), key=lambda kv: -kv[1])[:6]:
            print(f"    {t:9.4f} s  {name}")
    print(f"  error_rate     {tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke tests)")
    args = parser.parse_args()
    if not (ROOT / "src" / "bizcorpus" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "out" / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
