"""One repetition of a workload, in a fresh process.

    python3 benchmarks/child.py SPEC_JSON OUT_DIR TRACE_PATH|-

The parent records the clock just before starting this process; everything
up to ``ready`` (interpreter start, imports, config or question loading,
backend spawn) is set-up. With a trace path the repetition runs traced: each
public call into the program is wrapped in a span and the spans are written
to that path at the end. The last stdout line is a JSON result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer

SETTINGS = ("no_context", "manual_rag", "auto_rag")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TracedClassifier:
    """Wraps the classifier backend; records each call and whether its
    verdict is uncertain enough to hand the document to the fallback."""

    shareable = False

    def __init__(self, inner, tracer: Tracer, threshold: float):
        self._inner, self._tracer, self._threshold = inner, tracer, threshold

    def classify(self, text: str) -> tuple[str, float]:
        with self._tracer.span("backends.classifier.classify") as span:
            lang, confidence = self._inner.classify(text)
        span["fallback"] = confidence < self._threshold
        return lang, confidence


class TracedModel:
    def __init__(self, inner, tracer: Tracer, latency_ms):
        self.model_id = inner.model_id
        self._inner, self._tracer, self._latency_ms = inner, tracer, latency_ms

    def generate(self, prompt: str) -> str:
        with self._tracer.span("backends.model.generate") as span:
            response = self._inner.generate(prompt)
        span["sim_ms"] = self._latency_ms(prompt)
        return response


class TracedSearch:
    def __init__(self, inner, tracer: Tracer):
        self._inner, self._tracer = inner, tracer

    def search(self, query: str):
        with self._tracer.span("backends.search.search"):
            return self._inner.search(query)


class CountingModel:
    """Counts generate calls; a resume over a finished run must make none."""

    def __init__(self, inner):
        self.model_id = inner.model_id
        self._inner = inner
        self.calls = 0

    def generate(self, prompt: str) -> str:
        self.calls += 1
        return self._inner.generate(prompt)


def run_corpus(spec: dict) -> dict:
    from bizcorpus.pipeline import load_config, run_pipeline

    config = load_config(spec["config"])
    ready = time.monotonic()
    try:
        run_pipeline(config)
        return {"ready": ready, "run_s": time.monotonic() - ready, "maxrss_mb": maxrss_mb()}
    finally:
        if config.lang_id.classifier is not None:
            config.lang_id.classifier.close()


def run_corpus_traced(spec: dict, tracer: Tracer) -> dict:
    """The stages of ``run_pipeline`` called one by one, in its order."""
    from bizcorpus import core, curation, dedup, langid, mixture, noise, pipeline

    stage_rss: dict[str, float] = {}

    def call(name: str, fn, *args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        stage_rss[name] = maxrss_mb()
        return result

    with tracer.span("pipeline.load_config"):
        config = pipeline.load_config(spec["config"])
    ready = time.monotonic()
    backend = config.lang_id.classifier
    if backend is not None:
        config.lang_id.classifier = TracedClassifier(backend, tracer, config.lang_id.uncertainty_threshold)
    try:
        with tracer.span("pipeline.run_pipeline"):
            stats = core.PipelineStats(seed=config.seed, config_digest=config.digest)
            config.output_dir.mkdir(parents=True, exist_ok=True)
            corpora = [
                call("core.ingest_jsonl", core.ingest_jsonl, s.path, s.source, stats=stats)
                for s in config.sources
            ]
            corpus = core.Corpus(
                [d for c in corpora for d in c], provenance="; ".join(c.provenance for c in corpora)
            )
            if config.rules is not None:
                corpus = call("curation.curate", curation.curate, config.rules, corpus, stats=stats)
            docs_into_langid = len(corpus)
            corpus = call(
                "langid.filter_non_japanese", langid.filter_non_japanese,
                config.lang_id, corpus, stats=stats, workers=config.workers,
            )
            corpus = call(
                "noise.denoise_corpus", noise.denoise_corpus,
                config.noise, corpus, stats=stats, workers=config.workers,
            )
            corpus = call("dedup.dedup_documents", dedup.dedup_documents, config.dedup, corpus, stats=stats)
            table = call(
                "dedup.count_sentences", dedup.count_sentences, config.dedup, corpus, workers=config.workers
            )
            corpus = call("dedup.dedup_sentences", dedup.dedup_sentences, config.dedup, corpus, table, stats=stats)
            call("core.count_tokens", core.count_tokens, corpus, stats=stats)
            call("core.write_corpus_jsonl", core.write_corpus_jsonl, corpus, config.output_dir / "cleaned.jsonl")
            call("pipeline.emit_manifest", pipeline.emit_manifest, stats, config.output_dir / "manifest.json")
        run_s = time.monotonic() - ready
    finally:
        if backend is not None:
            backend.close()
    result = {
        "ready": ready,
        "run_s": run_s,
        "maxrss_mb": maxrss_mb(),
        "stage_maxrss_mb": stage_rss,
        "langid_docs_in": docs_into_langid,
        "table_entries": len(table.counts),
    }
    if spec.get("mixture"):
        result["mixture"] = run_mixture(corpus, tracer, mixture, core)
    return result


def run_mixture(corpus, tracer: Tracer, mixture, core) -> dict:
    """Epoch plan with the default weights and an r = 0.1 update mix over
    the cleaned corpus; documents dated 2024 form the latest pool."""
    latest = core.Corpus(
        [
            core.Document(d.id, core.SourceTag.LATEST_UPDATE, d.text, d.url, d.published_date, d.lang)
            for d in corpus
            if d.published_date is not None and d.published_date.year >= 2024
        ]
    )
    older = core.Corpus([d for d in corpus if d.published_date is None or d.published_date.year < 2024])
    with tracer.span("mixture.plan_epoch"):
        epoch = mixture.plan_epoch(mixture.MixtureSpec(seed=7), corpus)
    spec = mixture.UpdateMixSpec(r=0.1, total=len(corpus), seed=7)
    with tracer.span("mixture.sample_update_mix"):
        plan = mixture.sample_update_mix(spec, latest, older)
    check = mixture.verify_plan(plan, spec)
    return {
        "docs": len(corpus),
        "epoch_entries": len(epoch),
        "update_entries": len(plan),
        "update_non_latest": check.realized_non_latest,
        "update_ok": check.ok,
    }


def run_qa(spec: dict, out: Path, tracer) -> dict:
    from bizcorpus import bench
    from bizcorpus.backends import CommandModel, CommandSearch

    import stubs

    with tracer.span("bench.load_questions"):
        questions = bench.load_questions(spec["questions"])
    model = CommandModel(spec["model_cmd"], model_id="stub-model")
    search = CommandSearch(spec["search_cmd"])
    owned = (model, search)
    ready = time.monotonic()
    if isinstance(tracer, Tracer):
        model = TracedModel(model, tracer, stubs.model_latency_ms)
        search = TracedSearch(search, tracer)
        # run_benchmark reaches build_prompt through the module global
        bench.build_prompt = _traced(tracer, "bench.build_prompt", bench.build_prompt)
    settings = {}
    try:
        for name in SETTINGS:
            setting = bench.TaskSetting(bench.SettingKind(name), truncation_chars=spec["truncation"])
            run_dir = out / name
            kwargs = {
                "search": search if name == "auto_rag" else None,
                "out_dir": run_dir,
                "max_in_flight": spec["max_in_flight"],
            }
            t0 = time.monotonic()
            with tracer.span(f"bench.run_benchmark.{name}"):
                answered = bench.run_benchmark(setting, questions, model, **kwargs)
            fresh_s = time.monotonic() - t0
            counting = CountingModel(model)
            with tracer.span("bench.resume"):
                resumed = bench.run_benchmark(setting, questions, counting, **kwargs)
            with tracer.span("bench.record_judgments"):
                judgments = bench.record_judgments(run_dir, spec["verdicts"][name], "bench-judge")
            with tracer.span("bench.compute_accuracy"):
                accuracy = bench.compute_accuracy(judgments)
            settings[name] = {
                "fresh_s": fresh_s,
                "answered": len(answered),
                "resume_model_calls": counting.calls,
                "resume_same": resumed == answered,
                "judged": len(judgments),
                "accuracy": [[m, s, v] for (m, s), v in sorted(accuracy.items())],
            }
    finally:
        for backend in owned:
            backend.close()
    return {
        "ready": ready,
        "run_s": sum(s["fresh_s"] for s in settings.values()),
        "maxrss_mb": maxrss_mb(),
        "settings": settings,
    }


def _traced(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def main() -> None:
    spec_path, out, trace_path = sys.argv[1:4]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = NullTracer() if trace_path == "-" else Tracer(run_id=Path(trace_path).stem)
    if spec["workload"] == "bench_qa":
        result = run_qa(spec, Path(out), tracer)
    elif trace_path == "-":
        result = run_corpus(spec)
    else:
        result = run_corpus_traced(spec, tracer)
    if isinstance(tracer, Tracer):
        tracer.dump(Path(trace_path))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
