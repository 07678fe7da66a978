"""Acceptance criteria.

One test per criterion, each at its stated tolerance (all exact), printing
one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines on passing runs.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

import synth

from bizcorpus.bench import (
    BenchmarkQuestion,
    Judgment,
    SettingKind,
    TaskSetting,
    build_prompt,
    compute_accuracy,
    truncate_context,
)
from bizcorpus.core import Corpus, Document, PipelineStats, SourceTag, read_corpus_jsonl
from bizcorpus.dedup import DedupConfig, count_sentences, dedup_sentences
from bizcorpus.langid import LangIdConfig, VerdictStage, classify_fallback, identify
from bizcorpus.mixture import MixtureSpec, UpdateMixSpec, plan_epoch, sample_update_mix
from bizcorpus.noise import NoiseConfig, denoise_corpus
from bizcorpus.pipeline import load_config, run_pipeline


@contextmanager
def criterion(n: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n}: FAIL — {name}")
        raise
    print(f"\nACCEPTANCE {n}: PASS — {name}")


def test_1_dedup_oracle_equivalence(tmp_path):
    with criterion(1, "dedup oracle equivalence on 1,000 planted documents (< 10 s)"):
        started = time.monotonic()
        records, truth = synth.make_records(
            n_core=838,
            n_off_domain=0,
            n_non_japanese=0,
            n_noise_carriers=0,
            n_terminatorless=0,
            n_duplicate_copies=100,
            boiler_frequencies=(15, 16, 15, 16),
        )
        assert len(records) == 1000
        config = load_config(synth.write_pipeline_config(tmp_path, records))
        stats = run_pipeline(config)

        dedup_docs = next(s for s in stats.stages if s.stage == "dedup_documents")
        assert dedup_docs.doc_removals == {"duplicate_document": truth.duplicate_copies}
        dedup_sents = next(s for s in stats.stages if s.stage == "dedup_sentences")
        # the two >15-frequency sentences are removed everywhere: 16 + 16
        assert dedup_sents.detail["sentences_removed"] == 32

        cleaned = read_corpus_jsonl(config.output_dir / "cleaned.jsonl")
        all_text = "\n".join(d.text for d in cleaned)
        for sentence, freq in truth.boilerplate.items():
            if freq > 15:
                assert sentence not in all_text
            else:
                assert all_text.count(sentence) == freq

        # brute-force pairwise oracle: zero byte-equal pairs remain
        texts = [d.text for d in cleaned]
        assert not any(a == b for a, b in combinations(texts, 2))

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_2_sentence_frequency_boundary():
    with criterion(2, "frequency 15 survives, frequency 16 fully removed (exact)"):
        config = DedupConfig(sentence_frequency_threshold=15)
        for freq, survives in ((15, True), (16, False)):
            boiler = "この文はぼいらーぷれーとです。"
            docs = [
                Document(id=f"d{i}", source=SourceTag.OTHER, text=f"ゆにーく{i}。\n{boiler}")
                for i in range(freq)
            ]
            corpus = Corpus(docs)
            table = count_sentences(config, corpus)
            assert table.counts[boiler] == freq
            out = dedup_sentences(config, corpus, table)
            residual = count_sentences(config, out)
            assert residual.counts[boiler] == (freq if survives else 0)


def test_3_mixture_exactness(tmp_path):
    with criterion(3, "update-mix counts for r in {0.0, 0.1, 0.3} are {0, 100, 300} (exact)"):
        latest = Corpus(
            [
                Document(id=f"l{i}", source=SourceTag.LATEST_UPDATE, text=f"新着{i}。")
                for i in range(1200)
            ]
        )
        non_latest = Corpus(
            [
                Document(id=f"n{i}", source=SourceTag.CURATED_BUSINESS, text=f"既存{i}。")
                for i in range(400)
            ]
        )
        for r, expected in ((0.0, 0), (0.1, 100), (0.3, 300)):
            spec = UpdateMixSpec(r=r, total=1000, seed=20231001)
            plan = sample_update_mix(spec, latest, non_latest)
            realized = sum(
                1 for e in plan.entries if e.source is not SourceTag.LATEST_UPDATE
            )
            assert (realized, len(plan)) == (expected, 1000)

            rerun = sample_update_mix(spec, latest, non_latest)
            a = plan.to_jsonl(tmp_path / f"plan_{r}_a.jsonl")
            b = rerun.to_jsonl(tmp_path / f"plan_{r}_b.jsonl")
            assert a.read_bytes() == b.read_bytes()


def test_4_epoch_doubling():
    with criterion(4, "epoch doubling: weighted sources exactly 2x, others exactly 1x"):
        table_sources = [
            SourceTag.CURATED_BUSINESS,
            SourceTag.PATENT,
            SourceTag.WIKIPEDIA,
            SourceTag.CC100,
            SourceTag.MC4,
            SourceTag.COMMON_CRAWL,
        ]
        docs = [
            Document(id=f"{tag.value}-{i}", source=tag, text=f"{tag.value}の本文{i}。")
            for tag in table_sources
            for i in range(40)
        ]
        corpus = Corpus(docs)
        spec = MixtureSpec(
            weights={SourceTag.WIKIPEDIA: 2.0, SourceTag.CURATED_BUSINESS: 2.0}, seed=77
        )
        plan = plan_epoch(spec, corpus)
        doubled = {SourceTag.WIKIPEDIA.value, SourceTag.CURATED_BUSINESS.value}
        for tag in table_sources:
            expected = 80 if tag.value in doubled else 40
            assert plan.source_counts[tag.value] == expected
        appearances = Counter(e.doc_id for e in plan.entries)
        for doc in corpus:
            assert appearances[doc.id] == (2 if doc.source.value in doubled else 1)


def test_5_language_cascade():
    with criterion(5, "cascade: 0.5 -> fallback decides, 0.95 -> primary, Hiragana -> ja"):
        class Stub:
            def __init__(self, confidence):
                self.confidence = confidence

            def classify(self, text):
                return "ko", self.confidence

        uncertain = LangIdConfig(classifier=Stub(0.5))
        verdict = identify(uncertain, "English text without kana.")
        assert verdict.stage is VerdictStage.FALLBACK
        assert verdict.lang == "en"

        confident = LangIdConfig(classifier=Stub(0.95))
        verdict = identify(confident, "English text without kana.")
        assert verdict.stage is VerdictStage.PRIMARY
        assert verdict.lang == "ko"

        for config in (uncertain, LangIdConfig()):
            verdict = classify_fallback(config, "これはすべてひらがなのぶんしょうです。")
            assert verdict.lang == "ja"


def test_6_noise_filtering_ground_truth():
    with criterion(6, "planted noise-line and terminatorless counts recovered (exact)"):
        date_lines = url_lines = markup_lines = 0
        docs = []
        for i in range(30):
            body = [f"ほんぶんのだい{i}-{j}ぶんです。" for j in range(4)]
            if i % 4 == 0:
                body.insert(0, "2023年10月5日")
                date_lines += 1
            elif i % 4 == 1:
                body.insert(0, "https://noise.example.com/menu")
                url_lines += 1
            elif i % 4 == 2:
                body.insert(0, "<nav><ul><li>")
                markup_lines += 1
            docs.append(
                Document(id=f"d{i}", source=SourceTag.OTHER, text="\n".join(body), lang="ja")
            )
        terminatorless = 7
        for i in range(terminatorless):
            docs.append(
                Document(
                    id=f"t{i}",
                    source=SourceTag.OTHER,
                    text="おわりのないぎょう\nもうひとぎょう",
                    lang="ja",
                )
            )
        stats = PipelineStats()
        out = denoise_corpus(NoiseConfig(), Corpus(docs), stats=stats)
        stage = stats.stages[-1]
        assert stage.detail["lines_date_only"] == date_lines
        assert stage.detail["lines_url_only"] == url_lines
        assert stage.detail["lines_markup_fragment"] == markup_lines
        assert stage.doc_removals == {"non_sentential": terminatorless}
        assert len(out) == 30


def test_7_benchmark_arithmetic():
    with criterion(7, "accuracy: 45/50 = 0.90 and 9/10 = 0.90 (exact)"):
        def judged(n_correct, n_total):
            return [
                Judgment.record(
                    question_id=f"q{i}",
                    setting=SettingKind.NO_CONTEXT,
                    model_id="m",
                    response="答え",
                    content_faithful=i < n_correct,
                    instruction_followed=True,
                    judge_id="judge",
                )
                for i in range(n_total)
            ]

        assert compute_accuracy(judged(45, 50))[("m", "no_context")] == 0.90
        assert compute_accuracy(judged(9, 10))[("m", "no_context")] == 0.90


def test_8_truncation():
    with criterion(8, "1,500-char context -> 1,000-char insert, no split character"):
        setting = TaskSetting(SettingKind.MANUAL_RAG, truncation_chars=1000)
        page = ("日本語の長い記事本文と、latin text の混在。" * 70)[:1500]
        assert len(page) == 1500
        inserted = truncate_context(setting, page)
        assert len(inserted) == 1000
        assert inserted == page[:1000]
        assert inserted.encode("utf-8").decode("utf-8") == inserted

        prompt = build_prompt(
            setting,
            BenchmarkQuestion(
                id="q", question="質問です。", category="trends", manual_context=page
            ),
        )
        assert inserted in prompt
        assert page[:1001] not in prompt


def test_9_end_to_end_determinism(tmp_path, monkeypatch):
    with criterion(9, "two identical-config runs byte-identical (timestamp-normalized, < 60 s)"):
        started = time.monotonic()
        records, _ = synth.make_records(
            n_core=600,
            n_off_domain=30,
            n_non_japanese=40,
            n_noise_carriers=30,
            n_terminatorless=20,
            n_duplicate_copies=60,
            boiler_frequencies=(15, 16),
        )
        config_path = synth.write_pipeline_config(tmp_path, records)

        outputs = []
        for out_dir in ("run_a", "run_b"):
            monkeypatch.setenv("BIZCORPUS_OUTPUT_DIR", str(tmp_path / out_dir))
            run_pipeline(load_config(config_path))
            cleaned = (tmp_path / out_dir / "cleaned.jsonl").read_bytes()
            manifest = json.loads(
                (tmp_path / out_dir / "manifest.json").read_text(encoding="utf-8")
            )
            manifest.pop("created_at")
            outputs.append((cleaned, manifest))

        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
