"""Stage accounting: every stage's recorded per-source counts against the
whole-corpus recount in ``oracles``, and the exact ``StageStats`` each stage
records when it removes nothing and when its input is empty."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import oracles
import pytest
import synth
from hypothesis import given, settings
from hypothesis import strategies as st

from bizcorpus.core import Corpus, PipelineStats, SourceTag, StageStats, ingest_jsonl
from bizcorpus.curation import curate, load_rules
from bizcorpus.dedup import DedupConfig, count_sentences, dedup_documents, dedup_sentences
from bizcorpus.langid import LangIdConfig, filter_non_japanese
from bizcorpus.noise import NoiseConfig, denoise_corpus

# Texts that each stage keeps or removes: cue-word Japanese, English,
# terminatorless Japanese, noise lines only, a noise line on a sentence, and a
# sentence shared by several texts for sentence dedup to remove.
_TEXTS = [
    f"{synth.CUE_WORD}のほうこくです。",
    f"{synth.CUE_WORD}のけいかくです。\nきょうつうのぶんです。",
    "きょうつうのぶんです。",
    "An English market report.",
    "きょうのかいぎのしりょう\nらいしゅうのよてい",
    "2023年10月5日\nトップ | IR | 地図",
    f"2023/10/05\n{synth.CUE_WORD}のしりょうです。",
    "",
]
_URLS = ["", synth.BIZ_URL + "a", "https://other.example.org/p"]

_records = st.lists(
    st.fixed_dictionaries(
        {
            "source": st.sampled_from([tag.value for tag in SourceTag]),
            "text": st.sampled_from(_TEXTS),
            "url": st.sampled_from(_URLS),
        }
    ),
    max_size=30,
)


def _ingest(records: list[dict], stats: PipelineStats | None = None) -> Corpus:
    with tempfile.TemporaryDirectory() as tmp:
        path = synth.write_jsonl(Path(tmp) / "in.jsonl", records)
        return ingest_jsonl(path, SourceTag.OTHER, stats=stats)


def _stages(tmp: Path):
    """Each stage function as (corpus, stats) -> corpus."""
    rules = load_rules(synth.write_rules(tmp / "rules.yaml"))
    dedup = DedupConfig(sentence_frequency_threshold=2)
    return [
        lambda c, s: curate(rules, c, stats=s),
        lambda c, s: filter_non_japanese(LangIdConfig(), c, stats=s),
        lambda c, s: denoise_corpus(NoiseConfig(), c, stats=s),
        lambda c, s: dedup_documents(dedup, c, stats=s),
        lambda c, s: dedup_sentences(dedup, c, count_sentences(dedup, c), stats=s),
    ]


@settings(max_examples=100, deadline=None)
@given(_records)
def test_recorded_counts_match_recount(records):
    for i, record in enumerate(records):
        record["id"] = f"d{i}"
    stats = PipelineStats()
    corpus = _ingest(records, stats)
    assert stats.stages[0].docs_in == stats.stages[0].docs_out == oracles.source_counts(corpus)
    with tempfile.TemporaryDirectory() as tmp:
        for stage in _stages(Path(tmp)):
            out = stage(corpus, stats)
            entry = stats.stages[-1]
            assert entry.docs_in == oracles.source_counts(corpus), entry.stage
            assert entry.docs_out == oracles.source_counts(out), entry.stage
    assert len(stats.stages) == 6


# Japanese already, so no stage rewrites them.
_KEPT = [
    {"id": "a", "source": "patent", "lang": "ja", "url": synth.BIZ_URL + "a", "text": f"{synth.CUE_WORD}のほうこくです。"},
    {"id": "b", "source": "mc4", "lang": "ja", "text": f"{synth.CUE_WORD}のけいかくです。"},
]


@pytest.mark.parametrize(
    ("records", "counts", "hits"),
    [
        (_KEPT, {"patent": 1, "mc4": 1}, {"url_hits": 1, "cue_hits": 2, "both_hits": 1}),
        ([], {}, {"url_hits": 0, "cue_hits": 0, "both_hits": 0}),
    ],
    ids=["no_removals", "empty"],
)
def test_pinned_stage_stats(tmp_path, records, counts, hits):
    stats = PipelineStats()
    corpus = _ingest(records, stats)
    for stage in _stages(tmp_path):
        assert stage(corpus, stats).documents == corpus.documents
    assert stats.stages == [
        StageStats("ingest:in.jsonl", counts, counts, {}, {"malformed_lines": 0, "ingested": len(records)}),
        StageStats("curate", counts, counts, {"no_rule_match": 0}, hits),
        StageStats("lang_id", counts, counts, {}, {}),
        StageStats("noise_filter", counts, counts, {}, {}),
        StageStats("dedup_documents", counts, counts, {"duplicate_document": 0}, {}),
        StageStats("dedup_sentences", counts, counts, {}, {"sentences_removed": 0}),
    ]
