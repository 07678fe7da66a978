"""Sentence splitting and counting, and both dedup stages."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import doc

from bizcorpus.core import ConfigError, Corpus, PipelineStats
from bizcorpus.dedup import (
    DedupConfig,
    SentenceFrequencyTable,
    TableMismatchError,
    count_sentences,
    dedup_documents,
    dedup_sentences,
    split_sentences,
)

CFG = DedupConfig()


class TestDedupDocuments:
    def test_three_identical_keep_first(self):
        corpus = Corpus([doc(f"d{i}", "同一の本文です。") for i in range(3)])
        out = dedup_documents(CFG, corpus)
        assert [d.id for d in out] == ["d0"]

    def test_unique_corpus_unchanged(self):
        corpus = Corpus([doc(f"d{i}", f"本文その{i}です。") for i in range(5)])
        out = dedup_documents(CFG, corpus)
        assert out.documents == corpus.documents

    def test_no_byte_equal_pair_remains(self):
        # oracle: brute-force pairwise comparison
        corpus = Corpus(
            [doc(f"d{i}", f"本文{i % 7}。") for i in range(30)]
        )
        out = dedup_documents(CFG, corpus)
        for a, b in combinations(out.documents, 2):
            assert a.text != b.text
        assert len(out) == 7

    def test_order_preserved_and_stats(self):
        corpus = Corpus(
            [doc("a", "一。"), doc("b", "二。"), doc("c", "一。"), doc("d", "三。")]
        )
        stats = PipelineStats()
        out = dedup_documents(CFG, corpus, stats=stats)
        assert [d.id for d in out] == ["a", "b", "d"]
        assert stats.stages[-1].doc_removals == {"duplicate_document": 1}


class TestSplitAndCount:
    def test_split_keeps_terminators(self):
        assert split_sentences(CFG, "一文目。二文目！三文目") == ["一文目。", "二文目！", "三文目"]

    def test_split_per_line(self):
        assert split_sentences(CFG, "一行目。\n二行目。") == ["一行目。", "二行目。"]

    def test_sentence_in_twenty_documents(self):
        corpus = Corpus(
            [doc(f"d{i}", f"ユニーク{i}。\nこの文は共通です。") for i in range(20)]
        )
        table = count_sentences(CFG, corpus)
        assert table.counts["この文は共通です。"] == 20

    def test_empty_corpus(self):
        table = count_sentences(CFG, Corpus([]))
        assert table.counts == Counter()
        assert table.total == 0

    def test_parallel_count_matches_sequential(self):
        # oracle: the sequential recount
        corpus = Corpus(
            [
                doc(f"d{i}", f"ぶん{i % 97}。\n共通の文です。\nほか{i % 13}。")
                for i in range(10_000)
            ]
        )
        sequential = count_sentences(CFG, corpus, workers=1)
        parallel = count_sentences(CFG, corpus, workers=4)
        assert parallel.counts == sequential.counts

    def test_dump_ordering_deterministic(self, tmp_path):
        corpus = Corpus([doc("a", "あ。い。い。"), doc("b", "う。い。")])
        table = count_sentences(CFG, corpus)
        p1 = table.dump_jsonl(tmp_path / "one.jsonl")
        p2 = table.dump_jsonl(tmp_path / "two.jsonl")
        assert p1.read_bytes() == p2.read_bytes()
        # keys sorted, as every JSON-lines file is written
        assert p1.read_text(encoding="utf-8").splitlines()[0] == '{"count": 3, "sentence": "い。"}'


def _boilerplate_corpus(frequency: int, threshold_filler: int = 0) -> Corpus:
    docs = []
    for i in range(frequency):
        docs.append(doc(f"b{i}", f"ユニーク{i}。\n共通のぼいらーです。"))
    for i in range(threshold_filler):
        docs.append(doc(f"f{i}", f"ほかの文{i}。"))
    return Corpus(docs)


class TestDedupSentences:
    def test_frequency_16_fully_removed(self):
        corpus = _boilerplate_corpus(16)
        table = count_sentences(CFG, corpus)
        out = dedup_sentences(CFG, corpus, table)
        assert all("共通のぼいらーです。" not in d.text for d in out)
        residual = count_sentences(CFG, out)
        assert residual.counts["共通のぼいらーです。"] == 0
        assert len(out) == 16  # carriers keep their unique sentence

    def test_frequency_15_kept_everywhere(self):
        corpus = _boilerplate_corpus(15)
        table = count_sentences(CFG, corpus)
        out = dedup_sentences(CFG, corpus, table)
        residual = count_sentences(CFG, out)
        assert residual.counts["共通のぼいらーです。"] == 15

    def test_emptied_document_dropped(self):
        docs = [doc(f"d{i}", "まいかいおなじぶん。") for i in range(16)]
        corpus = Corpus(docs)
        table = count_sentences(CFG, corpus)
        stats = PipelineStats()
        out = dedup_sentences(CFG, corpus, table, stats=stats)
        assert len(out) == 0
        assert stats.stages[-1].doc_removals == {"emptied_by_sentence_dedup": 16}
        assert stats.stages[-1].detail == {"sentences_removed": 16}

    def test_table_mismatch_is_fatal(self):
        corpus = Corpus([doc("a", "この文はテーブルにない。")])
        with pytest.raises(TableMismatchError):
            dedup_sentences(CFG, corpus, SentenceFrequencyTable(Counter({"別の文。": 1})))

    def test_table_counted_with_other_terminators_is_fatal(self):
        corpus = Corpus([doc("a", "一、二。")])
        table = count_sentences(DedupConfig(terminators=frozenset("。")), corpus)
        with pytest.raises(TableMismatchError) as got:
            dedup_sentences(DedupConfig(terminators=frozenset("。、")), corpus, table)
        assert (got.value.doc_id, got.value.sentence) == ("a", "一、")

    def test_untouched_lines_kept_verbatim(self):
        corpus = Corpus([doc("a", "スペース付き。 そのままです。")])
        table = count_sentences(CFG, corpus)
        out = dedup_sentences(CFG, corpus, table)
        assert out[0].text == "スペース付き。 そのままです。"


class TestPipelineProperties:
    def _full_dedup(self, corpus: Corpus) -> Corpus:
        out = dedup_documents(CFG, corpus)
        table = count_sentences(CFG, out)
        return dedup_sentences(CFG, out, table)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["あ。", "い。", "う！", "え", "お。か。", ""]),
            min_size=0,
            max_size=30,
        )
    )
    def test_idempotent(self, texts):
        corpus = Corpus([doc(f"d{i}", t) for i, t in enumerate(texts)])
        small = DedupConfig(sentence_frequency_threshold=2)
        once = dedup_documents(small, corpus)
        once = dedup_sentences(small, once, count_sentences(small, once))
        twice = dedup_documents(small, once)
        twice = dedup_sentences(small, twice, count_sentences(small, twice))
        assert [d.text for d in twice] == [d.text for d in once]

    def test_residual_frequency_property(self):
        # every sentence ends at frequency 0 or its original count <= threshold
        corpus = Corpus(
            [doc(f"d{i}", f"ユニーク{i}。\nぼいらー{i % 3}。") for i in range(60)]
        )
        config = DedupConfig(sentence_frequency_threshold=15)
        original = count_sentences(config, corpus)
        out = self._full_dedup(corpus)
        residual = count_sentences(config, out)
        for sentence, count in original.counts.items():
            if count > config.sentence_frequency_threshold:
                assert residual.counts[sentence] == 0
            else:
                assert residual.counts[sentence] == count

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DedupConfig(sentence_frequency_threshold=0)

    @pytest.mark.parametrize("terminators", [{"。。"}, {"。", ""}], ids=["two_characters", "empty"])
    def test_terminator_of_other_than_one_character_refused(self, terminators):
        # the split once dropped such an entry without a word
        with pytest.raises(ConfigError, match="terminators must be single characters"):
            DedupConfig(terminators=frozenset(terminators))
