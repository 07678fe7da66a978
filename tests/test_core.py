"""Ingestion, token accounting, stats invariants and the JSON-lines writer."""

from __future__ import annotations

import hashlib
import json
import tempfile
from collections import Counter
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import corpus_of, doc

from bizcorpus.backends import EchoModel
from bizcorpus.bench import BenchmarkQuestion, SettingKind, TaskSetting, record_judgments, run_benchmark
from bizcorpus.core import (
    Corpus,
    Document,
    PipelineStats,
    SourceTag,
    StageStats,
    WhitespaceCjkTokenizer,
    _record_to_document,
    count_tokens,
    derive_seed,
    ingest_jsonl,
    read_corpus_jsonl,
    read_json,
    read_jsonl,
    run_stage,
    write_corpus_jsonl,
)
from bizcorpus.dedup import SentenceFrequencyTable
from bizcorpus.mixture import PlanEntry, SamplePlan


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_three_well_formed_lines(self, tmp_path):
        path = _write(
            tmp_path / "in.jsonl",
            [json.dumps({"text": f"doc {i}"}) for i in range(3)],
        )
        corpus = ingest_jsonl(path, SourceTag.WIKIPEDIA)
        assert len(corpus) == 3
        assert [d.text for d in corpus] == ["doc 0", "doc 1", "doc 2"]
        assert all(d.source is SourceTag.WIKIPEDIA for d in corpus)

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        lines = [json.dumps({"text": f"doc {i}"}) for i in range(4)]
        lines.insert(2, "{not json at all")
        path = _write(tmp_path / "in.jsonl", lines)
        stats = PipelineStats()
        corpus = ingest_jsonl(path, SourceTag.OTHER, stats=stats)
        assert len(corpus) == 4
        assert stats.stages[-1].detail["malformed_lines"] == 1

    def test_missing_text_field_is_malformed(self, tmp_path):
        path = _write(tmp_path / "in.jsonl", [json.dumps({"url": "https://x"})])
        stats = PipelineStats()
        corpus = ingest_jsonl(path, SourceTag.OTHER, stats=stats)
        assert len(corpus) == 0
        assert stats.stages[-1].detail["malformed_lines"] == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text("", encoding="utf-8")
        stats = PipelineStats()
        corpus = ingest_jsonl(path, SourceTag.OTHER, stats=stats)
        assert len(corpus) == 0
        assert stats.stages[-1].detail == {"malformed_lines": 0, "ingested": 0}

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            ingest_jsonl(tmp_path / "missing.jsonl", SourceTag.OTHER)

    def test_record_fields_mapped(self, tmp_path):
        record = {
            "id": "a-1",
            "url": "https://example.com/x",
            "source": "patent",
            "date": "2023-09-30",
            "text": "特許の本文。",
        }
        path = _write(tmp_path / "in.jsonl", [json.dumps(record, ensure_ascii=False)])
        # record-level source overrides the file-level tag
        corpus = ingest_jsonl(path, SourceTag.OTHER)
        d = corpus[0]
        assert d.id == "a-1"
        assert d.source is SourceTag.PATENT
        assert d.url == "https://example.com/x"
        assert d.published_date.isoformat() == "2023-09-30"

    def test_unknown_source_label_is_malformed(self, tmp_path):
        path = _write(
            tmp_path / "in.jsonl", [json.dumps({"text": "x", "source": "mystery"})]
        )
        stats = PipelineStats()
        corpus = ingest_jsonl(path, SourceTag.OTHER, stats=stats)
        assert len(corpus) == 0
        assert stats.stages[-1].detail["malformed_lines"] == 1

    def test_synthesized_ids_are_deterministic_and_unique(self, tmp_path):
        path = _write(tmp_path / "in.jsonl", [json.dumps({"text": "a"}), json.dumps({"text": "b"})])
        first = ingest_jsonl(path, SourceTag.OTHER)
        second = ingest_jsonl(path, SourceTag.OTHER)
        assert [d.id for d in first] == [d.id for d in second]
        assert len({d.id for d in first}) == 2

    def test_duplicate_explicit_id_counts_as_malformed(self, tmp_path):
        path = _write(
            tmp_path / "in.jsonl",
            [json.dumps({"id": "same", "text": "a"}), json.dumps({"id": "same", "text": "b"})],
        )
        stats = PipelineStats()
        corpus = ingest_jsonl(path, SourceTag.OTHER, stats=stats)
        assert len(corpus) == 1
        assert stats.stages[-1].detail["malformed_lines"] == 1

    @pytest.mark.parametrize(
        "record",
        [{"id": True, "text": "あ"}, {"id": [1], "text": "あ"}, {"id": 1, "text": "あ"}, {"url": 5, "text": "あ"}],
        ids=["bool_id", "list_id", "int_id", "int_url"],
    )
    def test_non_string_id_or_url_is_malformed(self, tmp_path, record):
        path = _write(tmp_path / "in.jsonl", [json.dumps(record), json.dumps({"id": "ok", "text": "い"})])
        stats = PipelineStats()
        corpus = ingest_jsonl(path, SourceTag.OTHER, stats=stats)
        assert [d.id for d in corpus] == ["ok"]
        assert stats.stages[-1].detail["malformed_lines"] == 1

    def test_null_id_and_url_mean_absent(self, tmp_path):
        path = _write(tmp_path / "in.jsonl", [json.dumps({"id": None, "url": None, "text": "あ"})])
        (d,) = ingest_jsonl(path, SourceTag.OTHER)
        assert d.id.endswith(":1")
        assert d.url == ""

    def test_number_id_does_not_collide_with_string_id(self, tmp_path):
        # once coerced, "id": 1 in one file and "id": "1" in another were one id
        a = ingest_jsonl(_write(tmp_path / "a.jsonl", ['{"id": 1, "text": "あ"}']), SourceTag.OTHER)
        b = ingest_jsonl(_write(tmp_path / "b.jsonl", ['{"id": "1", "text": "い"}']), SourceTag.OTHER)
        assert [d.id for d in Corpus(a.documents + b.documents)] == ["1"]

    def test_ingestion_manifest_byte_identical(self, tmp_path):
        path = _write(
            tmp_path / "in.jsonl",
            [json.dumps({"text": f"本文{i}。", "url": "https://x"}, ensure_ascii=False) for i in range(5)],
        )
        out1 = write_corpus_jsonl(ingest_jsonl(path, SourceTag.MC4), tmp_path / "a.jsonl")
        out2 = write_corpus_jsonl(ingest_jsonl(path, SourceTag.MC4), tmp_path / "b.jsonl")
        assert out1.read_bytes() == out2.read_bytes()

    def test_corpus_roundtrip(self, tmp_path):
        corpus = Corpus(
            [doc("d0", "本文です。", source=SourceTag.CC100, url="https://x", lang="ja")]
        )
        write_corpus_jsonl(corpus, tmp_path / "c.jsonl")
        back = read_corpus_jsonl(tmp_path / "c.jsonl")
        assert back.documents == corpus.documents


GOOD_RECORD = {"id": "d0", "source": "mc4", "text": "本文です。"}


# One bad line for each way a corpus record can be invalid, with the
# reason the strict reader gives. Both readers must reject every row.
BAD_RECORDS = [
    ('{"id": "d1", "source": "mc4"', "invalid JSON"),
    ('["d1", "mc4", "本文。"]', "record is not a JSON object"),
    ('{"id": "d1", "source": "mc4"}', "missing field 'text'"),
    ('{"id": "d1", "source": "mc4", "text": 5}', "field 'text' must be a string"),
    ('{"id": "d1", "source": "mc4", "text": "x", "lang": 1}', "field 'lang' must be a string"),
    ('{"id": 1, "source": "mc4", "text": "x"}', "field 'id' must be a string, got 1"),
    ('{"id": true, "source": "mc4", "text": "x"}', "field 'id' must be a string, got True"),
    ('{"id": "d1", "source": "mc4", "text": "x", "url": 5}', "field 'url' must be a string"),
    ('{"id": "d1", "source": "blog", "text": "x"}',
     "field 'source' must be one of 'curated_business', 'patent', 'wikipedia', "
     "'cc100', 'mc4', 'common_crawl', 'latest_update', 'other', got 'blog'"),
    ('{"id": "d1", "source": "mc4", "text": "x", "date": "2023-13-01"}', "month must be in 1..12"),
    # once Python's "fromisoformat: argument must be str", naming no field
    ('{"id": "d1", "source": "mc4", "text": "x", "date": 20230101}', "field 'date' must be a string, got 20230101"),
    ('{"id": "d1", "source": "mc4", "text": "x", "date": false}', "field 'date' must be a string, got False"),
    ('{"id": "d1", "source": "mc4", "text": "x", "date": ["2024-01-01"]}',
     "field 'date' must be a string, got ['2024-01-01']"),
    # Python 3.11's date.fromisoformat reads both as 2023-01-05
    ('{"id": "d1", "source": "mc4", "text": "x", "date": "20230105"}', "field 'date' must be YYYY-MM-DD"),
    ('{"id": "d1", "source": "mc4", "text": "x", "date": "2023-W01-4"}', "field 'date' must be YYYY-MM-DD"),
]
BAD_RECORD_IDS = [
    "broken_json", "array", "missing_text", "int_text", "int_lang", "int_id", "bool_id",
    "int_url", "bad_source", "bad_date", "int_date", "false_date", "list_date", "basic_format_date",
    "week_date",
]


# Records drawn field by field: each field takes a value that looks right
# (some are not: a bad month, an unknown source label), and up to two
# fields are then made missing, null, a string, a number, a bool or a list.
_PLAUSIBLE = {
    "id": ("d1", "d2", ""),
    "source": ("mc4", "patent", "blog", ""),
    "text": ("本文です。", "x", ""),
    "url": ("https://example.com/x", ""),
    "date": ("2023-09-30", "", "2023-13-45", "2023-02-30"),
    "lang": ("ja", "en", ""),
}
_MISSING = object()
_ANY = st.one_of(
    st.just(_MISSING), st.none(), st.text(max_size=4), st.integers(),
    st.floats(allow_nan=False), st.booleans(), st.lists(st.integers(), max_size=2),
)


def _record(plausible: dict, changed: dict) -> dict:
    return {k: v for k, v in {**plausible, **changed}.items() if v is not _MISSING}


RECORDS = st.builds(
    _record,
    st.fixed_dictionaries({key: st.sampled_from(values) for key, values in _PLAUSIBLE.items()}),
    st.dictionaries(st.sampled_from(sorted(_PLAUSIBLE)), _ANY, max_size=2),
)


class TestStrictReaders:
    def test_read_jsonl_skips_blank_lines_and_parses_objects(self, tmp_path):
        path = _write(tmp_path / "r.jsonl", ['{"n": 1}', "", "   ", '{"n": 2}'])
        assert read_jsonl(path, lambda obj: obj["n"]) == [1, 2]

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"n": 1}\n{"n": "\xff"}\n')
        with pytest.raises(ValueError, match=r"c\.jsonl:2: 'utf-8' codec can't decode"):
            read_jsonl(path, lambda obj: obj["n"])

    @pytest.mark.parametrize(
        ("raw", "reason"),
        [
            (b'{"id": "d1", "source": "mc4", "text": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
            (b'["d1", "mc4", "x"]', "record is not a JSON object"),
            (b'{"id": "d1", "source": "mc4"}', "missing field 'text'"),
            (b'{"id": "d1", "source": "mc4"', "invalid JSON: Expecting ',' delimiter"),
        ],
        ids=["invalid_utf8", "array", "missing_field", "truncated"],
    )
    def test_one_parser_behind_every_reader(self, tmp_path, raw, reason):
        whole = tmp_path / "r.json"
        whole.write_bytes(raw)
        with pytest.raises(ValueError) as excinfo:
            read_json(whole, _record_to_document)
        assert str(excinfo.value).startswith(f"{whole}: {reason}")
        lines = tmp_path / "r.jsonl"
        lines.write_bytes(json.dumps(GOOD_RECORD).encode() + b"\n" + raw + b"\n")
        with pytest.raises(ValueError) as excinfo:
            read_jsonl(lines, _record_to_document)
        assert str(excinfo.value).startswith(f"{lines}:2: {reason}")
        stats = PipelineStats()
        assert [d.id for d in ingest_jsonl(lines, SourceTag.OTHER, stats=stats)] == ["d0"]
        assert stats.stages[-1].detail == {"malformed_lines": 1, "ingested": 1}

    def test_read_json_names_line_and_column_of_bad_json(self, tmp_path):
        # whole files are written with indent=2 and edited by hand
        path = tmp_path / "record.json"
        path.write_text('{\n  "id": "d1",\n  "text": "cut off', encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            read_json(path)
        assert str(excinfo.value) == (
            f"{path}: invalid JSON: Unterminated string starting at: line 3 column 11 (char 26)"
        )

    @pytest.mark.parametrize(("line", "message"), BAD_RECORDS, ids=BAD_RECORD_IDS)
    def test_bad_corpus_record_names_file_and_line(self, tmp_path, line, message):
        path = _write(tmp_path / "c.jsonl", [json.dumps(GOOD_RECORD, ensure_ascii=False), line])
        with pytest.raises(ValueError, match=r"c\.jsonl:2: ") as excinfo:
            read_corpus_jsonl(path)
        assert message in str(excinfo.value)


class TestOneRecordSchema:
    """Lenient ingest and the strict reader apply one record schema; ingest
    only fills in a missing ``id`` and ``source`` and counts a bad line."""

    @pytest.mark.parametrize(("line", "message"), BAD_RECORDS, ids=BAD_RECORD_IDS)
    def test_bad_record_is_one_malformed_line(self, tmp_path, line, message):
        path = _write(tmp_path / "c.jsonl", [json.dumps(GOOD_RECORD, ensure_ascii=False), line])
        stats = PipelineStats()
        corpus = ingest_jsonl(path, SourceTag.OTHER, stats=stats)
        assert [d.id for d in corpus] == ["d0"]
        assert stats.stages[-1].detail == {"malformed_lines": 1, "ingested": 1}

    def test_bad_lang_and_date_are_malformed(self, tmp_path):
        path = _write(
            tmp_path / "in.jsonl",
            [
                '{"id": "a", "text": "あ", "lang": 5, "date": "2023-13-45"}',
                '{"id": "b", "text": "い", "date": 20230101}',
            ],
        )
        stats = PipelineStats()
        assert len(ingest_jsonl(path, SourceTag.OTHER, stats=stats)) == 0
        assert stats.stages[-1].detail["malformed_lines"] == 2

    @settings(max_examples=300, deadline=None)
    @given(record=RECORDS)
    def test_ingest_keeps_exactly_what_the_strict_reader_accepts(self, record):
        with tempfile.TemporaryDirectory() as tmp:
            raw = Path(tmp) / "raw.jsonl"
            raw.write_text(json.dumps(record) + "\n", encoding="utf-8")
            filled = dict(record)
            if filled.get("id") in (None, ""):
                filled["id"] = hashlib.sha256(raw.read_bytes()).hexdigest()[:12] + ":1"
            if filled.get("source") is None:
                filled["source"] = "wikipedia"
            strict = Path(tmp) / "filled.jsonl"
            strict.write_text(json.dumps(filled) + "\n", encoding="utf-8")
            stats = PipelineStats()
            ingested = ingest_jsonl(raw, SourceTag.WIKIPEDIA, stats=stats)
            try:
                expected = read_corpus_jsonl(strict).documents
            except ValueError:
                expected = []
        assert ingested.documents == expected
        assert stats.stages[-1].detail["malformed_lines"] == 1 - len(expected)


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate document id"):
            Corpus([doc("x", "a"), doc("x", "b")])

    def test_iteration_order_is_ingestion_order(self):
        corpus = corpus_of("a", "b", "c")
        assert [d.text for d in corpus] == ["a", "b", "c"]

    def test_with_lang_and_with_text_keep_every_other_field(self):
        # no field left at its default, and a field added to Document fails
        # here until it is set, so with_lang/with_text cannot drop it unseen
        values = {
            "id": "d1", "source": SourceTag.PATENT, "text": "本文。", "url": "https://example.org/",
            "published_date": date(2023, 1, 5), "lang": "en",
        }
        assert [f.name for f in fields(Document)] == list(values)
        document = Document(**values)
        assert document.with_lang("ja") == replace(document, lang="ja")
        assert document.with_text("別の本文。") == replace(document, text="別の本文。")

    def test_with_text_returns_the_document_itself_when_the_text_is_equal(self):
        document = doc("d1", "本文。")
        assert document.with_text("本文。") is document
        assert document.with_text("本文。\n") is not document


class TestTokenizer:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", 0),
            ("hello world", 2),
            ("  spaced   out  ", 2),
            ("今日は晴れ", 5),
            ("GDP成長率", 4),  # one latin run + three CJK chars
            ("今日は hello 世界", 6),
            ("десять слов", 2),
            ("今日\u3000hello\u3000world", 4),  # U+3000 is whitespace, not CJK
            ("a\x85b", 2),  # NEL
            ("a\u2028b", 2),  # line separator
            ("a\x1cb", 2),  # file separator
            ("a\U0001F600b 日", 2),  # astral character joins the latin run
            ("\uff60\uff61\uff65\uff66", 3),  # U+FF61-U+FF65 is not CJK
        ],
    )
    def test_counts(self, text, expected):
        assert WhitespaceCjkTokenizer().count(text) == expected

    def test_empty_document_counts_zero(self):
        stats = count_tokens(Corpus([doc("d0", "")]))
        assert stats.total_tokens == 0

    def test_grand_total_equals_sum_of_sources(self):
        corpus = Corpus(
            [doc(f"w{i}", "記事の本文です。", source=SourceTag.WIKIPEDIA) for i in range(3)]
            + [doc(f"c{i}", "another article text", source=SourceTag.CC100) for i in range(2)]
        )
        stats = count_tokens(corpus)
        assert stats.total_tokens == sum(stats.tokens_by_source.values())
        assert set(stats.tokens_by_source) == {"wikipedia", "cc100"}

    def test_doubled_corpus_doubles_totals(self):
        # oracle: run the counter twice, once per half of a concatenated corpus
        base = [doc(f"a{i}", f"文書{i}の本文です。", source=SourceTag.MC4) for i in range(10)]
        twin = [doc(f"b{i}", f"文書{i}の本文です。", source=SourceTag.MC4) for i in range(10)]
        single = count_tokens(Corpus(base))
        doubled = count_tokens(Corpus(base + twin))
        assert doubled.tokens_by_source["mc4"] == 2 * single.tokens_by_source["mc4"]

    def test_reported_source_table_sums_exactly(self):
        # the published per-source accounting: 9.1 + 34.8 + 1.0 + 10.9 + 53.2
        # + 112.9 billion tokens sums to 221.9 billion, and the manifest
        # reports the exact sum (not the rounded 220 figure)
        stats = PipelineStats()
        stats.tokens_by_source = {
            "curated_business": 9_100_000_000,
            "patent": 34_800_000_000,
            "wikipedia": 1_000_000_000,
            "cc100": 10_900_000_000,
            "mc4": 53_200_000_000,
            "common_crawl": 112_900_000_000,
        }
        assert stats.total_tokens == 221_900_000_000


class TestStats:
    def test_stage_growth_rejected(self):
        stats = PipelineStats()
        corpus = corpus_of("a", "b")
        with pytest.raises(ValueError, match="grew source 'patent': 0 -> 2"):
            list(run_stage(stats, StageStats("bad"), corpus, lambda d: replace(d, source=SourceTag.PATENT)))
        assert stats.stages == []

    def test_removal_reasons_must_sum(self):
        stats = PipelineStats()
        with pytest.raises(ValueError, match="removal reasons sum to 1, but 2"):
            stats.record_stage(StageStats("bad", {"other": 3}, {"other": 1}, {"x": 1}))
        assert stats.stages == []
        entry = StageStats("good", {"other": 3}, {"other": 1}, {"x": 1, "y": 1})
        assert stats.record_stage(entry) is entry
        assert stats.stages == [entry]


class TestDeriveSeed:
    def test_stable_and_label_separated(self):
        assert derive_seed(42, "epoch:order") == derive_seed(42, "epoch:order")
        assert derive_seed(42, "epoch:order") != derive_seed(42, "mix:order")
        assert derive_seed(42, "x") != derive_seed(43, "x")


# Each of the four JSON-lines writers, called as a run calls it, writing two
# lines with Japanese text; ``judge`` names the judge of a judgments file.
def _write_corpus(directory: Path, judge: str) -> Path:
    corpus = Corpus([doc("決算-1", "決算を発表した。", url="https://例え.jp/"), doc("決算-2", "株主総会。")])
    return write_corpus_jsonl(corpus, directory / "cleaned.jsonl")


def _dump_sentence_freq(directory: Path, judge: str) -> Path:
    table = SentenceFrequencyTable(Counter({"決算を発表した。": 3, "株主総会。": 1}))
    return table.dump_jsonl(directory / "sentence_freq.jsonl")


def _write_plan(directory: Path, judge: str) -> Path:
    plan = SamplePlan([PlanEntry(SourceTag.LATEST_UPDATE, "最新-1"), PlanEntry(SourceTag.MC4, "旧-2")])
    return plan.to_jsonl(directory / "plan.jsonl")


def _record_judgments(directory: Path, judge: str) -> Path:
    run_dir = directory / "run"
    if not run_dir.exists():
        questions = [BenchmarkQuestion(f"質問-{i}", f"決算とは{i}？", "trends") for i in range(2)]
        run_benchmark(TaskSetting(SettingKind.NO_CONTEXT), questions, EchoModel(), out_dir=run_dir)
        verdicts = [{"question_id": f"質問-{i}", "content_faithful": True, "instruction_followed": i == 0}
                    for i in range(2)]
        (directory / "verdicts.jsonl").write_text(
            "".join(json.dumps(v) + "\n" for v in verdicts), encoding="utf-8"
        )
    record_judgments(run_dir, directory / "verdicts.jsonl", judge)
    return run_dir / "judgments.jsonl"


WRITERS = [_write_corpus, _dump_sentence_freq, _write_plan, _record_judgments]
WRITER_IDS = ["corpus", "sentence_freq", "plan", "judgments"]


class TestJsonLinesWriters:
    """Every JSON-lines output is written by ``core.write_jsonl``."""

    @pytest.mark.parametrize("write", WRITERS, ids=WRITER_IDS)
    def test_sorted_keys_and_utf8_text(self, tmp_path, write):
        path = write(tmp_path, "judge-a")
        lines = path.read_bytes().decode("utf-8").splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line == json.dumps(json.loads(line), ensure_ascii=False, sort_keys=True)
            assert "\\u" not in line

    def test_plan_with_japanese_id_is_utf8(self, tmp_path):
        path = _write_plan(tmp_path, "")
        assert path.read_bytes() == (
            '{"id": "最新-1", "source": "latest_update"}\n{"id": "旧-2", "source": "mc4"}\n'.encode("utf-8")
        )

    def test_second_judge_leaves_first_judges_lines_as_they_were(self, tmp_path):
        path = _record_judgments(tmp_path, "judge-a")
        first = path.read_bytes()
        _record_judgments(tmp_path, "judge-b")
        after = path.read_bytes()
        assert after.startswith(first)
        assert [json.loads(line)["judge_id"] for line in after.splitlines()] == ["judge-a"] * 2 + ["judge-b"] * 2

    @pytest.mark.parametrize("write", WRITERS, ids=WRITER_IDS)
    def test_failed_write_leaves_the_file_as_it_was(self, tmp_path, monkeypatch, write):
        path = write(tmp_path, "judge-a")
        before = path.read_bytes()
        encode = json.JSONEncoder.encode
        encoded = []

        def fail_on_second_line(self, obj):
            encoded.append(obj)
            if len(encoded) == 2:
                raise OSError("No space left on device")
            return encode(self, obj)

        with monkeypatch.context() as patch:
            patch.setattr(json.JSONEncoder, "encode", fail_on_second_line)
            with pytest.raises(OSError, match="No space left"):
                write(tmp_path, "judge-b")
        assert path.read_bytes() == before
        assert not path.with_name(path.name + ".tmp").exists()
