"""The one field-type rule: every dataclass built from a file, a flag or a
reply refuses a value of the wrong JSON type, naming the field."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bizcorpus.bench import BenchmarkQuestion, Judgment, RunRecord, SearchResult, TaskSetting
from bizcorpus.core import ConfigError, SourceTag
from bizcorpus.curation import CurationRuleSet
from bizcorpus.dedup import DedupConfig
from bizcorpus.langid import LangIdConfig, LangVerdict
from bizcorpus.mixture import MixtureSpec, UpdateMixSpec
from bizcorpus.noise import NoiseConfig
from bizcorpus.pipeline import PipelineConfig, SourceSpec


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: DedupConfig(sentence_frequency_threshold=True),
         "sentence_frequency_threshold must be a JSON integer, got True"),
        (lambda: DedupConfig(sentence_frequency_threshold=2.5),
         "sentence_frequency_threshold must be a JSON integer, got 2.5"),
        (lambda: NoiseConfig(min_sentential_ratio=True), "min_sentential_ratio must be a JSON number, got True"),
        (lambda: NoiseConfig(terminators="。!"), "terminators must be a JSON list of strings, got '。!'"),
        (lambda: LangIdConfig(uncertainty_threshold=True), "uncertainty_threshold must be a JSON number, got True"),
        (lambda: UpdateMixSpec(r=True, total=4), "r must be a JSON number, got True"),
        (lambda: UpdateMixSpec(r=0.5, total=True), "total must be a JSON integer, got True"),
        (lambda: UpdateMixSpec(r=0.5, total=4.0), "total must be a JSON integer, got 4.0"),
        (lambda: UpdateMixSpec(r=0.5, total=4, seed="x"), "seed must be a JSON integer, got 'x'"),
        (lambda: MixtureSpec(seed="x"), "seed must be a JSON integer, got 'x'"),
        (lambda: MixtureSpec(weights={"patent": True}),
         "weights must be a JSON object of SourceTag to number, got {'patent': True}"),
        (lambda: SearchResult(url=5), "url must be a JSON string, got 5"),
        (lambda: CurationRuleSet(cue_words="決算"), "cue_words must be a JSON list of strings, got '決算'"),
        (lambda: CurationRuleSet(cue_words=("決算",), rule_set_version=1.1),
         "rule_set_version must be a JSON string, got 1.1"),
    ],
    ids=[
        "dedup_threshold_bool", "dedup_threshold_float", "noise_ratio_bool", "noise_terminators_string",
        "langid_threshold_bool", "update_r_bool", "update_total_bool", "update_total_float",
        "update_seed_string", "epoch_seed_string", "epoch_weight_bool", "search_url_number",
        "cue_words_string", "rule_set_version_float",
    ],
)
def test_wrong_json_type_is_refused_naming_the_field(build, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()


def test_converted_values_are_stored_as_annotated():
    assert NoiseConfig(terminators=["。", "!"]).terminators == frozenset({"。", "!"})
    assert CurationRuleSet(cue_words=["決算"]).cue_words == ("決算",)
    spec = MixtureSpec(weights={"patent": 2})
    assert spec.weights == {SourceTag.PATENT: 2.0}
    assert type(spec.weights[SourceTag.PATENT]) is float
    assert UpdateMixSpec(r=1, total=4).r == 1.0


def test_a_backend_is_not_type_checked():
    class ManyOnly:  # a test fake that has only classify_many
        def classify_many(self, texts):
            return [("ja", 1.0) for _ in texts]

    backend = ManyOnly()
    assert LangIdConfig(classifier=backend).classifier is backend


# For each dataclass built from a file, a flag or a reply: keyword arguments
# that build it, and the JSON types that each field read from outside takes.
CHECKED = {
    LangIdConfig: ({}, {"uncertainty_threshold": {"number"}, "jp_script_ratio_threshold": {"number"}}),
    NoiseConfig: ({}, {"terminators": {"list"}, "min_sentential_ratio": {"number"}}),
    DedupConfig: ({}, {"sentence_frequency_threshold": {"integer"}, "terminators": {"list"}}),
    CurationRuleSet: (
        {"cue_words": ["決算"]},
        {"url_patterns": {"list"}, "cue_words": {"list"}, "rule_set_version": {"string"}},
    ),
    TaskSetting: ({"kind": "manual_rag"}, {"kind": {"string"}, "truncation_chars": {"integer"}}),
    MixtureSpec: ({}, {"weights": {"object"}, "seed": {"integer"}}),
    UpdateMixSpec: ({"r": 0.5, "total": 4}, {"r": {"number"}, "total": {"integer"}, "seed": {"integer"}}),
    SourceSpec: ({"path": Path("in.jsonl"), "source": "other"}, {"source": {"string"}}),
    PipelineConfig: (
        {"sources": [SourceSpec(Path("in.jsonl"), SourceTag.OTHER)], "output_dir": Path("out"), "digest": "0"},
        {"seed": {"integer"}, "workers": {"integer"}, "dump_sentence_freq": {"boolean"}},
    ),
    SearchResult: ({}, {"url": {"string"}, "title": {"string"}, "body": {"string"}}),
    LangVerdict: (
        {"lang": "ja", "confidence": 0.5, "stage": "primary_classifier"},
        {"lang": {"string"}, "confidence": {"number"}},
    ),
    BenchmarkQuestion: (
        {"id": "q1", "question": "質問", "category": "trends"},
        {
            "id": {"string"},
            "question": {"string"},
            "category": {"string"},
            "manual_context": {"string", "null"},
            "auto_context": {"string", "null"},
            "question_set": {"string"},
        },
    ),
    Judgment: (
        {
            "question_id": "q1", "setting": "no_context", "model_id": "m", "response": "r",
            "content_faithful": True, "instruction_followed": True, "correct": True,
            "judge_id": "j", "timestamp": "2024-01-01T00:00:00Z",
        },
        {
            "question_id": {"string"}, "setting": {"string"}, "model_id": {"string"},
            "response": {"string"}, "content_faithful": {"boolean"},
            "instruction_followed": {"boolean"}, "correct": {"boolean"},
            "judge_id": {"string"}, "timestamp": {"string"},
        },
    ),
    RunRecord: (
        {
            "question_id": "q1", "setting": "no_context", "truncation_chars": 1000,
            "model_id": "m", "template_version": "v1", "status": "ok",
        },
        {
            "question_id": {"string"}, "setting": {"string"}, "truncation_chars": {"integer"},
            "model_id": {"string"}, "template_version": {"string"}, "status": {"string"},
            "prompt": {"string"}, "response": {"string"}, "error": {"string"},
            "elapsed_ms": {"integer"},
        },
    ),
}

_short = st.text(max_size=3)
JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(),
    "number": st.floats(),
    "string": st.text(max_size=5),
    "list": st.lists(_short, max_size=3),
    "object": st.dictionaries(_short, _short, max_size=3),
}


def _wrong_types(accepted: set[str]) -> list[str]:
    # a JSON integer is a number too
    taken = accepted | {"integer"} if "number" in accepted else accepted
    return sorted(JSON_VALUES.keys() - taken)


def test_every_checked_field_is_listed():
    for cls, (kwargs, kinds) in CHECKED.items():
        cls(**kwargs)
        assert set(kinds) <= {name for name in cls.__dataclass_fields__}, cls.__name__


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_wrong_json_type_is_refused_naming_the_field(data):
    cls = data.draw(st.sampled_from(sorted(CHECKED, key=lambda c: c.__name__)), label="class")
    kwargs, kinds = CHECKED[cls]
    name = data.draw(st.sampled_from(sorted(kinds)), label="field")
    kind = data.draw(st.sampled_from(_wrong_types(kinds[name])), label="JSON type")
    value = data.draw(JSON_VALUES[kind], label="value")
    with pytest.raises(ConfigError, match=f"^{name} must be a JSON "):
        cls(**{**kwargs, name: value})
