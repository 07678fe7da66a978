"""Rule-based selection of domain-relevant documents.

A rule set pairs URL match rules with a cue-word list; a document is kept
when either axis matches. URL rules are plain prefixes unless they contain
glob metacharacters (``* ? [``), in which case they match as globs. Matching
folds case so cased scripts (Latin, Cyrillic, ...) compare case-insensitively
while CJK text is unaffected; cue words match as plain substrings because
Japanese has no whitespace word boundaries.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path

from .core import ConfigError, Corpus, Document, PipelineStats, StageStats, check_field_types
from .core import read_yaml_mapping, run_stage

_GLOB_CHARS = frozenset("*?[")


@dataclass(frozen=True)
class CurationRuleSet:
    url_patterns: tuple[str, ...] = ()
    cue_words: tuple[str, ...] = ()
    rule_set_version: str = "unversioned"

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.url_patterns and not self.cue_words:
            raise ConfigError("rule set needs at least one URL pattern or cue word")
        if any(not w for w in self.cue_words):
            raise ConfigError("cue_words must not contain empty strings")
        if any(not p for p in self.url_patterns):
            raise ConfigError("url_patterns must not contain empty strings")


def load_rules(path: Path | str) -> CurationRuleSet:
    """Load a rule set from a YAML (or JSON) file with keys
    ``url_patterns``, ``cue_words`` (lists of strings) and ``version`` (a
    string, ``"unversioned"`` when absent). The file is read by
    :func:`~bizcorpus.core.read_yaml_mapping`, the pipeline config's reader;
    invalid YAML, an unknown key or a mistyped value raises
    :class:`~bizcorpus.core.ConfigError` naming the file."""
    raw = read_yaml_mapping(path, {"version", "url_patterns", "cue_words"}, str(path))
    version = raw.pop("version", "unversioned")
    # a list left empty in YAML (``cue_words:``) reads as null
    lists = {key: value for key, value in raw.items() if value is not None}
    try:
        return CurationRuleSet(**lists, rule_set_version=version)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def matches_url(rules: CurationRuleSet, url: str) -> bool:
    """True iff the URL satisfies any rule. An empty URL never matches."""
    if not url:
        return False
    folded = url.casefold()
    for pattern in rules.url_patterns:
        p = pattern.casefold()
        if _GLOB_CHARS.intersection(p):
            if fnmatch.fnmatchcase(folded, p):
                return True
        elif folded.startswith(p):
            return True
    return False


def contains_cue_word(rules: CurationRuleSet, text: str) -> bool:
    """True iff any cue word occurs as a substring of the text, folding case
    for cased scripts only (``str.casefold`` leaves CJK untouched)."""
    if not text:
        return False
    folded = text.casefold()
    return any(word.casefold() in folded for word in rules.cue_words)


def curate(
    rules: CurationRuleSet,
    corpus: Corpus,
    *,
    stats: PipelineStats | None = None,
) -> Corpus:
    """Keep exactly the documents matching the URL axis or the cue-word axis,
    preserving order. Per-criterion hit counts land in the stage detail."""
    hits = {"url_hits": 0, "cue_hits": 0, "both_hits": 0}

    def step(doc: Document) -> Document | str:
        by_url = matches_url(rules, doc.url)
        by_cue = contains_cue_word(rules, doc.text)
        hits["url_hits"] += by_url
        hits["cue_hits"] += by_cue
        hits["both_hits"] += by_url and by_cue
        return doc if by_url or by_cue else "no_rule_match"

    entry = StageStats("curate", doc_removals={"no_rule_match": 0}, detail=hits)
    return Corpus(list(run_stage(stats, entry, corpus, step)))
