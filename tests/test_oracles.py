"""The regex-based tokenizer, script counts and sentence split against the
per-character loops in ``oracles``. The kana ratio is checked the same way in
``test_langid.TestFallback.test_ratio_matches_brute_force``."""

from __future__ import annotations

import re
import sys
from itertools import combinations

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from bizcorpus.core import _CJK_RANGES, WhitespaceCjkTokenizer
from bizcorpus.dedup import DedupConfig, _split_line
from bizcorpus.langid import _SCRIPT_RANGES, _script_counts


def _edges(ranges) -> list[str]:
    cps = {cp + d for lo, hi in ranges for cp in (lo, hi) for d in (-1, 0, 1)}
    return sorted(chr(cp) for cp in cps if 0 <= cp <= sys.maxunicode)


_WHITESPACE = [" ", "\t", "\n", "\x1c", "\x85", "\u2028", "\u3000"]
_SCRIPT_EDGES = _edges([r for ranges in _SCRIPT_RANGES.values() for r in ranges])

# Arbitrary Unicode, plus text biased toward range endpoints and whitespace.
cjk_text = st.one_of(
    st.text(),
    st.text(st.one_of(st.characters(), st.sampled_from(_edges(_CJK_RANGES) + _WHITESPACE))),
)
script_text = st.one_of(st.text(), st.text(st.sampled_from(_SCRIPT_EDGES)))


def test_backslash_s_is_str_isspace():
    # the tokenizer regex relies on this for every code point
    chars = "".join(chr(cp) for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF)
    assert re.findall(r"\s", chars) == [ch for ch in chars if ch.isspace()]


def test_script_ranges_are_disjoint():
    # the per-script regexes count each character once only if no two
    # buckets share a code point
    ranges = [r for rs in _SCRIPT_RANGES.values() for r in rs]
    for (lo1, hi1), (lo2, hi2) in combinations(ranges, 2):
        assert hi1 < lo2 or hi2 < lo1


@settings(max_examples=300, deadline=None)
@given(cjk_text)
def test_tokenizer_matches_oracle(text):
    assert WhitespaceCjkTokenizer().count(text) == oracles.tokenizer_count(text)


@settings(max_examples=200, deadline=None)
@given(script_text)
def test_script_counts_match_oracle(text):
    assert _script_counts(text) == oracles.script_counts(text)


_terminator = st.one_of(
    st.characters(),
    st.sampled_from(list("]^-\\[.*?+()|$ 。！？")),
    st.text(min_size=2, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_line_matches_oracle(data):
    terminators = data.draw(st.frozensets(_terminator, min_size=1, max_size=6))
    config = DedupConfig(terminators=terminators)
    pieces = st.one_of(st.text(max_size=4), st.sampled_from(sorted(terminators)))
    line = data.draw(st.lists(pieces, max_size=12).map("".join))
    assert _split_line(config, line) == oracles.split_line(config, line)
