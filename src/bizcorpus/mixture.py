"""Epoch weighting and continual-update mix planning.

An epoch plan repeats each source's documents by its weight: whole-number
copies plus a seeded fractional remainder (weight 1.5 means every document
once, a seeded half of them twice). An update-mix plan draws an exact
``round(r * total)`` instances from the non-latest pool — replayed older
documents that counteract forgetting — and the remainder from the latest
pool. All counts use round-half-up on the decimal value of ``r`` rather than
per-instance coin flips, so realized proportions are exact and testable.

Plans are fully deterministic for a given seed: which documents receive
extra copies, the draw order, and the final shuffle all come from named
seed streams derived from the spec seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .core import ConfigError, Corpus, SourceTag, check_field_types, derive_seed, write_jsonl


def _default_epoch_weights() -> dict[SourceTag, float]:
    return {SourceTag.WIKIPEDIA: 2.0, SourceTag.CURATED_BUSINESS: 2.0}


@dataclass(frozen=True)
class MixtureSpec:
    """Per-source epoch multipliers. The defaults double Wikipedia and the
    curated business corpus; unlisted sources weigh 1.0."""

    weights: Mapping[SourceTag, float] = field(default_factory=_default_epoch_weights)
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        for tag, weight in self.weights.items():
            if not 0 < weight < math.inf:
                raise ConfigError(f"weight for {tag.value} must be finite and > 0, got {weight}")


@dataclass(frozen=True)
class UpdateMixSpec:
    """Continual-update mix: ``r`` is the proportion of instances sampled
    from the non-latest pool; ``total`` the number of training instances."""

    r: float
    total: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.r <= 1.0:
            raise ConfigError(f"r must be in [0, 1], got {self.r}")
        if self.total < 1:
            raise ConfigError(f"total must be >= 1, got {self.total}")


@dataclass(frozen=True)
class PlanEntry:
    """One plan instance. ``pool`` is the pool of an update mix it was drawn
    from, ``latest`` or ``non_latest``; it is not written to the plan file."""

    source: SourceTag
    doc_id: str
    pool: str = ""


@dataclass
class SamplePlan:
    """Ordered training plan of (source, document id) instances."""

    entries: list[PlanEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def source_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.source.value] = counts.get(entry.source.value, 0) + 1
        return counts

    def to_jsonl(self, path: Path | str) -> Path:
        """Write one ``{"id", "source"}`` line per entry with
        :func:`~bizcorpus.core.write_jsonl`, so a killed write never leaves a
        shorter plan that reads back as valid."""
        return write_jsonl(path, ({"id": e.doc_id, "source": e.source.value} for e in self.entries))


def round_half_up(x: Fraction) -> int:
    """Round-half-up for non-negative fractions (1.5 -> 2, 2.5 -> 3)."""
    if x < 0:
        raise ValueError("round_half_up expects a non-negative value")
    return int(x + Fraction(1, 2))


def non_latest_share(r: float, total: int) -> int:
    """Exact non-latest instance count: round-half-up of r * total, computed
    on the decimal value of r so 0.1 * 1000 is exactly 100."""
    return round_half_up(Fraction(str(r)) * total)


def plan_epoch(spec: MixtureSpec, corpus: Corpus) -> SamplePlan:
    """Build one epoch plan over the corpus.

    Every document appears ``floor(w)`` times, and a seeded ``w - floor(w)``
    fraction of each source's documents appears once more; the plan order is
    a seeded global shuffle. A source with an explicit non-1.0 weight must
    exist in the corpus.
    """
    by_source: dict[SourceTag, list[str]] = {}
    for doc in corpus:
        by_source.setdefault(doc.source, []).append(doc.id)

    for tag, weight in spec.weights.items():
        if weight != 1.0 and tag not in by_source:
            raise ConfigError(
                f"source {tag.value} has weight {weight} but no documents in the corpus"
            )

    entries: list[PlanEntry] = []
    for tag, doc_ids in by_source.items():
        weight = float(spec.weights.get(tag, 1.0))
        base = math.floor(weight)
        target = round_half_up(Fraction(str(weight)) * len(doc_ids))
        n_extra = target - base * len(doc_ids)
        extras: set[int] = set()
        if n_extra:
            rng = random.Random(derive_seed(spec.seed, f"epoch:extras:{tag.value}"))
            extras = set(rng.sample(range(len(doc_ids)), n_extra))
        for i, doc_id in enumerate(doc_ids):
            copies = base + (1 if i in extras else 0)
            entries.extend(PlanEntry(tag, doc_id) for _ in range(copies))

    random.Random(derive_seed(spec.seed, "epoch:order")).shuffle(entries)
    return SamplePlan(entries)


def _draw(doc_entries: list[PlanEntry], k: int, seed: int, stream: str) -> list[PlanEntry]:
    """Seeded draw of k entries: without replacement until the pool is
    exhausted, then with replacement."""
    rng = random.Random(derive_seed(seed, stream))
    if k <= len(doc_entries):
        return rng.sample(doc_entries, k)
    drawn = rng.sample(doc_entries, len(doc_entries))
    drawn.extend(rng.choices(doc_entries, k=k - len(doc_entries)))
    return drawn


def sample_update_mix(
    spec: UpdateMixSpec, latest: Corpus, non_latest: Corpus
) -> SamplePlan:
    """Draw ``round(r * total)`` instances from the non-latest corpus and the
    remainder from the latest corpus, then shuffle. Either pool may be empty
    only when its share is zero. Pools that share a document id raise
    ``ValueError`` naming the first shared id of the latest pool."""
    n_non = non_latest_share(spec.r, spec.total)
    n_latest = spec.total - n_non
    if n_non > 0 and len(non_latest) == 0:
        raise ConfigError("non-latest pool is empty but its share is nonzero")
    if n_latest > 0 and len(latest) == 0:
        raise ConfigError("latest pool is empty but its share is nonzero")

    non_entries = [PlanEntry(d.source, d.id, "non_latest") for d in non_latest]
    non_ids = {e.doc_id for e in non_entries}
    shared = next((d.id for d in latest if d.id in non_ids), None)
    if shared is not None:
        raise ValueError(f"the latest and non-latest pools share document id {shared!r}")
    latest_entries = [PlanEntry(d.source, d.id, "latest") for d in latest]
    entries = _draw(non_entries, n_non, spec.seed, "mix:non_latest")
    entries += _draw(latest_entries, n_latest, spec.seed, "mix:latest")
    random.Random(derive_seed(spec.seed, "mix:order")).shuffle(entries)
    return SamplePlan(entries)


@dataclass
class PlanVerification:
    ok: bool
    expected_non_latest: int
    realized_non_latest: int
    total: int
    histogram: dict[str, int]
    problems: list[str]

    def to_dict(self) -> dict:
        return {**asdict(self), "histogram": dict(sorted(self.histogram.items()))}


def verify_plan(plan: SamplePlan, spec: UpdateMixSpec) -> PlanVerification:
    """Check an update-mix plan against its spec, counting each entry for
    the pool it was drawn from, whatever its source tag."""
    expected = non_latest_share(spec.r, spec.total)
    realized = sum(1 for e in plan.entries if e.pool == "non_latest")
    problems: list[str] = []
    if len(plan.entries) != spec.total:
        problems.append(f"plan has {len(plan.entries)} entries, spec.total is {spec.total}")
    if realized != expected:
        problems.append(
            f"non-latest count mismatch: expected {expected}, realized {realized}"
        )
    return PlanVerification(
        ok=not problems,
        expected_non_latest=expected,
        realized_non_latest=realized,
        total=len(plan.entries),
        histogram=plan.source_counts,
        problems=problems,
    )
