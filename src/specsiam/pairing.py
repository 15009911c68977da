"""Same-channel pair construction and channel-grouped batch iteration.

Pairs reference subjects and a channel index; the spectral images themselves
stay in a shared (subject, channel) -> image store so the quadratic pair list
costs indices only. A pair is a neighbor (y=1) when both subjects carry the
same label.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DataError
from .signals import Dataset, Label

__all__ = [
    "PairExample",
    "PairBatch",
    "build_pairs",
    "batch_iter",
    "stats_from_labels",
    "balance_pairs",
]


@dataclass(frozen=True)
class PairExample:
    """Two same-channel spectral images of distinct subjects plus a neighbor label."""

    subject_a: str
    subject_b: str
    channel_index: int
    y: int  # 1 = same class (neighbors), 0 = different classes

    def __post_init__(self):
        if self.subject_a == self.subject_b:
            raise DataError(f"pair of subject '{self.subject_a}' with itself")
        if self.y not in (0, 1):
            raise DataError(f"neighbor label must be 0 or 1, got {self.y}")


@dataclass(frozen=True)
class PairBatch:
    """A slice of subject-pairs, each contributing one pair per channel."""

    pairs: tuple[PairExample, ...]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def _pairs_from_labels(
    subject_ids: list[str], labels: dict[str, Label], n_channels: int
) -> list[PairExample]:
    ids = sorted(subject_ids)
    pairs = []
    for i, sid_a in enumerate(ids):
        for sid_b in ids[i + 1 :]:
            y = 1 if labels[sid_a] == labels[sid_b] else 0
            for ch in range(n_channels):
                pairs.append(PairExample(sid_a, sid_b, ch, y))
    return pairs


def build_pairs(dataset: Dataset, images: dict) -> list[PairExample]:
    """All unordered same-channel subject pairs, grouped by subject-pair.

    Subject pairs follow lexicographic id order with subject_a < subject_b, so
    repeated builds produce the same list. Yields n_channels * C(N, 2) pairs.
    """
    for rec in dataset.recordings:
        for ch in range(dataset.n_channels):
            if (rec.subject_id, ch) not in images:
                raise DataError(
                    f"missing spectral image for subject '{rec.subject_id}' channel {ch}"
                )
    return _pairs_from_labels(list(dataset.subject_ids), dataset.labels(), dataset.n_channels)


def _group_by_subject_pair(pairs) -> list[tuple[tuple[str, str], list[PairExample]]]:
    """The pairs grouped by subject pair in order of first appearance; each group
    must hold one pair of every channel index that occurs in the pairs."""
    groups: dict[tuple[str, str], list[PairExample]] = {}
    for p in pairs:
        groups.setdefault((p.subject_a, p.subject_b), []).append(p)
    n_channels = len({p.channel_index for p in pairs})
    for key, members in groups.items():
        channels = sorted(p.channel_index for p in members)
        if len(members) != n_channels or len(set(channels)) != n_channels:
            raise DataError(
                f"incomplete channel group for subject pair {key}: "
                f"channels {channels}, expected {n_channels} distinct"
            )
    return list(groups.items())


SUBJECT_PAIRS_PER_BATCH = 16  # the paper's 256 pairs per batch at 16 channels


def batch_iter(pairs, shuffle_seed: int = 0):
    """Yield batches of SUBJECT_PAIRS_PER_BATCH whole subject-pair groups,
    shuffled at group granularity.

    Every subject-pair appears exactly once per epoch; the final batch may hold
    fewer groups. Shuffling is deterministic in shuffle_seed and never splits a
    group, so each batch size is a multiple of the channel count.
    """
    groups = _group_by_subject_pair(pairs)
    rng = np.random.default_rng(shuffle_seed)
    order = rng.permutation(len(groups))
    for start in range(0, len(groups), SUBJECT_PAIRS_PER_BATCH):
        chunk = order[start : start + SUBJECT_PAIRS_PER_BATCH]
        members: list[PairExample] = []
        for gi in chunk:
            members.extend(groups[gi][1])
        yield PairBatch(tuple(members))


def stats_from_labels(labels: dict[str, Label], n_channels: int) -> dict[str, int]:
    """Pair statistics derived from labels alone, without materializing images."""
    n_case = sum(1 for v in labels.values() if v is Label.CASE)
    n_control = len(labels) - n_case
    case_case = n_channels * comb(n_case, 2)
    control_control = n_channels * comb(n_control, 2)
    case_control = n_channels * n_case * n_control
    return {
        "total": case_case + control_control + case_control,
        "neighbors": case_case + control_control,
        "non_neighbors": case_control,
        "case_case": case_case,
        "control_control": control_control,
        "case_control": case_control,
    }


def balance_pairs(pairs, seed: int = 0) -> list[PairExample]:
    """Subsample the majority neighbor class at subject-pair granularity."""
    groups = _group_by_subject_pair(pairs)
    same = [g for g in groups if g[1][0].y == 1]
    diff = [g for g in groups if g[1][0].y == 0]
    if not same or not diff:
        return list(pairs)
    rng = np.random.default_rng(seed)
    if len(same) > len(diff):
        keep_idx = sorted(rng.choice(len(same), size=len(diff), replace=False))
        same = [same[i] for i in keep_idx]
    elif len(diff) > len(same):
        keep_idx = sorted(rng.choice(len(diff), size=len(same), replace=False))
        diff = [diff[i] for i in keep_idx]
    kept = {g[0] for g in same} | {g[0] for g in diff}
    return [p for p in pairs if (p.subject_a, p.subject_b) in kept]
