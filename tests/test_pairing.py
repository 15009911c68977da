from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsiam.errors import DataError
from specsiam.pairing import (
    PairExample,
    balance_pairs,
    batch_iter,
    build_pairs,
    stats_from_labels,
)
from specsiam.signals import Dataset, EegRecording, Label, generate_synthetic_cohort
from specsiam.spectral import StftConfig, compute_images


def make_dataset(labels_by_sid: dict[str, Label], n_channels: int = 2) -> Dataset:
    names = tuple(f"c{i}" for i in range(n_channels))
    recs = tuple(
        EegRecording(sid, label, 8.0, names, np.zeros((n_channels, 16)))
        for sid, label in labels_by_sid.items()
    )
    return Dataset(recs, names)


def fake_images(dataset: Dataset) -> dict:
    return {
        (sid, ch): np.zeros((3, 3))
        for sid in dataset.subject_ids
        for ch in range(dataset.n_channels)
    }


def enumerate_expected(labels: dict[str, Label], n_channels: int):
    """Brute-force oracle: every unordered pair, every channel."""
    expected = []
    for a, b in combinations(sorted(labels), 2):
        y = 1 if labels[a] == labels[b] else 0
        for ch in range(n_channels):
            expected.append((a, b, ch, y))
    return expected


class TestBuildPairs:
    def test_two_same_class_single_channel(self):
        ds = make_dataset({"a": Label.CASE, "b": Label.CASE}, n_channels=1)
        pairs = build_pairs(ds, fake_images(ds))
        assert len(pairs) == 1
        assert pairs[0] == PairExample("a", "b", 0, 1)

    def test_three_subjects_two_channels_enumeration(self):
        labels = {"a": Label.CASE, "b": Label.CASE, "c": Label.CONTROL}
        ds = make_dataset(labels, n_channels=2)
        pairs = build_pairs(ds, fake_images(ds))
        got = [(p.subject_a, p.subject_b, p.channel_index, p.y) for p in pairs]
        assert sorted(got) == sorted(enumerate_expected(labels, 2))
        assert len(pairs) == 6
        assert sum(p.y for p in pairs) == 2
        assert sum(1 - p.y for p in pairs) == 4

    def test_paper_cohort_pair_count(self):
        labels = {f"s{i:03d}": (Label.CASE if i < 45 else Label.CONTROL) for i in range(84)}
        stats = stats_from_labels(labels, 16)
        assert stats["total"] == 16 * comb(84, 2) == 55776
        assert stats["neighbors"] == 16 * (comb(45, 2) + comb(39, 2))
        assert stats["non_neighbors"] == 16 * 45 * 39
        ds = make_dataset(labels, n_channels=1)
        pairs = build_pairs(ds, fake_images(ds))
        assert len(pairs) == comb(84, 2)

    def test_missing_image_rejected(self):
        ds = make_dataset({"a": Label.CASE, "b": Label.CONTROL})
        images = fake_images(ds)
        del images[("b", 1)]
        with pytest.raises(DataError, match="missing spectral image.*'b' channel 1"):
            build_pairs(ds, images)

    def test_canonical_order_and_no_swapped_duplicates(self):
        labels = {"z": Label.CASE, "a": Label.CONTROL, "m": Label.CASE}
        ds = make_dataset(labels, n_channels=1)
        pairs = build_pairs(ds, fake_images(ds))
        assert all(p.subject_a < p.subject_b for p in pairs)
        unordered = {frozenset((p.subject_a, p.subject_b)) for p in pairs}
        assert len(unordered) == len(pairs)

    @given(
        n_case=st.integers(0, 5),
        n_control=st.integers(0, 5),
        n_channels=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_formula_property(self, n_case, n_control, n_channels):
        n = n_case + n_control
        if n < 2:
            return
        labels = {f"c{i:02d}": Label.CASE for i in range(n_case)}
        labels.update({f"k{i:02d}": Label.CONTROL for i in range(n_control)})
        ds = make_dataset(labels, n_channels=n_channels)
        pairs = build_pairs(ds, fake_images(ds))
        assert len(pairs) == n_channels * comb(n, 2)
        got = [(p.subject_a, p.subject_b, p.channel_index, p.y) for p in pairs]
        assert sorted(got) == sorted(enumerate_expected(labels, n_channels))
        neighbors = sum(p.y for p in pairs)
        case_case = sum(p.y for p in pairs if labels[p.subject_a] is Label.CASE)
        assert stats_from_labels(labels, n_channels) == {
            "total": len(pairs),
            "neighbors": neighbors,
            "non_neighbors": len(pairs) - neighbors,
            "case_case": case_case,
            "control_control": neighbors - case_case,
            "case_control": len(pairs) - neighbors,
        }

    def test_self_pair_rejected(self):
        with pytest.raises(DataError, match="itself"):
            PairExample("a", "a", 0, 1)


class TestBatchIter:
    def build(self, n_subjects: int, n_channels: int):
        labels = {f"s{i:03d}": (Label.CASE if i % 2 else Label.CONTROL) for i in range(n_subjects)}
        ds = make_dataset(labels, n_channels=n_channels)
        return build_pairs(ds, fake_images(ds))

    def test_batch_count_84_subjects(self):
        pairs = self.build(84, 1)
        batches = list(batch_iter(pairs, subject_pairs_per_batch=16, shuffle_seed=0))
        # 3486 subject pairs -> 217 full batches of 16 plus one of 14, one pair each
        assert len(batches) == 218
        assert [b.n_pairs for b in batches[:-1]] == [16] * 217
        assert batches[-1].n_pairs == 14

    def test_full_batch_is_16_times_channels(self):
        pairs = self.build(33, 16)  # 528 subject pairs
        batches = list(batch_iter(pairs, subject_pairs_per_batch=16, shuffle_seed=1))
        assert batches[0].n_pairs == 256
        assert all(b.n_pairs % 16 == 0 for b in batches)

    def test_single_pair_single_batch(self):
        pairs = self.build(2, 1)
        batches = list(batch_iter(pairs, subject_pairs_per_batch=16, shuffle_seed=0))
        assert len(batches) == 1
        assert batches[0].n_pairs == 1

    def test_epoch_union_is_exact_multiset(self):
        pairs = self.build(9, 3)
        batches = list(batch_iter(pairs, subject_pairs_per_batch=4, shuffle_seed=9))
        seen = [p for b in batches for p in b.pairs]
        assert sorted(map(repr, seen)) == sorted(map(repr, pairs))

    def test_groups_stay_contiguous(self):
        pairs = self.build(6, 3)
        for batch in batch_iter(pairs, subject_pairs_per_batch=2, shuffle_seed=4):
            for i in range(0, batch.n_pairs, 3):
                group = batch.pairs[i : i + 3]
                assert len({(p.subject_a, p.subject_b) for p in group}) == 1
                assert sorted(p.channel_index for p in group) == [0, 1, 2]

    def test_shuffle_deterministic_per_seed(self):
        pairs = self.build(8, 2)
        a = [p for b in batch_iter(pairs, 3, shuffle_seed=5) for p in b.pairs]
        b = [p for b in batch_iter(pairs, 3, shuffle_seed=5) for p in b.pairs]
        c = [p for b in batch_iter(pairs, 3, shuffle_seed=6) for p in b.pairs]
        assert a == b
        assert a != c

    def test_incomplete_group_rejected(self):
        pairs = self.build(4, 2)[:-1]  # drop one channel of the last subject pair
        with pytest.raises(DataError, match="incomplete channel group"):
            list(batch_iter(pairs, 2, shuffle_seed=0))

    @pytest.mark.parametrize("edit", [
        lambda pairs: pairs[1:],
        lambda pairs: pairs[:-1] + [pairs[-2]],
        lambda pairs: pairs[:-1] + [replace(pairs[-1], channel_index=2)],
    ], ids=["first-group-short", "channel-twice", "channel-of-no-other-group"])
    def test_every_group_holds_each_channel_of_the_list_once(self, edit):
        pairs = edit(self.build(4, 2))
        with pytest.raises(DataError, match="incomplete channel group"):
            list(batch_iter(pairs, 2, shuffle_seed=0))
        with pytest.raises(DataError, match="incomplete channel group"):
            balance_pairs(pairs)


class TestBalance:
    def test_balances_majority_class(self):
        labels = {f"s{i}": Label.CASE for i in range(5)}
        labels["k0"] = Label.CONTROL
        ds = make_dataset(labels, n_channels=2)
        pairs = build_pairs(ds, fake_images(ds))
        balanced = balance_pairs(pairs, seed=0)
        same = sum(1 for p in balanced if p.y == 1) // 2
        diff = sum(1 for p in balanced if p.y == 0) // 2
        assert same == diff == 5
        # channel groups stay whole
        counts = {}
        for p in balanced:
            counts[(p.subject_a, p.subject_b)] = counts.get((p.subject_a, p.subject_b), 0) + 1
        assert set(counts.values()) == {2}

    def test_single_class_left_alone(self):
        labels = {"a": Label.CASE, "b": Label.CASE}
        ds = make_dataset(labels, n_channels=1)
        pairs = build_pairs(ds, fake_images(ds))
        assert balance_pairs(pairs, seed=1) == pairs


class TestWithRealImages:
    def test_build_pairs_over_computed_images(self, tiny_cohort):
        images = compute_images(tiny_cohort, StftConfig(window_s=2.0, hop_s=1.0))
        pairs = build_pairs(tiny_cohort, images)
        n, c = tiny_cohort.n_subjects, tiny_cohort.n_channels
        assert len(pairs) == c * comb(n, 2)
        labels = tiny_cohort.labels()
        for p in pairs:
            assert (p.y == 1) == (labels[p.subject_a] == labels[p.subject_b])
