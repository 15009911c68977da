import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from specsiam import signals
from specsiam.errors import DataError
from specsiam.signals import (
    BandComponent,
    Dataset,
    EegRecording,
    Label,
    dataset_subset,
    generate_synthetic_cohort,
    load_dataset,
    save_dataset,
)


def make_recording(sid="s0", label=Label.CASE, fs=64.0, names=("a", "b"), samples=None):
    if samples is None:
        samples = np.arange(8, dtype=float).reshape(2, 4)
    return EegRecording(sid, label, fs, names, samples)


class TestRecordingInvariants:
    def test_basic_fields(self):
        rec = make_recording()
        assert rec.n_channels == 2
        assert rec.n_samples == 4
        assert not rec.samples.flags.writeable

    def test_duplicate_channel_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            make_recording(names=("a", "a"))

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(DataError, match="channel names"):
            make_recording(names=("a",))

    def test_non_positive_rate_rejected(self):
        with pytest.raises(DataError, match="sample_rate"):
            make_recording(fs=0.0)

    def test_non_finite_sample_names_channel(self):
        samples = np.zeros((2, 4))
        samples[1, 2] = np.nan
        with pytest.raises(DataError, match="'b'"):
            make_recording(samples=samples)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError):
            EegRecording("s0", Label.CASE, 64.0, ("a", "b"), [[1.0, 2.0], [3.0]])


class TestDatasetInvariants:
    def test_channel_order_must_match_canonical(self):
        r1 = make_recording("s0", names=("a", "b"))
        r2 = make_recording("s1", names=("b", "a"))
        with pytest.raises(DataError, match="s1"):
            Dataset((r1, r2), ("a", "b"))

    def test_duplicate_subjects_rejected(self):
        r1 = make_recording("s0")
        with pytest.raises(DataError, match="duplicated"):
            Dataset((r1, make_recording("s0")), ("a", "b"))

    def test_mixed_sample_rate_rejected(self):
        r1 = make_recording("s0", fs=64.0)
        r2 = make_recording("s1", fs=128.0)
        with pytest.raises(DataError, match="rate"):
            Dataset((r1, r2), ("a", "b"))

    def test_subset_preserves_order(self, tiny_cohort):
        sub = dataset_subset(tiny_cohort, ["ctrl00", "case01"])
        assert sub.subject_ids == ("case01", "ctrl00")
        with pytest.raises(DataError, match="unknown"):
            dataset_subset(tiny_cohort, ["nobody"])


class TestSyntheticCohort:
    def test_deterministic_repeat(self):
        a = generate_synthetic_cohort(2, 2, 2, 60.0, 128.0, seed=7)
        b = generate_synthetic_cohort(2, 2, 2, 60.0, 128.0, seed=7)
        for ra, rb in zip(a.recordings, b.recordings):
            assert ra.subject_id == rb.subject_id
            assert (ra.samples == rb.samples).all()

    def test_seed_changes_output(self):
        a = generate_synthetic_cohort(1, 1, 1, 2.0, 64.0, seed=0)
        b = generate_synthetic_cohort(1, 1, 1, 2.0, 64.0, seed=1)
        assert not (a.recordings[0].samples == b.recordings[0].samples).all()

    def test_zero_noise_zero_profile_gives_zero_channels(self):
        silent = (BandComponent(1.0, 2.0, 0.0),)
        tone = (BandComponent(8.0, 8.0, 1.0),)
        ds = generate_synthetic_cohort(
            1, 1, 2, 4.0, 64.0, class_profiles=(tone, silent), noise_sigma=0.0, seed=3
        )
        control = ds.get("ctrl00")
        assert (control.samples == 0.0).all()
        case = ds.get("case00")
        assert np.abs(case.samples).max() > 0.5

    def test_labels_and_counts(self):
        ds = generate_synthetic_cohort(3, 2, 1, 1.0, 64.0, seed=0)
        labels = ds.labels()
        assert sum(1 for v in labels.values() if v is Label.CASE) == 3
        assert sum(1 for v in labels.values() if v is Label.CONTROL) == 2
        assert ds.n_subjects == 5

    def test_non_integer_sample_count_rejected(self):
        with pytest.raises(DataError, match="integer"):
            generate_synthetic_cohort(1, 1, 1, 1.25, 62.0, seed=0)

    def test_band_beyond_nyquist_rejected(self):
        with pytest.raises(DataError, match="Nyquist"):
            generate_synthetic_cohort(1, 1, 1, 1.0, 32.0, seed=0)  # default beta tops at 30 Hz

    def test_counts_must_be_positive(self):
        with pytest.raises(DataError):
            generate_synthetic_cohort(0, 1, 1, 1.0, 64.0, seed=0)


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds = generate_synthetic_cohort(2, 2, 3, 2.0, 64.0, noise_sigma=1.3, seed=5)
        manifest = save_dataset(ds, tmp_path)
        loaded = load_dataset(manifest)
        assert loaded.channel_names == ds.channel_names
        for a, b in zip(ds.recordings, loaded.recordings):
            assert a.subject_id == b.subject_id
            assert a.label is b.label
            assert a.sample_rate_hz == b.sample_rate_hz
            assert (a.samples == b.samples).all()

    def test_paper_cohort_shape(self, paper_shape_manifest):
        ds = load_dataset(paper_shape_manifest)
        assert ds.n_subjects == 84
        assert ds.n_channels == 16
        assert ds.n_samples == 7680
        labels = ds.labels()
        assert sum(1 for v in labels.values() if v is Label.CASE) == 45
        assert sum(1 for v in labels.values() if v is Label.CONTROL) == 39

    def test_single_zero_subject(self, tmp_path):
        rec = EegRecording("solo", Label.CONTROL, 10.0, ("only",), np.zeros((1, 5)))
        manifest = save_dataset(Dataset((rec,), ("only",)), tmp_path)
        ds = load_dataset(manifest)
        assert ds.n_subjects == 1
        assert (ds.recordings[0].samples == 0.0).all()

    def test_channel_reordering(self, tmp_path):
        manifest = [
            {"subject_id": "s0", "label": "case", "path": "s0.csv", "sample_rate_hz": 4.0},
            {"subject_id": "s1", "label": "control", "path": "s1.csv", "sample_rate_hz": 4.0},
        ]
        (tmp_path / "s0.csv").write_text("a,b\n1,2\n3,4\n")
        (tmp_path / "s1.csv").write_text("b,a\n20,10\n40,30\n")
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        ds = load_dataset(tmp_path / "m.json")
        assert ds.channel_names == ("a", "b")
        s1 = ds.get("s1")
        assert s1.samples[0].tolist() == [10.0, 30.0]
        assert s1.samples[1].tolist() == [20.0, 40.0]


class TestLoadErrors:
    def write_manifest(self, tmp_path, entries):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(entries))
        return path

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.json")

    def test_missing_signal_file(self, tmp_path):
        path = self.write_manifest(
            tmp_path, [{"subject_id": "s0", "label": "case", "path": "gone.csv", "sample_rate_hz": 4}]
        )
        with pytest.raises(DataError, match="missing"):
            load_dataset(path)

    def test_duplicate_subject_id(self, tmp_path):
        (tmp_path / "s.csv").write_text("a\n1\n")
        entries = [
            {"subject_id": "s0", "label": "case", "path": "s.csv", "sample_rate_hz": 4},
            {"subject_id": "s0", "label": "control", "path": "s.csv", "sample_rate_hz": 4},
        ]
        with pytest.raises(DataError, match="duplicated subject_id 's0'"):
            load_dataset(self.write_manifest(tmp_path, entries))

    def test_bad_label(self, tmp_path):
        (tmp_path / "s.csv").write_text("a\n1\n")
        entries = [{"subject_id": "s0", "label": "sick", "path": "s.csv", "sample_rate_hz": 4}]
        with pytest.raises(DataError, match="label"):
            load_dataset(self.write_manifest(tmp_path, entries))

    def test_ragged_row_named(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,b\n1,2\n3\n")
        entries = [{"subject_id": "s0", "label": "case", "path": "s.csv", "sample_rate_hz": 4}]
        with pytest.raises(DataError, match="ragged row.*line 3"):
            load_dataset(self.write_manifest(tmp_path, entries))

    def test_non_numeric_cell_names_channel(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,b\n1,2\n3,oops\n")
        entries = [{"subject_id": "s0", "label": "case", "path": "s.csv", "sample_rate_hz": 4}]
        with pytest.raises(DataError, match="channel 'b'"):
            load_dataset(self.write_manifest(tmp_path, entries))

    def test_channel_set_mismatch(self, tmp_path):
        (tmp_path / "s0.csv").write_text("a,b\n1,2\n")
        (tmp_path / "s1.csv").write_text("a,c\n1,2\n")
        entries = [
            {"subject_id": "s0", "label": "case", "path": "s0.csv", "sample_rate_hz": 4},
            {"subject_id": "s1", "label": "control", "path": "s1.csv", "sample_rate_hz": 4},
        ]
        with pytest.raises(DataError, match="channel-name mismatch"):
            load_dataset(self.write_manifest(tmp_path, entries))

    def test_length_mismatch_between_subjects(self, tmp_path):
        (tmp_path / "s0.csv").write_text("a\n1\n2\n")
        (tmp_path / "s1.csv").write_text("a\n1\n")
        entries = [
            {"subject_id": "s0", "label": "case", "path": "s0.csv", "sample_rate_hz": 4},
            {"subject_id": "s1", "label": "control", "path": "s1.csv", "sample_rate_hz": 4},
        ]
        with pytest.raises(DataError, match="length"):
            load_dataset(self.write_manifest(tmp_path, entries))


    def test_non_utf8_signal_file_named(self, tmp_path):
        (tmp_path / "s.csv").write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
        entries = [{"subject_id": "s0", "label": "case", "path": "s.csv", "sample_rate_hz": 4}]
        with pytest.raises(DataError, match=r"s\.csv is not UTF-8"):
            load_dataset(self.write_manifest(tmp_path, entries))


# Cells that repr writes, and cells that only the csv row loop accepts or
# that both reject, so that generated files exercise every way out of the
# bulk parser.
REPR_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
CELLS = st.one_of(
    REPR_CELLS,
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([
        "1_0", '"1.5"', '"2,5"', " 2.5", "3.5 ", "", " ", "nan", "inf", "-inf", "1e", "e5", "+.5",
        "1E+05", ".", "-", "1.2.3", "0x10", "\u0661", "abc", "1e400", "--1",
        "1\x0c2", "1\x0b2", "1\x852", "1\u20282",  # line breaks to str.splitlines, not to csv
    ]),
    st.text(alphabet="0123456789.eE+-, \t\"_\r\n", max_size=6),
)
LINE_ENDS = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def signal_files(draw):
    """A header of 1-3 names, then rows of repr floats only, or of any CELLS
    with the header's width or a random one, with blank or whitespace lines,
    mixed line ends and an optional final line end."""
    n_names = draw(st.integers(1, 3))
    well_formed = draw(st.booleans())
    cells = REPR_CELLS if well_formed else CELLS
    lines = [",".join(f"ch{j}" for j in range(n_names))]
    for _ in range(draw(st.integers(0, 6))):
        if not well_formed and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        width = n_names if well_formed or draw(st.booleans()) else draw(st.integers(1, 4))
        lines.append(",".join(draw(st.lists(cells, min_size=width, max_size=width))))
    ends = [draw(LINE_ENDS) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def read_outcome(path):
    """The array read from path, bit for bit, or the DataError message."""
    try:
        entry = {"subject_id": "s0", "path": path.name}
        names, samples = signals.read_signal_csv(path.parent / "manifest.json", entry)
    except DataError as exc:
        return "error", str(exc)
    return names, samples.shape, samples.tobytes()


class TestBulkReaderMatchesRowLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=signal_files())
    @example(text="ch0\r\n1\x0c2\r\n")
    @example(text="ch0\n1\x852\n3")
    @example(text='ch0\r\n"1.5"\r\n1_0\r\n')
    @example(text="ch0,ch1\r\n1,2\r\n \r\n3,4\r\n")
    @example(text="ch0,ch1\r1,2\r\r3,4")
    def test_same_array_or_same_error(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode("utf-8"))
        bulk = read_outcome(path)
        with mock.patch.object(signals, "_parse_bulk", lambda body, n_columns: None):
            rows = read_outcome(path)
        assert bulk == rows

    def test_saved_files_take_the_bulk_path(self, tmp_path):
        ds = generate_synthetic_cohort(1, 1, 3, 2.0, 64.0, seed=4)
        save_dataset(ds, tmp_path)
        body = (tmp_path / "case00.csv").read_bytes().decode("utf-8").split("\r\n", 1)[1]
        bulk = signals._parse_bulk(body, 3)
        assert bulk is not None
        assert np.array_equal(bulk, ds.recordings[0].samples.T)
