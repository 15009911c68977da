"""EEG recording data model, disk ingestion, and synthetic cohort generation.

A cohort lives on disk as a JSON manifest (one entry per subject) plus one CSV
per subject. CSV columns are channels, with a header row of channel names;
rows are consecutive time samples in microvolts. Labels live in the manifest
only, so the same signal files can be relabeled without rewriting them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "Label",
    "EegRecording",
    "Dataset",
    "BandComponent",
    "DEFAULT_CASE_PROFILE",
    "DEFAULT_CONTROL_PROFILE",
    "read_signal_csv",
    "channel_order",
    "load_dataset",
    "save_dataset",
    "generate_synthetic_cohort",
    "dataset_subset",
]


class Label(Enum):
    """Case-control class of a subject; CASE is the positive class."""

    CASE = "case"
    CONTROL = "control"


@dataclass(frozen=True)
class EegRecording:
    """One subject's labeled multichannel signal, samples shaped (channels, time)."""

    subject_id: str
    label: Label
    sample_rate_hz: float
    channel_names: tuple[str, ...]
    samples: np.ndarray

    def __post_init__(self):
        try:
            samples = np.asarray(self.samples, dtype=np.float64)
        except ValueError:
            raise DataError(
                f"subject '{self.subject_id}': ragged or non-numeric signal rows"
            ) from None
        if samples.ndim != 2:
            raise DataError(
                f"subject '{self.subject_id}': samples must be a 2-D (channels, time) "
                f"array, got ndim={samples.ndim}"
            )
        m, t = samples.shape
        if m < 1 or t < 1:
            raise DataError(f"subject '{self.subject_id}': empty signal matrix {samples.shape}")
        if self.sample_rate_hz <= 0:
            raise DataError(f"subject '{self.subject_id}': sample_rate_hz must be positive")
        names = tuple(self.channel_names)
        if len(names) != m:
            raise DataError(
                f"subject '{self.subject_id}': {len(names)} channel names for {m} signal rows"
            )
        if len(set(names)) != len(names):
            raise DataError(f"subject '{self.subject_id}': duplicate channel names")
        if not np.isfinite(samples).all():
            bad = np.argwhere(~np.isfinite(samples))[0]
            raise DataError(
                f"subject '{self.subject_id}': non-finite value in channel "
                f"'{names[bad[0]]}' at sample {bad[1]}"
            )
        samples = np.ascontiguousarray(samples)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channel_names", names)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Dataset:
    """A cohort of recordings sharing channel layout, sample rate and length."""

    recordings: tuple[EegRecording, ...]
    channel_names: tuple[str, ...]

    def __post_init__(self):
        recs = tuple(self.recordings)
        if not recs:
            raise DataError("dataset has no recordings")
        names = tuple(self.channel_names)
        seen: set[str] = set()
        first = recs[0]
        for rec in recs:
            if rec.subject_id in seen:
                raise DataError(f"duplicated subject_id '{rec.subject_id}'")
            seen.add(rec.subject_id)
            if rec.channel_names != names:
                raise DataError(
                    f"subject '{rec.subject_id}': channel names {rec.channel_names} "
                    f"do not match canonical list {names}"
                )
            if rec.sample_rate_hz != first.sample_rate_hz:
                raise DataError(
                    f"subject '{rec.subject_id}': sample rate {rec.sample_rate_hz} Hz "
                    f"differs from {first.sample_rate_hz} Hz"
                )
            if rec.n_samples != first.n_samples:
                raise DataError(
                    f"subject '{rec.subject_id}': length {rec.n_samples} differs "
                    f"from {first.n_samples}"
                )
        object.__setattr__(self, "recordings", recs)
        object.__setattr__(self, "channel_names", names)

    @property
    def n_subjects(self) -> int:
        return len(self.recordings)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    @property
    def n_samples(self) -> int:
        return self.recordings[0].n_samples

    @property
    def sample_rate_hz(self) -> float:
        return self.recordings[0].sample_rate_hz

    @property
    def subject_ids(self) -> tuple[str, ...]:
        return tuple(r.subject_id for r in self.recordings)

    def labels(self) -> dict[str, Label]:
        return {r.subject_id: r.label for r in self.recordings}

    def get(self, subject_id: str) -> EegRecording:
        for rec in self.recordings:
            if rec.subject_id == subject_id:
                return rec
        raise KeyError(subject_id)


def read_manifest(manifest_path: str | Path) -> list[dict]:
    """Parse and structurally validate a cohort manifest, without touching signals."""
    path = Path(manifest_path)
    if not path.is_file():
        raise DataError(f"manifest not found: {path}")
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list) or not entries:
        raise DataError(f"manifest {path} must be a non-empty JSON array")
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataError(f"manifest {path}: entries must be objects")
        for key in ("subject_id", "label", "path", "sample_rate_hz"):
            if key not in entry:
                raise DataError(f"manifest {path}: entry missing '{key}': {entry}")
        sid = entry["subject_id"]
        rate = entry["sample_rate_hz"]
        for key, ok, what in (
            ("subject_id", isinstance(sid, str), "a string"),
            ("path", isinstance(entry["path"], str), "a string"),
            ("sample_rate_hz", isinstance(rate, (int, float)) and not isinstance(rate, bool)
             and 0 < rate <= sys.float_info.max, "a finite positive number"),
        ):
            if not ok:
                raise DataError(f"manifest {path}: subject {sid!r}: '{key}' must be {what}, got {entry[key]!r}")
        if sid in seen:
            raise DataError(f"duplicated subject_id '{sid}' in manifest")
        seen.add(sid)
        try:
            Label(entry["label"])
        except ValueError:
            raise DataError(
                f"subject '{sid}': label must be 'case' or 'control', got {entry['label']!r}"
            ) from None
    return entries


def read_signal_csv(manifest_path: str | Path, entry: dict, header_only: bool = False):
    """(channel names, (channels, samples) array) of a manifest entry's signal
    CSV, whose path resolves against the manifest's directory. header_only
    reads the header row alone and gives None for the array."""
    path = Path(entry["path"])
    if not path.is_absolute():
        path = Path(manifest_path).parent / path
    subject_id = entry["subject_id"]
    if not path.is_file():
        raise DataError(f"signal file missing for subject '{subject_id}': {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            body = "" if header_only else fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"subject '{subject_id}': signal file {path} is not UTF-8 text ({exc})") from None
    if header is None:
        raise DataError(f"subject '{subject_id}': empty signal file {path}")
    if not header:
        raise DataError(f"subject '{subject_id}': no channel header in {path}")
    names = tuple(cell.strip() for cell in header)
    if header_only:
        return names, None
    samples = _parse_bulk(body, len(names))
    if samples is None:
        samples = _parse_rows(body, names, subject_id, path)
    return names, samples.T


# Bytes that repr writes for finite floats, plus the separators. A body made
# of nothing else has no quoting, whitespace or exotic line break, so np.loadtxt
# and the csv row loop split it into the same cells, and both parse each cell
# with the same correctly rounded conversion.
_BULK_BYTES = b"0123456789.eE+-,\r\n"


def _parse_bulk(body: str, n_columns: int) -> np.ndarray | None:
    """The (rows, columns) body parsed by one np.loadtxt call, or None when
    the row loop must decide: other characters, no rows, a bad cell or a row
    of another length."""
    try:
        if body.encode("ascii").translate(None, _BULK_BYTES):
            return None
    except UnicodeEncodeError:
        return None
    lines = [line for line in body.splitlines() if line]
    if not lines:
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == n_columns else None


def _parse_rows(body: str, names: tuple[str, ...], subject_id: str, path: Path) -> np.ndarray:
    """The body parsed row by row with csv, naming the first defect."""
    rows: list[list[float]] = []
    for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if not row:
            continue  # tolerate trailing blank line
        if len(row) != len(names):
            raise DataError(
                f"subject '{subject_id}': ragged row at line {lineno} of {path.name} "
                f"({len(row)} values, expected {len(names)})"
            )
        try:
            rows.append([float(cell) for cell in row])
        except ValueError:
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(
                        f"subject '{subject_id}': non-numeric cell {cell!r} at line "
                        f"{lineno}, channel '{names[j]}'"
                    ) from None
            raise
    if not rows:
        raise DataError(f"subject '{subject_id}': no sample rows in {path.name}")
    return np.asarray(rows, dtype=np.float64)


def channel_order(sid: str, names: tuple[str, ...], canonical: tuple[str, ...]) -> list[int] | None:
    """The indices that put a subject's channels in canonical order, or None if they are in it.

    DataError when the two name sets differ.
    """
    if names == canonical:
        return None
    if sorted(names) != sorted(canonical):
        raise DataError(
            f"subject '{sid}': channel-name mismatch: file has {list(names)}, "
            f"canonical list is {list(canonical)}"
        )
    return [names.index(ch) for ch in canonical]


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a cohort from a JSON manifest; signal CSV paths resolve relative to it.

    Channel columns are reordered to the first subject's header when the name
    sets agree; any name-set mismatch is an error.
    """
    path = Path(manifest_path)
    entries = read_manifest(path)
    canonical: tuple[str, ...] | None = None
    recordings = []
    for entry in entries:
        sid = entry["subject_id"]
        names, samples = read_signal_csv(path, entry)
        if canonical is None:
            canonical = names
        order = channel_order(sid, names, canonical)
        if order is not None:
            samples = samples[order]
        recordings.append(
            EegRecording(
                subject_id=sid,
                label=Label(entry["label"]),
                sample_rate_hz=float(entry["sample_rate_hz"]),
                channel_names=canonical,
                samples=samples,
            )
        )
    assert canonical is not None
    return Dataset(tuple(recordings), canonical)


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write one CSV per subject plus manifest.json; returns the manifest path.

    Floats are written with repr so that load_dataset round-trips bit-exactly;
    the sample rows are joined in one string, with the csv module's \\r\\n
    terminator (repr never writes a character that csv would quote).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in dataset.recordings:
        fname = f"{rec.subject_id}.csv"
        with open(out / fname, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(rec.channel_names)
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in rec.samples.T.tolist()))
        entries.append(
            {
                "subject_id": rec.subject_id,
                "label": rec.label.value,
                "path": fname,
                "sample_rate_hz": rec.sample_rate_hz,
            }
        )
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


@dataclass(frozen=True)
class BandComponent:
    """One band-limited sinusoid of a synthetic class profile."""

    low_hz: float
    high_hz: float
    amplitude: float

    def __post_init__(self):
        if not (0.0 <= self.low_hz <= self.high_hz):
            raise DataError(f"invalid band [{self.low_hz}, {self.high_hz}] Hz")
        if self.amplitude < 0:
            raise DataError("band amplitude must be non-negative")


# Resting-state-like defaults: cases show elevated delta and suppressed alpha.
DEFAULT_CASE_PROFILE = (
    BandComponent(0.5, 4.0, 2.5),   # delta
    BandComponent(4.0, 8.0, 1.0),   # theta
    BandComponent(8.0, 13.0, 0.5),  # alpha
    BandComponent(13.0, 30.0, 0.5), # beta
)
DEFAULT_CONTROL_PROFILE = (
    BandComponent(0.5, 4.0, 0.5),
    BandComponent(4.0, 8.0, 1.0),
    BandComponent(8.0, 13.0, 2.5),
    BandComponent(13.0, 30.0, 0.5),
)


def generate_synthetic_cohort(
    n_case: int,
    n_control: int,
    m_channels: int,
    duration_s: float,
    sample_rate_hz: float,
    class_profiles: tuple[tuple[BandComponent, ...], tuple[BandComponent, ...]] | None = None,
    noise_sigma: float = 0.5,
    seed: int = 0,
) -> Dataset:
    """Deterministically generate a two-class cohort of band-limited sinusoid mixes.

    Each channel sums one sinusoid per profile band (frequency and phase drawn
    per subject/channel/band from the seeded generator) plus white noise. The
    result is a pure function of the arguments.
    """
    if n_case < 1 or n_control < 1:
        raise DataError("need at least one case and one control subject")
    if m_channels < 1:
        raise DataError("m_channels must be >= 1")
    if duration_s <= 0 or sample_rate_hz <= 0:
        raise DataError("duration_s and sample_rate_hz must be positive")
    if noise_sigma < 0:
        raise DataError("noise_sigma must be non-negative")
    n_samples_f = duration_s * sample_rate_hz
    n_samples = int(round(n_samples_f))
    if n_samples < 1 or abs(n_samples_f - n_samples) > 1e-6:
        raise DataError(
            f"duration_s * sample_rate_hz must be a positive integer, got {n_samples_f}"
        )
    if class_profiles is None:
        class_profiles = (DEFAULT_CASE_PROFILE, DEFAULT_CONTROL_PROFILE)
    case_profile, control_profile = class_profiles
    nyquist = sample_rate_hz / 2.0
    for profile in (case_profile, control_profile):
        for band in profile:
            if band.high_hz > nyquist + 1e-9:
                raise DataError(
                    f"band [{band.low_hz}, {band.high_hz}] Hz exceeds the Nyquist "
                    f"frequency {nyquist} Hz"
                )
    channel_names = tuple(f"ch{j:02d}" for j in range(m_channels))

    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sample_rate_hz
    recordings = []
    groups = (
        (Label.CASE, case_profile, n_case, "case"),
        (Label.CONTROL, control_profile, n_control, "ctrl"),
    )
    for label, profile, count, prefix in groups:
        width = max(2, len(str(count - 1)))
        for i in range(count):
            sid = f"{prefix}{i:0{width}d}"
            chans = np.empty((m_channels, n_samples))
            for j in range(m_channels):
                x = np.zeros(n_samples)
                for band in profile:
                    freq = rng.uniform(band.low_hz, band.high_hz)
                    phase = rng.uniform(0.0, 2.0 * math.pi)
                    x += band.amplitude * np.sin(2.0 * math.pi * freq * t + phase)
                x += rng.normal(0.0, noise_sigma, n_samples)
                chans[j] = x
            recordings.append(
                EegRecording(sid, label, float(sample_rate_hz), channel_names, chans)
            )
    return Dataset(tuple(recordings), channel_names)


def dataset_subset(dataset: Dataset, subject_ids) -> Dataset:
    """The sub-cohort of the given subjects, preserving recording order."""
    wanted = set(subject_ids)
    missing = wanted - set(dataset.subject_ids)
    if missing:
        raise DataError(f"unknown subject ids: {sorted(missing)}")
    recs = tuple(r for r in dataset.recordings if r.subject_id in wanted)
    return Dataset(recs, dataset.channel_names)
