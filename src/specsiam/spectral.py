"""Short-time Fourier magnitude images and plain-FFT per-channel features.

A spectral image is the frequency-by-time grid of windowed DFT magnitudes for
one channel of one subject. Images are normalized by a tunable upper value:
magnitudes at or above it clamp to 1.0, everything below scales linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError
from .signals import Dataset

__all__ = [
    "WindowFn",
    "StftConfig",
    "config_to_dict",
    "config_from_dict",
    "convert_value",
    "SpectralImage",
    "dstft",
    "normalize_magnitudes",
    "compute_images",
    "fft_features",
    "export_image_csv",
    "export_image_pgm",
]


class WindowFn(Enum):
    RECTANGULAR = "rectangular"
    HANN = "hann"


@dataclass(frozen=True)
class StftConfig:
    """Windowing parameters plus the magnitude normalizer upper_value."""

    window_s: float = 2.0
    hop_s: float = 1.0
    window_fn: WindowFn = WindowFn.RECTANGULAR
    upper_value: float = 300.0

    def __post_init__(self):
        if not (0.0 < self.hop_s <= self.window_s):
            raise DataError(
                f"need 0 < hop_s <= window_s, got hop_s={self.hop_s}, window_s={self.window_s}"
            )
        if self.upper_value <= 0:
            raise DataError("upper_value must be positive")

    def window_samples(self, sample_rate_hz: float) -> int:
        n = int(round(self.window_s * sample_rate_hz))
        if n < 2:
            raise DataError(
                f"window of {self.window_s} s spans {n} samples at {sample_rate_hz} Hz; need >= 2"
            )
        return n

    def hop_samples(self, sample_rate_hz: float) -> int:
        h = int(round(self.hop_s * sample_rate_hz))
        if h < 1:
            raise DataError(
                f"hop of {self.hop_s} s is shorter than one sample at {sample_rate_hz} Hz"
            )
        return h


def config_to_dict(config) -> dict:
    """Every field of a config dataclass by name: a nested config as a dict, an enum by its value."""

    def plain(value):
        if is_dataclass(value):
            return config_to_dict(value)
        return value.value if isinstance(value, Enum) else value

    return {f.name: plain(getattr(config, f.name)) for f in fields(config)}


def convert_value(default, value, source: str, key: str):
    """value as the type of default: an enum member from its value, a finite
    number for a float, and otherwise exactly the default's type, so 5.0 is
    no int and true no number. DataError names source and key."""
    kind = type(default)
    try:
        if isinstance(default, Enum):
            return kind(value)
        if kind is float:
            if type(value) in (int, float) and math.isfinite(value):
                return float(value)
        elif type(value) is kind:
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise DataError(f"{source}: key '{key}' must be of type {kind.__name__}, got {value!r}")


def config_from_dict(cls, data, source: str):
    """The cls config that config_to_dict wrote as data, each value converted
    by its field's default type. An unknown, missing or unconvertible key
    raises DataError naming source and key; cls validates the values."""
    if not isinstance(data, dict):
        raise DataError(f"{source}: must be a JSON object")
    names = [f.name for f in fields(cls)]
    for key in data:
        if key not in names:
            raise DataError(f"{source}: unknown key '{key}'")
    for key in names:
        if key not in data:
            raise DataError(f"{source}: missing key '{key}'")
    return cls(**{f.name: convert_value(f.default, data[f.name], source, f.name) for f in fields(cls)})


@dataclass(frozen=True)
class SpectralImage:
    """Per-channel magnitude grid: frequency bins (rows) by time frames (columns)."""

    subject_id: str
    channel_index: int
    magnitudes: np.ndarray
    freq_resolution_hz: float
    frame_times_s: tuple[float, ...]
    normalized: bool = False

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        if mags.ndim != 2:
            raise DataError(f"magnitudes must be 2-D, got ndim={mags.ndim}")
        if mags.shape[1] != len(self.frame_times_s):
            raise DataError(
                f"{mags.shape[1]} frames but {len(self.frame_times_s)} frame times"
            )
        mags = np.ascontiguousarray(mags)
        mags.flags.writeable = False
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "frame_times_s", tuple(self.frame_times_s))

    @property
    def n_freq_bins(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[1]


def _taper(window_fn: WindowFn, n: int) -> np.ndarray:
    if window_fn is WindowFn.RECTANGULAR:
        return np.ones(n)
    return np.hanning(n)


def dstft(
    channel_signal,
    sample_rate_hz: float,
    config: StftConfig,
    subject_id: str = "",
    channel_index: int = 0,
) -> SpectralImage:
    """Un-normalized magnitude image of the windowed DFT of one channel.

    Frame w covers samples [w*hop, w*hop + window); entry (f, w) is the
    magnitude of DFT bin f of that frame. With 2 s windows at 128 Hz this
    yields 129 bins at 0.5 Hz resolution.
    """
    x = np.asarray(channel_signal, dtype=np.float64)
    if x.ndim != 1:
        raise DataError("channel_signal must be 1-D")
    win = config.window_samples(sample_rate_hz)
    hop = config.hop_samples(sample_rate_hz)
    if x.size < win:
        raise DataError(
            f"signal of {x.size} samples is shorter than one {win}-sample window"
        )
    n_frames = 1 + (x.size - win) // hop
    starts = hop * np.arange(n_frames)
    frames = x[starts[:, None] + np.arange(win)[None, :]]
    frames = frames * _taper(config.window_fn, win)[None, :]
    mags = np.abs(np.fft.rfft(frames, axis=1)).T
    return SpectralImage(
        subject_id=subject_id,
        channel_index=channel_index,
        magnitudes=mags,
        freq_resolution_hz=sample_rate_hz / win,
        frame_times_s=tuple(float(s) / sample_rate_hz for s in starts),
        normalized=False,
    )


def normalize_magnitudes(image: SpectralImage, upper_value: float) -> SpectralImage:
    """Clamp-and-scale: each magnitude m becomes min(m, upper_value) / upper_value."""
    if upper_value <= 0:
        raise DataError("upper_value must be positive")
    mags = np.minimum(image.magnitudes, upper_value) / upper_value
    return replace(image, magnitudes=mags, normalized=True)


def compute_images(dataset: Dataset, config: StftConfig) -> dict[tuple[str, int], SpectralImage]:
    """Normalized spectral image for every (subject, channel) of the cohort."""
    images: dict[tuple[str, int], SpectralImage] = {}
    for rec in dataset.recordings:
        for ch in range(rec.n_channels):
            img = dstft(rec.samples[ch], rec.sample_rate_hz, config, rec.subject_id, ch)
            images[(rec.subject_id, ch)] = normalize_magnitudes(img, config.upper_value)
    return images


def fft_features(channel_signal, sample_rate_hz: float, max_freq_hz: float) -> np.ndarray:
    """Full-length DFT magnitude spectrum truncated to bins at or below max_freq_hz."""
    x = np.asarray(channel_signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DataError("channel_signal must be 1-D with at least 2 samples")
    if max_freq_hz <= 0:
        raise DataError("max_freq_hz must be positive")
    mags = np.abs(np.fft.rfft(x))
    resolution = sample_rate_hz / x.size
    k_max = min(mags.size - 1, int(np.floor(max_freq_hz / resolution + 1e-9)))
    return mags[: k_max + 1]


def export_image_csv(image: SpectralImage, path: str | Path) -> None:
    """Write the magnitude grid as CSV, frequency bins as rows, frames as columns."""
    np.savetxt(path, image.magnitudes, delimiter=",", fmt="%.17g")


def export_image_pgm(image: SpectralImage, path: str | Path) -> None:
    """Grayscale PGM (P2) for eyeballing; highest frequency at the top row."""
    mags = image.magnitudes
    if not image.normalized:
        top = mags.max()
        mags = mags / top if top > 0 else mags
    pixels = np.clip(np.rint(mags * 255), 0, 255).astype(int)[::-1]
    height, width = pixels.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row) + "\n")
