import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsiam.errors import DataError
from specsiam.siamese import NetConfig
from specsiam.signals import BandComponent, generate_synthetic_cohort
from specsiam.spectral import (
    SpectralImage,
    StftConfig,
    WindowFn,
    compute_images,
    config_from_dict,
    config_to_dict,
    dstft,
    export_image_csv,
    export_image_pgm,
    fft_features,
    normalize_magnitudes,
)


def dft_magnitudes(frame: np.ndarray) -> np.ndarray:
    """Direct-summation DFT magnitudes up to the Nyquist bin (O(n^2) oracle)."""
    n = frame.size
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return np.abs((frame[None, :] * np.exp(-2j * np.pi * k * t / n)).sum(axis=1))


def taper_for(window_fn: WindowFn, n: int) -> np.ndarray:
    return np.ones(n) if window_fn is WindowFn.RECTANGULAR else np.hanning(n)


def full_spectrum_energy(mags_column: np.ndarray, window_samples: int) -> float:
    """Reassemble the full-DFT energy from the half-spectrum magnitudes."""
    total = mags_column[0] ** 2
    if window_samples % 2 == 0:
        total += mags_column[-1] ** 2
        total += 2.0 * (mags_column[1:-1] ** 2).sum()
    else:
        total += 2.0 * (mags_column[1:] ** 2).sum()
    return float(total)


class TestDstft:
    def test_pure_tone_argmax_bin(self):
        fs = 128.0
        t = np.arange(int(60 * fs)) / fs
        signal = np.sin(2 * np.pi * 8.0 * t)
        config = StftConfig(window_s=2.0, hop_s=2.0)
        image = dstft(signal, fs, config)
        assert image.n_freq_bins == 129
        assert image.freq_resolution_hz == pytest.approx(0.5)
        assert (image.magnitudes.argmax(axis=0) == 16).all()  # 8 Hz / 0.5 Hz

    def test_zero_signal_zero_image(self):
        image = dstft(np.zeros(64), 32.0, StftConfig(window_s=1.0, hop_s=0.5))
        assert (image.magnitudes == 0.0).all()

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(7)
        for window_fn in (WindowFn.RECTANGULAR, WindowFn.HANN):
            signal = rng.standard_normal(200)
            config = StftConfig(window_s=0.5, hop_s=0.25, window_fn=window_fn)
            fs = 64.0
            image = dstft(signal, fs, config)
            win, hop = 32, 16
            taper = taper_for(window_fn, win)
            for w in range(image.n_frames):
                frame = signal[w * hop : w * hop + win] * taper
                expected = dft_magnitudes(frame)
                err = np.abs(image.magnitudes[:, w] - expected)
                scale = np.maximum(np.abs(expected), 1.0)
                assert (err / scale).max() < 1e-9

    def test_parseval_per_frame_rectangular(self):
        rng = np.random.default_rng(3)
        signal = rng.standard_normal(300)
        fs = 50.0
        config = StftConfig(window_s=0.5, hop_s=0.2)
        image = dstft(signal, fs, config)
        win, hop = 25, 10
        for w in range(image.n_frames):
            frame = signal[w * hop : w * hop + win]
            lhs = full_spectrum_energy(image.magnitudes[:, w], win)
            rhs = win * float((frame**2).sum())
            assert abs(lhs - rhs) / rhs < 1e-9

    def test_frame_times_and_count(self):
        image = dstft(np.ones(100), 10.0, StftConfig(window_s=2.0, hop_s=1.0))
        # T=100, win=20, hop=10 -> W = 1 + 80//10 = 9
        assert image.n_frames == 9
        assert image.frame_times_s[0] == 0.0
        assert image.frame_times_s[1] == pytest.approx(1.0)

    def test_signal_shorter_than_window_rejected(self):
        with pytest.raises(DataError, match="shorter"):
            dstft(np.ones(10), 10.0, StftConfig(window_s=2.0, hop_s=1.0))

    @given(
        t_samples=st.integers(30, 200),
        win=st.integers(2, 30),
        hop=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_shape_law(self, t_samples, win, hop):
        if hop > win or win > t_samples:
            return
        fs = 1.0
        image = dstft(np.ones(t_samples), fs, StftConfig(window_s=float(win), hop_s=float(hop)))
        assert image.n_freq_bins == win // 2 + 1
        assert image.n_frames == 1 + (t_samples - win) // hop
        assert image.freq_resolution_hz == pytest.approx(fs / win)

    def test_synthetic_case_tone_lands_in_8hz_bin(self):
        tone = (BandComponent(8.0, 8.0, 1.0),)
        silent = (BandComponent(1.0, 1.0, 0.0),)
        ds = generate_synthetic_cohort(
            1, 1, 1, 8.0, 128.0, class_profiles=(tone, silent), noise_sigma=0.0, seed=2
        )
        signal = ds.get("case00").samples[0]
        config = StftConfig(window_s=2.0, hop_s=2.0)
        image = dstft(signal, 128.0, config)
        expected_bin = int(round(8.0 / image.freq_resolution_hz))
        assert (image.magnitudes.argmax(axis=0) == expected_bin).all()
        win, hop = 256, 256
        for w in range(image.n_frames):
            frame = signal[w * hop : w * hop + win]
            assert int(dft_magnitudes(frame).argmax()) == expected_bin


class TestNormalize:
    def test_half_upper_value(self):
        image = SpectralImage("s", 0, np.array([[100.0]]), 1.0, (0.0,))
        out = normalize_magnitudes(image, 200.0)
        assert out.magnitudes[0, 0] == pytest.approx(0.5)
        assert out.normalized

    def test_clamps_above_upper_value(self):
        image = SpectralImage("s", 0, np.array([[300.0]]), 1.0, (0.0,))
        assert normalize_magnitudes(image, 200.0).magnitudes[0, 0] == 1.0

    def test_zero_stays_zero(self):
        image = SpectralImage("s", 0, np.array([[0.0]]), 1.0, (0.0,))
        assert normalize_magnitudes(image, 123.0).magnitudes[0, 0] == 0.0

    def test_non_positive_upper_rejected(self):
        image = SpectralImage("s", 0, np.array([[1.0]]), 1.0, (0.0,))
        with pytest.raises(DataError):
            normalize_magnitudes(image, 0.0)

    @given(
        values=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=16),
        upper=st.floats(1e-3, 1e4, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_range_and_monotonicity(self, values, upper):
        mags = np.array(values)[:, None]
        image = SpectralImage("s", 0, mags, 1.0, (0.0,))
        out = normalize_magnitudes(image, upper).magnitudes[:, 0]
        assert (out >= 0.0).all() and (out <= 1.0).all()
        order = np.argsort(mags[:, 0], kind="stable")
        assert (np.diff(out[order]) >= -1e-15).all()


class TestFftFeatures:
    def test_tone_bin_and_count(self):
        fs = 128.0
        t = np.arange(7680) / fs
        signal = np.sin(2 * np.pi * 8.0 * t)
        feats = fft_features(signal, fs, 30.0)
        # bin resolution = 128/7680 Hz; 30 Hz -> bin 1800 inclusive
        assert feats.size == 1801
        assert int(feats.argmax()) == 480  # 8 Hz * 60 s
        oracle = dft_magnitudes(signal[:256])  # spot-check shape rules only
        assert oracle.size == 129

    def test_zero_signal(self):
        assert (fft_features(np.zeros(64), 64.0, 10.0) == 0.0).all()

    def test_matches_direct_oracle_on_short_signal(self):
        rng = np.random.default_rng(5)
        signal = rng.standard_normal(96)
        feats = fft_features(signal, 48.0, 10.0)
        oracle = dft_magnitudes(signal)
        k_max = int(np.floor(10.0 / (48.0 / 96) + 1e-9))
        assert feats.size == k_max + 1
        np.testing.assert_allclose(feats, oracle[: k_max + 1], rtol=1e-9, atol=1e-12)

    def test_max_freq_beyond_nyquist_keeps_all_bins(self):
        feats = fft_features(np.ones(64), 64.0, 1000.0)
        assert feats.size == 33

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            fft_features(np.ones(1), 64.0, 10.0)


class TestExportsAndStore:
    def test_compute_images_keys_and_normalization(self, tiny_cohort):
        config = StftConfig(window_s=2.0, hop_s=1.0, upper_value=150.0)
        images = compute_images(tiny_cohort, config)
        assert len(images) == tiny_cohort.n_subjects * tiny_cohort.n_channels
        for (sid, ch), image in images.items():
            assert image.subject_id == sid
            assert image.channel_index == ch
            assert image.normalized
            assert image.magnitudes.min() >= 0.0
            assert image.magnitudes.max() <= 1.0

    def test_csv_export_round_trips(self, tmp_path):
        mags = np.array([[0.25, 0.5], [0.75, 1.0], [0.0, 0.125]])
        image = SpectralImage("s", 0, mags, 1.0, (0.0, 1.0), normalized=True)
        path = tmp_path / "img.csv"
        export_image_csv(image, path)
        back = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(back, mags)

    def test_pgm_export_header_and_values(self, tmp_path):
        mags = np.array([[0.0, 1.0], [0.5, 0.25]])
        image = SpectralImage("s", 0, mags, 1.0, (0.0, 1.0), normalized=True)
        path = tmp_path / "img.pgm"
        export_image_pgm(image, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        # top row is the highest frequency bin
        assert lines[3].split() == ["128", "64"]
        assert lines[4].split() == ["0", "255"]


class TestStftConfig:
    def test_hop_larger_than_window_rejected(self):
        with pytest.raises(DataError):
            StftConfig(window_s=1.0, hop_s=2.0)

    def test_window_too_short_rejected(self):
        config = StftConfig(window_s=0.01, hop_s=0.01)
        with pytest.raises(DataError, match="window"):
            config.window_samples(10.0)

    def test_sub_sample_hop_rejected(self):
        config = StftConfig(window_s=1.0, hop_s=0.001)
        with pytest.raises(DataError, match="hop"):
            config.hop_samples(10.0)


NON_DEFAULT_CONFIGS = [
    StftConfig(window_s=1.5, hop_s=0.25, window_fn=WindowFn.HANN, upper_value=123.5),
    NetConfig(kernel_size=7, conv1_filters=3, conv2_filters=5, output_dim=4, l1_lambda=0.05,
              margin=1.5, learning_rate=3e-4, dropout_p=0.25, epochs=3, pooling="none", seed=9),
]


class TestConfigSchema:
    @pytest.mark.parametrize("config", NON_DEFAULT_CONFIGS, ids=lambda c: type(c).__name__)
    def test_round_trip(self, config):
        data = config_to_dict(config)
        assert config_from_dict(type(config), data, "src") == config
        assert all(type(v) in (int, float, str) for v in data.values())

    def test_enum_written_by_value(self):
        assert config_to_dict(StftConfig(window_fn=WindowFn.HANN))["window_fn"] == "hann"

    def test_numbers_converted_by_default_type(self):
        data = {**config_to_dict(StftConfig()), "upper_value": 150, "window_s": 2}
        config = config_from_dict(StftConfig, data, "src")
        assert type(config.upper_value) is float and config.upper_value == 150.0

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d.update(kernal_size=7), "unknown key 'kernal_size'"),
            (lambda d: d.pop("margin"), "missing key 'margin'"),
            (lambda d: d.update(kernel_size="x"), "key 'kernel_size' must be of type int"),
            (lambda d: d.update(kernel_size=5.0), "key 'kernel_size' must be of type int"),
            (lambda d: d.update(epochs=True), "key 'epochs' must be of type int"),
            (lambda d: d.update(margin=None), "key 'margin' must be of type float"),
            (lambda d: d.update(margin=float("nan")), "key 'margin' must be of type float"),
            (lambda d: d.update(margin=10**400), "key 'margin' must be of type float"),
            (lambda d: d.update(pooling=["none"]), "key 'pooling' must be of type str"),
        ],
        ids=["unknown", "missing", "text-for-int", "float-for-int", "bool-for-int", "null",
             "nan", "huge-int", "list"],
    )
    def test_defects_name_source_and_key(self, change, message):
        data = config_to_dict(NetConfig())
        change(data)
        with pytest.raises(DataError, match="^src: " + message):
            config_from_dict(NetConfig, data, "src")

    @pytest.mark.parametrize("value", ["blackman", 1, None, ["hann"]])
    def test_enum_value_not_a_member(self, value):
        data = {**config_to_dict(StftConfig()), "window_fn": value}
        with pytest.raises(DataError, match="^src: key 'window_fn'"):
            config_from_dict(StftConfig, data, "src")

    def test_not_an_object(self):
        with pytest.raises(DataError, match="^src: must be a JSON object"):
            config_from_dict(StftConfig, ["window_s"], "src")
