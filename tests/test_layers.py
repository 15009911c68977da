"""Convolution and pooling kernels of the twin network, pinned to their oracles.

The layers under test are the per-layer forms of tests/oracles.py, built from
the network's kernels. The network's transforms call pocketfft directly and
must equal the scipy.fft functions whose arguments they copy, bit for bit.

Each convolution op has a direct and an FFT implementation; both are forced
here on the same inputs and must agree to 1e-12 relative. The strided max-pool
must match the argmax-over-quads implementation it replaced bit for bit,
outputs and gradients, ties included.
"""

import numpy as np
import pytest
from scipy import fft as sp_fft

from oracles import (
    _conv_dw,
    _conv_dx,
    _conv_forward,
    _direct_dw,
    _direct_dx,
    _direct_forward,
    _fft_dw,
    _fft_dx,
    _fft_forward,
    _pool_backward,
    _pool_forward,
)
from specsiam import siamese
from specsiam.siamese import DIRECT_CONV_MAX_FAN_IN, KERNEL_SIZES, _is_direct


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def conv_case(k, c_in, seed):
    rng = np.random.default_rng(seed)
    h, w = 2 * k + 1, k + 4 + (k % 2 == 0)  # both odd
    x = rng.standard_normal((3, c_in, h, w))
    wt = rng.standard_normal((5, c_in, k, k))
    dout = rng.standard_normal((3, 5, h - k + 1, w - k + 1))
    return x, wt, dout


class TestDirectMatchesFft:
    @pytest.mark.parametrize("c_in", [1, 4, 8])
    @pytest.mark.parametrize("k", KERNEL_SIZES)
    def test_forward_dw_dx(self, k, c_in):
        x, wt, dout = conv_case(k, c_in, seed=100 * k + c_in)
        assert x.shape[2] % 2 == 1 and x.shape[3] % 2 == 1
        fft_out, fft_cache = _fft_forward(x, wt)
        assert rel_err(_direct_forward(x, wt), fft_out) <= 1e-12
        assert rel_err(_direct_dw(x, dout, k), _fft_dw(fft_cache, dout, k)) <= 1e-12
        assert rel_err(_direct_dx(dout, wt, x.shape), _fft_dx(dout, wt, x.shape)) <= 1e-12

    @pytest.mark.parametrize("c_in, k", [(1, 3), (4, 5), (8, 3)])
    def test_unfolding_in_chunks_changes_nothing(self, c_in, k, monkeypatch):
        x, wt, dout = conv_case(k, c_in, seed=11)
        whole = (_direct_forward(x, wt), _direct_dw(x, dout, k), _direct_dx(dout, wt, x.shape))
        monkeypatch.setattr(siamese, "UNFOLD_CHUNK_BYTES", 1)  # one image per chunk
        np.testing.assert_array_equal(_direct_forward(x, wt), whole[0])
        assert rel_err(_direct_dw(x, dout, k), whole[1]) <= 1e-14
        np.testing.assert_array_equal(_direct_dx(dout, wt, x.shape), whole[2])

    @pytest.mark.parametrize("c_in, k", [(1, 3), (4, 5), (8, 3), (1, 11), (8, 5), (16, 12)])
    def test_dispatch_follows_fan_in(self, c_in, k):
        x, wt, dout = conv_case(k, c_in, seed=7)
        bias = np.arange(5.0)
        direct = c_in * k * k <= DIRECT_CONV_MAX_FAN_IN
        assert _is_direct(wt) == direct
        out, cache = _conv_forward(x, wt, bias)
        if direct:
            expected, expected_cache = _direct_forward(x, wt), x
            expected_dw = _direct_dw(x, dout, k)
            expected_dx = _direct_dx(dout, wt, x.shape)
        else:
            expected, expected_cache = _fft_forward(x, wt)
            expected_dw = _fft_dw(expected_cache, dout, k)
            expected_dx = _fft_dx(dout, wt, x.shape)
        np.testing.assert_array_equal(out, expected + bias[None, :, None, None])
        np.testing.assert_array_equal(_conv_dw(cache, dout, wt), expected_dw)
        np.testing.assert_array_equal(_conv_dx(dout, wt, x.shape), expected_dx)

    def test_crossover_at_the_measured_shapes(self):
        # conv1 (one input channel) is direct up to k=10; conv2 with 8 input
        # channels only at k=3
        assert [k for k in KERNEL_SIZES if _is_direct(np.empty((1, 1, k, k)))] == list(range(3, 11))
        assert [k for k in KERNEL_SIZES if _is_direct(np.empty((1, 8, k, k)))] == [3]


# (image shape, conv1 filters, k, conv): the paper net's FFT-path layers at
# k=5 and k=12 (129x59 images, filters 8/16) and the synthetic criterion-7
# net's layers at k=3 and k=5 (65x29, filters 4/8), whose planes the bench
# times
NET_LAYERS = [
    ((129, 59), 8, 5, 2), ((129, 59), 8, 12, 1), ((129, 59), 8, 12, 2),
    ((65, 29), 4, 3, 1), ((65, 29), 4, 3, 2), ((65, 29), 4, 5, 1), ((65, 29), 4, 5, 2),
]


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8))


class TestPocketfftCallsMatchScipyFft:
    @pytest.mark.parametrize("image, c1, k, conv", NET_LAYERS)
    def test_rfft2_irfft2_and_plane_equal_scipy_fft(self, image, c1, k, conv):
        if conv == 1:
            c_in, c_out, (h, w) = 1, c1, image
        else:
            c_in, c_out, (h, w) = c1, 2 * c1, ((image[0] - k + 1) // 2, (image[1] - k + 1) // 2)
        plane = siamese._fft_plane(h, w)
        assert plane == (sp_fft.next_fast_len(h), sp_fft.next_fast_len(w))
        workers = siamese._fft_workers()
        rng = np.random.default_rng(1000 * k + h)
        x = np.zeros((3, c_in, *plane))  # as _padded hands it over
        x[:, :, :h, :w] = rng.standard_normal((3, c_in, h, w))
        wt = rng.standard_normal((c_out, c_in, k, k))  # padded to the plane by _rfft2, as by scipy
        xf = siamese._rfft2(x, plane, workers)
        wf = siamese._rfft2(wt, plane, workers)
        assert_same_bytes(xf, sp_fft.rfft2(x, s=plane, workers=workers))
        assert_same_bytes(wf, sp_fft.rfft2(wt, s=plane, workers=workers))
        products = siamese._plane_matmul(xf, wf.conj())  # a transposed view, as the network inverts
        assert not products.flags.c_contiguous
        for spectrum in (products, xf):
            assert_same_bytes(siamese._irfft2(spectrum, plane, workers),
                              sp_fft.irfft2(spectrum, s=plane, workers=workers))


def oracle_pool_forward(x):
    """Max pooling by argmax over (N, 4) quads, the implementation replaced."""
    b, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    quads = (
        x[:, :, : 2 * h2, : 2 * w2]
        .reshape(b, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b * c * h2 * w2, 4)
    )
    idx = quads.argmax(axis=1)
    rows = np.arange(quads.shape[0])
    out = quads[rows, idx].reshape(b, c, h2, w2)
    return out, (idx, x.shape)


def oracle_pool_backward(dout, cache):
    idx, x_shape = cache
    b, c, h, w = x_shape
    h2, w2 = h // 2, w // 2
    dquads = np.zeros((b * c * h2 * w2, 4))
    dquads[np.arange(dquads.shape[0]), idx] = dout.ravel()
    dx = np.zeros(x_shape)
    dx[:, :, : 2 * h2, : 2 * w2] = (
        dquads.reshape(b, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, 2 * h2, 2 * w2)
    )
    return dx


def pool_inputs(kind, shape, rng):
    if kind == "relu":  # about one quad in sixteen is all zero
        return np.maximum(rng.standard_normal(shape), 0.0)
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "constant_quads":
        b, c, h, w = shape
        quads = rng.integers(-2, 3, (b, c, (h + 1) // 2, (w + 1) // 2)).astype(np.float64)
        return quads.repeat(2, axis=2).repeat(2, axis=3)[:, :, :h, :w]
    if kind == "few_levels":  # ties between two or three corners of a quad
        return rng.integers(0, 3, shape).astype(np.float64)
    raise ValueError(kind)


def assert_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))  # -0.0 stays -0.0


class TestStridedPoolMatchesArgmax:
    @pytest.mark.parametrize("kind", ["relu", "zeros", "constant_quads", "few_levels"])
    @pytest.mark.parametrize("shape", [(2, 3, 8, 6), (2, 3, 9, 7), (1, 2, 5, 10), (3, 1, 2, 3), (2, 2, 65, 29)])
    def test_outputs_and_gradients_identical(self, kind, shape):
        rng = np.random.default_rng(sum(shape))
        x = pool_inputs(kind, shape, rng)
        out, cache = _pool_forward(x)
        ref_out, ref_cache = oracle_pool_forward(x)
        assert_identical(out, ref_out)
        assert cache[0].dtype == np.int8
        np.testing.assert_array_equal(cache[0].ravel(), ref_cache[0])
        dout = rng.standard_normal(out.shape)
        dout[rng.random(out.shape) < 0.3] = -0.0  # as dropout leaves behind
        assert_identical(_pool_backward(dout, cache), oracle_pool_backward(dout, ref_cache))

    def test_all_zero_quads_route_to_the_first_corner(self):
        x = np.zeros((1, 1, 3, 3))
        _, cache = _pool_forward(x)
        dx = _pool_backward(np.ones((1, 1, 1, 1)), cache)
        expected = np.zeros((1, 1, 3, 3))
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(dx, expected)
