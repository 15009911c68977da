"""The fused conv -> bias -> ReLU -> pool block against the layer oracles.

The block runs a few images at a time and never builds the full conv output
or its gradient. Its output, winners and positive mask must equal, bit for
bit, the layer-by-layer forward it replaced, and so must its gradients,
except the FFT path's dW, whose sum over the batch runs chunk by chunk and
must match to 1e-12 relative. This holds for both convolution paths, with
and without pooling, and for batches that do not split evenly into chunks.
"""

import os
import tracemalloc

import numpy as np
import pytest

from oracles import _conv_dw, _conv_dx, _conv_forward, _pool_backward, _pool_forward
from specsiam import siamese
from specsiam.siamese import _conv_block, _conv_block_backward, _fft_step, _is_direct, _padded


def oracle_block(x, w, bias, pool):
    z, conv_cache = _conv_forward(x, w, bias)
    r = np.maximum(z, 0.0)
    p, pool_cache = _pool_forward(r) if pool else (r, None)
    return p, (z, conv_cache, pool_cache)


def oracle_block_backward(dp, cache, w, x_shape):
    z, conv_cache, pool_cache = cache
    dr = _pool_backward(dp, pool_cache) if pool_cache is not None else dp
    dz = dr * (z > 0)
    return _conv_dw(conv_cache, dz, w), dz.sum(axis=(0, 2, 3)), _conv_dx(dz, w, x_shape)


def block_case(b, c_in, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, c_in, 2 * k + 9, k + 8))
    w = rng.standard_normal((3, c_in, k, k))
    bias = rng.standard_normal(3) * 0.1
    return x, w, bias, rng


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


# (C_in, k): direct at fan-in 9 and 36, FFT at 121 and 288
PATHS = [(1, 3), (4, 3), (1, 11), (2, 12)]


@pytest.mark.parametrize("chunk_bytes", [1, siamese.UNFOLD_CHUNK_BYTES], ids=["tiny-chunks", "default"])
@pytest.mark.parametrize("pool", [True, False], ids=["max2x2", "none"])
@pytest.mark.parametrize("b", [1, 2, 5, 7])
@pytest.mark.parametrize("c_in, k", PATHS)
def test_block_matches_layer_oracles(c_in, k, b, pool, chunk_bytes, monkeypatch):
    monkeypatch.setattr(siamese, "UNFOLD_CHUNK_BYTES", chunk_bytes)
    x, w, bias, rng = block_case(b, c_in, k, seed=10 * k + b)
    p, cache = _conv_block(x, w, bias, pool)
    ref_p, ref_cache = oracle_block(x, w, bias, pool)
    assert np.array_equal(p, ref_p)
    saved, idx, active, x_shape = cache
    assert x_shape == x.shape
    np.testing.assert_array_equal(active, ref_p > 0)
    if pool:
        np.testing.assert_array_equal(idx, ref_cache[2][0])
    else:
        assert idx is None
    if _is_direct(w):
        assert saved is x
    else:
        assert sum(xf.shape[0] for _, xf in saved) == b

    dp = rng.standard_normal(p.shape)
    dw, db, dx = _conv_block_backward(dp, cache, w, need_dx=True)
    ref_dw, ref_db, ref_dx = oracle_block_backward(dp, ref_cache, w, x.shape)
    np.testing.assert_array_equal(db, ref_db)
    np.testing.assert_array_equal(dx, ref_dx)
    if _is_direct(w):  # the oracle contracts the same unfold chunks
        np.testing.assert_array_equal(dw, ref_dw)
    else:  # the batch contraction is summed chunk by chunk
        assert rel_err(dw, ref_dw) <= 1e-12
    dw_only, db_only, no_dx = _conv_block_backward(dp, cache, w, need_dx=False)
    assert no_dx is None
    np.testing.assert_array_equal(dw_only, dw)
    np.testing.assert_array_equal(db_only, db)


def test_fft_threads_are_the_cpus_the_process_may_run_on():
    assert siamese._fft_workers() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("chunk_bytes", [1, siamese.UNFOLD_CHUNK_BYTES], ids=["tiny-chunks", "default"])
@pytest.mark.parametrize("c_in, k", [(2, 12), (8, 5)], ids=["conv1-like", "conv2-like"])
def test_fft_blocks_are_bit_identical_on_one_and_two_threads(c_in, k, chunk_bytes, monkeypatch):
    monkeypatch.setattr(siamese, "UNFOLD_CHUNK_BYTES", chunk_bytes)
    x, w, bias, _ = block_case(5, c_in, k, seed=7)
    assert not _is_direct(w)
    runs = []
    for workers in (1, 2):
        asked = []
        monkeypatch.setattr(siamese, "_fft_workers", lambda: asked.append(workers) or workers)
        p, cache = _conv_block(x, w, bias, True)
        dp = np.random.default_rng(8).standard_normal(p.shape)
        runs.append((p, *_conv_block_backward(dp, cache, w, need_dx=True)))
        assert asked  # the blocks take their thread count from the helper
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("b", range(1, 12))
@pytest.mark.parametrize("step", [2, 3, 5])
def test_fft_chunks_cover_the_batch_without_single_images(b, step):
    x = np.arange(b * 2 * 3 * 4, dtype=float).reshape(b, 2, 3, 4)
    seen = []
    for part, xp in _padded(x, (4, 6), step):
        assert xp.shape == (part.stop - part.start, 2, 4, 6)
        assert xp.shape[0] >= min(b, step)
        np.testing.assert_array_equal(xp[:, :, :3, :4], x[part])
        assert not xp[:, :, 3:].any() and not xp[:, :, :, 4:].any()
        seen.extend(range(part.start, part.stop))
    assert seen == list(range(b))
    assert _fft_step(10**6, (100, 100)) == 2


@pytest.mark.parametrize("c_in, k", [(1, 5), (1, 12)], ids=["direct", "fft"])
def test_memory_beyond_inputs_and_outputs_is_bounded_by_the_chunk(c_in, k):
    """Beyond what the block keeps or returns, forward and backward allocate a
    few chunks' worth, well under the full conv output of 96 images."""
    rng = np.random.default_rng(3)
    x = rng.random((96, c_in, 129, 59))
    w = rng.standard_normal((8, c_in, k, k))
    dp = rng.standard_normal((96, 8, (129 - k + 1) // 2, (59 - k + 1) // 2))
    bound = 8 * siamese.UNFOLD_CHUNK_BYTES
    assert 8 * 96 * 8 * (129 - k + 1) * (59 - k + 1) > 4 * bound
    tracemalloc.start()
    try:
        p, cache = _conv_block(x, w, np.zeros(8), True)
        saved, idx, active, _ = cache
        kept = p.nbytes + idx.nbytes + active.nbytes
        kept += 0 if saved is x else sum(xf.nbytes for _, xf in saved)
        assert tracemalloc.get_traced_memory()[1] - kept < bound
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        _conv_block_backward(dp, cache, w, need_dx=False)
        assert tracemalloc.get_traced_memory()[1] - start < bound
    finally:
        tracemalloc.stop()
