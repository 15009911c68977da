"""Per-layer reference forms of the twin network's convolution and pooling.

The network runs each conv -> bias -> ReLU -> 2x2 pool as one fused block
(siamese._conv_block and _conv_block_backward). These unfused layers are
built from the same kernels (siamese._unfolded, _fft_chunks, _pool_into and
the rest) and are what the block, the direct/FFT crossover and the shared
stage-1 training step are tested against; scripts/bench_layers.py times them.

Valid cross-correlation runs directly when the fan-in C_in * k * k is at most
siamese.DIRECT_CONV_MAX_FAN_IN and through the FFT above it, as in the
network. A conv cache is the input (direct) or the input spectrum with the
input size and the FFT plane (FFT); a pool cache is each quad's int8 winner
and the input shape.
"""

import numpy as np
from scipy import fft as sp_fft

from specsiam import siamese as S


def _conv_forward(x, w, bias):
    """Returns the conv output plus the cache its backward pass needs."""
    if S._is_direct(w):
        out, cache = _direct_forward(x, w), x
    else:
        out, cache = _fft_forward(x, w)
    out += bias[None, :, None, None]
    return out, cache


def _conv_dw(cache, dout, w):
    k = w.shape[2]
    return _direct_dw(cache, dout, k) if S._is_direct(w) else _fft_dw(cache, dout, k)


def _conv_dx(dout, w, x_shape):
    return (_direct_dx if S._is_direct(w) else _fft_dx)(dout, w, x_shape)


def _direct_forward(x, w):
    b = x.shape[0]
    n_out, _, k, _ = w.shape
    ho, wo = x.shape[2] - k + 1, x.shape[3] - k + 1
    w2 = w.reshape(n_out, -1)
    out = np.empty((b, n_out, ho * wo))
    for part, cols in S._unfolded(x, k):
        np.matmul(w2, cols, out=out[part])
    return out.reshape(b, n_out, ho, wo)


def _direct_dw(x, dout, k):
    b, n_out = dout.shape[:2]
    d3 = dout.reshape(b, n_out, -1)
    dw = 0.0
    for part, cols in S._unfolded(x, k):
        dw = dw + np.matmul(d3[part], cols.transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(n_out, x.shape[1], k, k)


def _direct_dx(dout, w, x_shape):
    b, c, h, wd = x_shape
    n_out, _, k, _ = w.shape
    ho, wo = h - k + 1, wd - k + 1
    w2t = w.reshape(n_out, -1).T
    d3 = dout.reshape(b, n_out, ho * wo)
    dx = np.zeros(x_shape)
    step = S._unfold_step(c, k, ho, wo)
    buf = np.empty((min(step, b), c * k * k, ho * wo))
    for lo in range(0, b, step):
        part = d3[lo : lo + step]
        S._add_windows(dx[lo : lo + step], np.matmul(w2t, part, out=buf[: part.shape[0]]), k)
    return dx


def _fft_forward(x, w):
    """Returns the conv output plus the cached input spectrum for backward."""
    ((_, xf, out),) = S._fft_chunks(x, w, x.shape[0])
    return out, (xf, x.shape[2:], S._fft_plane(*x.shape[2:]))


def _padded_rfft2(x, plane):
    ((_, xp),) = S._padded(x, plane, x.shape[0])
    return sp_fft.rfft2(xp, workers=-1)


def _fft_dw(fft_cache, dout, k):
    xf, _, plane = fft_cache
    dwf = S._fft_dw_planes(_padded_rfft2(dout, plane), xf)
    return sp_fft.irfft2(dwf, s=plane, workers=-1)[:, :, :k, :k]


def _fft_dx(dout, w, x_shape):
    plane = S._fft_plane(*x_shape[2:])
    wf = sp_fft.rfft2(w, s=plane, workers=-1)
    return S._fft_dx_planes(_padded_rfft2(dout, plane), wf, plane, x_shape[2:])


def _pool_forward(x):
    """2x2 max pooling; the cache holds each quad's winner as an int8 in 0..3."""
    out = np.empty((*x.shape[:2], x.shape[2] // 2, x.shape[3] // 2))
    idx = np.empty(out.shape, dtype=np.int8)
    S._pool_into(x, out, idx)
    return out, (idx, x.shape)


def _pool_backward(dout, cache):
    """Scatters each quad's gradient to its winner; every other entry is 0."""
    idx, x_shape = cache
    dx = np.empty(x_shape)
    S._unpool_into(dx, dout, idx)
    return dx
