"""Siamese convolutional network over spectral images.

One base network (two valid convolutions with ReLU, optional 2x2 max pooling,
inverted dropout, then a softmax fully connected head) is shared by both
twins; training minimizes a cosine-distance contrastive loss over same-channel
pairs with L1 kernel regularization, using hand-written reverse-mode gradients
and Adam. Feature vectors live on the probability simplex, so the cosine
distance between twin outputs stays in [0, 1].

Each convolution runs either directly (im2col unfolding and one matmul) or in
the Fourier domain, chosen per layer from its fan-in C_in * k * k: direct up
to DIRECT_CONV_MAX_FAN_IN = 100, FFT above, following the measured crossover
described above the layer primitives. The FFT-path functions import scipy.fft
themselves, so a process whose convolutions all run direct never loads it.
Max pooling compares four strided views.
The network runs each conv -> bias -> ReLU -> 2x2 pool as one fused block, a
chunk of about UNFOLD_CHUNK_BYTES of images at a time, forward and backward,
so neither the full-size conv output nor its gradient is ever built; the
per-layer forms the blocks are tested against live in tests/oracles.py.

A pair batch is run around its distinct (subject, channel) images. Stage 1
(conv1 -> ReLU -> pool) comes before the first dropout mask, so it gives the
same result for every copy of an image: a training step runs it once per
distinct image and sums both twins' gradients at each image's rows before
its single backward pass. Stage 2 (mask 1 -> conv2 -> ReLU -> pool -> mask 2
-> fc -> softmax) runs per twin on the gathered rows, since each twin draws
its own masks. Eval-mode pair scoring forwards each distinct image once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classify import LabeledFeatures
from .errors import DataError, NumericalError
from .pairing import PairBatch, batch_iter
from .signals import Dataset, Label
from .spectral import SpectralImage, StftConfig, config_from_dict, config_to_dict

__all__ = [
    "NetConfig",
    "SiameseModel",
    "init_model",
    "fitting_kernel_sizes",
    "base_forward",
    "cosine_distance",
    "contrastive_loss",
    "batch_loss",
    "gradient",
    "sample_dropout_masks",
    "train",
    "extract_features",
    "pair_accuracy",
    "save_checkpoint",
    "load_checkpoint",
]

KERNEL_SIZES = tuple(range(3, 13))
OUTPUT_DIMS = (2, 4, 6, 8, 10, 12, 14)
POOLINGS = ("none", "max2x2")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetConfig:
    """Architecture and training knobs of the base network.

    kernel_size and output_dim are restricted to the architecture grid; the
    remaining rates accept any physical value (their search domains live in
    the tuning search space, which also covers the spectral upper_value).
    """

    kernel_size: int = 5
    conv1_filters: int = 8
    conv2_filters: int = 16
    output_dim: int = 8
    l1_lambda: float = 1e-2
    margin: float = 1.0
    learning_rate: float = 1e-4
    dropout_p: float = 0.5
    epochs: int = 20
    pooling: str = field(default="max2x2", metadata={"choices": POOLINGS})
    seed: int = 0

    def __post_init__(self):
        if self.kernel_size not in KERNEL_SIZES:
            raise DataError(f"kernel_size must be in {KERNEL_SIZES}, got {self.kernel_size}")
        if self.output_dim not in OUTPUT_DIMS:
            raise DataError(f"output_dim must be in {OUTPUT_DIMS}, got {self.output_dim}")
        if self.conv1_filters < 1 or self.conv2_filters < 1:
            raise DataError("filter counts must be >= 1")
        if self.l1_lambda < 0:
            raise DataError("l1_lambda must be non-negative")
        if self.margin <= 0:
            raise DataError("margin must be positive")
        if self.learning_rate < 0:
            raise DataError("learning_rate must be non-negative")
        if not (0.0 <= self.dropout_p < 1.0):
            raise DataError("dropout_p must lie in [0, 1)")
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if self.pooling not in POOLINGS:
            raise DataError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")


@dataclass(frozen=True)
class _ShapePlan:
    conv1_out: tuple[int, int]
    pool1_out: tuple[int, int]
    conv2_out: tuple[int, int]
    pool2_out: tuple[int, int]
    flat_dim: int


def _plan_shapes(config: NetConfig, input_shape: tuple[int, int]) -> _ShapePlan:
    k = config.kernel_size
    pool = config.pooling == "max2x2"

    def conv(h, w):
        return h - k + 1, w - k + 1

    def pooled(h, w):
        return (h // 2, w // 2) if pool else (h, w)

    h, w = input_shape
    c1 = conv(h, w)
    p1 = pooled(*c1)
    c2 = conv(*p1)
    p2 = pooled(*c2)
    for name, (hh, ww) in (("conv1", c1), ("pool1", p1), ("conv2", c2), ("pool2", p2)):
        if hh < 1 or ww < 1:
            raise DataError(
                f"{name} output {hh}x{ww} collapses for {input_shape} input with "
                f"kernel {k} and pooling={config.pooling!r}"
            )
    return _ShapePlan(c1, p1, c2, p2, config.conv2_filters * p2[0] * p2[1])


def fitting_kernel_sizes(config: NetConfig, input_shape: tuple[int, int]) -> tuple[int, ...]:
    """The kernel sizes whose shape plan, with config's pooling, does not
    collapse on input_shape."""
    fits = []
    for k in KERNEL_SIZES:
        try:
            _plan_shapes(replace(config, kernel_size=k), input_shape)
        except DataError:
            continue
        fits.append(k)
    return tuple(fits)


@dataclass
class SiameseModel:
    """Base-network parameters shared by both twins, plus the dropout rng."""

    config: NetConfig
    input_shape: tuple[int, int]
    conv1_w: np.ndarray  # (C1, 1, k, k)
    conv1_b: np.ndarray  # (C1,)
    conv2_w: np.ndarray  # (C2, C1, k, k)
    conv2_b: np.ndarray  # (C2,)
    fc_w: np.ndarray     # (q, flat_dim)
    fc_b: np.ndarray     # (q,)
    rng: np.random.Generator

    def params(self) -> dict[str, np.ndarray]:
        return {
            "conv1_w": self.conv1_w,
            "conv1_b": self.conv1_b,
            "conv2_w": self.conv2_w,
            "conv2_b": self.conv2_b,
            "fc_w": self.fc_w,
            "fc_b": self.fc_b,
        }

    @property
    def shapes(self) -> _ShapePlan:
        return _plan_shapes(self.config, self.input_shape)


def init_model(config: NetConfig, input_shape: tuple[int, int]) -> SiameseModel:
    """He-initialized convolutions, Glorot fully connected layer, zero biases."""
    plan = _plan_shapes(config, input_shape)
    shapes = _param_shapes(config, plan)
    k = config.kernel_size
    c1, q = config.conv1_filters, config.output_dim
    rng = np.random.default_rng(config.seed)
    conv1_w = rng.normal(0.0, math.sqrt(2.0 / (k * k)), shapes["conv1_w"])
    conv2_w = rng.normal(0.0, math.sqrt(2.0 / (c1 * k * k)), shapes["conv2_w"])
    fc_w = rng.normal(0.0, math.sqrt(2.0 / (plan.flat_dim + q)), shapes["fc_w"])
    return SiameseModel(
        config=config,
        input_shape=tuple(input_shape),
        conv1_w=conv1_w,
        conv1_b=np.zeros(shapes["conv1_b"]),
        conv2_w=conv2_w,
        conv2_b=np.zeros(shapes["conv2_b"]),
        fc_w=fc_w,
        fc_b=np.zeros(shapes["fc_b"]),
        rng=rng,
    )


def _param_shapes(config: NetConfig, plan: _ShapePlan) -> dict[str, tuple[int, ...]]:
    k = config.kernel_size
    c1, c2, q = config.conv1_filters, config.conv2_filters, config.output_dim
    return {
        "conv1_w": (c1, 1, k, k),
        "conv1_b": (c1,),
        "conv2_w": (c2, c1, k, k),
        "conv2_b": (c2,),
        "fc_w": (q, plan.flat_dim),
        "fc_b": (q,),
    }


# ---------------------------------------------------------------------------
# layer primitives (batched over axis 0)

# Valid cross-correlation has two implementations, and each layer takes the one
# that is faster for its own shape: direct when its fan-in C_in * k * k is at
# most DIRECT_CONV_MAX_FAN_IN, FFT above. Measured on one thread (forward, dW,
# dX; scripts/bench_layers.py prints the table): on 129x59 images, 96 per
# batch, filters 8/16, direct is 3-10x faster for conv1 at k=3 and k=5
# (fan-in 9, 25) and 1.5-3.5x for conv2 at k=3 (72), while FFT is faster for
# conv2 at k=5 (200) by 10-20% over the three ops and for conv2 at k=12
# (1152) by 3-7x; conv1 at k=12 (144) is within noise of a tie. On 65x29
# images (32 per batch, filters 4/8) direct is 1.5-12x faster at fan-in 9 and
# 36 and about even at 100. The two paths agree to ~1e-13 absolute.
#
# Direct ("unfolding", Chellapilla et al. 2006): the k*k shifted windows of a
# few images at a time are copied into one (n, C_in*k*k, Ho*Wo) array and
# contracted with w.reshape(C_out, -1) in one batched matmul; dW contracts the
# same windows with dout, and dX multiplies dout by the transposed weights and
# adds the k*k window gradients back at their shifts. The backward pass
# re-unfolds the cached input rather than keeping the unfolded array, so
# memory stays at the size of the input.
#
# FFT (Mathieu, Henaff & LeCun 2014): planes are zero-padded to fast composite
# sizes (ph, pw) >= (H, W). The circular results are then alias-free: the first
# Ho x Wo block of ifft(X * conj(Wf)) is the valid correlation, the first
# k x k block of ifft(X * conj(Df)) is the kernel gradient, and the first
# H x W block of ifft(Df * Wf) is the input gradient (the linear full
# convolution spans exactly Ho + k - 1 = H rows). Inputs are padded into a
# reused buffer rather than by scipy (which copies each input to pad it), and
# outputs are cropped as views.
#
# Fused blocks (_conv_block, _conv_block_backward): the network runs no
# separate conv or pool layer (tests/oracles.py builds those from the same
# kernels, as the blocks' references). Per chunk of images (an unfold chunk on
# the direct path, a batch chunk of about the same size on the FFT path),
# forward runs conv -> bias -> ReLU -> 2x2 pool and keeps only the pooled
# output, the int8 winner of each quad and the positive mask; the FFT path also
# keeps the chunk's input spectrum. Backward walks the same chunks: it scatters
# the pooled gradient into one reused chunk-sized dz buffer and contracts it
# into dW and, for conv2, dX; on the FFT path one rfft2 of dz serves both. This
# is the producer-consumer fusion and tiling of Halide (Ragan-Kelley et al.
# 2013) and the blocking of Georganas et al. (2018). At the paper batch (256
# pairs over 432 images of 129x59) it cut the traced peak of one training step
# from 0.42-0.72 GB to about 0.2 GB, with losses bit-identical.

DIRECT_CONV_MAX_FAN_IN = 100
# The direct path unfolds a few images at a time so that their windows stay in
# cache: on 129x59 images this made the direct ops up to 3x faster than
# unfolding the whole batch at once. The fused blocks chunk both paths by it.
UNFOLD_CHUNK_BYTES = 1 << 20


def _is_direct(w) -> bool:
    _, c_in, k, _ = w.shape
    return c_in * k * k <= DIRECT_CONV_MAX_FAN_IN


def _add_windows(dx, dcols, k):
    """col2im: adds the (n, C*k*k, Ho*Wo) window gradients back into dx at their k*k shifts."""
    n, c, h, wd = dx.shape
    ho, wo = h - k + 1, wd - k + 1
    dcols = dcols.reshape(n, c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + ho, j : j + wo] += dcols[:, :, i, j]


def _unfold_step(c, k, ho, wo) -> int:
    """Images per chunk so that one chunk's windows fill about UNFOLD_CHUNK_BYTES."""
    return max(1, UNFOLD_CHUNK_BYTES // (8 * c * k * k * ho * wo))


def _unfolded(x, k):
    """Yields (batch slice, (n, C_in*k*k, Ho*Wo) windows) chunk by chunk.

    The chunks reuse one buffer, so each yielded array is valid only until
    the next one.
    """
    b, c, h, wd = x.shape
    ho, wo = h - k + 1, wd - k + 1
    step = _unfold_step(c, k, ho, wo)
    buf = np.empty((min(step, b), c, k, k, ho, wo))
    for lo in range(0, b, step):
        part = x[lo : lo + step]
        cols = buf[: part.shape[0]]
        for i in range(k):
            for j in range(k):
                cols[:, :, i, j] = part[:, :, i : i + ho, j : j + wo]
        yield slice(lo, lo + step), cols.reshape(part.shape[0], c * k * k, ho * wo)


def _fft_workers() -> int:
    """Threads for scipy.fft: the CPUs this process may run on. workers=-1
    would take os.cpu_count(), which counts CPUs outside the affinity mask;
    pocketfft splits independent transforms, so no result depends on it."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fft_plane(h: int, wd: int) -> tuple[int, int]:
    from scipy import fft as sp_fft

    return sp_fft.next_fast_len(h), sp_fft.next_fast_len(wd)


def _fft_step(c, plane) -> int:
    """Images per FFT chunk (at least 2) so that one chunk's padded planes of
    c channels fill about UNFOLD_CHUNK_BYTES."""
    return max(2, UNFOLD_CHUNK_BYTES // (8 * c * plane[0] * plane[1]))


def _padded(x, plane, step):
    """Yields (batch slice, chunk of x zero-padded to plane) for b // step
    near-equal chunks of the batch (one if b < step), from one reused buffer
    whose padding stays zero; each array is valid only until the next.

    With step >= 2 no chunk of a larger batch holds a single image: numpy's
    matmul hands one-row matrices to BLAS, whose sums round differently from
    its own loop, so such a chunk would change the bits of _plane_matmul.
    """
    b, c, h, wd = x.shape
    n_chunks = max(1, b // step)
    buf = np.zeros((-(-b // n_chunks), c, *plane))
    for i in range(n_chunks):
        part = slice(i * b // n_chunks, (i + 1) * b // n_chunks)
        n = part.stop - part.start
        buf[:n, :, :h, :wd] = x[part]
        yield part, buf[:n]


def _plane_matmul(a, b):
    """Per-frequency-plane matrix product: (B,M,h,w) x (O,M,h,w) -> (B,O,h,w)."""
    stacked = np.matmul(a.transpose(2, 3, 0, 1), b.transpose(2, 3, 1, 0))
    return stacked.transpose(2, 3, 0, 1)


def _fft_chunks(x, w, step):
    """Yields (batch slice, input spectrum, conv output without bias) step
    images at a time; the output is a crop view of the chunk's inverse
    transform."""
    from scipy import fft as sp_fft

    h, wd = x.shape[2:]
    k = w.shape[2]
    plane = _fft_plane(h, wd)
    workers = _fft_workers()
    wfc = sp_fft.rfft2(w, s=plane, workers=workers).conj()
    for part, xp in _padded(x, plane, step):
        xf = sp_fft.rfft2(xp, workers=workers)
        out = sp_fft.irfft2(_plane_matmul(xf, wfc), s=plane, workers=workers)
        yield part, xf, out[:, :, : h - k + 1, : wd - k + 1]


def _fft_dw_planes(df, xf):
    """dwf[o, c] = sum_b conj(df)[b, o] * xf[b, c]: contracts the batch axis."""
    return _plane_matmul(df.conj().transpose(1, 0, 2, 3), xf.transpose(1, 0, 2, 3))


def _fft_dx_planes(df, wf, plane, x_hw):
    """The input gradient from the output-gradient and weight spectra."""
    from scipy import fft as sp_fft

    dx = sp_fft.irfft2(_plane_matmul(df, wf.transpose(1, 0, 2, 3)), s=plane, workers=_fft_workers())
    return dx[:, :, : x_hw[0], : x_hw[1]]


def _pool_quads(x):
    """The four corners of every 2x2 quad as strided views, in row-major order.

    An odd last row or column belongs to no quad and is left out.
    """
    h2, w2 = x.shape[2] // 2, x.shape[3] // 2
    return [x[:, :, i : 2 * h2 : 2, j : 2 * w2 : 2] for i in (0, 1) for j in (0, 1)]


def _pool_into(x, out, idx):
    """Writes the 2x2 max pooling of x to out and each quad's winner to idx.

    Ties go to the first corner in row-major order, as argmax breaks them:
    ReLU leaves many all-zero quads, and the winner decides where backward
    routes the gradient.
    """
    a, b, c, d = _pool_quads(x)
    top = np.maximum(a, b)
    bottom = np.maximum(c, d)
    np.maximum(top, bottom, out=out)
    # winner = 2 * (bottom row wins) + (right corner wins within that row)
    right_top = (b > a).view(np.int8)
    right_bottom = (d > c).view(np.int8)
    lower = (bottom > top).view(np.int8)
    np.multiply(lower, np.int8(2) + right_bottom - right_top, out=idx)
    idx += right_top


def _unpool_into(dx, dout, idx):
    """Writes each quad's gradient to its winner in the C-contiguous dx and 0
    everywhere else."""
    b, c, h, w = dx.shape
    h2, w2 = idx.shape[2:]
    dx.fill(0.0)
    # flat index of each quad's first corner, built at the pooled size
    first_corner = (
        (np.arange(b * c) * (h * w)).reshape(b, c, 1, 1)
        + (np.arange(h2) * (2 * w))[:, None]
        + np.arange(w2) * 2
    )
    dx.ravel()[first_corner + np.array([0, 1, w, w + 1])[idx]] = dout


def _softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _conv_block(x, w, bias, pool: bool):
    """conv -> bias -> ReLU -> optional 2x2 max pool, plus the cache of its
    backward pass, run a chunk of images at a time.

    Each chunk's conv output lives only in a chunk-sized buffer (direct) or
    the chunk's inverse transform (FFT), and is pooled in place, so the full
    conv output never exists. The cache keeps the input (direct) or each
    chunk's input spectrum (FFT), each quad's int8 winner, and which outputs
    are positive instead of the conv output: a pooled output is positive
    exactly when the conv output at its winner is, so masking the output
    gradient with it and then scattering gives the same values as scattering
    and then masking with conv output > 0.
    """
    b, c_in, h, wd = x.shape
    n_out, _, k, _ = w.shape
    ho, wo = h - k + 1, wd - k + 1
    p = np.empty((b, n_out, ho // 2, wo // 2) if pool else (b, n_out, ho, wo))
    idx = np.empty(p.shape, dtype=np.int8) if pool else None
    bias = bias[:, None, None]

    def finish(part, z):
        z += bias
        np.maximum(z, 0.0, out=z)
        if pool:
            _pool_into(z, p[part], idx[part])
        else:
            p[part] = z

    if _is_direct(w):
        w2 = w.reshape(n_out, -1)
        buf = np.empty((min(_unfold_step(c_in, k, ho, wo), b), n_out, ho * wo))
        for part, cols in _unfolded(x, k):
            z = np.matmul(w2, cols, out=buf[: cols.shape[0]])
            finish(part, z.reshape(-1, n_out, ho, wo))
        saved = x
    else:
        saved = []
        for part, xf, z in _fft_chunks(x, w, _fft_step(max(c_in, n_out), _fft_plane(h, wd))):
            finish(part, z)
            saved.append((part, xf))
    return p, (saved, idx, p > 0, x.shape)


def _conv_block_backward(dp, cache, w, need_dx: bool):
    """(dW, db, dX or None) of a block from dLoss/d(block output).

    Runs over the forward pass's chunks: each chunk's conv-output gradient is
    scattered from the pooled gradient into one reused chunk-sized buffer
    (zero-padded to the FFT plane on the FFT path, whose spectrum then serves
    both dW and dX), then contracted into dW and, with need_dx, dX.
    """
    saved, idx, active, x_shape = cache
    b, c_in, h, wd = x_shape
    n_out, _, k, _ = w.shape
    ho, wo = h - k + 1, wd - k + 1
    dx = np.zeros(x_shape) if need_dx else None
    direct = _is_direct(w)
    if direct:
        w2t = w.reshape(n_out, -1).T
        chunks = _unfolded(saved, k)
        step = min(_unfold_step(c_in, k, ho, wo), b)
    else:
        from scipy import fft as sp_fft

        plane = _fft_plane(h, wd)
        workers = _fft_workers()
        wf = sp_fft.rfft2(w, s=plane, workers=workers)
        chunks = saved
        step = max(xf.shape[0] for _, xf in saved)
        padded = np.zeros((step, n_out, *plane))
    buf = np.empty((step, n_out, ho, wo)) if idx is not None else None
    grad = 0.0
    image_sums = np.empty((b, n_out))
    for part, piece in chunks:  # unfolded windows (direct) or input spectrum (FFT)
        n = piece.shape[0]
        dz = dp[part] * active[part]
        if idx is not None:
            dz, dpa = buf[:n], dz
            _unpool_into(dz, dpa, idx[part])
        dz.sum(axis=(2, 3), out=image_sums[part])
        if direct:
            d3 = dz.reshape(n, n_out, ho * wo)
            grad = grad + np.matmul(d3, piece.transpose(0, 2, 1)).sum(axis=0)
            if need_dx:  # the windows are spent, so their buffer takes the window gradients
                _add_windows(dx[part], np.matmul(w2t, d3, out=piece), k)
        else:
            padded[:n, :, :ho, :wo] = dz
            df = sp_fft.rfft2(padded[:n], workers=workers)
            grad = grad + _fft_dw_planes(df, piece)
            if need_dx:
                dx[part] = _fft_dx_planes(df, wf, plane, (h, wd))
    if direct:
        dw = grad.reshape(w.shape)
    else:
        dw = sp_fft.irfft2(grad, s=plane, workers=workers)[:, :, :k, :k]
    # summed image after image, as numpy sums a whole dz over (0, 2, 3)
    return dw, image_sums.sum(axis=0), dx


def _stage1_forward(model: SiameseModel, x: np.ndarray):
    """conv1 -> ReLU -> pool on a (N, H, W) stack of distinct images.

    This is everything before the first dropout mask, so it is the same for
    every copy of an image and runs once per image.
    """
    pool = model.config.pooling == "max2x2"
    return _conv_block(x[:, None, :, :], model.conv1_w, model.conv1_b, pool)


def _stage1_backward(model: SiameseModel, dp1: np.ndarray, cache):
    """conv1 gradients given dLoss/d(pooled stage-1 output), summed over the twins."""
    dw, db, _ = _conv_block_backward(dp1, cache, model.conv1_w, need_dx=False)
    return {"conv1_w": dw, "conv1_b": db}


def _stage2_forward(model: SiameseModel, p1: np.ndarray, masks):
    """One twin from its rows of stage-1 output: mask 1 -> conv2 -> ReLU -> pool
    -> mask 2 -> fc -> softmax; masks is (m1, m2) or None for eval. Mask 1 is
    applied in place, so p1 must be an array of the caller's own."""
    cfg = model.config
    keep = 1.0 - cfg.dropout_p
    if masks is not None:
        p1 *= masks[0]
        p1 /= keep
    p2, block2 = _conv_block(p1, model.conv2_w, model.conv2_b, cfg.pooling == "max2x2")
    a2 = p2 * masks[1] / keep if masks is not None else p2
    flat = a2.reshape(a2.shape[0], -1)
    zf = flat @ model.fc_w.T + model.fc_b
    f = _softmax_rows(zf)
    return f, (block2, flat, f, masks)


def _stage2_backward(model: SiameseModel, df: np.ndarray, cache):
    """conv2 and fc gradients of one twin, plus dLoss/d(its stage-1 rows)."""
    keep = 1.0 - model.config.dropout_p
    block2, flat, f, masks = cache
    dzf = f * (df - (f * df).sum(axis=1, keepdims=True))
    g_fc_w = dzf.T @ flat
    g_fc_b = dzf.sum(axis=0)
    da2 = (dzf @ model.fc_w).reshape(block2[2].shape)
    dp2 = da2 * masks[1] / keep if masks is not None else da2
    g_conv2_w, g_conv2_b, da1 = _conv_block_backward(dp2, block2, model.conv2_w, need_dx=True)
    grads = {"conv2_w": g_conv2_w, "conv2_b": g_conv2_b, "fc_w": g_fc_w, "fc_b": g_fc_b}
    if masks is not None:
        da1 *= masks[0]
        da1 /= keep
    return grads, da1


def _forward_base(model: SiameseModel, x: np.ndarray) -> np.ndarray:
    """Eval-mode features of a (N, H, W) stack, one row per image (each image its own twin row)."""
    p1, _ = _stage1_forward(model, x)
    f, _ = _stage2_forward(model, p1, None)
    return f


# ---------------------------------------------------------------------------
# distance and loss

def cosine_distance(f1, f2) -> float:
    """1 minus cosine similarity; in [0, 1] for simplex vectors."""
    fa, fb = (np.asarray(f, dtype=np.float64)[None] for f in (f1, f2))
    return float(_pair_distances(fa, fb)[0])


def contrastive_loss(y: int, d: float, m: float) -> float:
    """Neighbor pairs pay d^2; non-neighbors pay max(0, m - d)^2."""
    return float(_pair_losses(np.array([y], dtype=np.float64), np.array([d], dtype=np.float64), m)[0])


def _pair_distances(fa, fb):
    """Cosine distance of each row of fa to the same row of fb."""
    na = np.linalg.norm(fa, axis=1)
    nb = np.linalg.norm(fb, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise DataError("cosine distance undefined for a zero vector")
    return 1.0 - (fa * fb).sum(axis=1) / (na * nb)


def _pair_losses(y, d, margin):
    """Contrastive loss of each pair of neighbor labels y and distances d."""
    gap = np.maximum(0.0, margin - d)
    return y * d * d + (1.0 - y) * gap * gap


def _image_array(obj) -> np.ndarray:
    if isinstance(obj, SpectralImage):
        return obj.magnitudes
    return np.asarray(obj, dtype=np.float64)


def _distinct_rows(pairs):
    """Each distinct (subject, channel) of the pairs once, in order of first
    appearance (every twin a, then every twin b), and the row of each twin."""
    rows = {}
    rows_a = [rows.setdefault((p.subject_a, p.channel_index), len(rows)) for p in pairs]
    rows_b = [rows.setdefault((p.subject_b, p.channel_index), len(rows)) for p in pairs]
    return list(rows), np.array(rows_a, dtype=np.intp), np.array(rows_b, dtype=np.intp)


def _stack_images(keys, images) -> np.ndarray:
    try:
        return np.stack([_image_array(images[key]) for key in keys])
    except KeyError as exc:
        raise DataError(f"missing spectral image for pair member {exc.args[0]}") from exc


def _batch_arrays(batch: PairBatch, images):
    """(distinct images, twin-a rows, twin-b rows, labels) of a pair batch."""
    keys, rows_a, rows_b = _distinct_rows(batch.pairs)
    y = np.array([p.y for p in batch.pairs], dtype=np.float64)
    return _stack_images(keys, images), rows_a, rows_b, y


def _l1_penalty(model: SiameseModel) -> float:
    lam = model.config.l1_lambda
    if lam == 0.0:
        return 0.0
    return lam * (
        np.abs(model.conv1_w).sum() + np.abs(model.conv2_w).sum() + np.abs(model.fc_w).sum()
    )


def _loss_and_grads(model: SiameseModel, x, rows_a, rows_b, y, masks):
    """Loss and gradients of a batch given as distinct images x plus the row
    of x under each twin of each pair.

    Stage 1 (conv1 -> ReLU -> pool) comes before the first dropout mask, so
    it runs once per distinct image, and its gradient is the sum of both
    twins' gradients at each image's rows. Stage 2 runs per twin on gathered
    rows, and each twin's stage-2 arrays are freed before the other twin's
    backward pass. One 2B-row stage-2 pass over both twins was measured at
    the paper-slice batch (96 pairs of 129x59 images): 10% faster at k=3,
    12% slower at k=5, even at k=12, with 1.5-1.7x the peak allocation.
    """
    cfg = model.config
    masks_a, masks_b = (masks["a"], masks["b"]) if masks is not None else (None, None)
    p1, cache1 = _stage1_forward(model, x)
    fa, cache_a = _stage2_forward(model, p1[rows_a], masks_a)
    fb, cache_b = _stage2_forward(model, p1[rows_b], masks_b)
    del p1
    d = _pair_distances(fa, fb)
    gap = np.maximum(0.0, cfg.margin - d)
    loss = float(_pair_losses(y, d, cfg.margin).mean()) + _l1_penalty(model)

    n = d.size
    dd = (2.0 * y * d - 2.0 * (1.0 - y) * gap) / n
    na = np.linalg.norm(fa, axis=1)
    nb = np.linalg.norm(fb, axis=1)
    cos = 1.0 - d
    dfa = dd[:, None] * (cos[:, None] * fa / (na * na)[:, None] - fb / (na * nb)[:, None])
    dfb = dd[:, None] * (cos[:, None] * fb / (nb * nb)[:, None] - fa / (na * nb)[:, None])
    grads_a, dp1_a = _stage2_backward(model, dfa, cache_a)
    del cache_a
    dp1 = np.zeros((x.shape[0], *dp1_a.shape[1:]))
    _add_rows(dp1, rows_a, dp1_a)
    del dp1_a
    grads_b, dp1_b = _stage2_backward(model, dfb, cache_b)
    del cache_b
    _add_rows(dp1, rows_b, dp1_b)
    del dp1_b
    grads = _stage1_backward(model, dp1, cache1)
    grads.update({k: grads_a[k] + grads_b[k] for k in grads_a})
    lam = cfg.l1_lambda
    if lam != 0.0:
        for name in ("conv1_w", "conv2_w", "fc_w"):
            grads[name] = grads[name] + lam * np.sign(model.params()[name])
    return loss, grads


def _add_rows(total, rows, values):
    """total[rows[i]] += values[i] for every i, repeated rows accumulating.

    A loop over rows: on stage-1 gradients (60-512 rows of 1.6k-14k values)
    it was 6-11x faster than np.add.at and 1.5-7x faster than one product
    with a 0/1 selection matrix.
    """
    for i, r in enumerate(rows):
        total[r] += values[i]


def sample_dropout_masks(model: SiameseModel, n_pairs: int) -> dict:
    """Draw one set of twin dropout masks from the model rng (shapes per plan)."""
    plan = model.shapes
    cfg = model.config
    p = cfg.dropout_p
    shapes = (
        (n_pairs, cfg.conv1_filters, *plan.pool1_out),
        (n_pairs, cfg.conv2_filters, *plan.pool2_out),
    )

    def draw():
        return tuple(model.rng.random(s) >= p for s in shapes)

    return {"a": draw(), "b": draw()}


def base_forward(model: SiameseModel, image) -> np.ndarray:
    """Eval-mode (deterministic) feature vector of one image; softmax output
    on the simplex."""
    x = _image_array(image)
    if x.shape != tuple(model.input_shape):
        raise DataError(f"image shape {x.shape} does not match model input {model.input_shape}")
    f = _forward_base(model, x[None])
    if not np.isfinite(f).all():
        raise NumericalError("non-finite activation in forward pass")
    return f[0]


def batch_loss(model: SiameseModel, batch: PairBatch, images, masks=None) -> float:
    """Mean contrastive loss over the batch plus the L1 kernel penalty."""
    loss, _ = _loss_and_grads(model, *_batch_arrays(batch, images), masks)
    return loss


def gradient(model: SiameseModel, batch: PairBatch, images, masks=None) -> dict[str, np.ndarray]:
    """Analytic gradients of batch_loss for every parameter tensor.

    Pass pinned masks (from sample_dropout_masks) to differentiate the
    train-mode loss; None differentiates the deterministic eval-mode loss.
    """
    _, grads = _loss_and_grads(model, *_batch_arrays(batch, images), masks)
    return grads


# ---------------------------------------------------------------------------
# training

def train(model: SiameseModel, pairs, images):
    """Adam training over channel-grouped batches of batch_iter's default size;
    returns (model, epoch losses).

    The model is updated in place. Batch shuffling and dropout masks derive
    from config.seed and the model rng, so identical seeds reproduce identical
    parameters. Raises NumericalError naming the epoch and batch if the loss
    leaves the finite range.
    """
    if not pairs:
        raise DataError("cannot train on an empty pair list")
    cfg = model.config
    adam_m = {k: np.zeros_like(v) for k, v in model.params().items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params().items()}
    step = 0
    trace = []
    use_dropout = cfg.dropout_p > 0.0
    for epoch in range(cfg.epochs):
        shuffle_seed = np.random.SeedSequence([cfg.seed, epoch]).generate_state(1)[0]
        total_loss = 0.0
        total_pairs = 0
        for batch_index, batch in enumerate(batch_iter(pairs, shuffle_seed=shuffle_seed)):
            arrays = _batch_arrays(batch, images)
            masks = sample_dropout_masks(model, batch.n_pairs) if use_dropout else None
            loss, grads = _loss_and_grads(model, *arrays, masks)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            step += 1
            params = model.params()
            for name, g in grads.items():
                adam_m[name] = ADAM_BETA1 * adam_m[name] + (1.0 - ADAM_BETA1) * g
                adam_v[name] = ADAM_BETA2 * adam_v[name] + (1.0 - ADAM_BETA2) * g * g
                m_hat = adam_m[name] / (1.0 - ADAM_BETA1**step)
                v_hat = adam_v[name] / (1.0 - ADAM_BETA2**step)
                params[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            total_loss += loss * batch.n_pairs
            total_pairs += batch.n_pairs
        trace.append(total_loss / total_pairs)
    return model, trace


def extract_features(model: SiameseModel, dataset: Dataset, images) -> LabeledFeatures:
    """Eval-mode feature vectors for every (subject, channel) instance."""
    subject_ids = []
    channels = []
    rows = []
    labels = []
    for rec in dataset.recordings:
        stack = np.stack(
            [_image_array(images[(rec.subject_id, ch)]) for ch in range(dataset.n_channels)]
        )
        if stack.shape[1:] != tuple(model.input_shape):
            raise DataError(f"images of subject '{rec.subject_id}' are {stack.shape[1:]}; the model takes "
                            f"{tuple(model.input_shape)}")
        f = _forward_base(model, stack)
        if not np.isfinite(f).all():
            raise NumericalError(f"non-finite features for subject '{rec.subject_id}'")
        for ch in range(dataset.n_channels):
            subject_ids.append(rec.subject_id)
            channels.append(ch)
            rows.append(f[ch])
            labels.append(1 if rec.label is Label.CASE else 0)
    return LabeledFeatures(
        subject_ids=tuple(subject_ids),
        channels=tuple(channels),
        x=np.array(rows),
        y=np.array(labels, dtype=np.int64),
    )


def pair_accuracy(model: SiameseModel, pairs, images, tau: float = 0.5) -> float:
    """Fraction of pairs where thresholded distance agrees with the neighbor label.

    Raises NumericalError on a non-finite feature row: its distances are NaN,
    and NaN < tau would score every non-neighbour pair of it as correct.
    """
    if not (0.0 < tau < 1.0):
        raise DataError("tau must lie in (0, 1)")
    pairs = list(pairs)
    if not pairs:
        raise DataError("pair_accuracy of an empty pair set")
    keys, rows_a, rows_b = _distinct_rows(pairs)
    chunk = 512  # images are stacked one chunk at a time to bound memory
    features = np.concatenate([
        _forward_base(model, _stack_images(keys[lo : lo + chunk], images))
        for lo in range(0, len(keys), chunk)
    ])
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        subject, channel = keys[int(np.argmin(finite))]
        raise NumericalError(f"non-finite features for subject '{subject}' channel {channel}")
    d = _pair_distances(features[rows_a], features[rows_b])
    y = np.array([p.y for p in pairs])
    return int(((d < tau) == (y == 1)).sum()) / len(pairs)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = "specsiam-siamese"
CHECKPOINT_VERSION = 2


def save_checkpoint(model: SiameseModel, stft: StftConfig, path: str | Path) -> None:
    """Versioned JSON checkpoint: the network config, the spectral config its
    images were made with, the parameters, and the dropout rng state."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config_to_dict(model.config),
        "stft": config_to_dict(stft),
        "input_shape": list(model.input_shape),
        "params": {name: arr.tolist() for name, arr in model.params().items()},
        "rng_state": model.rng.bit_generator.state,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[SiameseModel, StftConfig]:
    """Reads a checkpoint written by save_checkpoint: (model, the spectral
    config its images were made with).

    Only version 2 is read: version 1 held no spectral config. Any defect
    (an unknown or missing field, a missing or misshaped tensor, a bad rng
    state) raises DataError naming the file and the field.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path} is not a siamese checkpoint")

    def bad(what: str) -> DataError:
        return DataError(f"checkpoint {path}: {what}")

    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise bad(f"unsupported version {version!r}; this program reads version {CHECKPOINT_VERSION}")

    def section(name: str, kind: type):
        if name not in payload:
            raise bad(f"missing field '{name}'")
        if not isinstance(payload[name], kind):
            raise bad(f"field '{name}' must be a JSON {'object' if kind is dict else 'array'}")
        return payload[name]

    raw_config = section("config", dict)
    raw_stft = section("stft", dict)
    raw_shape = section("input_shape", list)
    if len(raw_shape) != 2 or not all(type(n) is int and n > 0 for n in raw_shape):
        raise bad(f"field 'input_shape' must hold two positive integers, got {raw_shape}")
    try:
        config = config_from_dict(NetConfig, raw_config, "config")
        stft = config_from_dict(StftConfig, raw_stft, "stft")
        plan = _plan_shapes(config, tuple(raw_shape))
    except DataError as exc:
        raise bad(str(exc)) from exc

    raw_params = section("params", dict)
    shapes = _param_shapes(config, plan)
    for name in raw_params:
        if name not in shapes:
            raise bad(f"unknown parameter '{name}'")
    params = {}
    for name, shape in shapes.items():
        if name not in raw_params:
            raise bad(f"missing parameter '{name}'")
        try:
            params[name] = np.asarray(raw_params[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise bad(f"parameter '{name}' is not a numeric array") from exc
        if params[name].shape != shape:
            raise bad(f"parameter '{name}' has shape {params[name].shape}, expected {shape}")

    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = section("rng_state", dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise bad(f"field 'rng_state' is not a {type(rng.bit_generator).__name__} state") from exc
    return SiameseModel(config=config, input_shape=tuple(raw_shape), rng=rng, **params), stft
