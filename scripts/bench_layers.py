#!/usr/bin/env python3
"""Per-layer timings of the twin network's kernels and of the baseline stages.

The first table is the start-up cost of fresh processes, each figure the best
of --repeats runs of a subprocess: its wall time, the time of one statement
inside it and its peak RSS. The first row's statement is `import
specsiam.cli`, the start-up cost of every specsiam process; scipy is not in
it. The second row's is the process's first FFT-path `_conv_block` (paper
conv2 at k=5 on 2 images), which loads scipy's compiled pocketfft module. The
third row's is its first `gp_fit` plus `propose_next` (n = 9 on the SVM
search space), which load the compiled LAPACK and L-BFGS-B modules and
scipy.special. Medians over repeated calls in one process cannot see these
first-call costs. The child reads its peak from VmHWM in /proc/self/status
(Linux), which equals the ru_maxrss of a process started from a shell;
ru_maxrss of a child of this script would also count the pages it shared
with this script before it exec'd.

Times both convolution algorithms (FFT and direct) on forward, kernel
gradient (dW) and input gradient (dX) for conv1 and conv2 at two shapes:
the synthetic criterion-7 net (65x29 images, filters 4/8, k=3 and 5, 32
images) and the paper net (129x59 images, filters 8/16, k = 3, 5, 12, 96
images), plus 2x2 max pooling forward and backward on the conv outputs. Each
figure is the best of --repeats calls, in milliseconds, on one thread pinned
to one CPU. The `path` column is the algorithm the network uses for the
layer (fan-in C_in*k*k against DIRECT_CONV_MAX_FAN_IN). This layer table
times the per-layer reference forms of tests/oracles.py, which the network
never calls. The block table times what the network runs: the fused
conv -> bias -> ReLU -> 2x2 pool forward (`_conv_block`) and its backward
(`_conv_block_backward`, with dX for conv2 only) at the same shapes.

A second table times the stages behind the FFT baseline rows, best of
--repeats calls in milliseconds: one default gradient-boosting fit (50 trees
of depth 3) on a 10x301 table (the FFT features of a 10-s, 64-Hz channel) and
on a 128x8 table (twin-network features); one linear and one rbf SVM fit
(c=1, gamma=0.1) on the FFT features of 4 synthetic subjects (8x301, an
inner fold of the tuned FFT-SVM row), on those of 8+8 subjects x 16 channels
of 60 s at 128 Hz (256x1801, paper-length recordings) and on 1062x8 simplex
rows (a twin-feature LOOCV fold at paper scale); and one `gp_fit` and one
`propose_next` after n evaluations: n = 9 and 15 on the SVM search space
(d = 3; 15 is the default classifier budget of 5 + 10) and n = 55 on the
network search space (d = 6; the default network budget of 5 + 50).

A third table times one training step (loss and every gradient, dropout on)
of the default net at the paper batch shape, for k = 3, 5 and 12: 16
subject pairs over 27 distinct subjects, 16 channels, so 256 pairs of 129x59
images, 512 twin rows over 432 distinct images. It is the best of
min(--repeats, 3) steps; `peak MB` is the largest traced allocation
(tracemalloc) during one more step. The fused blocks keep that near 0.2 GB.

    python3 scripts/bench_layers.py --repeats 7
"""

import argparse
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import oracles as O  # noqa: E402
from specsiam import bayesopt, classify, evaluate, signals  # noqa: E402
from specsiam.pairing import PairBatch, PairExample  # noqa: E402
from specsiam import siamese as S  # noqa: E402

# (name, batch, image shape, conv1 filters, conv2 filters, kernel sizes)
NETS = [
    ("synth", 32, (65, 29), 4, 8, (3, 5)),
    ("paper", 96, (129, 59), 8, 16, (3, 5, 12)),
]


def best_ms(fn, *args, repeats):
    fn(*args)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


COLD_CHILD = """import time
{setup}
t0 = time.perf_counter()
{statement}
ms = 1e3 * (time.perf_counter() - t0)
print(ms, next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))"""

FFT_SETUP = """import numpy as np
from specsiam import siamese as S
rng = np.random.default_rng(0)
x, w, b = rng.random((2, 8, 62, 27)), rng.standard_normal((16, 8, 5, 5)), np.zeros(16)
assert not S._is_direct(w)"""

GP_SETUP = """import numpy as np
from specsiam import bayesopt, classify
space = classify.classifier_search_space(classify.ClassifierKind.SVM)
state = bayesopt.BoState(space=space, seed=3)
rng = np.random.default_rng(0)
for u in rng.random((9, space.n_dims)):
    raw = space.from_unit(u)
    state.unit_points.append(space.to_unit(raw))
    state.raw_configs.append(raw)
    state.values.append(float(rng.random()))"""

# (row, setup, timed statement)
COLD_ROWS = [
    ('python -c "import specsiam.cli"', "", "import specsiam.cli"),
    ("first FFT-path _conv_block, 2x8x62x27, k=5", FFT_SETUP, "S._conv_block(x, w, b, True)"),
    ("first gp_fit + propose_next, n=9, d=3", GP_SETUP,
     "bayesopt.gp_fit(np.array(state.unit_points), np.array(state.values))\nbayesopt.propose_next(state, space)"),
]


def cold_start_rows(repeats):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    print("| cold start | process wall ms | statement ms | peak RSS MB |")
    print("|---|---|---|---|")
    for row, setup, statement in COLD_ROWS:
        code = COLD_CHILD.format(setup=setup, statement=statement)
        wall, ms, rss = float("inf"), float("inf"), float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                 check=True).stdout.split()
            wall = min(wall, time.perf_counter() - t0)
            ms = min(ms, float(out[0]))
            rss = min(rss, int(out[1]) * 1024 / 1e6)  # VmHWM is in KiB
        print(f"| {row} | {1e3 * wall:.0f} | {ms:.1f} | {rss:.1f} |", flush=True)


def conv_rows(name, b, c_in, c_out, hw, k, repeats, rng):
    x = rng.standard_normal((b, c_in, *hw))
    w = rng.standard_normal((c_out, c_in, k, k))
    dout = rng.standard_normal((b, c_out, hw[0] - k + 1, hw[1] - k + 1))
    _, fft_cache = O._fft_forward(x, w)
    ops = [
        ("fwd", (O._fft_forward, x, w), (O._direct_forward, x, w)),
        ("dW", (O._fft_dw, fft_cache, dout, k), (O._direct_dw, x, dout, k)),
    ]
    if c_in > 1:  # the network never needs dX of conv1
        ops.append(("dX", (O._fft_dx, dout, w, x.shape), (O._direct_dx, dout, w, x.shape)))
    path = "direct" if S._is_direct(w) else "fft"
    for op, fft_call, direct_call in ops:
        fft_ms = best_ms(*fft_call, repeats=repeats)
        direct_ms = best_ms(*direct_call, repeats=repeats)
        print(f"| {name} | {b}x{c_in}x{hw[0]}x{hw[1]} -> {c_out} | {k} | {c_in * k * k} | {op} "
              f"| {fft_ms:.1f} | {direct_ms:.1f} | {path} |", flush=True)


def pool_rows(name, x, repeats):
    out, cache = O._pool_forward(x)
    dout = np.ones_like(out)
    fwd = best_ms(O._pool_forward, x, repeats=repeats)
    bwd = best_ms(O._pool_backward, dout, cache, repeats=repeats)
    shape = "x".join(map(str, x.shape))
    print(f"| {name} | {shape} | pool | fwd {fwd:.1f} | bwd {bwd:.1f} |", flush=True)


def block_rows(name, b, c_in, c_out, hw, k, repeats, rng):
    x = np.maximum(rng.standard_normal((b, c_in, *hw)), 0.0)
    w = rng.standard_normal((c_out, c_in, k, k)) / k
    bias = np.zeros(c_out)
    p, cache = S._conv_block(x, w, bias, True)
    dp = rng.standard_normal(p.shape)
    need_dx = c_in > 1  # the network never needs dX of conv1
    fwd = best_ms(S._conv_block, x, w, bias, True, repeats=repeats)
    bwd = best_ms(S._conv_block_backward, dp, cache, w, need_dx, repeats=repeats)
    path = "direct" if S._is_direct(w) else "fft"
    print(f"| {name} | {b}x{c_in}x{hw[0]}x{hw[1]} -> {c_out} | {k} | {path} | {fwd:.1f} | {bwd:.1f} |",
          flush=True)


def stage_rows(repeats, rng):
    print("| stage | input | ms |")
    print("|---|---|---|")
    spec = classify.default_spec(classify.ClassifierKind.XGB)
    for n, d in ((10, 301), (128, 8)):
        x = rng.standard_normal((n, d))
        y = np.arange(n) % 2
        table = classify.LabeledFeatures(tuple(f"s{i}" for i in range(n)), (0,) * n, x, y)
        ms = best_ms(classify.fit, spec, table, repeats=repeats)
        print(f"| xgb fit, default spec | {n}x{d} | {ms:.1f} |", flush=True)
    max_freq_hz = evaluate.PipelineConfig().max_freq_hz
    cohort = signals.generate_synthetic_cohort(3, 3, 2, 10.0, 64.0, seed=0)
    fft_table = evaluate.fft_feature_table(cohort, max_freq_hz)
    wide_cohort = signals.generate_synthetic_cohort(8, 8, 16, 60.0, 128.0, seed=3)
    wide_table = evaluate.fft_feature_table(wide_cohort, max_freq_hz)
    x = rng.dirichlet(np.ones(8), 1062)  # on the simplex, like twin-network features
    y = (x[:, 0] > 1.0 / 8).astype(np.int64) ^ (np.arange(1062) % 7 == 0)  # a rule, every 7th label flipped
    twin_table = classify.LabeledFeatures(tuple(f"s{i // 16}" for i in range(1062)), (0,) * 1062, x, y)
    for table in (fft_table.subset(["case00", "case01", "ctrl00", "ctrl01"]), wide_table, twin_table):
        n, d = table.x.shape
        for kernel in classify.SVM_KERNELS:
            spec = classify.ClassifierSpec(classify.ClassifierKind.SVM, {"kernel": kernel, "c": 1.0, "gamma": 0.1})
            ms = best_ms(classify.fit, spec, table, repeats=repeats)
            print(f"| svm fit, {kernel}, c=1, gamma=0.1 | {n}x{d} | {ms:.1f} |", flush=True)
    svm = classify.classifier_search_space(classify.ClassifierKind.SVM)
    for space, n in ((svm, 9), (svm, 15), (evaluate.snn_search_space(), 55)):
        state = bayesopt.BoState(space=space, seed=3)
        for u in rng.random((n, space.n_dims)):
            raw = space.from_unit(u)
            state.unit_points.append(space.to_unit(raw))
            state.raw_configs.append(raw)
            state.values.append(float(rng.random()))
        points, values = np.array(state.unit_points), np.array(state.values)
        ms = best_ms(bayesopt.gp_fit, points, values, repeats=repeats)
        print(f"| gp_fit | n={n}, d={space.n_dims} | {ms:.1f} |", flush=True)
        ms = best_ms(bayesopt.propose_next, state, space, repeats=repeats)
        print(f"| propose_next | n={n}, d={space.n_dims} | {ms:.1f} |", flush=True)


def paper_batch(rng, n_channels=16, shape=(129, 59)):
    """16 subject pairs over 27 distinct subjects, one pair per channel each."""
    subject_pairs = [(2 * i, 2 * i + 1) for i in range(13)] + [(26, 0), (1, 2), (3, 4)]
    images = {(f"s{s}", ch): rng.random(shape) for s in range(27) for ch in range(n_channels)}
    pairs = tuple(
        PairExample(f"s{a}", f"s{b}", ch, (a + b) % 2)
        for a, b in subject_pairs for ch in range(n_channels)
    )
    return PairBatch(pairs), images


def step_rows(repeats, rng):
    batch, images = paper_batch(rng)
    shape = next(iter(images.values())).shape
    print("| k | pairs | distinct images | step ms | peak MB |")
    print("|---|---|---|---|---|")
    for k in (3, 5, 12):
        model = S.init_model(S.NetConfig(kernel_size=k, seed=0), shape)
        masks = S.sample_dropout_masks(model, batch.n_pairs)
        ms = best_ms(S.gradient, model, batch, images, masks, repeats=min(repeats, 3))
        tracemalloc.start()
        try:
            S.gradient(model, batch, images, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"| {k} | {batch.n_pairs} | {len(images)} | {ms:.0f} | {peak / 1e6:.0f} |", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    print(f"# numpy {np.__version__}, nproc {os.cpu_count()}, one thread")
    cold_start_rows(args.repeats)
    print()
    print("| net | input -> filters | k | fan-in | op | fft ms | direct ms | path |")
    print("|---|---|---|---|---|---|---|---|")
    pools = []
    for name, b, (h, w), c1, c2, kernel_sizes in NETS:
        for k in kernel_sizes:
            h1, w1 = h - k + 1, w - k + 1
            conv_rows(f"{name} conv1", b, 1, c1, (h, w), k, args.repeats, rng)
            conv_rows(f"{name} conv2", b, c1, c2, (h1 // 2, w1 // 2), k, args.repeats, rng)
            if k == kernel_sizes[0]:
                pools.append((f"{name} pool1", np.maximum(rng.standard_normal((b, c1, h1, w1)), 0.0)))
    for name, x in pools:
        pool_rows(name, x, args.repeats)
    print()
    print("| net | input -> filters | k | path | block fwd ms | block bwd ms |")
    print("|---|---|---|---|---|---|")
    for name, b, (h, w), c1, c2, kernel_sizes in NETS:
        for k in kernel_sizes:
            h1, w1 = h - k + 1, w - k + 1
            block_rows(f"{name} block1", b, 1, c1, (h, w), k, args.repeats, rng)
            block_rows(f"{name} block2", b, c1, c2, (h1 // 2, w1 // 2), k, args.repeats, rng)
    print()
    stage_rows(args.repeats, rng)
    print()
    step_rows(args.repeats, rng)


if __name__ == "__main__":
    main()
