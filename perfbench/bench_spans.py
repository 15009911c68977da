"""Spans recorded around calls into specsiam, from outside the program.

A Tracer swaps wrappers onto module and class attributes at the sites where
specsiam looks names up at call time, records one span per call (name, start,
end, parent span, run id), and restores every original attribute on exit.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from specsiam import bayesopt, classify, cli, evaluate, pairing, siamese, signals, spectral


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """In-memory span recorder plus counters kept at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)  # run id -> counters
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, tag=None, count=None):
        """Span every call of fn; tag(*args) suffixes the name, count(result, *args) feeds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if tag is None else f"{name}.{tag(*args, **kwargs)}"
            with self.span(label):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts[self.run_id], result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, fn, count):
        """Feed counters from every call of fn without a span, for calls too frequent to span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts[self.run_id], result, *args, **kwargs)
            return result

        return wrapper

    def timed_iter(self, name, fn):
        """Span each next() of the generator fn returns, counting items and their n_pairs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                self.counts[self.run_id][name + ".items"] += 1
                self.counts[self.run_id][name + ".pairs"] += item.n_pairs
                yield item

        return wrapper

    # -- analysis -----------------------------------------------------------

    def _select(self, name: str, run_id: str | None, prefix: bool):
        """Indices of spans called name, or name + '.<tag>' when prefix is set."""
        return [
            i for i, s in enumerate(self.spans)
            if (s.name == name or (prefix and s.name.startswith(name + ".")))
            and (run_id is None or s.run_id == run_id)
        ]

    def total(self, name: str, run_id: str | None = None, prefix: bool = False) -> float:
        return sum(self.spans[i].end - self.spans[i].start for i in self._select(name, run_id, prefix))

    def calls(self, name: str, run_id: str | None = None) -> int:
        return len(self._select(name, run_id, prefix=False))

    def self_time(self, name: str, run_id: str | None = None, prefix: bool = False) -> float:
        """Duration of the named spans minus the durations of their direct children."""
        chosen = set(self._select(name, run_id, prefix))
        child_time = sum(s.end - s.start for s in self.spans if s.parent in chosen)
        return self.total(name, run_id, prefix) - child_time

    def shares_under(self, root: str) -> dict[str, float]:
        """Share of the root spans' time spent inside each descendant span name."""
        roots = set(self._select(root, None, prefix=False))
        base = self.total(root)
        inside = defaultdict(float)
        for s in self.spans:
            p = s.parent
            while p is not None and p not in roots:
                p = self.spans[p].parent
            if p is not None:
                inside[s.name] += s.end - s.start
        return {name: t / base for name, t in sorted(inside.items())} if base > 0 else {}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans]
        payload = {"fields": ["name", "start", "end", "parent", "run_id"], "spans": rows,
                   "counts": {run: dict(c) for run, c in self.counts.items()}}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


@contextmanager
def patched(sites):
    """Install (owner, attribute, replacement) triples; put every original back on exit."""
    originals = []
    try:
        for owner, attr, replacement in sites:
            originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# specsiam call sites

PREDICTING_CLASSES = (
    classify.KnnClassifier,
    classify.GaussianNbClassifier,
    classify.SmoSvmClassifier,
    classify.RandomForestClassifier,
    classify.GradientBoostingClassifier,
)


def _add(key, amount):
    """Counter callback adding amount(result, *args) under key."""

    def count(counter, result, *args, **kwargs):
        counter[key] += amount(result, *args, **kwargs)

    return count


def _csv_bytes(manifest_path) -> int:
    return sum(f.stat().st_size for f in Path(manifest_path).parent.glob("*.csv"))


def bo_probe_sites(tracer: Tracer, errors: list):
    """Counts BO evaluations and recorded objective failures, whose messages go to errors.

    Installed in traced and untraced repetitions alike: evaluate discards the
    BO state, so this is the only place a failed objective is visible.
    """

    def outcome(counter, result, *args, **kwargs):
        _, state = result
        counter["bayesopt.evaluations"] += len(state.values)
        counter["bayesopt.failures"] += len(state.failures)
        errors.extend(failure["error"] for failure in state.failures)

    return [(evaluate, "optimize", tracer.counted(evaluate.optimize, outcome))]


def specsiam_sites(tracer: Tracer):
    """Every site where specsiam resolves a traced name at call time.

    A function reached from two modules (for example evaluate.train, used
    inside LOOCV, and siamese.train, called by the benchmark) gets one
    wrapper installed at both sites under one span name.
    """
    t = tracer
    load = t.timed("signals.load_dataset", signals.load_dataset,
                   count=_add("signals.load_dataset_bytes", lambda r, path: _csv_bytes(path)))
    images = t.timed("spectral.compute_images", spectral.compute_images,
                     count=_add("spectral.images", lambda r, *a: len(r)))
    pairs = t.timed("pairing.build_pairs", pairing.build_pairs,
                    count=_add("pairing.pairs", lambda r, *a: len(r)))
    train = t.timed("siamese.train", siamese.train, tag=lambda model, *a, **k: f"k{model.config.kernel_size}")
    extract = t.timed("siamese.extract_features", siamese.extract_features,
                      count=_add("siamese.extract_images", lambda r, *a: r.n_rows))
    pair_acc = t.timed("siamese.pair_accuracy", siamese.pair_accuracy,
                       count=_add("siamese.pair_accuracy_pairs", lambda r, model, p, *a, **k: len(p)))
    return [
        (cli, "main", t.timed("cli.main", cli.main)),
        (cli, "load_dataset", load),
        (signals, "load_dataset", load),
        (evaluate, "loocv", t.timed("evaluate.loocv", evaluate.loocv, tag=lambda ds, name, *a, **k: name,
                                    count=_add("evaluate.folds", lambda r, *a, **k: r.n_folds))),
        (evaluate, "compute_images", images),
        (spectral, "compute_images", images),
        (evaluate, "fft_features", t.timed("spectral.fft_features", evaluate.fft_features)),
        (evaluate, "build_pairs", pairs),
        (pairing, "build_pairs", pairs),
        (siamese, "batch_iter", t.timed_iter("pairing.batch_iter", siamese.batch_iter)),
        (evaluate, "train", train),
        (siamese, "train", train),
        (evaluate, "extract_features", extract),
        (siamese, "extract_features", extract),
        (evaluate, "pair_accuracy", pair_acc),
        (siamese, "pair_accuracy", pair_acc),
        (classify, "fit", t.timed("classify.fit", classify.fit, tag=lambda spec, *a, **k: spec.kind.value)),
        (evaluate, "tune_classifier", t.timed("evaluate.tune_classifier", evaluate.tune_classifier)),
        (evaluate, "kfold_classifier_objective",
         t.timed("evaluate.kfold_classifier_objective", evaluate.kfold_classifier_objective)),
        (bayesopt, "propose_next", t.timed("bayesopt.propose_next", bayesopt.propose_next)),
        (bayesopt, "gp_fit", t.timed("bayesopt.gp_fit", bayesopt.gp_fit)),
        (bayesopt, "expected_improvement",
         t.counted(bayesopt.expected_improvement, _add("bayesopt.ei_calls", lambda *a, **k: 1))),
    ] + [
        (cls, "predict", t.timed("classify.predict", cls.__dict__["predict"])) for cls in PREDICTING_CLASSES
    ]
