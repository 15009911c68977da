"""Command-line surface: every pipeline stage as a subcommand.

Artifacts land under --out (default from SPECSIAM_OUT, else ./runs), each run
leaving a run_manifest.json with the fully resolved configuration so results
can be reproduced from the manifest alone. Progress goes to stderr, machine
artifacts to files. Exit codes: 0 success, 1 usage, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields
from enum import Enum
from pathlib import Path

from . import classify as classify_mod
from . import evaluate
from .bayesopt import Discrete, write_trace_csv
from .classify import ClassifierKind, ClassifierSpec, LabeledFeatures
from .errors import DataError, NumericalError
from .evaluate import MetricsReport, PipelineConfig, write_json
from .pairing import stats_from_labels
from .siamese import NetConfig, extract_features, load_checkpoint, save_checkpoint
from .signals import (Label, channel_order, generate_synthetic_cohort, load_dataset, read_manifest,
                      read_signal_csv, save_dataset)
from .spectral import (StftConfig, compute_images, config_from_dict, config_to_dict, convert_value,
                       export_image_csv, export_image_pgm)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("SPECSIAM_OUT") or "runs"
    out = Path(root)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve(args, defaults: dict) -> tuple[dict, dict]:
    """defaults <- config file <- explicitly passed flags, and for each key
    not left at its default, where its value came from. A file value is
    converted by the type of its default; a file key without a default is
    not read by the command, so it is an error."""
    resolved = dict(defaults)
    sources = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise DataError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise DataError(f"config file {path} must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in defaults:
                raise DataError(f"config file {path}: unknown key '{key}'")
            resolved[key] = convert_value(defaults[key], value, f"config file {path}", key)
            sources[key] = f"config file {path}: key '{key}'"
    for key in defaults:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
            sources[key] = "flag --" + key.replace("_", "-")
    return resolved, sources


def _write_run_manifest(out: Path, command: str, resolved: dict) -> None:
    write_json(out / "run_manifest.json", {"command": command, "resolved": resolved})


def _resolve_configs(args, *classes) -> tuple[dict, list]:
    """The resolved fields of the config classes, all but seed, which comes
    from --seed, and one config of each class."""
    defaults = {k: v for cls in classes for k, v in config_to_dict(cls()).items() if k != "seed"}
    resolved, sources = _resolve(args, defaults)
    values = {**resolved, "seed": getattr(args, "seed", None)}
    return resolved, [_build_config(cls, values, sources) for cls in classes]


def _build_config(cls, values: dict, sources: dict):
    """The cls config of values. When the class rejects them, the message
    names the source of each set value that it rejects with every other field
    at its default, or, for a combination, of every set value of cls."""
    data = {f.name: values[f.name] for f in fields(cls)}
    try:
        return config_from_dict(cls, data, "resolved config")
    except DataError as exc:
        defaults = config_to_dict(cls())
        set_keys = [key for key in data if key in sources]

        def rejected(key):
            try:
                config_from_dict(cls, {**defaults, key: data[key]}, "")
            except DataError:
                return True
            return False

        blamed = [key for key in set_keys if rejected(key)] or set_keys
        if not blamed:
            raise
        raise DataError(f"{', '.join(sources[key] for key in blamed)}: {exc}") from None


def _add_config_flags(parser, *classes) -> None:
    """One --name-with-dashes flag per config field but seed; enum and choice fields keep their choices."""
    for cls in classes:
        for f in (f for f in fields(cls) if f.name != "seed"):
            kind = type(f.default)
            choices = [m.value for m in kind] if issubclass(kind, Enum) else f.metadata.get("choices")
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                                type=str if choices else kind, choices=choices)


def _clf_flags(kind: ClassifierKind):
    """(flag, dest, dimension) of the --<model>-<param> flag of each dimension of kind's search space."""
    return [(f"--{kind.value}-{dim.name.replace('_', '-')}", f"{kind.value}_{dim.name}", dim)
            for dim in classify_mod.classifier_search_space(kind).dims]


def _add_clf_flags(parser) -> None:
    """The --<model>-<param> flags of every classifier; string-valued dimensions keep their choices."""
    for kind in ClassifierKind:
        for flag, dest, dim in _clf_flags(kind):
            value_type = type(dim.values[0]) if isinstance(dim, Discrete) else float
            parser.add_argument(flag, dest=dest, type=value_type,
                                choices=dim.values if value_type is str else None)


def _clf_params_from_args(args, kind: ClassifierKind, tuned: bool) -> dict | None:
    """The defaults of kind with the values of its flags, or None if none is passed. A flag of
    another kind, any flag while the classifier is tuned, and a value that the kind's search
    space rejects are each a DataError naming the flag."""
    passed = {}
    for other in ClassifierKind:
        for flag, dest, dim in _clf_flags(other):
            value = getattr(args, dest)
            if value is None:
                continue
            if other is not kind:
                raise DataError(f"flag {flag}: the classifier is {kind.value}, not {other.value}")
            if tuned:
                raise DataError(f"flag {flag}: the classifier is tuned, so flags cannot set its "
                                "hyperparameters (loocv tunes with --clf-init and --clf-acq, run unless --no-tune)")
            try:
                dim.check(value, kind.value)
            except DataError as exc:
                raise DataError(f"flag {flag}: {exc}") from None
            passed[dim.name] = value
    return {**classify_mod.default_spec(kind).params, **passed} if passed else None


def _add_pipeline_flags(parser) -> None:
    """The flags that loocv and run share. The tuning flags default to None,
    so that a passed value can be told from none."""
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--mode", choices=["paper", "strict"], default="paper")
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--max-freq-hz", type=float, default=PipelineConfig.max_freq_hz)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clf-init", type=int)
    parser.add_argument("--clf-acq", type=int)
    parser.add_argument("--tuning-k", type=int)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--balance", action="store_true")
    _add_config_flags(parser, StftConfig, NetConfig)
    _add_clf_flags(parser)
    parser.add_argument("--config")
    parser.add_argument("--out")


def build_parser() -> _Parser:
    parser = _Parser(prog="specsiam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort", parents=[], add_help=True)
    p.add_argument("--cases", type=int)
    p.add_argument("--controls", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--duration-s", dest="duration_s", type=float)
    p.add_argument("--rate", dest="sample_rate_hz", type=float)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("stft", help="export spectral images for a cohort")
    p.add_argument("--manifest", required=True)
    _add_config_flags(p, StftConfig)
    p.add_argument("--pgm", action="store_true", help="also write PGM previews")
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("pairs", help="pairwise dataset utilities")
    p.add_argument("action", choices=["stats"])
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")

    p = sub.add_parser("tune-snn", help="Bayesian-optimize network hyperparameters")
    p.add_argument("--manifest", required=True)
    p.add_argument("--init", type=int, default=5)
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--tuning-epochs", dest="tuning_epochs", type=int)
    _add_config_flags(p, StftConfig, NetConfig)
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("train-snn", help="train the network on all pairs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--balance", action="store_true")
    _add_config_flags(p, StftConfig, NetConfig)
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("extract", help="extract per-(subject, channel) features")
    p.add_argument("--manifest", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint", help="trained network checkpoint")
    group.add_argument("--fft", action="store_true", help="baseline spectrum features")
    p.add_argument("--max-freq-hz", dest="max_freq_hz", type=float, help="--fft only")
    p.add_argument("--out")

    p = sub.add_parser("tune-clf", help="Bayesian-optimize a classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, choices=[k.value for k in ClassifierKind])
    p.add_argument("--init", type=int, default=5)
    p.add_argument("--budget", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out")

    p = sub.add_parser("classify", help="fit a classifier on a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, choices=[k.value for k in ClassifierKind])
    p.add_argument("--predict", help="feature table to label with the fitted model")
    p.add_argument("--seed", type=int, help="rf only (default 0)")
    _add_clf_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("loocv", help="leave-one-subject-out evaluation")
    p.add_argument("--pipeline", required=True, choices=list(evaluate.PIPELINES))
    _add_pipeline_flags(p)

    p = sub.add_parser("run", help="tuning, training, extraction and LOOCV in one go, of one or more pipelines")
    p.add_argument("--pipeline", required=True, nargs="+", choices=list(evaluate.PIPELINES))
    _add_pipeline_flags(p)
    p.add_argument("--no-tune", action="store_true")
    p.add_argument("--snn-init", type=int)
    p.add_argument("--snn-acq", type=int)
    p.add_argument("--tuning-epochs", type=int)

    p = sub.add_parser("report", help="render report JSON files as a table")
    p.add_argument("reports", nargs="+")

    return parser


# ---------------------------------------------------------------------------
# handlers

def _cmd_synth(args) -> int:
    out = _out_dir(args)
    resolved, _ = _resolve(
        args,
        {
            "cases": 4,
            "controls": 4,
            "channels": 2,
            "duration_s": 30.0,
            "sample_rate_hz": 64.0,
            "noise_sigma": 0.5,
            "seed": 0,
        },
    )
    dataset = generate_synthetic_cohort(
        n_case=resolved["cases"],
        n_control=resolved["controls"],
        m_channels=resolved["channels"],
        duration_s=resolved["duration_s"],
        sample_rate_hz=resolved["sample_rate_hz"],
        noise_sigma=resolved["noise_sigma"],
        seed=resolved["seed"],
    )
    manifest = save_dataset(dataset, out)
    _write_run_manifest(out, "synth", resolved)
    _log(f"synth: wrote {dataset.n_subjects} subjects under {out}")
    print(manifest)
    return 0


def _cmd_stft(args) -> int:
    out = _out_dir(args)
    resolved, (config,) = _resolve_configs(args, StftConfig)
    dataset = load_dataset(args.manifest)
    images = compute_images(dataset, config)
    img_dir = out / "images"
    img_dir.mkdir(exist_ok=True)
    for (sid, ch), image in sorted(images.items()):
        stem = img_dir / f"{sid}_ch{ch:02d}"
        export_image_csv(image, stem.with_suffix(".csv"))
        if args.pgm:
            export_image_pgm(image, stem.with_suffix(".pgm"))
    _write_run_manifest(out, "stft", resolved)
    _log(f"stft: wrote {len(images)} images under {img_dir}")
    return 0


def _cmd_pairs(args) -> int:
    entries = read_manifest(args.manifest)
    labels = {e["subject_id"]: Label(e["label"]) for e in entries}
    names = None
    for entry in entries:  # every header, checked as load_dataset checks it
        header, _ = read_signal_csv(args.manifest, entry, header_only=True)
        if names is None:
            names = header
        channel_order(entry["subject_id"], header, names)
    stats = stats_from_labels(labels, len(names))
    n_case = sum(1 for v in labels.values() if v is Label.CASE)
    print(f"subjects: {len(labels)} (case {n_case} / control {len(labels) - n_case})")
    print(f"channels: {len(names)}")
    print(f"total_pairs: {stats.pop('total')}")
    for key, count in stats.items():  # neighbors, non_neighbors, then by class combination
        print(f"{key}: {count}")
    if args.out:
        _write_run_manifest(_out_dir(args), "pairs", {"manifest": str(args.manifest)})
    return 0


def _cmd_tune_snn(args) -> int:
    out = _out_dir(args)
    resolved, (stft, net) = _resolve_configs(args, StftConfig, NetConfig)
    dataset = load_dataset(args.manifest)
    config = PipelineConfig(
        stft=stft,
        net=net,
        tau=args.tau,
        tuning_k=args.k,
        tuning_epochs=args.tuning_epochs,
    )
    _log(f"tune-snn: budget {args.init}+{args.budget}, k={args.k}")
    stft, net, state = evaluate.tune_snn(
        dataset, config, n_init=args.init, n_acquisitions=args.budget, seed=args.seed,
        trace_path=out / "snn_bo_trace.csv",
    )
    best = {"best_objective": state.best_value, "stft": config_to_dict(stft), "net": config_to_dict(net)}
    del best["net"]["seed"]
    write_json(out / "best_config.json", best)
    _write_run_manifest(out, "tune-snn", {**resolved, "seed": args.seed, "best": best})
    _log(f"tune-snn: best objective {state.best_value:.4f}")
    return 0


def _cmd_train_snn(args) -> int:
    out = _out_dir(args)
    resolved, (stft, net) = _resolve_configs(args, StftConfig, NetConfig)
    dataset = load_dataset(args.manifest)
    images = compute_images(dataset, stft)
    t0 = time.time()
    model, trace, pairs = evaluate.train_network(
        dataset, dataset.subject_ids, net, images, balance_seed=args.seed if args.balance else None
    )
    _log(f"train-snn: {len(pairs)} pairs, {net.epochs} epochs in {time.time() - t0:.1f}s")
    save_checkpoint(model, stft, out / "checkpoint.json")
    evaluate.write_run_artifacts(out, loss_trace=trace)
    _write_run_manifest(out, "train-snn", {**resolved, "seed": args.seed, "balance": args.balance})
    _log(f"train-snn: final epoch loss {trace[-1]:.6f}")
    return 0


def _cmd_extract(args) -> int:
    if not args.fft and args.max_freq_hz is not None:
        raise DataError("flag --max-freq-hz: it sets the --fft features, not a checkpoint's")
    out = _out_dir(args)
    dataset = load_dataset(args.manifest)
    if args.fft:
        max_freq_hz = PipelineConfig.max_freq_hz if args.max_freq_hz is None else args.max_freq_hz
        table = evaluate.fft_feature_table(dataset, max_freq_hz)
        resolved: dict = {"fft": True, "max_freq_hz": max_freq_hz}
    else:
        model, stft = load_checkpoint(args.checkpoint)  # the images it was trained on
        resolved = {"checkpoint": str(args.checkpoint), **config_to_dict(stft)}
        table = extract_features(model, dataset, compute_images(dataset, stft))
    table.to_csv(out / "features.csv")
    _write_run_manifest(out, "extract", resolved)
    _log(f"extract: wrote {table.n_rows} rows x {table.n_features} features")
    return 0


def _cmd_tune_clf(args) -> int:
    out = _out_dir(args)
    table = LabeledFeatures.from_csv(args.features)
    kind = ClassifierKind(args.model)
    spec, state = evaluate.tune_classifier(
        table, kind, n_init=args.init, n_acquisitions=args.budget, seed=args.seed, k=args.k
    )
    trace_path = out / "clf_bo_trace.csv"
    write_trace_csv(state, trace_path)
    evaluate.require_a_success(state, "classifier tuning", trace_path)
    best = {"model": kind.value, "params": spec.params, "best_objective": state.best_value}
    write_json(out / "best_spec.json", best)
    _write_run_manifest(
        out,
        "tune-clf",
        {"features": str(args.features), "model": kind.value, "init": args.init,
         "budget": args.budget, "seed": args.seed, "k": args.k, "best": best},
    )
    _log(f"tune-clf: best objective {state.best_value:.4f} with {spec.params}")
    return 0


def _cmd_classify(args) -> int:
    kind = ClassifierKind(args.model)
    if args.seed is not None and kind is not ClassifierKind.RF:
        raise DataError(f"flag --seed: it seeds rf, and {kind.value} draws nothing at random")
    out = _out_dir(args)
    table = LabeledFeatures.from_csv(args.features)
    params = _clf_params_from_args(args, kind, tuned=False)
    spec = ClassifierSpec(kind, params) if params else classify_mod.default_spec(kind)
    seeded = {"seed": args.seed or 0} if kind is ClassifierKind.RF else {}
    model = classify_mod.fit(spec, table, **seeded)
    if kind is ClassifierKind.SVM and not model.converged:
        _log(f"classify: svm fit stopped unconverged after {classify_mod.SVM_MAX_ITER} steps")
    payload = {"spec": {"model": kind.value, "params": spec.params}, "fitted": classify_mod.model_to_dict(model)}
    write_json(out / "model.json", payload)
    resolved = {"features": str(args.features), "model": kind.value, "params": spec.params, **seeded}
    if args.predict:
        target = LabeledFeatures.from_csv(args.predict)
        preds = model.predict(target.x)
        with open(out / "predictions.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "channel", "prediction"])
            for i in range(target.n_rows):
                writer.writerow(
                    [target.subject_ids[i], target.channels[i], "case" if preds[i] == 1 else "control"]
                )
        resolved["predict"] = str(args.predict)
        accuracy = float((preds == target.y).mean())
        _log(f"classify: accuracy on --predict table {accuracy:.4f}")
    _write_run_manifest(out, "classify", resolved)
    return 0


# run's tuning settings when their flags are not passed.
_RUN_TUNING = {"clf_init": 5, "clf_acq": 10, "snn_init": 5, "snn_acq": 50, "tuning_k": 5, "tuning_epochs": None}
_NET_TUNING = ("snn_init", "snn_acq", "tuning_epochs")


def _pipeline_config_from_args(args, name: str) -> PipelineConfig:
    """The PipelineConfig of pipeline name under loocv's or run's flags. A tuning
    flag that nothing would read is a DataError naming it: any with run --no-tune,
    a network one when no listed pipeline has a network, and loocv's --tuning-k
    without a classifier budget. Only a network row gets a network budget."""
    _, (stft, net) = _resolve_configs(args, StftConfig, NetConfig)
    route, clf_kind = evaluate.parse_pipeline(name)
    run, no_tune = args.command == "run", getattr(args, "no_tune", False)
    listed = args.pipeline if run else [name]
    has_network = any(evaluate.parse_pipeline(p)[0] == "snn" for p in listed)
    tuning = {}
    for key, default in _RUN_TUNING.items():
        value, flag = getattr(args, key, None), "--" + key.replace("_", "-")
        if value is not None and no_tune:
            raise DataError(f"flag {flag}: run --no-tune tunes nothing")
        if value is not None and key in _NET_TUNING and not has_network:
            which = f"pipeline {listed[0]} has" if len(listed) == 1 else f"pipelines {', '.join(listed)} have"
            raise DataError(f"flag {flag}: {which} no network to tune")
        tuning[key] = default if value is None and run else value
    clf_budget = None if no_tune else (tuning["clf_init"], tuning["clf_acq"])
    if clf_budget is not None and None in clf_budget:  # loocv tunes only with both flags
        if clf_budget != (None, None):
            given, missing = ("init", "acq") if args.clf_acq is None else ("acq", "init")
            raise DataError(f"flag --clf-{given}: tuning the classifier needs --clf-{missing} too")
        if tuning["tuning_k"] is not None:
            raise DataError("flag --tuning-k: loocv tunes nothing without --clf-init and --clf-acq")
        clf_budget = None
    clf_params = _clf_params_from_args(args, clf_kind, tuned=clf_budget is not None)
    tunes_net = run and not no_tune and route == "snn"
    return PipelineConfig(
        stft=stft,
        net=net,
        max_freq_hz=args.max_freq_hz,
        mode=args.mode,
        tau=args.tau,
        clf_params=clf_params,
        snn_budget=(tuning["snn_init"], tuning["snn_acq"]) if tunes_net else None,
        clf_budget=clf_budget,
        tuning_epochs=tuning["tuning_epochs"] if route == "snn" else None,
        tuning_k=PipelineConfig.tuning_k if tuning["tuning_k"] is None else tuning["tuning_k"],
        balance=args.balance,
        jobs=args.jobs,
    )


def _cmd_loocv(args) -> int:
    out = _out_dir(args)
    dataset = load_dataset(args.manifest)
    config = _pipeline_config_from_args(args, args.pipeline)
    _log(f"loocv: {args.pipeline} over {dataset.n_subjects} subjects")
    report = evaluate.loocv(dataset, args.pipeline, config, seed=args.seed)
    evaluate.write_run_artifacts(out, report)
    _write_run_manifest(
        out,
        "loocv",
        {"pipeline": args.pipeline, "seed": args.seed,
         "config": evaluate.pipeline_config_to_dict(args.pipeline, config, args.seed)},
    )
    mean, std = report.channel["accuracy"]
    _log(f"loocv: channel accuracy {mean:.3f} +/- {std:.3f}")
    return 0


def _cmd_run(args) -> int:
    """One pipeline's artifacts under --out; with several, each pipeline's under
    --out/<id>, as its own run would write them, and their table."""
    repeated = sorted({name for name in args.pipeline if args.pipeline.count(name) > 1})
    if repeated:
        raise DataError(f"flag --pipeline: {', '.join(repeated)} listed more than once")
    out = _out_dir(args)
    dataset = load_dataset(args.manifest)
    configs = [_pipeline_config_from_args(args, name) for name in args.pipeline]  # before any row runs
    reports = []
    for name, config in zip(args.pipeline, configs):
        row_out = out if len(args.pipeline) == 1 else out / name
        _log(f"run: {name} (mode={config.mode}, tuning={'off' if args.no_tune else 'on'})")
        report, artifacts = evaluate.run_pipeline(name, dataset, config, seed=args.seed, out_dir=row_out)
        pipeline_cfg = json.loads((row_out / "pipeline_config.json").read_text(encoding="utf-8"))
        _write_run_manifest(
            row_out,
            "run",
            {"pipeline": name, "seed": args.seed, "config": pipeline_cfg, "artifacts": sorted(artifacts)},
        )
        mean, std = report.channel["accuracy"]
        _log(f"run: channel accuracy {mean:.3f} +/- {std:.3f}")
        reports.append(report)
    if len(reports) > 1:
        table = evaluate.report_table(reports)
        (out / "table.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
    return 0


def _read_report(path: Path) -> MetricsReport:
    """A report.json for the table; DataError names the file and the bad field."""
    if not path.is_file():
        raise DataError(f"report not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: not a JSON report ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: not a JSON report object")

    def field(name, kind, what):
        if name not in payload:
            raise DataError(f"{path}: missing field '{name}'")
        if not isinstance(payload[name], kind):
            raise DataError(f"{path}: field '{name}' must be {what}")
        return payload[name]

    levels = {}
    for level in ("channel_level", "subject_level"):
        levels[level] = {}
        for key, block in field(level, dict, "an object").items():
            try:
                levels[level][key] = (float(block["mean"]), float(block["std"]))
            except (TypeError, KeyError, ValueError):
                raise DataError(f"{path}: field '{level}.{key}' needs numeric 'mean' and 'std'") from None
    for key in ("accuracy", "sensitivity", "specificity"):
        if key not in levels["channel_level"]:
            raise DataError(f"{path}: missing field 'channel_level.{key}'")
    return MetricsReport(
        pipeline_id=field("pipeline", str, "a string"),
        n_folds=field("n_folds", int, "an integer"),
        channel=levels["channel_level"],
        subject=levels["subject_level"],
        ties=payload.get("majority_ties", 0),
        warnings=payload.get("warnings", []),
        folds=[],
    )


def _cmd_report(args) -> int:
    print(evaluate.report_table([_read_report(Path(path)) for path in args.reports]))
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "stft": _cmd_stft,
    "pairs": _cmd_pairs,
    "tune-snn": _cmd_tune_snn,
    "train-snn": _cmd_train_snn,
    "extract": _cmd_extract,
    "tune-clf": _cmd_tune_clf,
    "classify": _cmd_classify,
    "loocv": _cmd_loocv,
    "run": _cmd_run,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _log(f"error: {exc}")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except DataError as exc:
        _log(f"error [{args.command}]: {exc}")
        return 2
    except NumericalError as exc:
        _log(f"numerical failure [{args.command}]: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
