"""Command-line front end.

Subcommands
-----------
simulate   draw a panel or point cloud from one of the bundled models
distances  run the geodesic-distance pipeline over points or curves
template   pick the representative (intrinsic-median) curve of a panel
classify   nearest-template or k-NN classification of labeled panels

Exit codes: 0 success, 2 usage error, 3 data/parse/I-O error, 4 numeric
failure.  A refused run writes nothing: each command computes all its
outputs before it makes the output directory.  All output files are
decimal text with '.' separators regardless of locale, and every seeded
run is bit-identical across invocations.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path

from . import panel_io
from .errors import DataFormatError, NumericError, UsageError
from .graphs import DEFAULT_CAP, _cap, geodesic_pipeline, pipeline_diagnostics

# classify, models and stats are imported by the commands that run them, so
# that `distances` loads none of them.  For the same reason classify
# --method spells out classify.TEMPLATE_METHODS and the k-NN baseline.
_METHODS = ("manifold", "mean", "medoid", "knn")

# argparse reads only plain decimals such as -10 as negative numbers and takes
# -1e1 or -inf for an option name; the subcommands read these as numbers too
_NEGATIVE_NUMBER = re.compile(r"^-(inf(inity)?|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.IGNORECASE)

# exit code for each error the commands report; anything else is a bug
_EXIT_CODES = {UsageError: 2, DataFormatError: 3, OSError: 3, NumericError: 4}


def cmd_simulate(args) -> int:
    from .models import (
        ShiftConfig,
        Sim1Config,
        Sim2Config,
        generate_shift_sample,
        generate_sim1,
        generate_sim2,
        sim1_truth,
    )

    cfg = {"shift": ShiftConfig, "sim1": Sim1Config, "sim2": Sim2Config}[args.model]()
    for field in fields(cfg):  # a flag left out leaves the model's default
        if hasattr(args, field.name):
            setattr(cfg, field.name, getattr(args, field.name))
    if args.model == "sim1":
        writes = [(panel_io.write_cloud, generate_sim1(cfg)), (panel_io.write_cloud, sim1_truth(cfg.n))]
    elif args.model == "shift":
        panel = generate_shift_sample(cfg)
        writes = [(panel_io.write_panel, panel), (panel_io.write_shifts, panel.shifts)]
    else:  # sim2
        panel = generate_sim2(cfg)
        writes = [(panel_io.write_panel, panel), (panel_io.write_warp_params, panel.warp_params)]
    # only a run that generated its data makes the output directory
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    data_path = prefix.with_name(prefix.name + ".csv")
    truth_path = prefix.with_name(prefix.name + ".truth.csv")
    for (write, data), path in zip(writes, (data_path, truth_path)):
        write(path, data)
    print(f"model: {args.model}")
    print(f"seed: {cfg.seed}")
    print(f"wrote {data_path} and {truth_path}")
    return 0


def cmd_distances(args) -> int:
    kind, points = panel_io.read_points_auto(args.input)
    if kind == "panel":
        points = points.values
    result = geodesic_pipeline(points, cap=args.cap)
    diag = pipeline_diagnostics(points, result, cap=args.cap)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    panel_io.write_edges(outdir / "graph.emst.csv", result.tree)
    panel_io.write_edges(outdir / "graph.csv", result.graph)
    panel_io.write_matrix(outdir / "distances.csv", result.distances)
    panel_io.write_json(outdir / "diagnostics.json", diag)
    print(
        f"n={diag['n']} tree_edges={diag['tree_edges']} "
        f"graph_edges={diag['graph_edges']} diameter={panel_io.fmt(diag['diameter'])}"
    )
    print(f"wrote {outdir}/distances.csv")
    return 0


def cmd_template(args) -> int:
    from .stats import _alpha, intrinsic_estimate

    _alpha(args.alpha)
    panel = panel_io.read_panel(args.input)
    result = geodesic_pipeline(panel.values, cap=args.cap)
    est = intrinsic_estimate(result.distances, alpha=args.alpha)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    panel_io.write_json(
        outdir / "estimate.json",
        {"index": est.index, "objective": est.objective, "alpha": est.alpha},
    )
    panel_io.write_curve(outdir / "template.csv", panel.grid, panel.values[est.index])
    panel_io._write_plotdata(outdir / "plotdata.json", panel, est.index)
    print(f"template index: {est.index}")
    print(f"objective: {panel_io.fmt(est.objective)} (alpha={panel_io.fmt(est.alpha)})")
    print(f"wrote {outdir}/template.csv")
    return 0


def cmd_classify(args) -> int:
    from .classify import (
        ClassifierConfig,
        KnnClassifier,
        confusion_from_predictions,
        extract_templates,
        predict_labels,
    )
    from .stats import _alpha

    cfg = ClassifierConfig()
    if args.config:
        cfg = panel_io.read_classifier_config(args.config)
    for field in fields(cfg):  # flags given on the command line win over the file
        if hasattr(args, field.name):
            setattr(cfg, field.name, getattr(args, field.name))
    if cfg.method == "knn" and cfg.k < 1:
        raise UsageError(f"k must be >= 1, got {cfg.k}")
    _alpha(cfg.alpha)
    _cap(cfg.cap)

    train = panel_io.read_panel(args.train)
    test = panel_io.read_panel(args.test)
    if cfg.method == "knn":
        classifier = KnnClassifier(train=train, k=cfg.k)
        order = sorted(set(train.labels or []))
    else:
        classifier = extract_templates(train, method=cfg.method, alpha=cfg.alpha, cap=cfg.cap)
        order = classifier.labels
    if test.labels is None:
        raise UsageError("test panel carries no class labels")
    preds = predict_labels(classifier, test, truncate_at=cfg.truncate_at)
    cm = confusion_from_predictions(order, test.labels, preds)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.method != "knn":
        panel_io.write_templates(outdir / "templates.csv", classifier)
    panel_io.write_predictions(outdir / "predictions.csv", test.labels, preds)
    panel_io.write_confusion(outdir / "confusion.csv", cm)
    panel_io.write_json(outdir / "classifier.json", cfg.to_dict())
    print(f"method: {cfg.method}")
    print(f"accuracy: {panel_io.fmt(cm.accuracy())}")
    print(f"wrote {outdir}/confusion.csv")
    return 0


def _cap_option(text: str):
    """A --cap value: a number, or 'none' for the paper's uncapped rule."""
    try:
        return None if text.lower() == "none" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'none', got {text!r}") from None


_CAP_HELP = f"chord-length cap, in units of the larger end radius (default {DEFAULT_CAP:g}; none: uncapped)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvemedian",
        description="Representative-curve estimation over warped curves via graph geodesics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # defaults are the model configs' own: a flag left out leaves no attribute
    p = sub.add_parser(
        "simulate", help="draw a panel or point cloud from a bundled model", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--model", required=True, choices=["shift", "sim1", "sim2"])
    p.add_argument("--n", type=int, required=True, help="number of curves/points")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output path prefix (gets .csv and .truth.csv)")
    p.add_argument("--target", help="target function name")
    p.add_argument("--m", type=int, help="grid size (shift/sim2)")
    p.add_argument("--t-range", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--shift-range", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--amp-range", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--scale-range", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--noise-sd", type=float, help="sim1 coordinate noise (0: exact parabola)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("distances", help="estimate geodesic distances over points or curves")
    p.add_argument("--input", required=True, help="panel or cloud CSV")
    p.add_argument("--cap", type=_cap_option, default=DEFAULT_CAP, help=_CAP_HELP)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("template", help="select the representative curve of a panel")
    p.add_argument("--input", required=True, help="panel CSV")
    p.add_argument("--alpha", type=float, default=1.0, help="objective exponent, positive and finite")
    p.add_argument("--cap", type=_cap_option, default=DEFAULT_CAP, help=_CAP_HELP)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_template)

    # a flag left out leaves no attribute, so the config file's value stands
    p = sub.add_parser("classify", help="nearest-template / k-NN classification", argument_default=argparse.SUPPRESS)
    p.add_argument("--train", required=True, help="labeled panel CSV")
    p.add_argument("--test", required=True, help="labeled panel CSV")
    p.add_argument("--method", choices=_METHODS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k", type=int, help="neighbors for knn")
    p.add_argument("--truncate-at", type=float, help="keep grid points with t < cutoff")
    p.add_argument("--cap", type=_cap_option, help=_CAP_HELP)
    p.add_argument("--config", default=None, help="classifier config JSON")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_classify)
    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
