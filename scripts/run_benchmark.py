#!/usr/bin/env python3
"""Run every classification method on a benchmark config and dump the results.

Writes train/test panels, one confusion CSV per method, and a summary JSON
into --outdir, then prints an accuracy table.  Deterministic given the
config's seed.  A refused config writes nothing: everything is computed
before --outdir is made, and the error is printed as `error: ...` with the
CLI's exit code (2 usage, 3 data or I/O, 4 numeric).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curvemedian import (
    generate_benchmark,
    load_benchmark_config,
    run_benchmark,
    write_confusion,
    write_json,
    write_panel,
)
from curvemedian.cli import _EXIT_CODES  # usage 2, data or I/O 3, numeric 4, as the CLI exits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/benchmark_2class.json")
    ap.add_argument("--outdir", default="benchmark_out")
    args = ap.parse_args()
    try:
        return write_results(args.config, Path(args.outdir))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def write_results(config, outdir: Path) -> int:
    """Generate and run everything, then make `outdir` and write into it."""
    cfg = load_benchmark_config(config)
    train, test = generate_benchmark(cfg)
    results = run_benchmark(cfg)

    outdir.mkdir(parents=True, exist_ok=True)
    write_panel(outdir / "train.csv", train)
    write_panel(outdir / "test.csv", test)
    summary = {}
    for method, res in results.items():
        write_confusion(outdir / f"confusion_{method}.csv", res["confusion"])
        summary[method] = res["accuracy"]
    write_json(outdir / "summary.json", summary)

    width = max(len(m) for m in summary)
    print(f"{'method':<{width}}  accuracy")
    for method, acc in summary.items():
        print(f"{method:<{width}}  {acc:.3f}")
    print(f"wrote {outdir}/summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
