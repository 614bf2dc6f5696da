"""Run the curvemedian CLI in-process with a span around every public call.

    python3 perfbench/traced_cli.py --spans OUT.json [--capture OUT.npz]
        [--memory] [--run-id ID] -- <curvemedian arguments>

Needs ``src`` on PYTHONPATH.  Writes the spans as JSON when the command
ends.  --capture also saves every geodesic_pipeline result (distances,
graph and tree edges) so outputs the CLI never writes can be checked;
--memory adds the tracemalloc peaks of coverage and shortest paths.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

import tracing
from curvemedian import cli


def _edges(graph) -> np.ndarray:
    return np.asarray(graph.edges, dtype=float).reshape(-1, 3)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--capture")
    ap.add_argument("--memory", action="store_true")
    ap.add_argument("--run-id", default="traced")
    args = ap.parse_args(argv[:split])

    keep = ("graphs.geodesic_pipeline",) if args.capture else ()
    tracer = tracing.Tracer(memory=args.memory, keep=keep)
    tracer.run_id = args.run_id
    tracer.install()
    try:
        code = cli.main(argv[split + 1 :])
    finally:
        tracer.uninstall()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    if args.capture:
        arrays = {}
        for k, (tree, graph, distances) in enumerate(tracer.kept["graphs.geodesic_pipeline"]):
            arrays[f"d{k}"] = distances
            arrays[f"g{k}"] = _edges(graph)
            arrays[f"t{k}"] = _edges(tree)
        np.savez(args.capture, **arrays)
    return code


if __name__ == "__main__":
    sys.exit(main())
