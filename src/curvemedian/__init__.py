"""curvemedian: representative-curve estimation for mutually warped curves.

Curves sampled on a shared grid are treated as points of R^m lying near a
low-dimensional shape.  Geodesic distances along that shape are estimated
from a spanning-tree-guided ball-coverage graph, and the representative
curve is the sample member minimizing the summed (alpha-power) estimated
geodesic distance to the rest of the sample.  Simulators, exact shift-model
oracles, Euclidean baselines, and a nearest-template classification harness
round out the package.

Every name in `__all__` is its submodule's own object, looked up there on
each access (PEP 562), so `import curvemedian` loads no submodule and a
name rebound in its submodule is seen here at once.
"""

from importlib import import_module as _import_module
from sys import modules as _loaded

# submodule -> the names it exports; each submodule lists the same names
# in its own __all__
_EXPORTS = {
    "benchmark": (
        "BenchmarkClass", "BenchmarkConfig", "generate_benchmark", "load_benchmark_config",
        "run_benchmark",
    ),
    "classify": (
        "TEMPLATE_METHODS", "ClassifierConfig", "ConfusionMatrix", "KnnClassifier",
        "TemplateSet", "confusion_from_predictions", "evaluate", "extract_templates", "predict_labels",
    ),
    "errors": ("DataFormatError", "NumericError", "UsageError"),
    "graphs": (
        "DEFAULT_CAP", "GeodesicResult", "WeightedGraph", "ball_radii", "build_coverage_graph",
        "compute_emst", "geodesic_pipeline", "pipeline_diagnostics", "shortest_path_distances",
    ),
    "models": (
        "TARGETS", "CurvePanel", "ShiftConfig", "Sim1Config", "Sim2Config", "TargetFunction",
        "exact_geodesic_matrix", "exact_shift_geodesic", "generate_shift_sample",
        "generate_sim1", "generate_sim2", "get_target", "intrinsic_median_exact", "sim1_truth",
        "structural_median_oracle",
    ),
    "panel_io": (
        "fmt", "read_classifier_config", "read_cloud", "read_curve", "read_edges", "read_json",
        "read_matrix", "read_panel", "read_points_auto", "read_shifts", "write_cloud",
        "write_confusion", "write_curve", "write_edges", "write_json", "write_matrix",
        "write_panel", "write_predictions", "write_shifts", "write_templates",
        "write_warp_params",
    ),
    "stats": (
        "IntrinsicEstimate", "cross_sectional_mean", "euclidean_medoid", "intrinsic_estimate",
        "pairwise_euclidean_matrix",
    ),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached in the package namespace: a cached name would keep an
    # object its submodule has since rebound (a test's monkeypatch, a tracer)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_loaded.get(module) or _import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
