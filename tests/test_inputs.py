"""Every value a caller passes is converted or refused by the package: a bad
number or array ends in `UsageError`, `DataFormatError` or `NumericError`,
never in numpy's or Python's own error, and the command line exits 2 or 3
without a traceback."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from curvemedian import (
    ClassifierConfig,
    ConfusionMatrix,
    CurvePanel,
    DataFormatError,
    KnnClassifier,
    NumericError,
    ShiftConfig,
    Sim1Config,
    Sim2Config,
    UsageError,
    WeightedGraph,
    build_coverage_graph,
    compute_emst,
    cross_sectional_mean,
    euclidean_medoid,
    evaluate,
    exact_geodesic_matrix,
    exact_shift_geodesic,
    extract_templates,
    fmt,
    generate_benchmark,
    generate_shift_sample,
    generate_sim1,
    generate_sim2,
    geodesic_pipeline,
    intrinsic_estimate,
    intrinsic_median_exact,
    load_benchmark_config,
    pairwise_euclidean_matrix,
    pipeline_diagnostics,
    predict_labels,
    read_edges,
    sim1_truth,
    write_cloud,
    write_matrix,
    write_panel,
    write_shifts,
    write_warp_params,
)
from curvemedian import models
from curvemedian.cli import main

PACKAGE_ERRORS = (UsageError, DataFormatError, NumericError)
HUGE = 10**400  # an integer beyond the float64 range

# a string, a bool, NaN, a ragged list and an integer no float64 holds
BAD_VALUES = {"text": "a", "bool": True, "nan": math.nan, "ragged": [[1.0], [2.0, 3.0]], "huge": HUGE}

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark_2class.json"
GRID = np.linspace(-1.0, 1.0, 4)
PANEL = CurvePanel(GRID, np.arange(16.0).reshape(4, 4) ** 0.5, labels=["a", "a", "b", "b"])
CLOUD = PANEL.values
DIST = pairwise_euclidean_matrix(CLOUD)
RADII = np.ones(4)
RESULT = geodesic_pipeline(CLOUD)
CLASSIFIER = extract_templates(PANEL, "mean")


BENCHMARK = load_benchmark_config(BENCHMARK_CONFIG)


def _benchmark(**changes):
    return generate_benchmark(dataclasses.replace(BENCHMARK, **{"n_train": 2, "n_test": 1, **changes}))


def _benchmark_class(**changes):
    return _benchmark(classes=[dataclasses.replace(BENCHMARK.classes[0], **changes), BENCHMARK.classes[1]])


# every public function and config field that takes a number or an array,
# called with the value v in that place
TAKERS = {
    # numbers
    "ClassifierConfig alpha": lambda v: ClassifierConfig(alpha=v),
    "ClassifierConfig cap": lambda v: ClassifierConfig(cap=v),
    "ClassifierConfig k": lambda v: ClassifierConfig(k=v),
    "ClassifierConfig truncate_at": lambda v: ClassifierConfig(truncate_at=v),
    "geodesic_pipeline cap": lambda v: geodesic_pipeline(CLOUD, cap=v),
    "pipeline_diagnostics cap": lambda v: pipeline_diagnostics(CLOUD, RESULT, cap=v),
    "build_coverage_graph tol": lambda v: build_coverage_graph(DIST, RADII, tol=v),
    "build_coverage_graph cap": lambda v: build_coverage_graph(DIST, RADII, cap=v),
    "WeightedGraph n": lambda v: WeightedGraph(v, [(0, 1, 1.0)]),
    "intrinsic_estimate alpha": lambda v: intrinsic_estimate(DIST, alpha=v),
    "euclidean_medoid alpha": lambda v: euclidean_medoid(CLOUD, alpha=v),
    "extract_templates alpha": lambda v: extract_templates(PANEL, "manifold", alpha=v),
    "extract_templates cap": lambda v: extract_templates(PANEL, "manifold", cap=v),
    "KnnClassifier k": lambda v: KnnClassifier(PANEL, v),
    "predict_labels truncate_at": lambda v: predict_labels(CLASSIFIER, PANEL, truncate_at=v),
    "evaluate truncate_at": lambda v: evaluate(CLASSIFIER, PANEL, truncate_at=v),
    "ShiftConfig n": lambda v: generate_shift_sample(ShiftConfig(n=v, m=4)),
    "ShiftConfig m": lambda v: generate_shift_sample(ShiftConfig(n=3, m=v)),
    "ShiftConfig seed": lambda v: generate_shift_sample(ShiftConfig(n=3, m=4, seed=v)),
    "ShiftConfig t_range": lambda v: generate_shift_sample(ShiftConfig(n=3, m=4, t_range=v)),
    "ShiftConfig t_range bound": lambda v: generate_shift_sample(ShiftConfig(n=3, m=4, t_range=(v, 1.0))),
    "ShiftConfig shift_range bound": lambda v: generate_shift_sample(ShiftConfig(n=3, m=4, shift_range=(-1.0, v))),
    "Sim1Config n": lambda v: generate_sim1(Sim1Config(n=v)),
    "Sim1Config noise_sd": lambda v: generate_sim1(Sim1Config(n=5, noise_sd=v)),
    "Sim1Config seed": lambda v: generate_sim1(Sim1Config(n=5, seed=v)),
    "sim1_truth n": lambda v: sim1_truth(v),
    "Sim2Config n": lambda v: generate_sim2(Sim2Config(n=v, m=4)),
    "Sim2Config amp_range bound": lambda v: generate_sim2(Sim2Config(n=3, m=4, amp_range=(v, 1.0))),
    "Sim2Config scale_range": lambda v: generate_sim2(Sim2Config(n=3, m=4, scale_range=v)),
    "exact_shift_geodesic a1": lambda v: exact_shift_geodesic("tsin", GRID, v, 0.5),
    "exact_shift_geodesic a2": lambda v: exact_shift_geodesic("tsin", GRID, 0.5, v),
    "fmt": lambda v: fmt(v),
    "BenchmarkConfig n_train": lambda v: _benchmark(n_train=v),
    "BenchmarkConfig n_test": lambda v: _benchmark(n_test=v),
    "BenchmarkConfig m": lambda v: _benchmark(m=v),
    "BenchmarkConfig seed": lambda v: _benchmark(seed=v),
    "BenchmarkConfig truncate_at": lambda v: _benchmark(truncate_at=v),
    "BenchmarkConfig knn_k": lambda v: _benchmark(knn_k=v),
    "BenchmarkConfig t_range": lambda v: _benchmark(t_range=v),
    "BenchmarkClass amp_range bound": lambda v: _benchmark_class(amp_range=[v, 1.0]),
    "BenchmarkClass shift_range": lambda v: _benchmark_class(shift_range=v),
    # arrays
    "geodesic_pipeline cloud": lambda v: geodesic_pipeline(v),
    "pairwise_euclidean_matrix cloud": lambda v: pairwise_euclidean_matrix(v),
    "euclidean_medoid cloud": lambda v: euclidean_medoid(v),
    "pipeline_diagnostics cloud": lambda v: pipeline_diagnostics(v, RESULT),
    "compute_emst distances": lambda v: compute_emst(v),
    "intrinsic_estimate matrix": lambda v: intrinsic_estimate(v),
    "intrinsic_estimate entry": lambda v: intrinsic_estimate([[0.0, v], [v, 0.0]]),
    "build_coverage_graph distances": lambda v: build_coverage_graph(v, RADII),
    "build_coverage_graph radii": lambda v: build_coverage_graph(DIST, v),
    "WeightedGraph edges": lambda v: WeightedGraph(3, v),
    "WeightedGraph edge entry": lambda v: WeightedGraph(3, [(0, v, 1.0)]),
    "CurvePanel grid": lambda v: CurvePanel(v, [[1.0, 2.0]]),
    "CurvePanel values": lambda v: CurvePanel([0.0, 1.0], v),
    "CurvePanel value entry": lambda v: CurvePanel([0.0, 1.0], [[v, 2.0]]),
    "CurvePanel shifts": lambda v: CurvePanel([0.0, 1.0], [[1.0, 2.0]], shifts=v),
    "cross_sectional_mean": lambda v: cross_sectional_mean(v),
    "cross_sectional_mean entry": lambda v: cross_sectional_mean([[v]]),
    "exact_shift_geodesic grid": lambda v: exact_shift_geodesic("tsin", v, 0.0, 1.0),
    "exact_geodesic_matrix grid": lambda v: exact_geodesic_matrix("tsin", v, [0.0, 1.0]),
    "exact_geodesic_matrix shifts": lambda v: exact_geodesic_matrix("tsin", GRID, v),
    "ShiftConfig shifts": lambda v: generate_shift_sample(ShiftConfig(m=4, shifts=v)),
    "ShiftConfig shift entry": lambda v: generate_shift_sample(ShiftConfig(m=4, shifts=[0.0, v])),
}
WRITERS = {
    "write_matrix": lambda path, v: write_matrix(path, v),
    "write_matrix entry": lambda path, v: write_matrix(path, [[v]]),
    "write_shifts": lambda path, v: write_shifts(path, v),
    "write_shifts entry": lambda path, v: write_shifts(path, [v]),
    "write_cloud": lambda path, v: write_cloud(path, v),
    "write_warp_params": lambda path, v: write_warp_params(path, {"shift": v}),
}
# the values a taker converts rather than refuses: an integer has no float64
# range, so a 400-digit seed seeds numpy's generator and a 400-digit k passes
# the config (a classifier bounds k by its training curves); numpy reads a
# bool inside an array as 0 or 1; fmt writes NaN as nan, and the matrix
# writer writes every float64, NaN included
ACCEPTED = {
    ("ClassifierConfig k", "huge"), ("ShiftConfig seed", "huge"), ("Sim1Config seed", "huge"),
    ("BenchmarkConfig seed", "huge"), ("BenchmarkConfig knn_k", "huge"), ("fmt", "nan"),
    ("write_matrix entry", "nan"),
}


def _accepted(taker, kind):
    return (taker, kind) in ACCEPTED or kind == "bool" and taker.endswith(" entry")


@pytest.mark.parametrize("kind", BAD_VALUES)
@pytest.mark.parametrize("taker", TAKERS)
def test_bad_numbers_and_arrays_end_in_package_errors(taker, kind):
    if _accepted(taker, kind):
        TAKERS[taker](BAD_VALUES[kind])
        return
    with pytest.raises(PACKAGE_ERRORS):
        TAKERS[taker](BAD_VALUES[kind])


@pytest.mark.parametrize("kind", BAD_VALUES)
@pytest.mark.parametrize("writer", WRITERS)
def test_writers_refuse_bad_arrays_before_opening_the_file(tmp_path, writer, kind):
    path = tmp_path / "out.csv"
    if _accepted(writer, kind):
        WRITERS[writer](path, BAD_VALUES[kind])
        return
    with pytest.raises(DataFormatError):
        WRITERS[writer](path, BAD_VALUES[kind])
    assert not path.exists()


PROBES = {
    "ClassifierConfig cap": (lambda: ClassifierConfig(cap=HUGE), "cap must be a finite number >= 1 or None"),
    "ClassifierConfig alpha": (lambda: ClassifierConfig(alpha=HUGE), "alpha must be a positive finite number"),
    "pipeline cap": (lambda: geodesic_pipeline(CLOUD, cap=HUGE), "cap must be"),
    "pipeline cloud": (lambda: geodesic_pipeline([[HUGE, 0.0]]), "point cloud must be a nonempty 2-D array"),
    "estimate alpha": (lambda: intrinsic_estimate(DIST, alpha=HUGE), "alpha must be"),
    "estimate matrix": (lambda: intrinsic_estimate([[0, HUGE], [HUGE, 0]]), "distance matrix must be"),
    "coverage tol": (lambda: build_coverage_graph(DIST, RADII, tol=HUGE), "tolerance must be"),
    "coverage radii": (lambda: build_coverage_graph([[0, 1], [1, 0]], ["a", "b"]), "radii must provide"),
    "sim1 noise text": (lambda: generate_sim1(Sim1Config(n=5, noise_sd="a")), "noise_sd must be"),
    "sim1 noise bool": (lambda: generate_sim1(Sim1Config(n=5, noise_sd=True)), "noise_sd must be"),
    "graph edge": (lambda: WeightedGraph(3, [(0, HUGE, 1.0)]), "edges must be"),
    "panel grid": (lambda: CurvePanel(["a", "b"], [[1.0, 2.0]]), "grid must be"),
    "panel value": (lambda: CurvePanel([0.0, 1.0], [[HUGE, 2.0]]), "values must be"),
    "panel shifts": (lambda: CurvePanel([0.0, 1.0], [[1.0, 2.0]], shifts=["x"]), "shifts must provide"),
    "mean": (lambda: cross_sectional_mean([[HUGE]]), "rectangular 2-D array"),
    "exact grid": (lambda: exact_shift_geodesic("tsin", ["a"], 0.0, 1.0), "grid must be"),
    "exact shift": (lambda: exact_shift_geodesic("tsin", GRID, "x", 1.0), "shifts must be finite numbers"),
    "exact matrix": (lambda: exact_geodesic_matrix("tsin", GRID, ["a"]), "shifts must be"),
    "explicit shifts": (lambda: generate_shift_sample(ShiftConfig(shifts=["a"])), "explicit shifts must be"),
    "predict": (lambda: predict_labels(CLASSIFIER, PANEL, truncate_at=HUGE), "truncate_at must be"),
}


@pytest.mark.parametrize("call, message", PROBES.values(), ids=PROBES.keys())
def test_values_that_once_escaped_as_raw_errors_are_usage_errors(call, message):
    # each ended in numpy's or Python's ValueError, TypeError or
    # OverflowError; noise_sd=True drew noise of sd 1
    with pytest.raises(UsageError, match=message):
        call()


@pytest.mark.parametrize("write, value", [(write_matrix, [["a"]]), (write_shifts, [HUGE])], ids=["matrix", "shifts"])
def test_writers_refuse_what_they_cannot_convert(tmp_path, write, value):
    with pytest.raises(DataFormatError, match="must be an array of numbers"):
        write(tmp_path / "out.csv", value)


def test_edge_list_with_a_vertex_index_past_float64_is_a_data_format_error(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(f"i,j,weight\r\n0,{'9' * 400},1\r\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"{path}: vertex count must be a nonnegative integer below 2\\*\\*63"):
        read_edges(path)


@pytest.mark.parametrize("key", ["cap", "alpha", "truncate_at"])
def test_classify_config_with_a_value_past_float64_exits_3(tmp_path, capsys, key):
    train = tmp_path / "train.csv"
    write_panel(train, PANEL)
    config = tmp_path / "config.json"
    config.write_text(f'{{"{key}": 1{"0" * 400}}}', encoding="utf-8")
    code = main(["classify", "--train", str(train), "--test", str(train), "--config", str(config),
                 "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith(f"error: {config}: {key} must be") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------- sizes past memory

SIZES = {
    "shift n": (["--model", "shift", "--n", "100"], lambda: generate_shift_sample(ShiftConfig(n=100)), "100 x 100"),
    "shift m": (["--model", "shift", "--n", "5", "--m", "1000"],
                lambda: generate_shift_sample(ShiftConfig(n=5, m=1000)), "5 x 1000"),
    "shift explicit": (None, lambda: generate_shift_sample(ShiftConfig(shifts=np.zeros(50))), "50 x 100"),
    "sim1 n": (["--model", "sim1", "--n", "1000"], lambda: generate_sim1(Sim1Config(n=1000)), "1000 x 2"),
    "sim1 truth": (None, lambda: sim1_truth(1000), "1000 x 2"),
    "sim2 n": (["--model", "sim2", "--n", "100"], lambda: generate_sim2(Sim2Config(n=100)), "100 x 100"),
    "benchmark": (None, lambda: generate_benchmark(BENCHMARK), "300 x 100"),
}


@pytest.mark.parametrize("argv, call, size", SIZES.values(), ids=SIZES.keys())
def test_samples_past_physical_memory_are_refused_before_allocating(tmp_path, capsys, monkeypatch, argv, call, size):
    # 10 kB of memory: every sample here needs more, and none is drawn
    monkeypatch.setattr(models, "_physical_memory", lambda: 1e4)
    with pytest.raises(UsageError, match=f"a sample of {size} values does not fit in this machine's 1e-05 GB"):
        call()
    if argv is not None:
        code = main(["simulate", *argv, "--out", str(tmp_path / "out" / "s")])
        assert code == 2 and f"a sample of {size} values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["--model", "shift", "--n", "1" + "0" * 23], ["--model", "shift", "--n", "5", "--m", "1" + "0" * 23],
     ["--model", "sim1", "--n", "1" + "0" * 23]],
    ids=["shift n", "shift m", "sim1 n"],
)
def test_sizes_numpy_cannot_hold_exit_2(tmp_path, capsys, argv):
    # numpy's "Maximum allowed dimension exceeded" ValueError ended these
    # with exit 1; no machine has the memory, so nothing is allocated
    code = main(["simulate", *argv, "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert code == 2 and "values does not fit in this machine's" in err and "Traceback" not in err


# --------------------------------------------- refusals no other test reaches

def _single_class_file(tmp_path):
    raw = json.loads(BENCHMARK_CONFIG.read_text(encoding="utf-8"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, "classes": raw["classes"][:1]}), encoding="utf-8")
    return path


def _quadrature_stopped_early(tmp_path, monkeypatch):
    monkeypatch.setattr(models, "_QUAD_MAX_INTERVALS", 4)
    return exact_shift_geodesic("tsin", np.linspace(-10.0, 10.0, 100), 0.0, 1.0)


REFUSALS = {
    "one class": (
        lambda tmp, mp: _benchmark(classes=BENCHMARK.classes[:1]),
        UsageError, "benchmark needs at least two classes",
    ),
    "one class in a file": (
        lambda tmp, mp: load_benchmark_config(_single_class_file(tmp)),
        DataFormatError, r"config\.json: bad benchmark config \(benchmark needs at least two classes\)",
    ),
    "classifier config not an object": (
        lambda tmp, mp: ClassifierConfig.from_dict([1]), UsageError, "classifier config must be a JSON object",
    ),
    "empty confusion": (
        lambda tmp, mp: ConfusionMatrix(["a"], np.zeros((1, 1), dtype=int)).accuracy(),
        UsageError, "empty confusion matrix",
    ),
    "no explicit shifts": (
        lambda tmp, mp: generate_shift_sample(ShiftConfig(shifts=[])),
        UsageError, "explicit shifts must be a nonempty 1-D sequence",
    ),
    "exact empty grid": (
        lambda tmp, mp: exact_shift_geodesic("tsin", [], 0.0, 1.0), UsageError, "grid must be a nonempty 1-D array",
    ),
    "exact 2-D grid": (
        lambda tmp, mp: exact_shift_geodesic("tsin", [[0.0, 1.0]], 0.0, 1.0),
        UsageError, "grid must be a nonempty 1-D array",
    ),
    "exact no shifts": (
        lambda tmp, mp: exact_geodesic_matrix("tsin", GRID, []), UsageError, "shifts must be a nonempty 1-D array",
    ),
    "quadrature stops short": (
        _quadrature_stopped_early, NumericError, "quadrature did not converge below relative tolerance 1e-08",
    ),
    "no shifts to measure": (
        lambda tmp, mp: intrinsic_median_exact(CurvePanel(GRID, CLOUD)), UsageError, "panel carries no ground-truth",
    ),
    "no curves": (lambda tmp, mp: CurvePanel(GRID, np.empty((0, 4))), UsageError, "panel needs at least one curve"),
    "mean of a 1-D array": (
        lambda tmp, mp: cross_sectional_mean([1.0, 2.0]), UsageError, "panel rows must form a rectangular 2-D array",
    ),
    "mean of a 3-D array": (
        lambda tmp, mp: cross_sectional_mean(np.ones((2, 2, 2))), UsageError, "rows must form a rectangular 2-D array",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_refusal_names_its_cause(tmp_path, monkeypatch, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path, monkeypatch)
