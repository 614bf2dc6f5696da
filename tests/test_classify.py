import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemedian import (
    ClassifierConfig,
    CurvePanel,
    DataFormatError,
    KnnClassifier,
    NumericError,
    ShiftConfig,
    UsageError,
    confusion_from_predictions,
    evaluate,
    extract_templates,
    generate_benchmark,
    generate_shift_sample,
    intrinsic_median_exact,
    load_benchmark_config,
    predict_labels,
    run_benchmark,
)
from curvemedian import geometry
from oracles import knn_label, nearest_template_label


GRID = np.array([0.0, 1.0, 2.0, 3.0])


def panel(values, labels):
    return CurvePanel(GRID, np.asarray(values, dtype=float), labels=labels)


def nearest(templates, query, truncate_at=None):
    """The label `predict_labels` gives a one-row panel holding the query, on
    the first len(query) points of GRID."""
    return predict_labels(templates, CurvePanel(GRID[: len(query)], [query]), truncate_at)[0]


def knn(train, query, k, truncate_at=None):
    return nearest(KnnClassifier(train, k), query, truncate_at)


def two_class_shift_panel(n_per_class=7, seed=0):
    rng = np.random.default_rng(seed)
    grid = np.linspace(-10, 10, 60)
    rows, labels = [], []
    for label, target in (("a", "tsin"), ("b", "gaussian_bump")):
        sample = generate_shift_sample(
            ShiftConfig(target=target, n=n_per_class, m=60, shifts=rng.uniform(-1, 1, n_per_class))
        )
        rows.append(sample.values)
        labels += [label] * n_per_class
    return CurvePanel(grid, np.vstack(rows), labels=labels)


# ---------------------------------------------------------------- templates

def test_single_curve_class_is_its_own_template():
    train = panel([[1.0, 2.0, 3.0, 4.0]], ["only"])
    for method in ("manifold", "mean", "medoid"):
        ts = extract_templates(train, method)
        assert ts.k == 1 and ts.labels == ts.train.labels == ["only"]
        assert np.array_equal(ts.train.grid, GRID)
        assert ts.train.values.tobytes() == train.values.tobytes()


def test_mean_template_is_pointwise_average():
    train = panel([[0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0]], ["x", "x"])
    ts = extract_templates(train, "mean")
    assert ts.train.values.tolist() == [[1.0, 1.0, 1.0, 1.0]]
    assert ts.train.labels == ["x"]


def test_manifold_template_matches_exact_shift_median():
    sample = generate_shift_sample(ShiftConfig(n=11, seed=4, shift_range=(-0.5, 0.5)))
    train = CurvePanel(sample.grid, sample.values, labels=["s"] * 11, shifts=sample.shifts)
    exact = intrinsic_median_exact(sample)
    for cap in (2.0, None):
        ts = extract_templates(train, "manifold", cap=cap)
        assert ts.train.values.tobytes() == sample.values[exact.index : exact.index + 1].tobytes()


def test_medoid_template_picks_central_row():
    train = panel([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [5.0, 5.0, 5.0, 5.0]], ["x"] * 3)
    ts = extract_templates(train, "medoid")
    assert ts.train.values.tobytes() == train.values[1:2].tobytes()


def test_templates_keep_sorted_label_order():
    train = panel([[1.0] * 4, [2.0] * 4, [3.0] * 4], ["zebra", "ant", "ant"])
    ts = extract_templates(train, "mean")
    assert ts.labels == ts.train.labels == ["ant", "zebra"]
    assert ts.train.values[0].tolist() == [2.5] * 4
    assert ts.train.values[1].tolist() == [1.0] * 4
    # a copied template is its own training row, in label order too
    ts = extract_templates(train, "medoid")
    assert ts.train.labels == ["ant", "zebra"]
    assert ts.train.values.tobytes() == train.values[[1, 0]].tobytes()


def test_each_template_nearest_to_its_own_class():
    train = two_class_shift_panel()
    test = two_class_shift_panel(seed=1)
    for method in ("manifold", "mean", "medoid"):
        ts = extract_templates(train, method)
        cm = evaluate(ts, test)
        assert cm.accuracy() == 1.0


def test_extract_templates_requires_labels():
    with pytest.raises(UsageError):
        extract_templates(CurvePanel(GRID, np.zeros((2, 4))), "mean")


def test_extract_templates_unknown_method():
    with pytest.raises(UsageError):
        extract_templates(panel([[0.0] * 4], ["x"]), "centroid")


# ----------------------------------------------------- nearest-template use

def test_exact_query_returns_its_template_label():
    train = panel([[0.0] * 4, [10.0] * 4], ["lo", "hi"])
    ts = extract_templates(train, "medoid")
    assert nearest(ts, [0.0, 0.0, 0.0, 0.0]) == "lo"
    assert nearest(ts, [10.0, 10.0, 10.0, 10.0]) == "hi"


def test_template_tie_resolves_in_label_order():
    train = panel([[0.0] * 4, [2.0] * 4], ["q", "b"])
    ts = extract_templates(train, "medoid")
    # query equidistant from both templates
    assert nearest(ts, [1.0, 1.0, 1.0, 1.0]) == "b"


def test_truncation_ignores_late_grid_points():
    # identical before t=2, very different after
    train = panel([[0.0, 0.0, 50.0, 50.0], [0.0, 0.0, -50.0, -50.0]], ["up", "down"])
    ts = extract_templates(train, "medoid")
    query = [0.0, 0.0, 49.0, 49.0]
    assert nearest(ts, query) == "up"
    # with only the flat prefix left the tie falls back to label order
    assert nearest(ts, query, truncate_at=2.0) == "down"


def test_truncation_cutoff_is_strict():
    train = panel([[0.0, 0.0, 0.0, 9.0], [0.0, 0.0, 0.0, -9.0]], ["pos", "neg"])
    ts = extract_templates(train, "medoid")
    query = [0.0, 0.0, 0.0, 8.0]
    # grid point t=3 dropped by truncate_at=3 -> pure tie -> label order
    assert nearest(ts, query, truncate_at=3.0) == "neg"
    assert nearest(ts, query, truncate_at=3.5) == "pos"


def test_truncation_removing_all_points_rejected():
    train = panel([[0.0] * 4], ["x"])
    ts = extract_templates(train, "medoid")
    with pytest.raises(UsageError):
        nearest(ts, [0.0] * 4, truncate_at=-1.0)


def test_query_length_checked():
    ts = extract_templates(panel([[0.0] * 4], ["x"]), "medoid")
    with pytest.raises(UsageError):
        nearest(ts, [0.0, 1.0])


# --------------------------------------------------------------------- knn

def test_knn_k1_copies_nearest_neighbor_label():
    train = panel([[0.0] * 4, [10.0] * 4], ["lo", "hi"])
    assert knn(train, [1.0] * 4, k=1) == "lo"
    assert knn(train, [9.0] * 4, k=1) == "hi"


def test_knn_k_equals_n_votes_by_majority():
    train = panel([[0.0] * 4, [1.0] * 4, [10.0] * 4], ["a", "a", "b"])
    assert knn(train, [10.0] * 4, k=3) == "a"


def test_knn_k3_mixed_neighborhood():
    train = panel([[0.0] * 4, [2.0] * 4, [3.0] * 4, [50.0] * 4], ["a", "b", "b", "a"])
    assert knn(train, [2.5] * 4, k=3) == "b"


def test_knn_vote_tie_takes_sorted_label_order():
    train = panel([[0.0] * 4, [4.0] * 4], ["z", "c"])
    assert knn(train, [2.0] * 4, k=2) == "c"


def test_knn_neighbor_tie_takes_smaller_row():
    train = panel([[0.0] * 4, [4.0] * 4, [4.0] * 4], ["a", "b", "c"])
    # rows 1 and 2 both at distance 0 from the query; k=1 must take row 1
    assert knn(train, [4.0] * 4, k=1) == "b"


def test_knn_k_out_of_range():
    train = panel([[0.0] * 4], ["x"])
    with pytest.raises(UsageError):
        knn(train, [0.0] * 4, k=0)
    with pytest.raises(UsageError):
        knn(train, [0.0] * 4, k=2)


def test_knn_classifier_is_checked_when_built():
    train = panel([[0.0] * 4, [1.0] * 4], ["a", "b"])
    for k in (0, 3, 2.0, True, None):
        with pytest.raises(UsageError, match=r"k must be an integer in \[1, 2\]"):
            KnnClassifier(train, k)
    with pytest.raises(UsageError, match="training panel carries no class labels"):
        KnnClassifier(CurvePanel(GRID, train.values), 1)


@pytest.mark.parametrize("k", [2.5, True])
def test_knn_non_integer_k_is_usage_error(k):
    # a float would reach numpy as a slice bound, and True would count as 1
    train = panel([[0.0] * 4, [1.0] * 4, [10.0] * 4], ["a", "a", "b"])
    with pytest.raises(UsageError, match="integer"):
        knn(train, [0.0] * 4, k=k)


def test_knn_perfect_on_seen_points():
    train = two_class_shift_panel()
    clf = KnnClassifier(train, k=1)
    cm = evaluate(clf, train)
    assert cm.accuracy() == 1.0


# --------------------------------------------------------------- confusion

def test_confusion_rows_are_reference_columns_prediction():
    cm = confusion_from_predictions(["a", "b"], ["a", "a", "b"], ["a", "b", "b"])
    assert cm.labels == ["a", "b"]
    assert cm.counts.tolist() == [[1, 1], [0, 1]]
    assert cm.accuracy() == pytest.approx(2.0 / 3.0)


def test_confusion_row_sums_are_class_test_counts():
    train = two_class_shift_panel(n_per_class=5)
    test = two_class_shift_panel(n_per_class=9, seed=2)
    cm = evaluate(extract_templates(train, "mean"), test)
    assert cm.counts.sum(axis=1).tolist() == [9, 9]


def test_unknown_test_label_rejected():
    train = panel([[0.0] * 4], ["a"])
    test = panel([[0.0] * 4], ["mystery"])
    ts = extract_templates(train, "medoid")
    with pytest.raises(UsageError, match="mystery"):
        evaluate(ts, test)


# integer curves: squared distances are exact, so equal distances are true
# ties and the tie rules alone decide them


def _int_rows(data, n, m):
    return data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=n, max_size=n))


def _test_panel(data):
    """A grid of 2..5 points, a cutoff (or None) with the active column
    indices it leaves, and 1..6 integer test curves."""
    m = data.draw(st.integers(2, 5), label="m")
    grid = np.arange(m, dtype=float)
    truncate_at = data.draw(st.sampled_from([None, *grid[1:]]), label="truncate_at")
    cols = range(m) if truncate_at is None else range(int(truncate_at))
    return grid, truncate_at, cols, CurvePanel(grid, _int_rows(data, data.draw(st.integers(1, 6)), m))


@given(st.data())
def test_predict_labels_matches_per_query_template_oracle(data):
    grid, truncate_at, cols, test = _test_panel(data)
    labels = sorted(data.draw(st.sets(st.sampled_from("abcd"), min_size=1), label="labels"))
    curves = np.array(_int_rows(data, len(labels), grid.size), dtype=float)
    ts = KnnClassifier(CurvePanel(grid, curves, labels=labels), 1)
    want = [nearest_template_label(curves, labels, row, cols) for row in test.values]
    assert predict_labels(ts, test, truncate_at) == want


@given(st.data())
def test_predict_labels_matches_per_query_knn_oracle(data):
    grid, truncate_at, cols, test = _test_panel(data)
    n = data.draw(st.integers(1, 8), label="n")
    labels = data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n), label="labels")
    train = CurvePanel(grid, _int_rows(data, n, grid.size), labels=labels)
    k = data.draw(st.integers(1, n), label="k")
    want = [knn_label(train.values, labels, row, k, cols) for row in test.values]
    assert predict_labels(KnnClassifier(train, k), test, truncate_at) == want


def test_panel_distances_match_one_query_sums(monkeypatch):
    # classification's distances come from the pipeline's kernel, and each
    # row of a stack is bit-identical to that row's one-query call, as is
    # each column to its one-reference call, a lone query or reference and
    # blocks of one row included
    rng = np.random.default_rng(5)
    for block in (geometry._DIST_BLOCK, 1):
        monkeypatch.setattr(geometry, "_DIST_BLOCK", block)
        for p in (2, 3, 7, 77, 101, 1000):
            for refs, queries in ((7, 30), (30, 7), (1, 9), (9, 1), (1, 1), (2, 1), (1, 2)):
                r, q = rng.normal(size=(refs, p)) * 1e3, rng.normal(size=(queries, p)) * 1e3
                d = geometry._cross_distances(q, r)
                assert d.shape == (queries, refs)
                for t in range(queries):
                    assert d[t].tobytes() == geometry._cross_distances(q[t : t + 1], r).tobytes()
                for j in range(refs):
                    assert d[:, j].tobytes() == geometry._cross_distances(q, r[j : j + 1]).ravel().tobytes()


def test_cross_distances_rescale_at_the_joint_extent_of_both_sets():
    # the kernel rescales at the extent of the two sets together, taken
    # without joining them: scaled by 2^k the distances scale bit for bit,
    # and two sets whose extents are each below 2^400 but whose joint extent
    # is above it (squared differences near 2^802) are rescaled too
    rng = np.random.default_rng(7)
    for queries, refs in ((200, 2), (2, 200)):
        q, r = rng.normal(size=(queries, 100)), rng.normal(size=(refs, 100))
        base = geometry._cross_distances(q, r)
        for k in (0, -420, 410):
            a, b = np.ldexp(q, k), np.ldexp(r, k)
            assert geometry._exponent(a, b) == geometry._exponent(np.concatenate((a, b))), k
            assert geometry._cross_distances(a, b).tobytes() == np.ldexp(base, k).tobytes(), k
        moved = geometry._cross_distances(q * 1e300, r * 1e300)
        assert np.abs(moved / 1e300 - base).max() <= 1e-15 * base.max()
        near, far = np.ldexp(q, 396), np.ldexp(r + 32.0, 396)
        assert max(geometry._exponent(near), geometry._exponent(far)) == 0 < geometry._exponent(near, far)
        moved = geometry._cross_distances(near, far)
        assert moved.tobytes() == np.ldexp(geometry._cross_distances(q, r + 32.0), 396).tobytes()


def _benchmark_predictions(train, test, knn_k):
    classifiers = [extract_templates(train, method) for method in ("manifold", "mean", "medoid")]
    return [predict_labels(c, test) for c in classifiers + [KnnClassifier(train, knn_k)]]


def _accuracies(predictions, test):
    return [float(np.mean(np.array(p) == np.array(test.labels))) for p in predictions]


def test_predictions_follow_scaling():
    # every query distance of the bundled benchmark overflows at 1e160 and
    # underflows to 0 at 1e-170 unless rescaled; scaling by 2^k is exact
    cfg = load_benchmark_config(BENCHMARK_CONFIG)
    train, test = generate_benchmark(cfg)
    want = _benchmark_predictions(train, test, cfg.knn_k)
    for scale in (2.0**530, 2.0**-560, 1e160, 1e-170):
        scaled = [CurvePanel(p.grid, p.values * scale, labels=p.labels) for p in (train, test)]
        got = _benchmark_predictions(*scaled, cfg.knn_k)
        if scale in (2.0**530, 2.0**-560):
            assert got == want, scale
        else:
            assert _accuracies(got, test) == _accuracies(want, test), scale


def test_distance_beyond_float64_is_numeric_error():
    # each difference is finite, but the 4-point distance is 2e308
    far = panel([[1e308] * 4, [0.0] * 4], ["far", "near"])
    query = panel([[0.0] * 4], ["near"])
    for classifier in (extract_templates(far, "medoid"), KnnClassifier(far, 1)):
        with pytest.raises(NumericError, match="overflow"):
            predict_labels(classifier, query)
    # and a mean template whose sum overflows is refused when it is built
    far = panel([[1e308] * 4, [1.5e308] * 4, [0.0] * 4], ["far", "far", "near"])
    with pytest.raises(NumericError, match="overflows"):
        extract_templates(far, "mean")


# ------------------------------------------------------------------ config

def test_classifier_config_round_trip():
    cfg = ClassifierConfig(method="knn", alpha=2.0, k=3, truncate_at=1.5)
    assert ClassifierConfig.from_dict(cfg.to_dict()) == cfg
    for cap in (None, 3.0):
        cfg = ClassifierConfig(cap=cap)
        assert cfg.to_dict()["cap"] == cap and ClassifierConfig.from_dict(cfg.to_dict()) == cfg


def test_classifier_config_rejects_unknown_keys():
    with pytest.raises(UsageError, match="bogus"):
        ClassifierConfig.from_dict({"method": "mean", "bogus": 1})


def test_classifier_config_rejects_unknown_method():
    with pytest.raises(UsageError):
        ClassifierConfig.from_dict({"method": "svm"})


@pytest.mark.parametrize("method", ["manifold", "mean", "medoid", "knn"])
def test_classifier_config_checks_every_value_when_built(method):
    # whatever the method, each value is checked, not only those it uses
    cfg = ClassifierConfig(method=method)
    for bad in (
        {"k": 0}, {"k": True}, {"k": 2.0}, {"alpha": 0.0}, {"alpha": True}, {"cap": 0.5},
        {"cap": float("nan")}, {"truncate_at": "a"}, {"truncate_at": True},
    ):
        (key,) = bad
        with pytest.raises(UsageError, match=f"{key} must be"):
            ClassifierConfig(method=method, **bad)
        with pytest.raises(UsageError, match=f"{key} must be"):
            dataclasses.replace(cfg, **bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k = 0


@pytest.mark.parametrize("truncate_at", ["a", True, False, [2.0]])
def test_truncate_at_must_be_a_number_or_none(truncate_at):
    # a string reached numpy's comparison (a raw TypeError), a bool and a
    # list compared as numbers
    train = panel([[0.0] * 4, [1.0] * 4], ["a", "b"])
    for classifier in (extract_templates(train, "mean"), KnnClassifier(train, 1)):
        assert predict_labels(classifier, train, np.float64(2.0)) == ["a", "b"]
        for run in (predict_labels, evaluate):
            with pytest.raises(UsageError, match="truncate_at must be a number or None"):
                run(classifier, train, truncate_at)


@pytest.mark.parametrize("truncate_at", [np.inf, -np.inf, np.nan, np.float64(np.inf)])
def test_truncate_at_must_be_finite(truncate_at):
    # inf ran, and a classifier config kept it for JSON's invalid Infinity;
    # nan failed only as a truncation that "removes every grid point"
    message = "truncate_at must be a finite number or None"
    with pytest.raises(UsageError, match=message):
        ClassifierConfig(truncate_at=truncate_at)
    train = panel([[0.0] * 4, [1.0] * 4], ["a", "b"])
    for classifier in (extract_templates(train, "mean"), KnnClassifier(train, 1)):
        for run in (predict_labels, evaluate):
            with pytest.raises(UsageError, match=message):
                run(classifier, train, truncate_at)
    cfg = dataclasses.replace(load_benchmark_config(BENCHMARK_CONFIG), n_train=3, n_test=1, truncate_at=truncate_at)
    with pytest.raises(UsageError, match=message):
        run_benchmark(cfg, methods=("knn",))


# ---------------------------------------------------------------- benchmark

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark_2class.json"


def _bundled_with(key, value):
    raw = json.loads(BENCHMARK_CONFIG.read_text(encoding="utf-8"))
    if key.startswith("classes."):
        raw["classes"][0][key.partition(".")[2]] = value
    else:
        raw[key] = value
    return raw


BAD_BENCHMARK_CONFIGS = {
    "scalar root": (5, "JSON object"),
    "text n_train": (_bundled_with("n_train", "50"), "'n_train' must be an integer"),
    "text m": (_bundled_with("m", "100"), "'m' must be an integer"),
    "bool seed": (_bundled_with("seed", True), "'seed' must be an integer"),
    "text amp_range": (_bundled_with("classes.amp_range", "ab"), r"'amp_range' must be a \[lo, hi\] pair"),
    "short t_range": (_bundled_with("t_range", [0.0]), r"'t_range' must be a \[lo, hi\] pair"),
    "text truncate_at": (_bundled_with("truncate_at", "x"), "'truncate_at' must be a number or null"),
    "unknown key": (_bundled_with("cap", 2.0), r"unknown config keys: \['cap'\]"),
    "class not an object": (_bundled_with("classes", [1, 2]), "class must be a JSON object"),
}


@pytest.mark.parametrize("raw, message", BAD_BENCHMARK_CONFIGS.values(), ids=BAD_BENCHMARK_CONFIGS.keys())
def test_malformed_benchmark_config_is_data_format_error(tmp_path, raw, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(DataFormatError, match=message) as info:
        load_benchmark_config(path)
    assert str(info.value).startswith(f"{path}: ")


def test_bundled_benchmark_config_loads_and_bad_seeds_are_usage_errors():
    cfg = load_benchmark_config(BENCHMARK_CONFIG)
    assert [c.label for c in cfg.classes] == ["wave", "pulse"] and cfg.seed == 0 and cfg.t_range == [-10.0, 10.0]
    for seed in (-1, 1.5, True):
        with pytest.raises(UsageError, match="seed must be a nonnegative integer"):
            generate_benchmark(dataclasses.replace(cfg, seed=seed))


@pytest.mark.parametrize("key", ["amp_range", "shift_range"])
@pytest.mark.parametrize("bounds", [(5.0, 1.0), (1.0, 1.0), (float("nan"), 1.0), (-1e308, 1e308)])
def test_benchmark_class_ranges_are_finite_intervals(key, bounds):
    # the reversed range reached numpy's ValueError, the nan and the overwide
    # one its OverflowError, and the empty one drew a constant; the
    # simulators refuse all four
    cfg = load_benchmark_config(BENCHMARK_CONFIG)
    classes = [cfg.classes[0], dataclasses.replace(cfg.classes[1], **{key: list(bounds)})]
    with pytest.raises(UsageError, match=rf"class 'pulse' {key} must be a finite interval \(lo < hi\)"):
        generate_benchmark(dataclasses.replace(cfg, classes=classes))


@pytest.mark.parametrize(
    "key, value, message",
    [("n_train", 2.5, "n_train must be an integer"), ("n_test", 0, "n_test must be >= 1"), ("m", 1.5, "m must be an integer")],
)
def test_benchmark_counts_are_integers_in_range(key, value, message):
    cfg = dataclasses.replace(load_benchmark_config(BENCHMARK_CONFIG), **{key: value})
    with pytest.raises(UsageError, match=message):
        generate_benchmark(cfg)
