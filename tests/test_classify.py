import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemedian import (
    ClassifierConfig,
    CurvePanel,
    KnnClassifier,
    ShiftConfig,
    TemplateSet,
    UsageError,
    confusion_from_predictions,
    evaluate,
    extract_templates,
    generate_shift_sample,
    intrinsic_median_exact,
    predict_labels,
)
from curvemedian import classify
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
        assert ts.labels == ["only"]
        assert ts.curves.tolist() == [[1.0, 2.0, 3.0, 4.0]]
        assert ts.provenance == [None] if method == "mean" else [0]


def test_mean_template_is_pointwise_average():
    train = panel([[0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0]], ["x", "x"])
    ts = extract_templates(train, "mean")
    assert ts.curves.tolist() == [[1.0, 1.0, 1.0, 1.0]]
    assert ts.provenance == [None]


def test_manifold_template_matches_exact_shift_median():
    sample = generate_shift_sample(ShiftConfig(n=11, seed=4, shift_range=(-0.5, 0.5)))
    train = CurvePanel(sample.grid, sample.values, labels=["s"] * 11, shifts=sample.shifts)
    exact = intrinsic_median_exact(sample)
    for cap in (2.0, None):
        ts = extract_templates(train, "manifold", cap=cap)
        assert ts.provenance == [exact.index]
        assert np.array_equal(ts.curves[0], sample.values[exact.index])


def test_medoid_template_picks_central_row():
    train = panel([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [5.0, 5.0, 5.0, 5.0]], ["x"] * 3)
    ts = extract_templates(train, "medoid")
    assert ts.provenance == [1]


def test_templates_keep_sorted_label_order():
    train = panel([[1.0] * 4, [2.0] * 4, [3.0] * 4], ["zebra", "ant", "ant"])
    ts = extract_templates(train, "mean")
    assert ts.labels == ["ant", "zebra"]
    assert ts.curves[0].tolist() == [2.5] * 4
    assert ts.curves[1].tolist() == [1.0] * 4


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
    ts = TemplateSet("mean", grid, labels, curves, [None] * len(labels))
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


def test_panel_distances_match_one_query_sums():
    # a panel's distances are bit-identical to those of its rows one at a
    # time, including a lone query or a lone reference
    rng = np.random.default_rng(5)
    for refs, queries in ((7, 30), (30, 7), (1, 9), (9, 1), (1, 1)):
        r, q = rng.normal(size=(refs, 101)) * 1e3, rng.normal(size=(queries, 101)) * 1e3
        cols = np.arange(101) < 77
        d = classify._distances(r, q, cols)
        for t in range(queries):
            diff = r[:, cols] - q[t, cols][None, :]
            assert d[t].tobytes() == np.sqrt(np.einsum("nk,nk->n", diff, diff)).tobytes()


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
