import re

import numpy as np
import pytest

from curvemedian import (
    CurvePanel,
    DataFormatError,
    ShiftConfig,
    Sim1Config,
    Sim2Config,
    TEMPLATE_METHODS,
    ball_radii,
    compute_emst,
    generate_shift_sample,
    generate_sim1,
    generate_sim2,
    load_benchmark_config,
    pairwise_euclidean_matrix,
    read_cloud,
    read_edges,
    read_json,
    read_matrix,
    read_panel,
    sim1_truth,
    write_cloud,
    write_json,
    write_panel,
    write_shifts,
    write_warp_params,
)
from curvemedian.cli import build_parser, main
from oracles import oracle_chords


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def labeled_two_class_panel():
    a = generate_shift_sample(ShiftConfig(target="tsin", n=4, shifts=[-0.5, 0.0, 0.5, 1.0]))
    b = generate_shift_sample(ShiftConfig(target="gaussian_bump", n=4, shifts=[-0.5, 0.0, 0.5, 1.0]))
    return CurvePanel(a.grid, np.vstack([a.values, b.values]), labels=["a"] * 4 + ["b"] * 4)


# ---------------------------------------------------------------- simulate

def test_simulate_sim2_writes_panel_and_truth(tmp_path, capsys):
    code, out, _ = run(
        capsys, "simulate", "--model", "sim2", "--n", "9", "--seed", "7",
        "--out", str(tmp_path / "warp"),
    )
    assert code == 0
    assert "model: sim2" in out and "seed: 7" in out
    panel = read_panel(tmp_path / "warp.csv")
    assert panel.n == 9 and panel.m == 100
    truth = (tmp_path / "warp.truth.csv").read_text().splitlines()
    assert truth[0] == "index,amplitude,scale,shift"
    assert len(truth) == 10


def test_simulate_sim1_noiseless_is_exact_parabola(tmp_path, capsys):
    code, _, _ = run(
        capsys, "simulate", "--model", "sim1", "--n", "30", "--noise-sd", "0",
        "--out", str(tmp_path / "par"),
    )
    assert code == 0
    assert np.array_equal(read_cloud(tmp_path / "par.csv"), sim1_truth(30))
    assert np.array_equal(read_cloud(tmp_path / "par.truth.csv"), sim1_truth(30))


def test_simulate_shift_truth_holds_shifts(tmp_path, capsys):
    code, _, _ = run(
        capsys, "simulate", "--model", "shift", "--n", "5", "--seed", "3",
        "--out", str(tmp_path / "s"),
    )
    assert code == 0
    panel = read_panel(tmp_path / "s.csv")
    assert panel.n == 5
    lines = (tmp_path / "s.truth.csv").read_text().splitlines()
    assert lines[0] == "index,shift" and len(lines) == 6


@pytest.mark.parametrize("model", ["shift", "sim1", "sim2"])
def test_simulate_defaults_are_the_model_configs(tmp_path, capsys, model):
    # every flag left out takes its config's default, --shift-range included
    # (U(-2, 2) for shift, U(-10, 10) for sim2)
    code, out, _ = run(capsys, "simulate", "--model", model, "--n", "7", "--out", str(tmp_path / "cli"))
    assert code == 0 and "seed: 0" in out
    if model == "shift":
        panel = generate_shift_sample(ShiftConfig(n=7))
        write_panel(tmp_path / "api.csv", panel)
        write_shifts(tmp_path / "api.truth.csv", panel.shifts)
    elif model == "sim1":
        write_cloud(tmp_path / "api.csv", generate_sim1(Sim1Config(n=7)))
        write_cloud(tmp_path / "api.truth.csv", sim1_truth(7))
    else:
        panel = generate_sim2(Sim2Config(n=7))
        write_panel(tmp_path / "api.csv", panel)
        write_warp_params(tmp_path / "api.truth.csv", panel.warp_params)
    for suffix in (".csv", ".truth.csv"):
        assert (tmp_path / f"cli{suffix}").read_bytes() == (tmp_path / f"api{suffix}").read_bytes()


def test_simulate_repeats_are_byte_identical(tmp_path, capsys):
    for name in ("one", "two"):
        run(
            capsys, "simulate", "--model", "sim2", "--n", "6", "--seed", "11",
            "--out", str(tmp_path / name),
        )
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "one.truth.csv").read_bytes() == (tmp_path / "two.truth.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "sim1", "--noise-sd", "nan"],
        ["--model", "sim1", "--noise-sd", "inf"],
        ["--model", "sim1", "--noise-sd", "-0.1"],
        ["--model", "shift", "--shift-range", "0", "inf"],
        ["--model", "shift", "--t-range", "0", "inf"],
        ["--model", "shift", "--shift-range", "nan", "1"],
        ["--model", "sim2", "--amp-range", "0", "inf"],
        ["--model", "sim2", "--scale-range", "0", "inf"],
        ["--model", "shift", "--shift-range", "-1e308", "1e308"],
        ["--model", "shift", "--seed", "-1"],
        ["--model", "sim1", "--seed", "-1"],
        ["--model", "sim2", "--seed", "-1"],
    ],
    ids=["noise-nan", "noise-inf", "noise-negative", "shift-inf", "t-inf", "shift-nan",
         "amp-inf", "scale-inf", "shift-overflow", "shift-seed", "sim1-seed", "sim2-seed"],
)
def test_simulate_bad_parameter_exits_2_writing_nothing(tmp_path, capsys, argv):
    # a refused run makes neither the files nor the directory of its prefix
    code, out, err = run(capsys, "simulate", "--n", "5", "--out", str(tmp_path / "o" / "x"), *argv)
    assert code == 2 and err.startswith("error: ") and out == ""
    assert not list(tmp_path.iterdir())


def test_simulate_negative_bound_in_exponent_notation(tmp_path, capsys):
    for name, lo, hi in (("exp", "-1e1", "1e1"), ("plain", "-10", "10")):
        code, _, err = run(
            capsys, "simulate", "--model", "shift", "--n", "5", "--t-range", lo, hi,
            "--out", str(tmp_path / name),
        )
        assert code == 0, err
    for suffix in (".csv", ".truth.csv"):
        assert (tmp_path / f"exp{suffix}").read_bytes() == (tmp_path / f"plain{suffix}").read_bytes()


@pytest.mark.parametrize("value", ["-1e1", "-1.5E+2", "-.5e-1", "-inf"])
def test_negative_numbers_parse_as_values(value):
    parser = build_parser()
    args = parser.parse_args(["simulate", "--model", "shift", "--n", "3", "--out", "x", "--t-range", value, "1"])
    assert args.t_range == [float(value), 1.0]
    args = parser.parse_args(["classify", "--train", "a", "--test", "b", "--outdir", "c", "--truncate-at", value])
    assert args.truncate_at == float(value)


# --------------------------------------------------------------- distances

def test_distances_collinear_cloud(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    write_cloud(src, np.array([[0.0], [1.0], [3.0]]))
    code, out, _ = run(
        capsys, "distances", "--input", str(src), "--outdir", str(tmp_path / "d"),
    )
    assert code == 0
    assert "n=3" in out
    dm = read_matrix(tmp_path / "d" / "distances.csv")
    assert dm.tolist() == [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]
    emst = (tmp_path / "d" / "graph.emst.csv").read_text().splitlines()
    assert emst == ["i,j,weight", "0,1,1", "1,2,2"]
    graph = (tmp_path / "d" / "graph.csv").read_text().splitlines()
    assert graph == ["i,j,weight", "0,1,1", "0,2,3", "1,2,2"]


def test_distances_single_point(tmp_path, capsys):
    src = tmp_path / "pt.csv"
    write_cloud(src, np.array([[2.0, 2.0]]))
    code, _, _ = run(capsys, "distances", "--input", str(src), "--outdir", str(tmp_path / "d"))
    assert code == 0
    assert read_matrix(tmp_path / "d" / "distances.csv").tolist() == [[0.0]]


def test_distances_accepts_panel_input(tmp_path, capsys):
    src = tmp_path / "panel.csv"
    write_panel(src, generate_shift_sample(ShiftConfig(n=6, seed=1)))
    code, _, _ = run(capsys, "distances", "--input", str(src), "--outdir", str(tmp_path / "d"))
    assert code == 0
    dm = read_matrix(tmp_path / "d" / "distances.csv")
    assert dm.shape == (6, 6)
    diag = read_json(tmp_path / "d" / "diagnostics.json")
    assert diag["n"] == 6
    assert diag["tree_edges"] == 5
    assert diag["tree_edges"] <= diag["graph_edges"] <= diag["complete_edges"]
    assert 0.0 < diag["max_radius_over_diameter"] <= 2.0
    assert diag["cap"] == 2.0


def test_distances_cap_none_writes_the_chords_the_exact_oracle_accepts(tmp_path, capsys):
    # the paper's rule, uncapped: at the default cap some of these chords go
    src = tmp_path / "pts.csv"
    write_cloud(src, generate_sim1(Sim1Config(n=30, seed=1)))
    pts = read_cloud(src)
    dist = pairwise_euclidean_matrix(pts)
    want = oracle_chords(pts, ball_radii(compute_emst(dist)), 1e-9 * dist.max())
    kept = {}
    for cap in ("none", "2"):
        code, _, _ = run(capsys, "distances", "--input", str(src), "--cap", cap, "--outdir", str(tmp_path / cap))
        assert code == 0
        kept[cap] = [(int(i), int(j)) for i, j, _ in read_edges(tmp_path / cap / "graph.csv").edges]
        assert read_json(tmp_path / cap / "diagnostics.json")["cap"] == (None if cap == "none" else 2.0)
    assert kept["none"] == want
    assert set(kept["2"]) < set(want)


# ---------------------------------------------------------------- template

def test_template_single_curve(tmp_path, capsys):
    src = tmp_path / "panel.csv"
    write_panel(src, generate_shift_sample(ShiftConfig(shifts=[0.3])))
    code, out, _ = run(capsys, "template", "--input", str(src), "--outdir", str(tmp_path / "t"))
    assert code == 0
    assert "template index: 0" in out
    est = read_json(tmp_path / "t" / "estimate.json")
    assert est == {"index": 0, "objective": 0.0, "alpha": 1.0}


def test_template_picks_middle_shift(tmp_path, capsys):
    src = tmp_path / "panel.csv"
    panel = generate_shift_sample(ShiftConfig(shifts=[0.0, 0.1, 0.9]))
    write_panel(src, panel)
    code, out, _ = run(capsys, "template", "--input", str(src), "--outdir", str(tmp_path / "t"))
    assert code == 0
    assert "template index: 1" in out
    assert sorted(p.name for p in (tmp_path / "t").iterdir()) == ["estimate.json", "template.csv"]
    # the template is a one-row panel on the input's grid, bit for bit
    template = read_panel(tmp_path / "t" / "template.csv")
    assert template.grid.tobytes() == panel.grid.tobytes()
    assert template.values.tobytes() == panel.values[1].tobytes()
    assert template.labels is None


def test_template_keeps_the_label_of_its_row(tmp_path, capsys):
    src = tmp_path / "panel.csv"
    panel = generate_shift_sample(ShiftConfig(shifts=[0.0, 0.1, 0.9]))
    write_panel(src, CurvePanel(panel.grid, panel.values, labels=["x", "y,\"z\"", "x"]))
    code, _, _ = run(capsys, "template", "--input", str(src), "--outdir", str(tmp_path / "t"))
    assert code == 0
    template = read_panel(tmp_path / "t" / "template.csv")
    assert template.labels == ['y,"z"']
    assert template.values.tobytes() == panel.values[1].tobytes()


# ---------------------------------------------------------------- classify

def test_classify_knn_perfect_on_training_panel(tmp_path, capsys):
    panel = labeled_two_class_panel()
    train = tmp_path / "train.csv"
    write_panel(train, panel)
    code, out, _ = run(
        capsys, "classify", "--train", str(train), "--test", str(train),
        "--method", "knn", "--k", "1", "--outdir", str(tmp_path / "c"),
    )
    assert code == 0
    assert "accuracy: 1" in out
    lines = (tmp_path / "c" / "confusion.csv").read_text().splitlines()
    assert lines == ["reference\\predicted,a,b", "a,4,0", "b,0,4"]
    assert not (tmp_path / "c" / "templates.csv").exists()
    preds = (tmp_path / "c" / "predictions.csv").read_text().splitlines()
    assert preds[0] == "index,reference,predicted" and len(preds) == 9


def test_classify_manifold_writes_templates(tmp_path, capsys):
    panel = labeled_two_class_panel()
    train = tmp_path / "train.csv"
    write_panel(train, panel)
    code, _, _ = run(
        capsys, "classify", "--train", str(train), "--test", str(train),
        "--method", "manifold", "--outdir", str(tmp_path / "c"),
    )
    assert code == 0
    templates = read_panel(tmp_path / "c" / "templates.csv")
    assert templates.labels == ["a", "b"]
    saved = read_json(tmp_path / "c" / "classifier.json")
    assert saved["method"] == "manifold" and saved["cap"] == 2.0


def test_classify_flags_override_config_file(tmp_path, capsys):
    panel = labeled_two_class_panel()
    train = tmp_path / "train.csv"
    write_panel(train, panel)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"method": "mean", "k": 2, "cap": 3})
    code, out, _ = run(
        capsys, "classify", "--train", str(train), "--test", str(train),
        "--config", str(cfg), "--method", "knn", "--cap", "none", "--outdir", str(tmp_path / "c"),
    )
    assert code == 0
    assert "method: knn" in out
    saved = read_json(tmp_path / "c" / "classifier.json")
    assert saved["k"] == 2 and saved["cap"] is None


# -------------------------------------------------------------- exit codes

def test_unknown_subcommand_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_required_argument_exits_2(capsys):
    code, _, _ = run(capsys, "simulate", "--model", "sim1")
    assert code == 2


def test_ragged_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,0.0,1.0\nrow,1.0\n")
    code, _, err = run(capsys, "distances", "--input", str(bad), "--outdir", str(tmp_path / "d"))
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize(
    "text", ["x1,x2\n0.0,0.0\n1.0,nan\n3.0,1.0\n", "t,0.0,1.0\n-,0.0,0.0\n-,inf,0.0\n-,3.0,1.0\n"],
    ids=["cloud", "panel"],
)
def test_non_finite_cell_exits_3_naming_the_row(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code, _, err = run(capsys, "distances", "--input", str(bad), "--outdir", str(tmp_path / "d"))
    assert code == 3
    assert "bad.csv: row 3: non-finite value" in err
    assert not (tmp_path / "d" / "distances.csv").exists()


# the pipeline's coverage tolerance is 1e-9 times the cloud diameter, and no
# subcommand takes --tol: argparse refuses it with exit 2 before any work


def test_non_finite_tolerance_exits_2(tmp_path, capsys):
    src = tmp_path / "cloud.csv"
    write_cloud(src, np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]]))
    for tol in ("nan", "inf"):
        code, out, err = run(
            capsys, "distances", "--input", str(src), "--tol", tol, "--outdir", str(tmp_path / "d")
        )
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --tol {tol}" in err
    assert not (tmp_path / "d").exists()


def test_negative_tolerance_in_exponent_notation_exits_2(tmp_path, capsys):
    # -1e-3 is read as the flag's value, not as an option of its own
    src = tmp_path / "cloud.csv"
    write_cloud(src, np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]]))
    code, out, err = run(
        capsys, "distances", "--input", str(src), "--tol", "-1e-3", "--outdir", str(tmp_path / "d")
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --tol -1e-3" in err
    assert not (tmp_path / "d").exists()


def test_cloud_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    from curvemedian import geometry

    src = tmp_path / "cloud.csv"
    write_cloud(src, np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]]))
    monkeypatch.setattr(geometry, "_physical_memory", lambda: 100.0)
    code, _, err = run(capsys, "distances", "--input", str(src), "--outdir", str(tmp_path / "d"))
    assert code == 2
    assert "3 points need about" in err
    assert not (tmp_path / "d" / "distances.csv").exists()


def test_missing_input_exits_3(tmp_path, capsys):
    code, _, _ = run(
        capsys, "distances", "--input", str(tmp_path / "nope.csv"), "--outdir", str(tmp_path / "d")
    )
    assert code == 3


def test_bad_alpha_exits_2(tmp_path, capsys):
    src = tmp_path / "panel.csv"
    write_panel(src, generate_shift_sample(ShiftConfig(shifts=[0.0, 1.0])))
    code, _, _ = run(
        capsys, "template", "--input", str(src), "--alpha", "-1",
        "--outdir", str(tmp_path / "t"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "shifts, alpha, want",
    [
        ([0.0, 1.0], "inf", 2),
        ([0.0, 1.0], "nan", 2),
        ([0.0, 1.0, 2.0], "400", 4),  # distances above 1: the powers overflow
        ([0.0, 1e-3, 2e-3], "400", 4),  # distances below 1: the powers underflow to 0
    ],
)
def test_template_extreme_alpha_is_refused(tmp_path, capsys, shifts, alpha, want):
    src = tmp_path / "panel.csv"
    write_panel(src, generate_shift_sample(ShiftConfig(shifts=shifts)))
    code, out, err = run(
        capsys, "template", "--input", str(src), "--alpha", alpha, "--outdir", str(tmp_path / "t"),
    )
    assert code == want
    assert "alpha" in err and out == ""
    # a bad alpha is refused before the pipeline runs, an overflowing
    # objective after it; either way nothing is written
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_classify_non_finite_alpha_exits_2(tmp_path, capsys, alpha):
    panel = tmp_path / "panel.csv"
    write_panel(panel, labeled_two_class_panel())
    code, _, err = run(
        capsys, "classify", "--train", str(panel), "--test", str(panel),
        "--alpha", alpha, "--outdir", str(tmp_path / "c"),
    )
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("method", ["mean", "knn"])
@pytest.mark.parametrize("cutoff", ["inf", "-inf", "nan"])
def test_classify_non_finite_truncate_at_exits_2_writing_nothing(tmp_path, capsys, method, cutoff):
    # --truncate-at inf once ran and wrote "truncate_at": Infinity, no JSON
    panel = tmp_path / "panel.csv"
    write_panel(panel, labeled_two_class_panel())
    code, out, err = run(
        capsys, "classify", "--train", str(panel), "--test", str(panel), "--method", method,
        "--truncate-at", cutoff, "--outdir", str(tmp_path / "c"),
    )
    assert code == 2 and out == "" and "truncate_at must be a finite number or None" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("method", ["manifold", "mean", "medoid", "knn"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-3"])
def test_classify_bad_tolerance_exits_2_for_every_method(tmp_path, capsys, method, tol):
    panel = tmp_path / "panel.csv"
    write_panel(panel, labeled_two_class_panel())
    code, out, err = run(
        capsys, "classify", "--train", str(panel), "--test", str(panel), "--method", method,
        "--tol", tol, "--outdir", str(tmp_path / "c"),
    )
    assert code == 2 and f"unrecognized arguments: --tol {tol}" in err and out == ""
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("method", ["manifold", "mean", "medoid", "knn"])
def test_classify_distance_beyond_float64_exits_4(tmp_path, capsys, method):
    # every coordinate difference is finite, but a query's distance to the
    # far curves (2e308 over four grid points) is not
    grid = np.arange(4.0)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_panel(train, CurvePanel(grid, [[1e308] * 4, [0.0] * 4], labels=["far", "near"]))
    write_panel(test, CurvePanel(grid, [[0.0] * 4], labels=["near"]))
    code, out, err = run(
        capsys, "classify", "--train", str(train), "--test", str(test), "--method", method, "--k", "1",
        "--outdir", str(tmp_path / "c"),
    )
    assert code == 4 and out == "" and err.startswith("error: ") and "overflow" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("method", ["mean", "knn"])
def test_classify_tolerance_in_the_config_file_exits_3(tmp_path, capsys, method):
    # "tol" is not a config key, whatever its value
    panel = tmp_path / "panel.csv"
    write_panel(panel, labeled_two_class_panel())
    cfg = tmp_path / "cfg.json"
    for tol in (-1.0, 0.0, None):
        write_json(cfg, {"method": method, "tol": tol})
        code, out, err = run(
            capsys, "classify", "--train", str(panel), "--test", str(panel), "--config", str(cfg),
            "--outdir", str(tmp_path / "c"),
        )
        assert code == 3 and out == "" and "unknown classifier config keys: ['tol']" in err
        assert not (tmp_path / "c").exists()
    # and a run without it writes no "tol" either
    code, _, _ = run(
        capsys, "classify", "--train", str(panel), "--test", str(panel), "--method", method,
        "--outdir", str(tmp_path / "c"),
    )
    assert code == 0 and "tol" not in read_json(tmp_path / "c" / "classifier.json")


@pytest.mark.parametrize(
    "config",
    [
        {"k": "5", "method": "knn"},
        {"alpha": "1"},
        {"k": 2.5, "method": "knn"},
        {"truncate_at": "a"},
        {"cap": "2"},
        {"cap": True},
    ],
    ids=["k-string", "alpha-string", "k-float", "truncate_at-string", "cap-string", "cap-bool"],
)
def test_wrong_typed_classifier_config_exits_3(tmp_path, capsys, config):
    panel = tmp_path / "panel.csv"
    write_panel(panel, labeled_two_class_panel())
    cfg = tmp_path / "cfg.json"
    write_json(cfg, config)
    code, out, err = run(
        capsys, "classify", "--train", str(panel), "--test", str(panel),
        "--config", str(cfg), "--outdir", str(tmp_path / "c"),
    )
    (key,) = set(config) - {"method"}
    assert code == 3 and out == "" and err.startswith(f"error: {cfg}: {key} must be")
    assert not (tmp_path / "c").exists()


def test_undecodable_json_is_a_data_format_error(tmp_path, capsys):
    # a UTF-16 byte-order mark is no UTF-8: a file that starts with it ended in a traceback
    panel = tmp_path / "panel.csv"
    write_panel(panel, labeled_two_class_panel())
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    code, out, err = run(
        capsys, "classify", "--train", str(panel), "--test", str(panel),
        "--config", str(cfg), "--outdir", str(tmp_path / "c"),
    )
    assert code == 3 and out == "" and err.startswith(f"error: {cfg}: ")
    assert not (tmp_path / "c").exists()
    for load in (read_json, load_benchmark_config):
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(cfg))}: "):
            load(cfg)


@pytest.mark.parametrize("method", ["manifold", "mean", "medoid", "knn"])
@pytest.mark.parametrize("key, value, flag", [("k", 0, "1"), ("cap", 0.5, "2")], ids=["k-zero", "cap-half"])
def test_refused_config_file_value_exits_3_naming_the_file(tmp_path, capsys, method, key, value, flag):
    # checked whatever the method, and refused even where a flag would win
    # (the same values given as flags exit 2: test_bad_cap_exits_2_writing_nothing
    # and test_refused_run_leaves_nothing_on_disk)
    panel = tmp_path / "panel.csv"
    write_panel(panel, labeled_two_class_panel())
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"method": method, key: value})
    argv = ["classify", "--train", str(panel), "--test", str(panel), "--outdir", str(tmp_path / "c")]
    for extra in ([], [f"--{key}", flag]):
        code, out, err = run(capsys, *argv, "--config", str(cfg), *extra)
        assert code == 3 and out == "" and err.startswith(f"error: {cfg}: {key} must be")
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("cap", ["nan", "inf", "0.5", "two"])
@pytest.mark.parametrize(
    "argv",
    [
        ["distances", "--input", "{cloud}"],
        ["template", "--input", "{panel}"],
        ["classify", "--train", "{panel}", "--test", "{panel}"],
        ["classify", "--train", "{panel}", "--test", "{panel}", "--method", "knn"],
    ],
    ids=["distances", "template", "classify", "classify-knn"],
)
def test_bad_cap_exits_2_writing_nothing(tmp_path, capsys, argv, cap):
    # knn never runs the pipeline: the cap is checked up front all the same
    paths = {"cloud": tmp_path / "cloud.csv", "panel": tmp_path / "panel.csv"}
    write_cloud(paths["cloud"], np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]]))
    write_panel(paths["panel"], labeled_two_class_panel())
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(capsys, *argv, "--cap", cap, "--outdir", str(tmp_path / "out"))
    assert code == 2 and out == "" and "cap" in err
    assert not (tmp_path / "out").exists()


def test_unlabeled_test_panel_exits_2(tmp_path, capsys):
    panel = labeled_two_class_panel()
    train = tmp_path / "train.csv"
    write_panel(train, panel)
    bare = tmp_path / "bare.csv"
    write_panel(bare, CurvePanel(panel.grid, panel.values))
    code, _, _ = run(
        capsys, "classify", "--train", str(train), "--test", str(bare),
        "--method", "mean", "--outdir", str(tmp_path / "c"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["distances", "--input", "{cloud}", "--tol", "-1"],
        ["template", "--input", "{panel}", "--tol", "-1"],
        ["classify", "--train", "{panel}", "--test", "{bare}", "--method", "mean"],
        ["classify", "--train", "{panel}", "--test", "{panel}", "--method", "knn", "--k", "50"],
        ["classify", "--train", "{panel}", "--test", "{panel}", "--method", "knn", "--k", "0"],
        *(["classify", "--train", "{panel}", "--test", "{panel}", "--method", m, "--k", "0"] for m in TEMPLATE_METHODS),
        ["classify", "--train", "{panel}", "--test", "{panel}", "--tol", "-1"],
    ],
    ids=[
        "distances-tol", "template-tol", "classify-unlabeled-test", "classify-k-above-n", "classify-k-zero",
        *(f"classify-{m}-k-zero" for m in TEMPLATE_METHODS), "classify-tol",
    ],
)
def test_refused_run_leaves_nothing_on_disk(tmp_path, capsys, argv):
    panel = labeled_two_class_panel()
    paths = {name: tmp_path / f"{name}.csv" for name in ("cloud", "panel", "bare")}
    write_cloud(paths["cloud"], np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]]))
    write_panel(paths["panel"], panel)
    write_panel(paths["bare"], CurvePanel(panel.grid, panel.values))
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(capsys, *argv, "--outdir", str(tmp_path / "out"))
    assert code == 2 and out == ""
    # argparse refuses a flag no subcommand takes; the command refuses the rest
    if "--tol" in argv:
        assert "unrecognized arguments: --tol -1" in err
    else:
        assert err.startswith("error: ")
    assert not (tmp_path / "out").exists()
