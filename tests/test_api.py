"""The public surface: every name a module lists in `__all__` exists in that
module and is re-exported, as the same object, by the package.  The package
loads a submodule only when one of its names is first read, and each command
loads only the modules it runs."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvemedian

MODULES = [
    module
    for module in (
        importlib.import_module(f"curvemedian.{info.name}")
        for info in pkgutil.iter_modules(curvemedian.__path__)
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_all_names_exist_and_are_reexported(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
    stale = [
        name for name in module.__all__
        if getattr(curvemedian, name, None) is not getattr(module, name)
    ]
    assert not stale, f"curvemedian does not re-export {stale}"


# ---------------------------------------------------------- package loading

ROOT = Path(__file__).resolve().parent.parent


def modules_loaded_by(code):
    """The curvemedian modules a fresh interpreter has loaded after `code`."""
    report = "import sys; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'curvemedian'))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


DISTANCES_MODULES = [
    "curvemedian", "curvemedian.cli", "curvemedian.errors", "curvemedian.geometry",
    "curvemedian.graphs", "curvemedian.panel_io",
]


def test_importing_the_package_loads_no_submodule():
    assert modules_loaded_by("import curvemedian") == ["curvemedian"]


def test_distances_on_a_cloud_loads_only_what_it_runs(tmp_path):
    cloud = tmp_path / "cloud.csv"
    curvemedian.write_cloud(cloud, curvemedian.generate_sim1(curvemedian.Sim1Config(n=12, seed=1)))
    argv = ["distances", "--input", str(cloud), "--outdir", str(tmp_path / "out")]
    code = f"from curvemedian import cli\nassert cli.main({argv!r}) == 0"
    assert modules_loaded_by(code) == DISTANCES_MODULES
    assert (tmp_path / "out" / "distances.csv").is_file()


def test_distances_on_a_panel_loads_what_a_cloud_does(tmp_path):
    panel = tmp_path / "panel.csv"
    curvemedian.write_panel(panel, curvemedian.generate_shift_sample(curvemedian.ShiftConfig(n=6, m=20, seed=1)))
    argv = ["distances", "--input", str(panel), "--outdir", str(tmp_path / "out")]
    code = f"from curvemedian import cli\nassert cli.main({argv!r}) == 0"
    assert modules_loaded_by(code) == DISTANCES_MODULES


def test_models_loads_stats_only_when_the_exact_median_is_asked_for():
    assert modules_loaded_by("import curvemedian.models") == [
        "curvemedian", "curvemedian.errors", "curvemedian.models", "curvemedian.panel_io",
    ]
    panel = "cm.generate_shift_sample(cm.ShiftConfig(n=5, m=20, seed=1))"
    code = f"import curvemedian as cm\ncm.intrinsic_median_exact({panel})"
    assert "curvemedian.stats" in modules_loaded_by(code)


def test_template_adds_stats_only(tmp_path):
    panel = tmp_path / "panel.csv"
    curvemedian.write_panel(panel, curvemedian.generate_shift_sample(curvemedian.ShiftConfig(n=6, m=20, seed=1)))
    argv = ["template", "--input", str(panel), "--outdir", str(tmp_path / "out")]
    code = f"from curvemedian import cli\nassert cli.main({argv!r}) == 0"
    assert modules_loaded_by(code) == sorted(DISTANCES_MODULES + ["curvemedian.stats"])


def test_classify_adds_classify_and_stats_only(tmp_path):
    config = curvemedian.load_benchmark_config(ROOT / "configs" / "benchmark_2class.json")
    train, test = curvemedian.generate_benchmark(config)
    curvemedian.write_panel(tmp_path / "train.csv", train)
    curvemedian.write_panel(tmp_path / "test.csv", test)
    argv = ["classify", "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
            "--method", "mean", "--outdir", str(tmp_path / "out")]
    code = f"from curvemedian import cli\nassert cli.main({argv!r}) == 0"
    assert modules_loaded_by(code) == sorted(DISTANCES_MODULES + ["curvemedian.classify", "curvemedian.stats"])


def test_curve_panel_lives_in_panel_io_and_resolves_from_models():
    from curvemedian import models, panel_io

    assert curvemedian.CurvePanel is panel_io.CurvePanel is models.CurvePanel
    assert panel_io.CurvePanel.__module__ == "curvemedian.panel_io"
    assert "CurvePanel" in panel_io.__all__ and "CurvePanel" not in models.__all__


def test_package_all_is_the_union_of_the_submodules_all():
    union = {name for module in MODULES for name in module.__all__}
    assert sorted(curvemedian.__all__) == sorted(union)
    assert len(curvemedian.__all__) == len(union)  # no name listed twice
    assert set(curvemedian.__all__) <= set(dir(curvemedian))
    namespace = {}
    exec("from curvemedian import *", namespace)
    for name in curvemedian.__all__:
        assert namespace[name] is getattr(curvemedian, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'geodesic_pipline'"):
        curvemedian.geodesic_pipline
    assert not hasattr(curvemedian, "_MISSING")


def test_reexports_follow_their_submodule(monkeypatch):
    from curvemedian import graphs

    original = graphs.geodesic_pipeline
    sentinel = object()
    monkeypatch.setattr(graphs, "geodesic_pipeline", sentinel)
    assert curvemedian.geodesic_pipeline is sentinel
    monkeypatch.undo()
    assert curvemedian.geodesic_pipeline is original
    assert "geodesic_pipeline" not in vars(curvemedian)


def test_classify_method_choices_are_the_template_methods_and_knn(capsys):
    from curvemedian import classify, cli

    assert cli._METHODS == classify.TEMPLATE_METHODS + ("knn",)
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["classify", "--help"])
    assert exc.value.code == 0
    assert "{manifold,mean,medoid,knn}" in capsys.readouterr().out
