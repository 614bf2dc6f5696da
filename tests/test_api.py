"""The public surface: every name a module lists in `__all__` exists in that
module and is re-exported, as the same object, by the package."""

import importlib
import pkgutil

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
