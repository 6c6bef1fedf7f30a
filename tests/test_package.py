import importlib

import pytest

SUBMODULES = ("cli", "estimators", "experiments", "kernels", "models",
              "quadrature", "ratefn", "schedules")


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_exist(name):
    # a stale name in __all__ makes ``from regrates.<name> import *`` raise
    mod = importlib.import_module(f"regrates.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
