import importlib
import pkgutil

import pytest

import tenfold1d

MODULES = [tenfold1d] + [
    importlib.import_module(f"tenfold1d.{info.name}")
    for info in pkgutil.iter_modules(tenfold1d.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    # nothing star-imports the package, so a stale entry would go unnoticed
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
