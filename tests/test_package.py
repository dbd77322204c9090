"""The package's module-level export lists."""
import importlib
import pkgutil

import pytest

import mutdyn

# __main__ runs the command line on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(mutdyn.__path__) if not m.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # what `from mutdyn.<module> import *` needs
    module = importlib.import_module(f"mutdyn.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
