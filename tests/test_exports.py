import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import ionqpt

MODULES = sorted(m.name for m in pkgutil.iter_modules(ionqpt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ionqpt.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"ionqpt.{name}.__all__ names missing objects: {missing}"


@pytest.mark.parametrize("name", ["protocol", "ionsim", "recon"])
def test_import_loads_no_analysis(name):
    # The package re-exports nothing, so a submodule loads only what it needs.
    src = os.path.dirname(os.path.dirname(ionqpt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import sys, ionqpt.{name}; "
            "print(sorted({'ionqpt.analysis', 'scipy.optimize'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
