"""The package re-exports each module's public names, each once."""
import importlib

import f2cayley

MODULES = ("errors", "gf2", "sumsets", "freiman", "rng", "cayley", "cliques", "moments",
           "experiments")


def test_package_exports_every_module_name_once():
    names = f2cayley.__all__
    assert len(names) == len(set(names))
    for mod in MODULES:
        module = importlib.import_module(f"f2cayley.{mod}")
        for name in module.__all__:
            assert name in names and getattr(f2cayley, name) is getattr(module, name)
    assert "__version__" in names
    star = {}
    exec("from f2cayley import *", star)
    assert set(names) <= set(star)
