"""The package re-exports each module's public names, each once, and keeps
its checks as code that python -O does not strip."""
import ast
import importlib
import pathlib

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


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so invariant checks must raise
    src = pathlib.Path(f2cayley.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_only_gf2_converts_set_masks_to_bytes():
    # the byte layout of a set's mask is decided in one module; the oracles
    # in tests/ and bench/ keep their own conversions on purpose
    byte_calls = {"packbits", "unpackbits", "frombuffer", "to_bytes", "from_bytes"}
    src = pathlib.Path(f2cayley.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py")) if path.name != "gf2.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in byte_calls]
    assert not found, f"mask-to-byte conversions outside gf2: {found}"


def test_no_module_imports_a_process_or_futures_pool():
    # every scheduling runs through cliques._run_sides, one thread queue;
    # a second path would make byte-identity across --threads a test
    # rather than a property of the code
    banned = ("concurrent", "multiprocessing")
    src = pathlib.Path(f2cayley.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                          else [node.module or ""] if isinstance(node, ast.ImportFrom)
                          else [])
             if name.split(".")[0] in banned]
    assert not found, f"pool imports in the package: {found}"
