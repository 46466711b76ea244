"""The C search kernel's build cache: one library per source, safe under
concurrent first imports, and a failed compile fails the import; and the
source compiles without warnings."""
import os
import shutil
import subprocess
import sys

from f2cayley import _native

PACKAGE = os.path.dirname(_native.__file__)


def copy_package(tmp_path):
    """A copy of the package with an empty build cache."""
    shutil.copytree(PACKAGE, tmp_path / "f2cayley",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "f2cayley"


def start_import(root):
    env = dict(os.environ, PYTHONPATH=str(root))
    code = ("import f2cayley\n"
            "print(f2cayley.max_clique(f2cayley.sample_cayley(6, 1)).size)")
    return subprocess.Popen([sys.executable, "-c", code], env=env, cwd=str(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_concurrent_first_imports_share_one_library(tmp_path):
    pkg = copy_package(tmp_path)
    procs = [start_import(tmp_path) for _ in range(2)]
    results = [p.communicate(timeout=120) + (p.returncode,) for p in procs]
    for out, err, code in results:
        assert code == 0, err
    assert results[0][0] == results[1][0]
    source = (pkg / "_clique.c").read_bytes()
    built = [f for f in os.listdir(pkg / "__pycache__") if f.startswith("_clique")]
    assert built == [_native.library_name(source)]
    assert built == [os.path.basename(_native.LIBRARY)]


def test_failed_compile_fails_the_import(tmp_path):
    pkg = copy_package(tmp_path)
    with open(pkg / "_clique.c", "a") as fh:
        fh.write("\nthis is not C;\n")
    proc = start_import(tmp_path)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert "ImportError: cannot compile" in err and "error" in err.split("cannot compile", 1)[1]
    assert not [f for f in os.listdir(pkg / "__pycache__") if f.startswith("_clique")]


def test_source_compiles_without_warnings(tmp_path):
    command = _native.COMMAND + ("-Wall", "-Wextra", "-Werror")
    proc = subprocess.run(list(command) + ["-o", str(tmp_path / "lib.so"), _native.SOURCE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
