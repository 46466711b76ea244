"""The C search kernel's build cache: one library per source, safe under
concurrent first imports, and a failed compile fails the import; the source
compiles without warnings; and both entry points run clean under the
address, leak and undefined-behaviour sanitizers."""
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from f2cayley import CayleyGraph, ElemSet, derive_seed, sample_cayley, subspace_cliques
from f2cayley import _native
from f2cayley.cliques import _NODES_MAX

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


def test_a_compile_removes_the_libraries_of_earlier_sources(tmp_path):
    # a library of another source goes once this one is compiled; a
    # temporary file of a compile still running stays
    pkg = copy_package(tmp_path)
    os.mkdir(pkg / "__pycache__")
    stale, pending = "_clique-" + "0" * 64 + ".so", "_clique-pending.tmp"
    for name in (stale, pending):
        (pkg / "__pycache__" / name).write_bytes(b"")
    proc = start_import(tmp_path)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    current = _native.library_name((pkg / "_clique.c").read_bytes())
    assert sorted(f for f in os.listdir(pkg / "__pycache__") if f.startswith("_clique")) == [
        current, pending]


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
    # some warnings need the analyses of one optimisation level only; the
    # last -O given wins over the -O2 of COMMAND
    for level in ("-O1", "-O2", "-O3", "-Os"):
        command = _native.COMMAND + ("-Wall", "-Wextra", "-Werror", level)
        proc = subprocess.run(list(command) + ["-o", str(tmp_path / "lib.so"), _native.SOURCE],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (level, proc.stderr)


# Reads one call per line, "c n seed_size budget k A..." for f2c_max_clique or
# "s n k A..." for f2c_subspaces, and prints the return code and the outputs;
# every buffer has exactly the length that _native's callers pass.
DRIVER = r"""
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

int f2c_max_clique(int32_t, const int32_t *, int32_t, int32_t, int64_t, int32_t *, int64_t *);
int f2c_subspaces(int32_t, const int32_t *, int32_t, int64_t *, int32_t *);

int main(void)
{
    char op;
    int n, k, seed = 0;
    long long budget = 0;
    while (scanf(" %c %d", &op, &n) == 2) {
        if (op == 'c' && scanf("%d %lld", &seed, &budget) != 2)
            return 3;
        if (scanf("%d", &k) != 1)
            return 3;
        int32_t *A = malloc(((size_t)k + 1) * sizeof *A);
        for (int i = 0; i < k; i++)
            if (scanf("%d", &A[i]) != 1)
                return 3;
        if (op == 'c') {
            int32_t *witness = malloc(((size_t)1 << n) * sizeof *witness);
            int64_t out[3];
            int rc = f2c_max_clique(n, A, k, seed, budget, witness, out);
            printf("%d %lld %lld %lld", rc, (long long)out[0], (long long)out[1], (long long)out[2]);
            for (int i = 0; out[0] > seed && i < out[0]; i++)
                printf(" %d", witness[i]);
            free(witness);
        } else {
            int64_t *counts = malloc(((size_t)n + 1) * sizeof *counts);
            int32_t *witness = malloc((size_t)n * sizeof *witness);
            int rc = f2c_subspaces(n, A, k, counts, witness);
            int dim = 0;
            printf("%d", rc);
            for (int m = 0; m <= n; m++) {
                printf(" %lld", (long long)counts[m]);
                if (counts[m])
                    dim = m;
            }
            for (int i = 0; i < dim; i++)
                printf(" %d", witness[i]);
            free(counts);
            free(witness);
        }
        printf("\n");
        free(A);
    }
    return 0;
}
"""


def sanitized_driver(tmp_path):
    """The driver linked with _clique.c under AddressSanitizer (with its
    LeakSanitizer) and UndefinedBehaviorSanitizer, or a skip when the
    compiler cannot link -fsanitize=address.  __builtin_cpu_supports is
    defined as 0 there, so the driver packs rows with the portable
    compress on every host, while the library it is compared with takes
    pext where the CPU has it: the test checks both packers."""
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    proc = subprocess.run(list(_native.CC) + ["-fsanitize=address", "-o", str(tmp_path / "probe"),
                                              str(probe)], capture_output=True, text=True)
    if proc.returncode:
        pytest.skip(f"the C compiler cannot link -fsanitize=address: {proc.stderr.strip()}")
    (tmp_path / "driver.c").write_text(DRIVER)
    exe = tmp_path / "driver"
    flags = ["-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=all", "-Wall", "-Wextra", "-Werror",
             "-D__builtin_cpu_supports(x)=0"]
    proc = subprocess.run(list(_native.CC) + flags + ["-o", str(exe), str(tmp_path / "driver.c"),
                                                       _native.SOURCE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return exe


def native_clique(n, gens, seed_size, budget):
    witness = np.zeros(1 << n, dtype=np.int32)
    out = np.zeros(3, dtype=np.int64)
    rc = _native.max_clique(n, gens, len(gens), seed_size, budget, witness, out)
    size = int(out[0])
    return [rc] + out.tolist() + (witness[:size].tolist() if size > seed_size else [])


def native_subspaces(n, gens):
    counts = np.zeros(n + 1, dtype=np.int64)
    witness = np.zeros(n, dtype=np.int32)
    rc = _native.subspaces(n, gens, len(gens), counts, witness)
    dim = max(m for m, c in enumerate(counts.tolist()) if c)
    return [rc] + counts.tolist() + witness[:dim].tolist()


def test_both_entry_points_run_clean_under_the_sanitizers(tmp_path):
    # Empty, complete and sampled generator sets at n = 2..9, each searched
    # from the subspace seed and from {0} under budgets that stop the clique
    # search at its first nodes, inside a root branch, and after root
    # branches have cleared their pairs from the root's graph.  At n = 11,
    # where W is 32 words, the subspace search alone runs on the empty and
    # complete sets and on a sampled graph and its complement, whose nodes
    # walk only the words with no index bit at a pivot of 6 or more.  At
    # n = 12 and 13, where A's indicator is 64 and 128 words, the clique
    # search alone builds the root's graph and stops within budgets 0, 1
    # and 5.  Any leak, out-of-bounds access or undefined behaviour ends the
    # driver with a report on stderr and a nonzero exit.
    exe = sanitized_driver(tmp_path)
    lines, expected, stops = [], [], 0
    for n in (*range(2, 10), 11, 12, 13):
        N, large = 1 << n, n > 9
        graphs = [CayleyGraph(n, ElemSet(n, 0)), CayleyGraph(n, ElemSet(n, (1 << N) - 2))]
        for i in range(1 if large else 2):
            G = sample_cayley(n, derive_seed(23, n * 10 + i))
            graphs += [G, G.complement()]
        for H in graphs:
            gens = np.flatnonzero(H.generators.member_table()).astype(np.int32)
            listed = " ".join(map(str, gens.tolist()))
            if n <= 11:
                lines.append(f"s {n} {len(gens)} {listed}")
                expected.append(native_subspaces(n, gens))
            if n == 11:
                continue
            seed = 1 << max(subspace_cliques(H).counts)
            if large:
                budgets = (0, 1, 5)
            else:
                full = native_clique(n, gens, 1, _NODES_MAX)[2]
                budgets = (0, 1, 2, 5, full // 2, full - 1, _NODES_MAX)
            for seed_size in (seed, 1):
                for budget in budgets:
                    lines.append(f"c {n} {seed_size} {budget} {len(gens)} {listed}")
                    expected.append(native_clique(n, gens, seed_size, budget))
                    stops += expected[-1][3]
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=1:abort_on_error=0:exitcode=23",
               UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1")
    proc = subprocess.run([str(exe)], input="\n".join(lines) + "\n", env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert [list(map(int, row.split())) for row in proc.stdout.splitlines()] == expected
    assert stops > 100
