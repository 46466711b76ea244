"""Tests of the benchmark itself, on scaled-down copies of its workloads.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = [
    workloads.TrialWorkload("trial_small", n=6, trials=2),
    workloads.SubspaceWorkload("subspace_small", n=7),
    workloads.KernelWorkload("kernels_small", census=((3, 3),), freiman_sets=20, kneser_pairs=20,
                             moment_n=10, moment_m=3, density_n=10 ** 4),
]
IDS = [w.name for w in SMALL]


def batch_answers(w, seed, batch=0, tracer=None):
    checks = run.Checks()
    out, _, answers, _ = run.run_batch(w, w.inputs(seed, batch), batch, checks, tracer)
    assert out is not None
    return answers, checks.failed


@pytest.mark.parametrize("w", SMALL, ids=IDS)
def test_same_seed_same_digest(w):
    first, failed = batch_answers(w, 11)
    again, _ = batch_answers(w, 11)
    assert failed == {}
    assert run._digest(first) == run._digest(again)


@pytest.mark.parametrize("w", SMALL, ids=IDS)
def test_different_seed_different_inputs(w):
    assert w.inputs(11, 0) != w.inputs(12, 0)
    assert w.inputs(11, 0) != w.inputs(11, 1)


@pytest.mark.parametrize("w", SMALL, ids=IDS)
def test_traced_pass_gives_the_plain_digest(w):
    inp, checks, tracer = w.inputs(11, 1), run.Checks(), Tracer(1)
    out, wall, plain, _ = run.run_batch(w, inp, 1, checks)
    traced, _, traced_answers, _ = run.run_batch(w, inp, 1, checks, tracer)
    assert checks.failed == {}
    assert run._digest(traced_answers) == run._digest(plain)
    assert tracer.spans and all(s["end"] >= s["start"] for s in tracer.spans)
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(w.layers(inp, out, wall, traced, tracer)) <= per_layer


def test_wrong_expected_value_counts_as_failed(monkeypatch):
    w = SMALL[2]
    monkeypatch.setattr(workloads, "gaussian_binomial2", lambda n, m: 0)
    m = run.measure(w, 11, seconds=1e-3, trace=False)
    assert m["batches"] == 1
    assert m["failed"] == len(w.moment_args())
    assert 0 < m["failed"] < m["attempted"]
    assert len(m["digests"]) == 1  # the batch still ran to the end


def test_raising_operation_counts_every_op_of_its_batch(monkeypatch):
    w = SMALL[1]

    def boom(G):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.f2, "subspace_cliques", boom)
    m = run.measure(w, 11, seconds=1e-3, trace=False)
    assert (m["attempted"], m["failed"], m["walls"]) == (1, 1, [])


def test_layer_means_skip_batches_without_the_metric():
    rows = [{"a": 1.0}, {"a": 3.0, "b": 5.0}]
    assert run.layer_means(rows, ["a", "b", "c"]) == {"a": 2.0, "b": 5.0, "c": 0.0}


def test_density_oracle_matches_classify_n():
    import f2cayley as f2

    n_max, eps = 3000, 0.5
    thr = 1 - eps / 24
    assert workloads.density_count(n_max, eps) == sum(
        f2.classify_n(n).frac < thr for n in range(2, n_max + 1))


def test_planes_matches_subspace_cliques():
    import f2cayley as f2

    for seed in range(5):
        G = f2.sample_cayley(6, seed)
        rep = f2.subspace_cliques(G)
        assert workloads.planes(G.generators.mask, 6) == rep.counts.get(2, 0)


def test_refuses_to_run_without_the_package(tmp_path):
    root = os.path.dirname(BENCH_DIR)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_workloads_exist():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for wl in spec["workloads"]:
        assert wl["name"] in workloads.WORKLOADS
