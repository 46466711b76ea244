"""Concentration classifier, optimality sequences, and the trial harness."""
import dataclasses
import decimal
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv, mp
from mpmath.libmp import from_float, from_int, mpf_sign, mpi_add, mpi_div, mpi_log, mpi_sub

import f2cayley
from f2cayley import (
    ExperimentConfig,
    InvariantError,
    PreconditionError,
    TrialRecord,
    classify_n,
    density_measure,
    derive_seed,
    load_records,
    run_experiment,
    run_trial,
    seq_ni,
    seq_nj,
    summarize,
    tail_exponent,
)
from f2cayley import cliques, experiments
from f2cayley.cli import main
from f2cayley.experiments import _reaches, summary_header


def reference_density_count(n_max, eps):
    """The former density_measure: the float frac of every n, in numpy chunks."""
    threshold = 1.0 - eps / 24.0
    count = 0
    for lo in range(2, n_max + 1, 1 << 20):
        ns = np.arange(lo, min(n_max + 1, lo + (1 << 20)), dtype=np.float64)
        x = np.log2(ns) + np.log2(np.log2(ns))
        count += int(((x - np.floor(x)) < threshold).sum())
    return count


def reference_reaches(n, m, t):
    """The former tie tier of _reaches, without its float tier: outward-rounded
    mpmath intervals at a doubling binary precision, and integers at the
    exact ties."""
    if t == 0.0 and n & (n - 1) == 0:
        a = n.bit_length() - 1
        return a << a >= 1 << m
    two, nn = from_int(2), from_int(n)
    y = mpi_add((from_int(m),) * 2, (from_float(t),) * 2)  # exact
    prec = 64
    while True:
        ln2 = mpi_log((two, two), prec)
        log2n = mpi_div(mpi_log((nn, nn), prec), ln2, prec)
        x = mpi_add(log2n, mpi_div(mpi_log(log2n, prec), ln2, prec), prec)
        lo, hi = mpi_sub(x, y, prec)
        if mpf_sign(lo) > 0:
            return True
        if mpf_sign(hi) < 0:
            return False
        prec *= 2


def reference_power_of_two_class(a):
    """classify_n's two former branches for n = 2^a: (m_pred, frac, near_tie)."""
    if a & (a - 1) == 0:
        return a + (a.bit_length() - 1), 0.0, False
    k = a.bit_length() - 1
    frac = math.log2(a) - k
    return a + k, frac, frac < 1e-9 or frac > 1 - 1e-9


def test_classify_integer_points():
    c = classify_n(4)  # log2 4 + log2 log2 4 = 3 exactly
    assert (c.m_pred, c.predicted_omega, c.frac, c.near_tie) == (3, 8, 0.0, False)
    c16 = classify_n(16)
    assert (c16.m_pred, c16.predicted_omega) == (6, 64)
    for n in (2, 4, 16, 256, 65536):  # 2^(2^t): both logs integral
        assert classify_n(n).frac == 0.0


def test_classify_generic_point():
    c = classify_n(8)
    assert c.m_pred == 4 and c.predicted_omega == 16
    assert abs(c.frac - 0.5849625007211562) < 1e-12
    assert not c.near_tie


def test_classify_against_direct_float_evaluation():
    for n in range(2, 3000):
        c = classify_n(n)
        x = math.log2(n) + math.log2(math.log2(n))
        assert abs((c.m_pred + c.frac) - x) < 1e-9, n
        assert 0 <= c.frac < 1


def test_predicted_omega_monotone():
    prev = 0
    for n in range(2, 5000):
        po = classify_n(n).predicted_omega
        assert po >= prev
        prev = po


def test_in_t_predicate():
    assert classify_n(8, eps=0.25).in_t_eps and not classify_n(8, eps=0.5).in_t_eps
    ce = classify_n(8, eps=0.4)
    assert ce.in_t_eps is True
    assert classify_n(8).in_t_eps is None
    with pytest.raises(PreconditionError):
        classify_n(8, eps=0.0)
    with pytest.raises(PreconditionError):
        classify_n(1)


def test_exact_floor_comparison():
    def oracle(n, m):  # log2(n) + log2(log2(n)) >= m  <=>  n^n >= 2^(2^m)
        return n ** n >= 1 << (1 << m)

    # log2(8) + log2(log2(8)) = 4.58...: >= 4 but < 5
    assert _reaches(8, 4, 0.0) and oracle(8, 4)
    assert not _reaches(8, 5, 0.0) and not oracle(8, 5)
    assert _reaches(100, 9, 0.0) and oracle(100, 9)  # 100 * log2(100) = 664.4 >= 512
    assert not _reaches(100, 10, 0.0) and not oracle(100, 10)
    for n in range(2, 300):  # takes in the ties n = 2, 4, 16, 256
        for m in range(1, 12):
            assert _reaches(n, m, 0.0) == oracle(n, m), (n, m)


def test_decimal_tier_matches_the_mpmath_reference(monkeypatch):
    thresholds = (0.0, 0.5, 1 - 0.5 / 24, 1 - 0.1 / 24, 1 - 0.999 / 24)
    cases = []
    for m in range(3, 61):  # the six n nearest each crossing
        for t in thresholds:
            cut = experiments._first_reaching(m, t, 2, 10 ** 19)
            cases += [(n, m, t) for n in range(cut - 3, cut + 3)]
    for n in list(range(2, 3000)) + [31_526_452_367, 10 ** 18 - 1, (1 << 61) + 1]:
        x = math.floor(math.log2(n) + math.log2(math.log2(n)))
        cases += [(n, m, t) for m in (x, x + 1) for t in (0.0, 1 - 0.5 / 24)]
    monkeypatch.setattr(experiments, "_TIE_EPS", 10.0)  # no float tier: decimal decides
    for n, m, t in cases:
        assert _reaches(n, m, t) == reference_reaches(n, m, t), (n, m, t)


def test_power_of_two_classes_match_the_two_former_branches():
    for a in range(1, 5001):
        c = classify_n(1 << a)
        assert (c.m_pred, c.frac, c.near_tie) == reference_power_of_two_class(a), a


def test_classify_large_near_tie_is_settled_fast():
    n = 31_526_452_367  # x(n) lies within 2.4e-11 of 40
    t0 = time.perf_counter()
    c = classify_n(n)
    assert time.perf_counter() - t0 < 1.0
    assert c.m_pred == 40 and c.predicted_omega == 1 << 40 and c.near_tie
    assert 0 < c.frac < 1e-10


def test_density_counts_match_classifier():
    d = density_measure(100, 0.1)
    direct = sum(1 for n in range(2, 101) if classify_n(n).frac < 1 - 0.1 / 24)
    assert d.count == direct and d.total == 99
    assert d.fraction == Fraction(d.count, d.total)


def test_density_excludes_some_n_even_near_eps_one():
    d = density_measure(10_000, 0.999)
    assert 0 < d.fraction < 1


def test_density_preconditions():
    with pytest.raises(PreconditionError):
        density_measure(1, 0.5)
    with pytest.raises(PreconditionError):
        density_measure(100, 0.0)
    with pytest.raises(PreconditionError):
        density_measure(10**18 + 1, 0.5)


def test_density_matches_reference_at_every_small_n_max():
    for eps in (0.1, 0.5, 0.999):
        for n_max in range(2, 3001):
            assert density_measure(n_max, eps).count == reference_density_count(n_max, eps), (
                n_max, eps)


def test_density_frozen_counts():
    assert density_measure(10**7, 0.5).count == 9_832_070
    assert density_measure(10**7, 0.1).count == 9_966_232
    d = density_measure(10**18, 0.5)
    assert (d.count, d.total) == (982_231_999_139_726_956, 10**18 - 1)
    assert d.fraction == Fraction(d.count, d.total)


def test_density_counts_exact_ties():
    # x(n) is an integer at n = 2, 4, 16, 2^16 (1, 3, 6, 20): frac 0 counts
    for eps in (0.5, 0.999):
        assert density_measure(2, eps).count == 1
        for n in (4, 16, 1 << 16):
            assert density_measure(n, eps).count == density_measure(n - 1, eps).count + 1
            m = round(math.log2(n) + math.log2(math.log2(n)))
            assert _reaches(n, m, 0.0) and not _reaches(n - 1, m, 0.0)


def decimal_state():
    ctx = decimal.getcontext()
    return ctx.prec, ctx.rounding, dict(ctx.traps), dict(ctx.flags)


def test_density_leaves_mpmath_precision_alone():
    before = (iv.prec, mp.prec, decimal_state())
    density_measure(10**18, 0.999)
    classify_n(31_526_452_367)
    tail_exponent(1024, 10240, 102400)
    assert (iv.prec, mp.prec, decimal_state()) == before
    # nor do the answers depend on the calling thread's decimal context
    expected = density_measure(10**7, 0.5).count, tail_exponent(4, 2, 20)
    with decimal.localcontext(decimal.Context(prec=3, rounding=decimal.ROUND_UP)):
        assert (density_measure(10**7, 0.5).count, tail_exponent(4, 2, 20)) == expected


def test_exact_arithmetic_never_loads_mpmath():
    code = ("import sys, f2cayley\n"
            "f2cayley.density_measure(10**18, 0.5)\n"
            "f2cayley.classify_n(31_526_452_367)\n"
            "f2cayley.tail_exponent(1024, 10240, 102400)\n"
            "print('mpmath' in sys.modules)")
    src = os.path.dirname(os.path.dirname(f2cayley.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_seq_ni_terms():
    t = seq_ni(1, 3)  # m = floor(8/2) = 4
    assert (t.log2_n, t.n) == (4, 16)
    assert seq_ni(0.5, 2).log2_n == 2  # floor(4/1.5)
    big = seq_ni(1.0, 8)
    assert big.n is None and big.log2_n == 128  # beyond 64-bit cap: exponent form
    with pytest.raises(PreconditionError):
        seq_ni(1, 0)


def test_seq_nj_terms_sit_at_the_fractional_boundary():
    assert seq_nj(2).n == 8
    s3 = seq_nj(3)
    assert s3.n == 128
    assert abs(s3.frac - classify_n(128).frac) < 1e-12
    for j in range(1, 40):
        s = seq_nj(j)
        assert abs(s.frac + s.delta - 1.0) < 1e-12  # frac = 1 - delta identically
        assert s.near_one
    assert seq_nj(7).n is None and seq_nj(7).log2_n == 127
    with pytest.raises(PreconditionError):
        seq_nj(0)


def test_trial_record_validation():
    good = dict(n=4, seed=1, a_size=7, omega_size=4, omega_optimal=True,
                m_counts={0: 1, 1: 7, 2: 1}, chi_lower=4, chi_upper=4, elapsed=0.1, nodes=9)
    rec = TrialRecord(**good)
    assert (rec.max_subspace_dim, rec.chi_exact, rec.predicted_omega) == (2, 4, 8)
    for wrong in (dict(omega_size=3),                  # below 2^max_subspace_dim
                  dict(m_counts={0: 2, 1: 7, 2: 1}),  # M_0 is the zero subspace
                  dict(m_counts={0: 1, 1: 6, 2: 1}),  # M_1 counts the generators
                  dict(chi_lower=3)):                 # chi >= omega
        with pytest.raises(PreconditionError):
            TrialRecord(**dict(good, **wrong))
    # a stored derived field that differs from the one the record gives
    d = json.loads(rec.to_json())
    for key, value in (("max_subspace_dim", 1), ("chi_exact", 9)):
        with pytest.raises(PreconditionError, match=f"record {key} "):
            TrialRecord.from_json(json.dumps(dict(d, **{key: value})))
    with pytest.raises(PreconditionError):
        TrialRecord.from_json('{"n": 4}')


def test_trial_record_json_round_trip():
    rec = run_trial(4, 99)
    back = TrialRecord.from_json(rec.to_json())
    assert back == rec
    assert all(isinstance(k, int) for k in back.m_counts)
    d = json.loads(rec.to_json())
    assert TrialRecord.from_json(json.dumps(dict(d, unknown=1))) == rec
    for key in d:
        with pytest.raises(PreconditionError, match="malformed"):
            TrialRecord.from_json(json.dumps({k: v for k, v in d.items() if k != key}))
    fixed = TrialRecord(n=4, seed=1, a_size=7, omega_size=4, omega_optimal=True,
                        m_counts={0: 1, 1: 7, 2: 1}, chi_lower=4, chi_upper=5,
                        elapsed=0.5, nodes=9)
    assert fixed.to_json() == (
        '{"a_size":7,"chi_exact":null,"chi_lower":4,"chi_upper":5,"elapsed":0.5,'
        '"m_counts":{"0":1,"1":7,"2":1},"max_subspace_dim":2,"n":4,"nodes":9,'
        '"omega_optimal":true,"omega_size":4,"predicted_omega":8,"seed":1}')


def test_malformed_record_lines_raise_precondition_error(tmp_path):
    # a line that is not JSON, and a record whose m_counts is not an object
    d = json.loads(run_trial(4, 99).to_json())
    for line in ('{"n": 4, "m_counts": 5', json.dumps(dict(d, m_counts=5))):
        with pytest.raises(PreconditionError, match="malformed"):
            TrialRecord.from_json(line)
        path = tmp_path / "records.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(PreconditionError, match="malformed"):
            load_records(str(path))


def test_mistyped_record_fields_raise_precondition_error():
    # each line is a valid record with one field changed; the error names it
    rec = run_trial(4, 99)
    assert TrialRecord.from_json(rec.to_json()) == rec
    d = json.loads(rec.to_json())
    assert len(d) == 13
    for key, value in (("chi_lower", None), ("n", 4.5), ("nodes", -5), ("chi_exact", True),
                       ("predicted_omega", 8.0), ("omega_optimal", 1), ("seed", False),
                       ("elapsed", True), *((k, "x") for k in d if k != "m_counts")):
        with pytest.raises(PreconditionError, match=f"record {key} "):
            TrialRecord.from_json(json.dumps(dict(d, **{key: value})))
    with pytest.raises(PreconditionError, match="malformed"):
        TrialRecord.from_json(json.dumps(dict(d, m_counts="x")))


def test_records_that_contradict_themselves_or_leave_their_range_are_refused(monkeypatch):
    # the line of a closed bracket [4, 4] with one field changed; each of
    # these loaded while the derived fields were stored and checked apart
    d = json.loads(run_trial(4, 99).to_json())
    assert (d["chi_lower"], d["chi_upper"], d["chi_exact"]) == (4, 4, 4)
    for key, value in (("chi_upper", 99), ("predicted_omega", 3), ("chi_exact", None),
                       ("elapsed", float("nan")), ("elapsed", -1.0), ("seed", -1),
                       ("seed", 1 << 64)):
        changed = dict(d, **{key: value})
        if key == "chi_upper":
            changed["chi_exact"] = None  # the open bracket's own chi_exact
        with pytest.raises(PreconditionError, match=f"record {key} "):
            TrialRecord.from_json(json.dumps(changed))
    with monkeypatch.context() as m:  # refused before it samples
        m.setattr(experiments, "sample_cayley", None)
        for seed in (-1, 1 << 64):
            with pytest.raises(PreconditionError, match="seed"):
                run_trial(4, seed)


def test_run_trial_reports_its_own_broken_record_as_a_fault(tmp_path, monkeypatch):
    real = cliques._side

    def broken(*args):  # M_1 no longer counts the generators
        rep, omega, seconds = real(*args)
        return dataclasses.replace(rep, counts={**rep.counts, 1: rep.counts[1] + 1}), omega, seconds

    monkeypatch.setattr(cliques, "_side", broken)
    with pytest.raises(InvariantError, match=r"m_counts\[1\]"):
        run_trial(5, 3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(ns=[5], trials=1, base_seed=3, out_dir=str(tmp_path))))
    with pytest.raises(InvariantError):  # a fault, not the exit code 2 of bad input
        main(["experiment", "--config", str(config)])


def test_run_trial_is_deterministic_up_to_timing():
    a, b = run_trial(5, 31415), run_trial(5, 31415)
    da, db = json.loads(a.to_json()), json.loads(b.to_json())
    da.pop("elapsed"), db.pop("elapsed")
    assert da == db
    assert a.omega_size >= 1 << a.max_subspace_dim


def test_every_thread_count_writes_the_same_bytes(tmp_path):
    # a trial starts and joins its own helper thread, and two or four
    # helpers write the bytes one helper writes
    before = threading.active_count()
    run_trial(8, 5)
    assert threading.active_count() == before

    def outputs(workers):
        cfg = ExperimentConfig.from_dict(dict(
            ns=[5, 8], trials=3, base_seed=18, out_dir=str(tmp_path / str(workers))))
        res = run_experiment(cfg, workers=workers)
        with open(res.records_path) as fh:
            records = [{k: v for k, v in json.loads(line).items() if k != "elapsed"}
                       for line in fh]
        with open(res.summary_path, "rb") as fh:
            return json.dumps(records, sort_keys=True), fh.read()

    assert outputs(2) == outputs(1)
    assert outputs(4) == outputs(1)
    assert threading.active_count() == before


# sha256 of records.jsonl with every "elapsed" entry cut out, and of
# summary.csv, for ns = 2..8 x 3 trials (base seed 7) under four budgets
# (the same for omega and chi) and for the four trial_n9 benchmark batches
# (n = 9 x 4 trials, base seed derive_seed(7, batch), no budget)
OUTPUT_DIGESTS = {
    ("ns 2..8", None): ("fcb7933009995c6c7931d23a1adc1e8c9d2e9275254e4eb4865819d872ad30da",
                        "2f1d6b4c1599bb7e6e0e818be4249bbaadee4299fd3a3a525f52a850d4265b95"),
    ("ns 2..8", 1): ("5932d99102294bfa3b693a777c257e338bbfa3eea910e7db69275e051cfbe4a8",
                     "cb45c30b9de4ec940bdc05d45e1049c4c706dbfae8a21ce8135d92998224e547"),
    ("ns 2..8", 5): ("3fb1f512b96119070d0f117e5887b8efc5089962afdb583265dac1e6345a5799",
                     "cb45c30b9de4ec940bdc05d45e1049c4c706dbfae8a21ce8135d92998224e547"),
    ("ns 2..8", 50): ("501942db6461b27731cc47190a62c872d58b87e7173c18ba513eca7cb1cb0ca2",
                      "707a836b94ce4168764856f91bc91b5d679289f9436c5cf842086b9b92776765"),
    ("trial_n9", 0): ("95008d41ba7cdef7770ff58626edb89456250ea02d26c69d657a3e7b5c0daa74",
                      "c799128ba89d93043b5b92257eb486f705aa543388b603d930ddfbc132d8f52f"),
    ("trial_n9", 1): ("016625fddeb4ab3959ec1a3ca97fb1c826732ec416e68678eac81fe602f6293a",
                      "e7d3c690ba8ce6105e4a2f710c7d9b74404d9e4142fe07de3b05756459c902b8"),
    ("trial_n9", 2): ("54d6f479f52bccf1f68a7906f28189fb858d4ff10e18bb2390f15109828fb910",
                      "e7d3c690ba8ce6105e4a2f710c7d9b74404d9e4142fe07de3b05756459c902b8"),
    ("trial_n9", 3): ("5cf3649b4931c423264969c971be3644437b71c9d4bfc3c3d07583ef0e7d103d",
                      "e7d3c690ba8ce6105e4a2f710c7d9b74404d9e4142fe07de3b05756459c902b8"),
}


def test_records_and_summary_bytes_are_pinned(tmp_path):
    for (gate, x), digests in OUTPUT_DIGESTS.items():
        if gate == "trial_n9":
            cfg = ExperimentConfig(ns=(9,), trials=4, base_seed=derive_seed(7, x),
                                   clique_budget=None, chi_budget=None, out_dir=str(tmp_path))
        else:
            cfg = ExperimentConfig(ns=tuple(range(2, 9)), trials=3, base_seed=7,
                                   clique_budget=x, chi_budget=x, out_dir=str(tmp_path))
        for workers in (1, 2):
            res = run_experiment(cfg, workers=workers)
            with open(res.records_path) as fh:
                records = re.sub(r'"elapsed":[^,]*,', "", fh.read())
            with open(res.summary_path, "rb") as fh:
                got = (hashlib.sha256(records.encode()).hexdigest(),
                       hashlib.sha256(fh.read()).hexdigest())
            assert got == digests, (gate, x, workers)


def test_experiment_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        ns=[4, 5], trials=4, base_seed=7, out_dir=str(tmp_path / "out")))
    res = run_experiment(cfg)
    assert len(res.records) == 8
    loaded = load_records(res.records_path)
    assert loaded == list(res.records)
    lines = open(res.summary_path).read().splitlines()
    assert lines[0] == summary_header()
    assert len(lines) == 3 and lines[1].startswith("4,4,")


def test_repeated_ns_summarize_each_n_once(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        ns=[3, 3], trials=2, base_seed=7, out_dir=str(tmp_path / "out")))
    res = run_experiment(cfg)
    assert [(r.n, r.seed) for r in load_records(res.records_path)] == [
        (3, derive_seed(7, i)) for i in range(4)]
    lines = open(res.summary_path).read().splitlines()
    assert lines[1:] == summarize([3], res.records)
    assert len(lines) == 2 and lines[1].startswith("3,4,")
    assert summarize([4, 3, 4], res.records) == [
        summarize([4], ())[0], lines[1]]


def test_summarize_refuses_records_outside_ns():
    with pytest.raises(PreconditionError, match="n = 3"):
        summarize([4], [run_trial(3, 1)])
    rows = summarize([5, 4], [run_trial(4, 1)])  # the order of ns, not of the records
    assert [row.split(",")[:2] for row in rows] == [["5", "0"], ["4", "1"]]


def test_experiment_empty_ns(tmp_path):
    cfg = ExperimentConfig.from_dict(dict(
        ns=[], trials=5, base_seed=1, out_dir=str(tmp_path / "e")))
    res = run_experiment(cfg)
    assert res.records == ()
    assert open(res.records_path).read() == ""


def test_summarize_groups_by_n():
    recs = [run_trial(4, s) for s in (1, 2, 3)]
    rows = summarize([4], recs)
    assert len(rows) == 1
    cells = rows[0].split(",")
    assert cells[0] == "4" and cells[1] == "3" and cells[2] == "8"


def test_config_validation():
    with pytest.raises(PreconditionError):
        ExperimentConfig.from_dict(dict(ns=[1], trials=1, base_seed=0, out_dir="x"))
    with pytest.raises(PreconditionError):
        ExperimentConfig.from_dict(dict(ns=[4], trials=-1, base_seed=0, out_dir="x"))
    with pytest.raises(PreconditionError, match="config chi_budget"):
        ExperimentConfig.from_dict(dict(ns=[4], trials=1, base_seed=0,
                                        chi_budget=-1, out_dir="x"))
    with pytest.raises(PreconditionError):
        ExperimentConfig.from_dict(dict(trials=1))
    # no silent coercion: booleans, floats and strings are refused
    good = dict(ns=[4], trials=2, base_seed=0, clique_budget=5, chi_budget=5, out_dir="x")
    for key, bad in (("trials", 2.7), ("trials", True), ("trials", "2"), ("trials", 2.0),
                     ("base_seed", 0.5), ("base_seed", False), ("ns", [4.5]), ("ns", [True]),
                     ("ns", ["4"]), ("clique_budget", True), ("clique_budget", 2.5),
                     ("chi_budget", True), ("chi_budget", 7.0), ("trials", float("nan"))):
        with pytest.raises(PreconditionError, match="integer"):
            ExperimentConfig.from_dict({**good, key: bad})
    cfg = ExperimentConfig.from_dict(good)
    assert (cfg.ns, cfg.trials, cfg.clique_budget, cfg.chi_budget) == ((4,), 2, 5, 5)
    for bad in ("", None, 7):  # str() once made None a directory named "None"
        with pytest.raises(PreconditionError, match="out_dir"):
            ExperimentConfig.from_dict({**good, "out_dir": bad})
    with pytest.raises(PreconditionError):
        ExperimentConfig.from_file("/nonexistent/config.json")


def test_run_experiment_refuses_a_workers_that_is_not_a_positive_integer(tmp_path):
    # the rule of the config's integers: a bool, a float (2.0 too) or a
    # string is refused before any output directory is made, not coerced
    cfg = ExperimentConfig.from_dict(dict(ns=[4], trials=3, base_seed=0,
                                          out_dir=str(tmp_path / "out")))
    for bad in (True, 1.5, 2.0, "2"):
        with pytest.raises(PreconditionError, match="workers must be an integer"):
            run_experiment(cfg, workers=bad)
    for bad in (0, -1):
        with pytest.raises(PreconditionError, match="workers >= 1"):
            run_experiment(cfg, workers=bad)
    assert not (tmp_path / "out").exists()


def test_config_budget_zero_is_the_library_budget_zero(tmp_path):
    # a budget is checked by the one rule of errors.require_budget: 0 stops
    # every search before its first node, and null is no budget
    def records(**budgets):
        cfg = ExperimentConfig.from_dict(dict(ns=[4, 6], trials=2, base_seed=3,
                                              out_dir=str(tmp_path), **budgets))
        with open(run_experiment(cfg).records_path) as fh:
            return [{k: v for k, v in json.loads(line).items() if k != "elapsed"} for line in fh]

    zero = records(clique_budget=0, chi_budget=0)
    assert zero == [{k: v for k, v in json.loads(run_trial(
        n, derive_seed(3, i), clique_budget=0, chi_budget=0).to_json()).items() if k != "elapsed"}
        for i, n in enumerate((4, 4, 6, 6))]
    assert [r["nodes"] for r in zero] == [0] * 4
    assert not all(r["omega_optimal"] for r in zero)
    assert records(clique_budget=None, chi_budget=None) == records()
    assert all(r["omega_optimal"] for r in records())
