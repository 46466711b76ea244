"""Concentration classifier, optimality sequences, and the trial harness."""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv, mp

from f2cayley import (
    ExperimentConfig,
    PreconditionError,
    TrialRecord,
    classify_n,
    density_measure,
    load_records,
    run_experiment,
    run_trial,
    seq_ni,
    seq_nj,
    summarize,
)
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


def test_density_leaves_mpmath_precision_alone():
    before = (iv.prec, mp.prec)
    density_measure(10**18, 0.999)
    classify_n(31_526_452_367)
    assert (iv.prec, mp.prec) == before


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
                max_subspace_dim=2, m_counts={0: 1, 1: 7, 2: 1}, chi_lower=4,
                chi_upper=4, chi_exact=4, predicted_omega=8, elapsed=0.1, nodes=9)
    TrialRecord(**good).validate()
    bad = dict(good, omega_size=3)  # below 2^max_subspace_dim
    with pytest.raises(PreconditionError):
        TrialRecord(**bad).validate()
    bad2 = dict(good, chi_exact=9)
    with pytest.raises(PreconditionError):
        TrialRecord(**bad2).validate()
    for wrong in (dict(m_counts={0: 2, 1: 7, 2: 1}),  # M_0 is the zero subspace
                  dict(m_counts={0: 1, 1: 6, 2: 1}),  # M_1 counts the generators
                  dict(max_subspace_dim=1),           # deepest count is dimension 2
                  dict(chi_lower=3, chi_exact=None)):  # chi >= omega
        with pytest.raises(PreconditionError):
            TrialRecord(**dict(good, **wrong)).validate()
    with pytest.raises(PreconditionError):
        TrialRecord.from_json('{"n": 4}')


def test_trial_record_json_round_trip():
    rec = run_trial(4, 99)
    back = TrialRecord.from_json(rec.to_json())
    assert back == rec
    assert all(isinstance(k, int) for k in back.m_counts)


def test_run_trial_is_deterministic_up_to_timing():
    a, b = run_trial(5, 31415), run_trial(5, 31415)
    da, db = json.loads(a.to_json()), json.loads(b.to_json())
    da.pop("elapsed"), db.pop("elapsed")
    assert da == db
    assert a.omega_size >= 1 << a.max_subspace_dim


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
    with pytest.raises(PreconditionError):
        ExperimentConfig.from_dict(dict(ns=[4], trials=1, base_seed=0,
                                        clique_budget=0, out_dir="x"))
    with pytest.raises(PreconditionError):
        ExperimentConfig.from_dict(dict(trials=1))
    with pytest.raises(PreconditionError):
        ExperimentConfig.from_file("/nonexistent/config.json")
