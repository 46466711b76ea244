"""Concentration-point arithmetic and the reproducible trial harness.

The classifier evaluates x = log2(n) + log2(log2(n)), predicts a clique
number of 2^floor(x), and reports the fractional part that decides whether n
sits in the density-1 set where that prediction is sharp.  Powers of two are
handled by exact integer arithmetic; everything else goes through floats,
with near-integer values re-decided exactly by interval arithmetic.  The
density of that set up to n_max is counted exactly by bisecting for the n
where the fractional part crosses its threshold.  The harness samples graphs, runs the clique and coloring
machinery, and persists trial records whose bytes depend only on the config
(timing excluded), regardless of worker count.
"""
from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath.libmp import from_float, from_int, mpf_sign, mpi_add, mpi_div, mpi_log, mpi_sub

from .cayley import MAX_N, MIN_N, sample_cayley
from .cliques import chromatic_bracket, max_clique, subspace_cliques
from .errors import PreconditionError
from .rng import derive_seed

__all__ = [
    "NClass",
    "classify_n",
    "DensityReport",
    "density_measure",
    "SeqNiTerm",
    "seq_ni",
    "SeqNjTerm",
    "seq_nj",
    "TrialRecord",
    "run_trial",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "load_records",
    "summary_header",
    "summarize",
]

_TIE_EPS = 1e-9


@dataclass(frozen=True)
class NClass:
    """Classification of n by the fractional part of log2(n) + log2(log2(n)).

    predicted_omega = 2^m_pred is the concentration value; when classify_n is
    given eps, in_t_eps says whether frac stays below 1 - eps.  near_tie marks
    values within 1e-9 of an integer, where m_pred was settled exactly (by
    _reaches) but the reported frac is only as good as the float
    evaluation.
    """

    n: int
    m_pred: int
    predicted_omega: int
    frac: float
    near_tie: bool
    eps: Optional[float] = None
    in_t_eps: Optional[bool] = None


def _reaches(n: int, m: int, t: float) -> bool:
    """Decide x(n) = log2(n) + log2(log2(n)) >= m + t exactly, for 0 <= t < 1.

    The inequality is n * log2(n) >= 2^(m+t).  Equality needs n = 2^a and
    t = 0 (see density_measure), and that case is decided on integers as
    a * 2^a >= 2^m.  Otherwise the float x(n) decides when it lies more than
    _TIE_EPS from m + t: for n <= 10^18, float(n) is off by a relative
    2^-53, libm's log2 by about one ulp of a value below 64, and the sum by
    one ulp of a value below 70, so the float x(n) errs by under 1e-13.
    Closer calls are decided by outward-rounded mpmath intervals, at a
    precision doubled until the interval for x(n) - (m + t) excludes 0;
    the difference is nonzero, so this ends.  The precision is passed to
    each interval operation, so no mpmath context setting changes.
    classify_n calls this only where the float x(n) lies within _TIE_EPS
    of m, so for its n, of any size, the intervals decide.
    """
    if t == 0.0 and n & (n - 1) == 0:
        a = n.bit_length() - 1
        return a << a >= 1 << m
    log2n = math.log2(n)
    d = log2n + math.log2(log2n) - m - t
    if abs(d) > _TIE_EPS:
        return d > 0
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


def classify_n(n: int, eps: Optional[float] = None) -> NClass:
    if n < 2:
        raise PreconditionError("classify_n needs n >= 2")
    if n & (n - 1) == 0:
        a = n.bit_length() - 1  # n = 2^a, so log2(n) = a exactly
        if a & (a - 1) == 0:
            m_pred = a + (a.bit_length() - 1)
            frac, near = 0.0, False
        else:
            k = a.bit_length() - 1
            m_pred = a + k  # floor(a + log2 a) = a + floor(log2 a)
            frac = math.log2(a) - k
            near = frac < _TIE_EPS or frac > 1 - _TIE_EPS
    else:
        x = math.log2(n) + math.log2(math.log2(n))
        m_pred = math.floor(x)
        frac = x - m_pred
        near = frac < _TIE_EPS or frac > 1 - _TIE_EPS
        if near:
            m0 = round(x)
            m_pred = m0 if _reaches(n, m0, 0.0) else m0 - 1
            frac = min(max(x - m_pred, 0.0), math.nextafter(1.0, 0.0))
    in_t_eps = None
    if eps is not None:
        if not 0 < eps < 1:
            raise PreconditionError("classify_n needs 0 < eps < 1")
        in_t_eps = frac < 1 - eps
    return NClass(
        n=n, m_pred=m_pred, predicted_omega=1 << m_pred, frac=frac,
        near_tie=near, eps=eps, in_t_eps=in_t_eps,
    )


@dataclass(frozen=True)
class DensityReport:
    n_max: int
    eps: float
    threshold: float
    count: int
    total: int
    fraction: Fraction


def _first_reaching(m: int, t: float, lo: int, hi: int) -> int:
    """Smallest n in [lo, hi) with x(n) >= m + t, or hi if there is none."""
    while lo < hi:
        mid = (lo + hi) // 2
        if _reaches(mid, m, t):
            hi = mid
        else:
            lo = mid + 1
    return lo


def density_measure(n_max: int, eps: float) -> DensityReport:
    """Exact count of n in [2, n_max] whose frac(x(n)) stays below t.

    x(n) = log2(n) + log2(log2(n)) and t is the double 1.0 - eps / 24.0,
    taken as the exact dyadic rational it holds.  x increases with n, so for
    each integer m the n with m <= x(n) < m + t form one run, from the first
    n with x(n) >= m to the first with x(n) >= m + t.  Both ends are found
    by bisection; x(2) = 1 starts the first run, and the runs stop at the
    first m that x(n_max) does not reach.  Each step of a bisection asks
    whether n * log2(n) >= 2^(m+t) and answers it exactly (_reaches): by
    the float x(n) when it is more than 1e-9 from m + t (its error is under
    1e-13 for n <= 10^18), by mpmath intervals of doubling precision
    otherwise, and by integers where equality can hold.

    Equality n * log2(n) = 2^(m+t) holds only for n = 2^a with a a power of
    two and t = 0.  If n is not a power of two, log2(n) is irrational, and
    it is not algebraic either: by Gelfond-Schneider, 2^b for an algebraic
    irrational b is transcendental, while 2^log2(n) = n is an integer.  But
    t is rational, so 2^(m+t) is algebraic and 2^(m+t) / n cannot equal
    log2(n).  If n = 2^a, then 2^(m+t) = a * 2^a is an integer, so 2^t is
    rational, which for a rational t in [0, 1) forces t = 0.

    The count is exact for every 2 <= n_max <= 10^18.
    """
    if not 2 <= n_max <= 10 ** 18:
        raise PreconditionError("density_measure needs 2 <= n_max <= 10^18")
    if not 0 < eps < 1:
        raise PreconditionError("density_measure needs 0 < eps < 1")
    threshold = 1.0 - eps / 24.0
    end = n_max + 1
    count, m, lo = 0, 1, 2
    while lo <= n_max:
        cut = _first_reaching(m, threshold, lo, end)
        count += cut - lo
        m += 1
        lo = _first_reaching(m, 0.0, cut, end)
    total = n_max - 1
    return DensityReport(
        n_max=n_max, eps=eps, threshold=threshold,
        count=count, total=total, fraction=Fraction(count, total),
    )


@dataclass(frozen=True)
class SeqNiTerm:
    """Term of the sequence n_i = 2^floor(2^i / (1+eps)).

    n is carried as an int while it fits in 64 bits and as None beyond, with
    log2_n always exact.
    """

    i: int
    eps: float
    log2_n: int
    n: Optional[int]


def seq_ni(eps: float, i: int) -> SeqNiTerm:
    if i < 1:
        raise PreconditionError("seq_ni needs i >= 1")
    if not 0 < eps <= 1:
        raise PreconditionError("seq_ni needs 0 < eps <= 1")
    m = int(Fraction(1 << i) / (1 + Fraction(eps)))  # exact floor
    n = (1 << m) if m <= 64 else None
    return SeqNiTerm(i=i, eps=eps, log2_n=m, n=n)


@dataclass(frozen=True)
class SeqNjTerm:
    """Term of n_j = 2^(2^j - 1), where frac lands exactly at 1 - delta.

    With a = 2^j - 1 = log2(n_j), the fractional part is 1 + log2(1 - 2^-j)
    and delta = log2(1 + 1/a); the two sum to 1 identically, which is the
    equality case of 2^(1-frac) - 1 <= 1/a.  near_one records that frac >=
    1 - delta held (up to float slack).
    """

    j: int
    log2_n: int
    n: Optional[int]
    frac: float
    delta: float
    near_one: bool


def seq_nj(j: int) -> SeqNjTerm:
    if j < 1:
        raise PreconditionError("seq_nj needs j >= 1")
    a = (1 << j) - 1
    n = (1 << a) if a <= 64 else None
    if j == 1:
        frac = 0.0  # n = 2: both logs integral
    else:
        frac = 1.0 + math.log1p(-(2.0 ** -j)) / math.log(2.0)
    delta = math.log1p(1.0 / a) / math.log(2.0)
    return SeqNjTerm(
        j=j, log2_n=a, n=n, frac=frac, delta=delta,
        near_one=frac >= 1.0 - delta - 1e-12,
    )


@dataclass(frozen=True)
class TrialRecord:
    """One sampled graph, fully determined by (n, seed) and the budgets.

    nodes totals the search nodes spent across the clique, independence and
    coloring searches.  elapsed is wall time and is the only field allowed
    to differ between reruns.
    """

    n: int
    seed: int
    a_size: int
    omega_size: int
    omega_optimal: bool
    max_subspace_dim: int
    m_counts: Dict[int, int]
    chi_lower: int
    chi_upper: int
    chi_exact: Optional[int]
    predicted_omega: int
    elapsed: float
    nodes: int

    def validate(self) -> None:
        """Check the invariants every exact record satisfies at every n."""
        where = f"record n={self.n} seed={self.seed}"
        if self.m_counts.get(0) != 1:
            raise PreconditionError(f"{where}: m_counts[0] != 1")
        if self.m_counts.get(1, 0) != self.a_size:
            raise PreconditionError(f"{where}: m_counts[1] != a_size {self.a_size}")
        if self.max_subspace_dim != max(self.m_counts):
            raise PreconditionError(
                f"{where}: max_subspace_dim {self.max_subspace_dim} is not the deepest count")
        if self.chi_lower < self.omega_size:
            raise PreconditionError(f"{where}: chi_lower below omega_size")
        if self.omega_size < 1 << self.max_subspace_dim:
            raise PreconditionError(
                f"{where}: omega_size {self.omega_size} < 2^{self.max_subspace_dim}")
        if self.chi_lower > self.chi_upper:
            raise PreconditionError(f"{where}: chi bracket inverted")
        if self.chi_exact is not None and not (
                self.chi_lower <= self.chi_exact <= self.chi_upper):
            raise PreconditionError(f"{where}: chi_exact outside bracket")

    def to_json(self) -> str:
        d = {
            "n": self.n, "seed": self.seed, "a_size": self.a_size,
            "omega_size": self.omega_size, "omega_optimal": self.omega_optimal,
            "max_subspace_dim": self.max_subspace_dim,
            "m_counts": {str(k): v for k, v in self.m_counts.items()},
            "chi_lower": self.chi_lower, "chi_upper": self.chi_upper,
            "chi_exact": self.chi_exact, "predicted_omega": self.predicted_omega,
            "elapsed": self.elapsed, "nodes": self.nodes,
        }
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        d = json.loads(line)
        try:
            rec = cls(
                n=d["n"], seed=d["seed"], a_size=d["a_size"],
                omega_size=d["omega_size"], omega_optimal=d["omega_optimal"],
                max_subspace_dim=d["max_subspace_dim"],
                m_counts={int(k): v for k, v in d["m_counts"].items()},
                chi_lower=d["chi_lower"], chi_upper=d["chi_upper"],
                chi_exact=d["chi_exact"], predicted_omega=d["predicted_omega"],
                elapsed=d["elapsed"], nodes=d["nodes"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed trial record: {exc}") from exc
        rec.validate()
        return rec


def run_trial(
    n: int,
    seed: int,
    clique_budget: Optional[int] = None,
    chi_budget: Optional[int] = None,
) -> TrialRecord:
    """Sample the graph for (n, seed) and measure everything once."""
    t0 = time.perf_counter()
    G = sample_cayley(n, seed)
    rep = subspace_cliques(G)
    omega = max_clique(G, budget=clique_budget, subspace_report=rep)
    chi = chromatic_bracket(G, budget=chi_budget, subspace_report=rep, clique=omega)
    cls = classify_n(n)
    rec = TrialRecord(
        n=n, seed=seed, a_size=len(G.generators),
        omega_size=omega.size, omega_optimal=omega.optimal,
        max_subspace_dim=rep.max_dim, m_counts=dict(rep.counts),
        chi_lower=chi.lower, chi_upper=chi.upper, chi_exact=chi.exact,
        predicted_omega=cls.predicted_omega,
        elapsed=time.perf_counter() - t0, nodes=chi.nodes,
    )
    rec.validate()
    return rec


@dataclass(frozen=True)
class ExperimentConfig:
    ns: Tuple[int, ...]
    trials: int
    base_seed: int
    clique_budget: Optional[int]
    chi_budget: Optional[int]
    out_dir: str

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            ns = tuple(int(x) for x in d["ns"])
            trials = int(d["trials"])
            base_seed = int(d["base_seed"])
            clique_budget = d.get("clique_budget")
            chi_budget = d.get("chi_budget")
            out_dir = str(d["out_dir"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"invalid config: {exc}") from exc
        if any(not MIN_N <= n <= MAX_N for n in ns):
            raise PreconditionError(f"config ns must lie in [{MIN_N}, {MAX_N}]")
        if trials < 0:
            raise PreconditionError("config trials must be >= 0")
        for name, b in (("clique_budget", clique_budget), ("chi_budget", chi_budget)):
            if b is not None and (not isinstance(b, int) or b <= 0):
                raise PreconditionError(f"config {name} must be a positive integer")
        return cls(ns=ns, trials=trials, base_seed=base_seed,
                   clique_budget=clique_budget, chi_budget=chi_budget,
                   out_dir=out_dir)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise PreconditionError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(d)


@dataclass(frozen=True)
class ExperimentResult:
    records: Tuple[TrialRecord, ...]
    records_path: str
    summary_path: str
    summary_lines: Tuple[str, ...]


def _trial_task(args: Tuple[int, int, int, Optional[int], Optional[int]]):
    idx, n, seed, cb, xb = args
    return idx, run_trial(n, seed, clique_budget=cb, chi_budget=xb)


def summary_header() -> str:
    return ("n,trials,predicted_omega,match_rate,"
            "mean_chi_lower,mean_chi_upper,omega_hist,maxdim_hist")


def _hist(values: Sequence[int]) -> str:
    counts: Dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return "|".join(f"{v}:{counts[v]}" for v in sorted(counts))


def summarize(ns: Sequence[int], records: Sequence[TrialRecord]) -> List[str]:
    """One CSV row per n: prediction match rate, mean chi bracket, histograms."""
    by_n: Dict[int, List[TrialRecord]] = {n: [] for n in ns}
    for r in records:
        by_n[r.n].append(r)
    rows = []
    for n in ns:
        recs = by_n[n]
        if not recs:
            rows.append(f"{n},0,{classify_n(n).predicted_omega},"
                        f"{0.0:.6f},{0.0:.6f},{0.0:.6f},,")
            continue
        t = len(recs)
        match = sum(1 for r in recs if r.omega_size == r.predicted_omega) / t
        mean_lo = sum(r.chi_lower for r in recs) / t
        mean_hi = sum(r.chi_upper for r in recs) / t
        rows.append(
            f"{n},{t},{recs[0].predicted_omega},{match:.6f},"
            f"{mean_lo:.6f},{mean_hi:.6f},"
            f"{_hist([r.omega_size for r in recs])},"
            f"{_hist([r.max_subspace_dim for r in recs])}")
    return rows


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run trials for every (n, trial) pair and persist records + summary.

    Trial index runs over ns in order, trials within each n; the seed for
    trial index i is derive_seed(base_seed, i), so the record stream is a
    pure function of the config.  Records are written in index order no
    matter how many workers computed them.
    """
    if workers < 1:
        raise PreconditionError("run_experiment needs workers >= 1")
    tasks = []
    idx = 0
    for n in config.ns:
        for _ in range(config.trials):
            tasks.append((idx, n, derive_seed(config.base_seed, idx),
                          config.clique_budget, config.chi_budget))
            idx += 1
    results: Dict[int, TrialRecord] = {}
    if workers == 1 or len(tasks) <= 1:
        for t in tasks:
            i, rec = _trial_task(t)
            results[i] = rec
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, rec in pool.map(_trial_task, tasks):
                results[i] = rec
    records = tuple(results[i] for i in range(len(tasks)))

    os.makedirs(config.out_dir, exist_ok=True)
    records_path = os.path.join(config.out_dir, "records.jsonl")
    summary_path = os.path.join(config.out_dir, "summary.csv")
    try:
        with open(records_path, "w") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")
        lines = [summary_header()] + summarize(config.ns, records)
        with open(summary_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise PreconditionError(f"cannot write outputs in {config.out_dir}: {exc}") from exc
    return ExperimentResult(
        records=records, records_path=records_path,
        summary_path=summary_path, summary_lines=tuple(lines),
    )


def load_records(path: str) -> List[TrialRecord]:
    """Read a records.jsonl file, validating every record's invariants."""
    out = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(TrialRecord.from_json(line))
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    return out
