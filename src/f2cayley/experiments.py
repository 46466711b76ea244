"""Concentration-point arithmetic and the reproducible trial harness.

The classifier evaluates x = log2(n) + log2(log2(n)), predicts a clique
number of 2^floor(x), and reports the fractional part that decides whether n
sits in the density-1 set where that prediction is sharp.  Powers of two are
handled by exact integer arithmetic; everything else goes through floats,
with near-integer values re-decided exactly by directed rounding in the
standard library's decimal module.  The density of that set up to n_max is
counted exactly by bisecting for the n where the fractional part crosses
its threshold.

The harness owns a trial from end to end (`_records`): it samples the graph
and builds its complement, lays out the trial's two sides on one queue of
threads shared by the whole batch (`cliques._run_sides`), reads them back in
index order, forms the chromatic bracket (`cliques._bracket`) and builds and
checks the record, whose `elapsed` it alone measures.  The records' bytes
depend only on the config (timing excluded), whatever the number of helper
threads.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from .cayley import MAX_N, MIN_N, CayleyGraph, sample_cayley
from .cliques import _bracket, _result, _run_sides, _Side
from .errors import InvariantError, PreconditionError, require_budget
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


@lru_cache(maxsize=64)
def _scale(t: float, prec: int) -> Tuple[Decimal, Decimal]:
    """Ends of an interval holding 2^t * ln(2) = exp(t * ln(2)) * ln(2), at
    `prec` digits, for t >= 0 (the proof is in _reaches)."""
    down = Context(prec=prec, rounding=ROUND_FLOOR)
    up = Context(prec=prec, rounding=ROUND_CEILING)
    r = down.ln(2)
    lo, hi = down.next_minus(r), up.next_plus(r)
    return (down.multiply(down.next_minus(down.exp(down.multiply(Decimal(t), lo))), lo),
            up.multiply(up.next_plus(up.exp(up.multiply(Decimal(t), hi))), hi))


def _reaches(n: int, m: int, t: float) -> bool:
    """Decide x(n) = log2(n) + log2(log2(n)) >= m + t exactly, for 0 <= t < 1.

    x(n) = log2(n * log2(n)), so the inequality is n * log2(n) >= 2^(m+t),
    that is n * ln(n) >= 2^m * (2^t * ln(2)).  Equality needs n = 2^a and
    t = 0 (see density_measure), and that case is decided on integers as
    a * 2^a >= 2^m.  Otherwise the float x(n) decides when it lies more than
    _TIE_EPS from m + t: for n <= 10^18, float(n) is off by a relative
    2^-53, libm's log2 by about one ulp of a value below 64, and the sum by
    one ulp of a value below 70, so the float x(n) errs by under 1e-13.

    Closer calls are decided in decimal, at p = 20 digits and then at p
    doubled until one side's lower end exceeds the other's upper end; the
    two sides differ, so this ends.  Each end is proved:
    - ln and exp are correctly rounded, so the true value lies within half
      an ulp of the result r, and so between r.next_minus() and
      r.next_plus();
    - n, 2^m and the double t convert to Decimal exactly;
    - no factor is negative (t >= 0), so a product's ends are the products
      of the factors' ends, each rounded down (ROUND_FLOOR) for a lower end
      and up (ROUND_CEILING) for an upper one;
    - exp is increasing, so the ends of t * ln(2) bound exp(t * ln(2)).
    Each operation is given its context, so no thread's decimal context is
    read or changed.  classify_n calls this only where the float x(n) lies
    within _TIE_EPS of m, so for its n, of any size, the decimal tier
    decides.
    """
    if t == 0.0 and n & (n - 1) == 0:
        a = n.bit_length() - 1
        return a << a >= 1 << m
    log2n = math.log2(n)
    d = log2n + math.log2(log2n) - m - t
    if abs(d) > _TIE_EPS:
        return d > 0
    prec = 20
    while True:
        down = Context(prec=prec, rounding=ROUND_FLOOR)
        up = Context(prec=prec, rounding=ROUND_CEILING)
        lo, hi = _scale(t, prec)
        r = down.ln(n)
        if down.multiply(down.next_minus(r), n) > up.multiply(hi, 1 << m):
            return True
        if up.multiply(up.next_plus(r), n) < down.multiply(lo, 1 << m):
            return False
        prec *= 2


def classify_n(n: int, eps: Optional[float] = None) -> NClass:
    if n < 2:
        raise PreconditionError("classify_n needs n >= 2")
    if n & (n - 1) == 0:
        a = n.bit_length() - 1  # n = 2^a, so log2(n) = a exactly
        k = a.bit_length() - 1
        m_pred = a + k  # floor(a + log2 a) = a + floor(log2 a)
        frac = math.log2(a) - k
        near = 0 < frac < _TIE_EPS or frac > 1 - _TIE_EPS
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
    1e-13 for n <= 10^18), by decimal intervals of doubling precision
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
    coloring searches.  elapsed is the seconds of the trial's own work, as
    `_records` measures it (sampling and the complement, each side once,
    the bracket and the record, summed over the threads that ran them, so
    trials that overlap may sum to more than the wall time), and is the
    only field allowed to differ between reruns.  max_subspace_dim, chi_exact
    and predicted_omega are derived; `__post_init__` checks every record.
    """

    n: int
    seed: int
    a_size: int
    omega_size: int
    omega_optimal: bool
    m_counts: Dict[int, int]
    chi_lower: int
    chi_upper: int
    elapsed: float
    nodes: int

    DERIVED: ClassVar[Tuple[str, ...]] = ("max_subspace_dim", "chi_exact", "predicted_omega")

    @property
    def max_subspace_dim(self) -> int:
        return max(self.m_counts)

    @property
    def chi_exact(self) -> Optional[int]:
        return self.chi_lower if self.chi_lower == self.chi_upper else None

    @property
    def predicted_omega(self) -> int:
        return classify_n(self.n).predicted_omega

    def __post_init__(self) -> None:
        """Check each field's type by its annotation (`_integer`'s rule: no
        boolean is an integer), then m_counts, the ranges and the invariants."""
        kind = {"int": int, "bool": bool, "float": (int, float), "Dict[int, int]": dict}
        for f in fields(self):
            x = getattr(self, f.name)
            if not isinstance(x, kind[f.type]) or isinstance(x, bool) != (f.type == "bool"):
                raise PreconditionError(f"record {f.name} must be {f.type}, got {x!r}")
        if not MIN_N <= self.n <= MAX_N:
            raise PreconditionError(f"record n must lie in [{MIN_N}, {MAX_N}], got {self.n}")
        for m, count in self.m_counts.items():
            if not 0 <= _integer("record m_counts key", m) <= self.n:
                raise PreconditionError(f"record m_counts key {m} outside [0, n]")
            _integer(f"record m_counts[{m}]", count)
        for name, ok, rule in (("seed", 0 <= self.seed < 1 << 64, "lie in [0, 2^64)"),
                               ("a_size", self.a_size >= 0, "be >= 0"),
                               ("nodes", self.nodes >= 0, "be >= 0"),
                               ("chi_upper", self.chi_upper <= 1 << self.n, "be <= 2^n"),
                               ("elapsed", 0 <= self.elapsed < math.inf, "be finite and >= 0")):
            if not ok:
                raise PreconditionError(f"record {name} must {rule}, got {getattr(self, name)}")
        where = f"record n={self.n} seed={self.seed}"
        if self.m_counts.get(0) != 1:
            raise PreconditionError(f"{where}: m_counts[0] != 1")
        if self.m_counts.get(1, 0) != self.a_size:
            raise PreconditionError(f"{where}: m_counts[1] != a_size {self.a_size}")
        if self.omega_size < 1 << self.max_subspace_dim:
            raise PreconditionError(
                f"{where}: omega_size {self.omega_size} < 2^{self.max_subspace_dim}")
        if not self.omega_size <= self.chi_lower <= self.chi_upper:
            raise PreconditionError(f"{where}: not omega_size <= chi_lower <= chi_upper")

    def to_json(self) -> str:
        d = {k: getattr(self, k) for k in (*(f.name for f in fields(self)), *self.DERIVED)}
        d["m_counts"] = {str(k): v for k, v in self.m_counts.items()}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        """The record of one JSON line, refused unless it passes `__post_init__`
        and stores each derived field as derived, of the same type."""
        try:
            d = json.loads(line)  # a JSONDecodeError is a ValueError
            kw = {f.name: d[f.name] for f in fields(cls)}
            kw["m_counts"] = {int(k): v for k, v in kw["m_counts"].items()}
            stored = {name: d[name] for name in cls.DERIVED}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"malformed trial record: {exc}") from exc
        rec = cls(**kw)
        for name, value in stored.items():
            want = getattr(rec, name)
            if type(value) is not type(want) or value != want:
                raise PreconditionError(f"record {name} is {value!r}, derived {want!r}")
        return rec


def _records(ns: Sequence[int], seeds: Sequence[int], clique_budget: Optional[int],
             chi_budget: Optional[int], helpers: int = 1) -> List[TrialRecord]:
    """The trial record of each (n, seed), in order.

    Every graph and its complement are built first.  Trial i's graph side
    (its subspace cliques, then omega within `clique_budget`) is side 2i
    and its complement's side (its subspace cliques, then alpha within
    `chi_budget`) is side 2i + 1 of one `cliques._run_sides` call, run on
    this thread and up to `helpers` helper threads.  The results are then
    read trial by trial, graph side, complement side, bracket, record and
    its check, so a failure raises the error a serial run raises.  A
    record's `elapsed` is its trial's own work: sampling and the
    complement, both sides' own seconds, then the bracket and the record,
    summed over the threads that did them.
    """
    trials: List[Tuple[CayleyGraph, float]] = []
    sides: List[_Side] = []
    for n, seed in zip(ns, seeds):
        t0 = time.perf_counter()
        G = sample_cayley(n, seed)
        sides += [(G, clique_budget, None), (G.complement(), chi_budget, None)]
        trials.append((G, time.perf_counter() - t0))
    done = _run_sides(sides, helpers)
    records = []
    for i, (G, built_s) in enumerate(trials):
        rep, omega, graph_s = _result(done[2 * i])
        comp_rep, alpha, comp_s = _result(done[2 * i + 1])
        t0 = time.perf_counter()
        chi = _bracket(G, omega, comp_rep, alpha, chi_budget)
        try:
            records.append(TrialRecord(
                n=G.n, seed=G.seed, a_size=len(G.generators),
                omega_size=omega.size, omega_optimal=omega.optimal, m_counts=dict(rep.counts),
                chi_lower=chi.lower, chi_upper=chi.upper,
                elapsed=built_s + graph_s + comp_s + time.perf_counter() - t0, nodes=chi.nodes,
            ))
        except PreconditionError as exc:  # the trial's own result is broken: a bug
            raise InvariantError(str(exc)) from exc
    return records


def run_trial(
    n: int,
    seed: int,
    clique_budget: Optional[int] = None,
    chi_budget: Optional[int] = None,
) -> TrialRecord:
    """Sample the graph for (n, seed) and measure everything once.

    This is `_records`, `run_experiment`'s path, with one trial: the graph's
    side (its subspace cliques, then omega within `clique_budget`) and the
    complement's side (its subspace cliques, then alpha within
    `chi_budget`) each run once, and at once, on this thread and a helper
    that lives for this call; the bracket is formed from the two.  The
    record, node counts included, is the one a serial run writes; only
    `elapsed` differs.
    """
    if not 0 <= _integer("run_trial seed", seed) < 1 << 64:
        raise PreconditionError(f"run_trial needs 0 <= seed < 2^64, got {seed}")
    return _records([n], [seed], clique_budget, chi_budget)[0]


def _integer(name: str, x) -> int:
    """x itself when it is an int; booleans, floats (2.0 too) and strings are
    refused rather than coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise PreconditionError(f"{name} must be an integer, got {x!r}")
    return x


def _budget(name: str, x) -> Optional[int]:
    """A config budget: null for none, else an integer >= 0 by the one rule
    of errors.require_budget (0 stops a search before its first node)."""
    if x is None:
        return None
    try:
        return require_budget(x)
    except PreconditionError as exc:
        raise PreconditionError(f"config {name}: {exc}") from None


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
            ns = tuple(_integer("config ns entry", x) for x in d["ns"])
            trials = _integer("config trials", d["trials"])
            base_seed = _integer("config base_seed", d["base_seed"])
            out_dir = d["out_dir"]
        except (KeyError, TypeError, ValueError) as exc:
            raise PreconditionError(f"invalid config: {exc}") from exc
        if not isinstance(out_dir, str) or not out_dir:
            raise PreconditionError(f"config out_dir must be a non-empty string, got {out_dir!r}")
        if any(not MIN_N <= n <= MAX_N for n in ns):
            raise PreconditionError(f"config ns must lie in [{MIN_N}, {MAX_N}]")
        if trials < 0:
            raise PreconditionError("config trials must be >= 0")
        clique_budget, chi_budget = (_budget(k, d.get(k)) for k in ("clique_budget", "chi_budget"))
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


def summary_header() -> str:
    return ("n,trials,predicted_omega,match_rate,"
            "mean_chi_lower,mean_chi_upper,omega_hist,maxdim_hist")


def _hist(values: Sequence[int]) -> str:
    counts: Dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return "|".join(f"{v}:{counts[v]}" for v in sorted(counts))


def summarize(ns: Sequence[int], records: Sequence[TrialRecord]) -> List[str]:
    """One CSV row per distinct n of `ns`, in the order of `ns` (a repeated n
    keeps its first place): prediction match rate, mean chi bracket,
    histograms.  Every record's n must be in `ns`."""
    by_n: Dict[int, List[TrialRecord]] = {n: [] for n in ns}
    for r in records:
        if r.n not in by_n:
            raise PreconditionError(f"summarize: a record has n = {r.n}, not in ns")
        by_n[r.n].append(r)
    rows = []
    for n, recs in by_n.items():
        predicted = classify_n(n).predicted_omega
        if not recs:
            rows.append(f"{n},0,{predicted},{0.0:.6f},{0.0:.6f},{0.0:.6f},,")
            continue
        t = len(recs)
        match = sum(1 for r in recs if r.omega_size == predicted) / t
        mean_lo = sum(r.chi_lower for r in recs) / t
        mean_hi = sum(r.chi_upper for r in recs) / t
        rows.append(
            f"{n},{t},{predicted},{match:.6f},"
            f"{mean_lo:.6f},{mean_hi:.6f},"
            f"{_hist([r.omega_size for r in recs])},"
            f"{_hist([r.max_subspace_dim for r in recs])}")
    return rows


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run trials for every (n, trial) pair and persist records + summary.

    Trial index runs over ns in order, trials within each n; the seed for
    trial index i is derive_seed(base_seed, i), so the record stream is a
    pure function of the config.  `_records` runs every trial: all their
    sides share one queue that this thread and `workers` helper threads take
    from, so a short side of one trial overlaps the long side of another; a
    call with s sides starts at most s - 1 helpers.  Records are written in
    index order, the same bytes for every `workers`, and the first error in
    that order is the one raised.
    """
    if _integer("run_experiment workers", workers) < 1:
        raise PreconditionError("run_experiment needs workers >= 1")
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise PreconditionError(f"cannot create {config.out_dir!r}: {exc}") from exc
    ns = [n for n in config.ns for _ in range(config.trials)]
    seeds = [derive_seed(config.base_seed, i) for i in range(len(ns))]
    records = tuple(_records(ns, seeds, config.clique_budget, config.chi_budget, workers))

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
