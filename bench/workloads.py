"""Seeded workloads of the f2cayley benchmark.

A workload turns (seed, batch index) into one fixed batch of operations and
runs it through the package's public API, either plainly (the end-to-end
pass) or with spans around each call into a layer (the traced pass).  Every
operation's output is checked by means that do not share the code under
test, and the answers that are proved go into a digest, so that runs of two
commits can be compared for identical answers.

Each workload provides:

- ``inputs(seed, batch)``: the batch's inputs, a pure function of its args;
- ``num_ops(inp)``: how many operations the batch holds;
- ``run(inp, scratch, tracer=None)``: the batch's output; traced when a
  Tracer is given;
- ``check(inp, out, expect)``: report each operation's checks to ``expect``;
- ``answers(inp, out)``: the proved answers, one entry per operation;
- ``exact(inp, out)``: how many operations ended with a proved answer;
- ``op_times(out)``: per-operation seconds the package itself reports;
- ``layers(inp, out, wall, traced, tracer)``: per-layer values of the batch.
"""
from __future__ import annotations

import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import f2cayley as f2
from tracing import Tracer

# expect(op index in the batch, or None for every op; passed?; what was checked)
Expect = Callable[[Optional[int], bool, str], None]


def _span(tracer: Optional[Tracer], name: str, op: int):
    return nullcontext() if tracer is None else tracer.span(name, op)


# --- independent oracles ---------------------------------------------------

def scalar_generators(n: int, seed: int) -> int:
    """Generator mask of sample_cayley(n, seed), rebuilt from scalar coins."""
    mask = 0
    for x in range(1, 1 << n):
        if f2.coin(seed, x):
            mask |= 1 << x
    return mask


def mask_bits(mask: int, n: int) -> np.ndarray:
    size = 1 << n
    raw = np.frombuffer(mask.to_bytes(max(1, size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].astype(bool)


def planes(mask: int, n: int) -> int:
    """2-dimensional subspaces {0, a, b, a+b} with a, b, a+b all in `mask`.

    Counted once each as triples a < b < a^b by a scan over pairs.
    """
    bits = mask_bits(mask, n)
    els = np.flatnonzero(bits)
    els = els[els > 0]
    a, b = els[:, None], els[None, :]
    c = a ^ b
    return int(((b > a) & (c > b) & bits[c]).sum())


def gaussian_binomial2(n: int, m: int) -> int:
    """[n, m]_2 from its product formula."""
    num = den = 1
    for i in range(m):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def density_count(n_max: int, eps: float) -> int:
    """Count n in [2, n_max] with frac(log2 n + log2 log2 n) < 1 - eps/24.

    x(n) = log2 n + log2 log2 n increases with n, so the n whose fractional
    part reaches the threshold form one run per integer m, found by
    bisection instead of evaluating every n.
    """
    thr = 1.0 - eps / 24.0

    def x(v: int) -> float:
        return math.log2(v) + math.log2(math.log2(v))

    def first_at_least(y: float) -> int:
        lo, hi = 2, n_max + 1  # x(hi) counts as +infinity
        while lo < hi:
            mid = (lo + hi) // 2
            if x(mid) >= y:
                hi = mid
            else:
                lo = mid + 1
        return lo

    above = sum(first_at_least(m + 1) - first_at_least(m + thr)
                for m in range(math.floor(x(2)), math.floor(x(n_max)) + 1))
    return n_max - 1 - above


# --- trials ----------------------------------------------------------------

@dataclass(frozen=True)
class TracedTrial:
    seed: int
    G: f2.CayleyGraph
    rep: f2.SubspaceCliqueReport
    omega: f2.CliqueOutcome
    chi: f2.ChromaticBracket
    alpha: f2.CliqueOutcome
    greedy: f2.Coloring
    coset: Optional[f2.Coloring]


# chromatic_bracket's own parts, which the traced pass replays to time them
_BRACKET_PARTS = ("cayley.complement", "cliques.subspace_comp", "cliques.alpha",
                  "cliques.greedy_coloring", "cliques.coset_coloring")


@dataclass(frozen=True)
class TrialWorkload:
    """One run_experiment call on `trials` seeded graphs of dimension n.

    The traced pass replays run_trial through the public functions, then
    replays the parts chromatic_bracket computes internally.
    """

    name: str
    n: int
    trials: int

    def inputs(self, seed: int, batch: int) -> f2.ExperimentConfig:
        return f2.ExperimentConfig(
            ns=(self.n,), trials=self.trials, base_seed=f2.derive_seed(seed, batch),
            clique_budget=None, chi_budget=None, out_dir="")

    def num_ops(self, cfg: f2.ExperimentConfig) -> int:
        return cfg.trials

    @staticmethod
    def seeds(cfg: f2.ExperimentConfig) -> List[int]:
        return [f2.derive_seed(cfg.base_seed, i) for i in range(cfg.trials)]

    def run(self, cfg, scratch, tracer=None):
        if tracer is None:
            return f2.run_experiment(replace(cfg, out_dir=scratch), workers=1)
        return [self._replay(i, seed, tracer) for i, seed in enumerate(self.seeds(cfg))]

    def _replay(self, i: int, seed: int, tr: Tracer) -> TracedTrial:
        with tr.span("experiments.trial", i):
            with tr.span("cayley.sample", i):
                G = f2.sample_cayley(self.n, seed)
            with tr.span("cliques.subspace", i):
                rep = f2.subspace_cliques(G)
            with tr.span("cliques.max_clique", i):
                omega = f2.max_clique(G, subspace_report=rep)
            with tr.span("cliques.chromatic_bracket", i):
                chi = f2.chromatic_bracket(G, subspace_report=rep, clique=omega)
            with tr.span("cayley.complement", i, replay=True):
                comp = G.complement()
            with tr.span("cliques.subspace_comp", i, replay=True):
                comp_rep = f2.subspace_cliques(comp)
            with tr.span("cliques.alpha", i, replay=True):
                alpha = f2.max_clique(comp, subspace_report=comp_rep)
            with tr.span("cliques.greedy_coloring", i, replay=True):
                greedy = f2.greedy_coloring(G)
            coset = None
            indep = f2.Subspace(self.n, comp_rep.witness_basis)
            if indep.dim > 0:
                with tr.span("cliques.coset_coloring", i, replay=True):
                    coset = f2.coset_coloring(G, indep)
        return TracedTrial(seed, G, rep, omega, chi, alpha, greedy, coset)

    def check(self, cfg, out, expect: Expect) -> None:
        if isinstance(out, f2.ExperimentResult):
            self._check_records(cfg, out, expect)
        else:
            self._check_traced(out, expect)

    def _check_records(self, cfg, res: f2.ExperimentResult, expect: Expect) -> None:
        try:
            reread = f2.load_records(res.records_path)
        except f2.PreconditionError:
            reread = []
        expect(None, len(res.records) == cfg.trials, "one record per trial")
        expect(None, len(res.summary_lines) == 2
               and res.summary_lines[1].startswith(f"{self.n},{cfg.trials},"),
               "summary row counts the trials")
        for i, (seed, r) in enumerate(zip(self.seeds(cfg), res.records)):
            a_mask = scalar_generators(self.n, seed)
            expect(i, r.seed == seed, "trial seed is derive_seed(base_seed, i)")
            expect(i, r.a_size == a_mask.bit_count(), "a_size matches the scalar coins")
            expect(i, r.m_counts.get(0) == 1, "m_counts[0] == 1")
            expect(i, r.m_counts.get(1) == r.a_size, "m_counts[1] == a_size")
            expect(i, r.m_counts.get(2, 0) == planes(a_mask, self.n),
                   "m_counts[2] matches a scan over generator pairs")
            expect(i, r.max_subspace_dim == max(r.m_counts), "max_subspace_dim")
            expect(i, r.omega_size >= 1 << r.max_subspace_dim, "omega_size >= 2^max_subspace_dim")
            expect(i, r.omega_size <= r.chi_lower <= r.chi_upper, "omega_size <= chi_lower <= chi_upper")
            expect(i, r.chi_exact is None or r.chi_lower <= r.chi_exact <= r.chi_upper,
                   "chi_exact inside the bracket")
            expect(i, i < len(reread) and reread[i] == r, "load_records gives the record back")

    def _check_traced(self, outs: List[TracedTrial], expect: Expect) -> None:
        N = 1 << self.n
        for i, t in enumerate(outs):
            colors = [c.num_colors for c in (t.greedy, t.coset) if c is not None]
            expect(i, t.rep.complete, "subspace counts complete")
            expect(i, t.omega.witness.size == t.omega.size and f2.verify_clique(t.G, t.omega.witness),
                   "max_clique witness is a clique of the stated size")
            expect(i, t.alpha.witness.size == t.alpha.size
                   and f2.verify_independent(t.G, t.alpha.witness),
                   "alpha witness is an independent set of the stated size")
            expect(i, all(f2.verify_coloring(t.G, c) for c in (t.greedy, t.coset) if c is not None),
                   "colorings are proper")
            expect(i, t.omega.size <= t.chi.lower <= t.chi.upper and t.chi.lower <= min(colors),
                   "omega <= chi_lower <= every proper coloring")
            if t.chi.exact is not None:
                expect(i, t.chi.exact <= min(colors), "chi_exact <= every proper coloring")
                expect(i, not t.alpha.optimal or t.chi.exact * t.alpha.size >= N,
                       "chi_exact * alpha >= 2^n")

    def answers(self, cfg, out) -> list:
        if isinstance(out, f2.ExperimentResult):
            rows = [(r.seed, r.a_size, r.m_counts, r.omega_size, r.omega_optimal, r.chi_exact)
                    for r in out.records]
        else:
            rows = [(t.seed, t.G.generators.size, t.rep.counts, t.omega.size, t.omega.optimal,
                     t.chi.exact) for t in out]
        # TrialRecord keeps no completeness flag for m_counts; the traced
        # pass checks `complete` for the same graphs.
        return [[seed, a_size, sorted(counts.items()), omega if optimal else None, chi]
                for seed, a_size, counts, omega, optimal, chi in rows]

    def exact(self, cfg, res) -> int:
        return sum(r.omega_optimal and r.chi_exact is not None for r in res.records)

    def op_times(self, res) -> List[float]:
        return [r.elapsed for r in res.records]

    def layers(self, cfg, res, wall: float, outs: List[TracedTrial], tr: Tracer) -> Dict[str, float]:
        """Per-trial means over the batch."""
        k = len(outs)
        t = tr.total
        mc_s = t("cliques.max_clique")
        mc_nodes = sum(o.omega.nodes for o in outs)
        elapsed = sum(self.op_times(res))
        per_trial = {
            "cayley.sample_s": t("cayley.sample"),
            "cliques.subspace_s": t("cliques.subspace"),
            "cliques.subspace_comp_s": t("cliques.subspace_comp"),
            "cliques.subspace_found": sum(sum(o.rep.counts.values()) for o in outs),
            "cliques.max_clique_s": mc_s,
            "cliques.max_clique_nodes": mc_nodes,
            "cliques.alpha_s": t("cliques.alpha"),
            "cliques.alpha_nodes": sum(o.alpha.nodes for o in outs),
            "cliques.seed_optimal_frac": sum(o.omega.size == 1 << o.rep.max_dim for o in outs),
            "cliques.greedy_coloring_s": t("cliques.greedy_coloring"),
            "cliques.coset_coloring_s": t("cliques.coset_coloring"),
            "cliques.chromatic_bracket_s": t("cliques.chromatic_bracket"),
            "cliques.chromatic_bracket_self_s":
                t("cliques.chromatic_bracket") - sum(t(p) for p in _BRACKET_PARTS),
            "cliques.chi_nodes": sum(o.chi.nodes for o in outs),
            "experiments.run_trial_s": elapsed,
            "experiments.harness_s": wall - elapsed,
        }
        out = {name: v / k for name, v in per_trial.items()}
        out["cliques.max_clique_nodes_per_s"] = mc_nodes / mc_s
        return out


# --- subspace enumeration --------------------------------------------------

@dataclass(frozen=True)
class SubspaceInput:
    seed: int
    role: str  # "graph" or "complement"
    graph: f2.CayleyGraph


@dataclass(frozen=True)
class SubspaceWorkload:
    """subspace_cliques, one call per batch: batch 2g is seeded graph g,
    batch 2g + 1 its complement."""

    name: str
    n: int

    def inputs(self, seed: int, batch: int) -> SubspaceInput:
        gseed = f2.derive_seed(seed, batch // 2)
        G = f2.sample_cayley(self.n, gseed)
        if batch % 2:
            return SubspaceInput(gseed, "complement", G.complement())
        return SubspaceInput(gseed, "graph", G)

    def num_ops(self, inp: SubspaceInput) -> int:
        return 1

    def _span_name(self, inp: SubspaceInput) -> str:
        return "cliques.subspace" if inp.role == "graph" else "cliques.subspace_comp"

    def run(self, inp, scratch, tracer=None):
        with _span(tracer, self._span_name(inp), 0):
            return f2.subspace_cliques(inp.graph)

    def check(self, inp, rep: f2.SubspaceCliqueReport, expect: Expect) -> None:
        n = self.n
        a_mask = scalar_generators(n, inp.seed)
        if inp.role == "complement":
            a_mask = ((1 << (1 << n)) - 2) & ~a_mask
        c = rep.counts
        expect(0, inp.graph.generators.mask == a_mask, "generator set matches the scalar coins")
        expect(0, c.get(0) == 1, "counts[0] == 1")
        expect(0, c.get(1) == a_mask.bit_count(), "counts[1] == |A|")
        if rep.complete or 2 in c:
            expect(0, c.get(2, 0) == planes(a_mask, n), "counts[2] matches a scan over generator pairs")
        expect(0, rep.max_dim == max(c), "max_dim is the deepest count")
        members = f2.subspace_members(f2.Subspace(n, rep.witness_basis)).mask
        expect(0, len(rep.witness_basis) == rep.max_dim and members & ~a_mask == 1,
               "witness subspace of dimension max_dim inside A + {0}")

    def answers(self, inp, rep) -> list:
        counts = sorted(rep.counts.items()) if rep.complete else None
        return [[inp.seed, inp.role, inp.graph.generators.size, counts]]

    def exact(self, inp, rep) -> int:
        return int(rep.complete)

    def op_times(self, rep) -> List[float]:
        return []

    def layers(self, inp, rep, wall, traced, tr: Tracer) -> Dict[str, float]:
        """Per call, under the role's own metric."""
        name = self._span_name(inp)
        out = {name + "_s": tr.total(name)}
        if inp.role == "graph":
            out["cliques.subspace_found"] = sum(traced.counts.values())
        return out


# --- standalone kernels ----------------------------------------------------

@dataclass(frozen=True)
class KernelInput:
    sets: Tuple[f2.ElemSet, ...]
    pairs: Tuple[Tuple[f2.ElemSet, f2.ElemSet], ...]


@dataclass(frozen=True)
class KernelOutput:
    census: List[f2.SklCensus]
    freiman: List[f2.FreimanResult]
    kneser: List[f2.InequalityReport]
    moments: List[f2.MomentReport]
    density: f2.DensityReport


@dataclass(frozen=True)
class KernelWorkload:
    """A fixed batch of the exact kernels; nothing here calls `cliques`.

    census_skl, the moment sweep and density_measure take fixed arguments;
    the Freiman 6-subsets of F_2^5 and the Kneser pairs in F_2^3..F_2^6 are
    drawn from the batch seed.
    """

    name: str
    census: Tuple[Tuple[int, int], ...] = ((5, 6), (6, 4))
    freiman_sets: int = 2000
    kneser_pairs: int = 2000
    moment_n: int = 64
    moment_m: int = 8
    density_n: int = 10 ** 7
    density_eps: float = 0.5

    def inputs(self, seed: int, batch: int) -> KernelInput:
        rng = random.Random(f2.derive_seed(seed, batch))
        sets = tuple(f2.ElemSet.from_elements(5, rng.sample(range(32), 6))
                     for _ in range(self.freiman_sets))
        pairs = []
        for _ in range(self.kneser_pairs):
            n = rng.choice((3, 4, 5, 6))
            A, B = (f2.ElemSet.from_elements(n, rng.sample(range(1 << n), rng.randint(1, 1 << (n - 1))))
                    for _ in range(2))
            pairs.append((A, B))
        return KernelInput(sets, tuple(pairs))

    def moment_args(self) -> List[Tuple[int, int]]:
        return [(n, m) for n in range(1, self.moment_n + 1) for m in range(1, min(n, self.moment_m) + 1)]

    def num_ops(self, inp: KernelInput) -> int:
        return len(self.census) + len(inp.sets) + len(inp.pairs) + len(self.moment_args()) + 1

    def run(self, inp, scratch, tracer=None) -> KernelOutput:
        census = []
        for i, (n, k) in enumerate(self.census):
            with _span(tracer, "freiman.census", i):
                census.append(f2.census_skl(n, k))
        op = len(census)
        with _span(tracer, "freiman.dimension", op):
            freiman = [f2.freiman_dimension(X) for X in inp.sets]
        op += len(freiman)
        with _span(tracer, "sumsets.kneser", op):
            kneser = [f2.kneser_check(A, B) for A, B in inp.pairs]
        op += len(kneser)
        with _span(tracer, "moments.report", op):
            moments = [f2.moment_report(n, m) for n, m in self.moment_args()]
        op += len(moments)
        with _span(tracer, "experiments.density", op):
            density = f2.density_measure(self.density_n, self.density_eps)
        return KernelOutput(census, freiman, kneser, moments, density)

    def check(self, inp, out: KernelOutput, expect: Expect) -> None:
        op = 0
        for (n, k), c in zip(self.census, out.census):
            total = math.comb(1 << n, k)
            expect(op, c.total == total and sum(c.counts.values()) == total,
                   "census counts sum to C(2^n, k)")
            expect(op, c.union_bound == sum(Fraction(v, 1 << l) for l, v in c.counts.items()),
                   "census union bound")
            op += 1
        for X, res in zip(inp.sets, out.freiman):
            expect(op, res.r == f2.universal_freiman_rank(X) and res.witness.size == X.size,
                   "freiman_dimension r matches universal_freiman_rank")
            op += 1
        for (A, B), rep in zip(inp.pairs, out.kneser):
            a = np.array(A.elements())
            b = np.array(B.elements())
            expect(op, rep.lhs == np.unique(a[:, None] ^ b[None, :]).size and rep.holds,
                   "kneser |A+B| matches a pair scan and the bound holds")
            op += 1
        for (n, m), rep in zip(self.moment_args(), out.moments):
            g = gaussian_binomial2(n, m)
            expect(op, rep.e_m == Fraction(g, 1 << ((1 << m) - 1)) and rep.holds_e
                   and sum(f2.pairs_by_intersection(n, m, j) for j in range(m + 1)) == g * g
                   and rep.var_m >= 0,
                   "E M, and pair counts over j sum to [n, m]_2^2")
            op += 1
        d = out.density
        expect(op, d.total == self.density_n - 1 and d.fraction == Fraction(d.count, d.total)
               and d.count == density_count(self.density_n, self.density_eps),
               "density count matches a bisection over the integer crossings")

    def answers(self, inp, out: KernelOutput) -> list:
        return ([sorted(c.counts.items()) for c in out.census]
                + [res.r for res in out.freiman]
                + [[rep.lhs, rep.rhs] for rep in out.kneser]
                + [[str(rep.e_m), str(rep.var_m)] for rep in out.moments]
                + [out.density.count])

    def exact(self, inp, out: KernelOutput) -> int:
        return self.num_ops(inp)

    def op_times(self, out) -> List[float]:
        return []

    def layers(self, inp, out, wall, traced: KernelOutput, tr: Tracer) -> Dict[str, float]:
        """Per batch."""
        census_s = tr.total("freiman.census")
        return {
            "freiman.census_s": census_s,
            "freiman.census_sets_per_s": sum(c.total for c in traced.census) / census_s,
            "freiman.dimension_s": tr.total("freiman.dimension"),
            "freiman.dimension_sets": len(inp.sets),
            "sumsets.kneser_s": tr.total("sumsets.kneser"),
            "sumsets.kneser_pairs": len(inp.pairs),
            "moments.report_s": tr.total("moments.report"),
            "experiments.density_s": tr.total("experiments.density"),
        }


WORKLOADS = {w.name: w for w in (
    TrialWorkload("trial_n9", n=9, trials=4),
    TrialWorkload("trial_n10", n=10, trials=1),
    SubspaceWorkload("subspace_n11", n=11),
    KernelWorkload("kernels"),
)}
