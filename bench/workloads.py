"""The benchmark's four workloads.

Each workload turns ``--seed`` into inputs (model specs, statistic
selectors, CLI argument lists and per-call seeds), then hands permlab only
those inputs through its public functions or ``permlab.cli.main``.  One
iteration is a fixed list of ops; an op is one library or CLI call, and its
check raises ``CheckFailed`` when the output is wrong.  Check tolerances are
sized from the replica count with a false-alarm rate near 1e-9 per check, so
they hold for any seed.

Library functions are looked up on the ``permlab`` package at call time, so
the traced run sees the bench's own calls too.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracle

WORKERS = min(2, os.cpu_count() or 1)

# -ln(1e-9): the tail exponent behind every statistical tolerance below
_LOG_ALARM = math.log(1e9)
# Normal tail beyond this many standard errors is about 2e-9 (two-sided)
_Z = 6.0

# The README's phi.json and chain.json
PHI_JSON = '{"phi": {"table": {"1": 10, "3": 2}, "default": "identity"}}'
CHAIN_JSON = (
    '{"chain": {"states": [1, 2, 3], "transitions": '
    "[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]}}"
)


class CheckFailed(Exception):
    """An op's output failed its check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY the smoke test."""

    fidelity_reps: int
    clt_n: int
    clt_reps: int
    stein_n: int
    stein_outer: int
    stein_inner: int
    couple_n: int
    couple_reps: int
    identity_n: int
    identity_reps: int
    pmf_n: int
    moments_n: int
    sample_n: int
    sample_reps: int
    setup_repeats: int


FULL = Sizes(
    fidelity_reps=8000,
    clt_n=2000, clt_reps=400,
    stein_n=100, stein_outer=1500, stein_inner=4,
    couple_n=1000, couple_reps=300,
    identity_n=30, identity_reps=4000,
    pmf_n=8, moments_n=20000, sample_n=100, sample_reps=20000,
    setup_repeats=5,
)
TINY = Sizes(
    fidelity_reps=400,
    clt_n=200, clt_reps=100,
    stein_n=20, stein_outer=100, stein_inner=3,
    couple_n=50, couple_reps=50,
    identity_n=10, identity_reps=400,
    pmf_n=5, moments_n=200, sample_n=10, sample_reps=200,
    setup_repeats=1,
)


@dataclass
class Op:
    name: str
    rows: int  # permutations sampled, coupled or enumerated by the call
    call: Callable[[], object]
    check: Callable[[object], None]


class Workload:
    """Inputs for one workload, drawn from the seed, plus its references."""

    def __init__(self, pl, seed: int, sizes: Sizes) -> None:
        self.pl = pl
        self.sizes = sizes
        self._seeds = np.random.default_rng(seed)
        self.counts: dict[str, int] = {}  # clamp warnings, CLI bytes written

    def next_seed(self) -> int:
        return int(self._seeds.integers(0, 2 ** 62))

    def build_references(self) -> None:
        """Reference laws and moments for the checks (not part of set-up)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------

def _tv_tolerance(law: dict, reps: int) -> float:
    """Bound on TV(empirical, law) holding with probability 1 - 1e-9.

    E[TV] <= (1/2) sum_k sqrt(p_k (1 - p_k) / R), and TV moves by at most
    1/R per replica, so McDiarmid adds sqrt(ln(1e9) / (2R)).
    """
    p = np.fromiter(law.values(), dtype=float)
    mean_bound = 0.5 * float(np.sum(np.sqrt(p * (1.0 - p)))) / math.sqrt(reps)
    return mean_bound + math.sqrt(_LOG_ALARM / (2.0 * reps))


def _check_permutation_rows(mat, reps: int, n: int) -> None:
    require(getattr(mat, "shape", None) == (reps, n), f"shape {getattr(mat, 'shape', None)}")
    require(bool(np.all(np.sort(mat, axis=1) == np.arange(1, n + 1))),
            "a row is not a permutation of 1..n")


class SmallNFidelity(Workload):
    """n = 4, every model kind, empirical law against the exact law."""

    N = 4

    def __init__(self, pl, seed, sizes):
        super().__init__(pl, seed, sizes)
        phi = pl.phi_from_config(json.loads(PHI_JSON)["phi"])
        chain = pl.chain_from_config(json.loads(CHAIN_JSON)["chain"])
        self.specs = {
            "uniform": pl.ModelSpec.uniform(),
            "unfair": pl.ModelSpec.unfair(),
            "inverse-unfair": pl.ModelSpec.inverse_unfair(),
            "phi": pl.ModelSpec.phi_draw(phi),
            "markov": pl.ModelSpec.markov_draw(chain),
        }
        # rows seen so far per model: each check tests everything sampled yet
        self.seen = {kind: {} for kind in self.specs}

    def build_references(self):
        n = self.N
        self.laws = {
            kind: dict(zip(law.outcomes, law.probs))
            for kind in ("uniform", "unfair", "inverse-unfair")
            for law in [self.pl.enumerate_law(n, kind)]
        }
        # phi and markov straight from the JSON, not from permlab's parsers
        phi = json.loads(PHI_JSON)["phi"]
        counts = [int(phi["table"].get(str(i), i)) for i in range(1, n + 1)]  # default identity
        self.laws["phi"] = oracle.plackett_luce_law(counts)
        chain = json.loads(CHAIN_JSON)["chain"]
        self.laws["markov"] = oracle.markov_law(chain["states"], chain["transitions"], n)
        # the oracle reproduces the paper models too, which checks the oracle
        require(oracle.tv(oracle.plackett_luce_law(range(1, n + 1)),
                          self.laws["inverse-unfair"]) < 1e-12,
                "Plackett-Luce oracle disagrees with enumerate_law")

    def ops(self):
        reps = self.sizes.fidelity_reps
        out = []
        for kind, spec in self.specs.items():
            seed = self.next_seed()
            out.append(Op(
                f"sample {kind}", reps,
                lambda spec=spec, seed=seed: self.pl.sample_permutation_matrix(
                    spec, self.N, reps, seed, workers=WORKERS),
                lambda mat, kind=kind: self._check(kind, mat),
            ))
        return out

    def _check(self, kind, mat):
        """TV to the exact law over every row of this model sampled so far,
        so the test gains power as the run goes on."""
        _check_permutation_rows(mat, self.sizes.fidelity_reps, self.N)
        seen = self.seen[kind]
        for row, c in zip(*np.unique(mat, axis=0, return_counts=True)):
            key = tuple(int(v) for v in row)
            seen[key] = seen.get(key, 0) + int(c)
        total = sum(seen.values())
        law = self.laws[kind]
        gap = oracle.tv({k: c / total for k, c in seen.items()}, law)
        tol = _tv_tolerance(law, total)
        require(gap <= tol, f"{kind}: TV to exact law {gap:.4f} > {tol:.4f} "
                            f"over {total} rows")


class CltLargeN(Workload):
    """n = 2000: inversions on score rows and rank rows, 3-descents on score
    rows, then KS and W1 distances to the normal."""

    def __init__(self, pl, seed, sizes):
        super().__init__(pl, seed, sizes)
        # (label, statistic, model): the unfair law's rows are rank rows
        self.cases = [
            ("inverse-unfair inv", pl.parse_statistic("inv"), pl.ModelSpec.inverse_unfair()),
            ("inverse-unfair desc:3", pl.parse_statistic("desc:3"), pl.ModelSpec.inverse_unfair()),
            ("unfair inv", pl.parse_statistic("inv"), pl.ModelSpec.unfair()),
        ]

    def build_references(self):
        from scipy.stats import kstest

        n = self.sizes.clt_n
        self.kstest = kstest
        self.means = {"inv": oracle.mean_inversions(n), "desc:3": oracle.mean_m_descents(n, 3)}

    def ops(self):
        n, reps = self.sizes.clt_n, self.sizes.clt_reps
        out = []
        for label, kind, spec in self.cases:
            seed = self.next_seed()
            holder = {}

            def sample(kind=kind, spec=spec, seed=seed, holder=holder):
                holder["s"] = self.pl.standardized_sample(kind, spec, n, reps, seed,
                                                          workers=WORKERS)
                return holder["s"]

            out.append(Op(f"clt {label}", reps, sample,
                          lambda s, kind=kind: self._check_sample(kind, s)))
            out.append(Op(f"ks {label}", 0,
                          lambda holder=holder: self.pl.ks_to_normal(holder["s"].values),
                          lambda ks, holder=holder: self._check_ks(ks, holder["s"])))
            out.append(Op(f"w1 {label}", 0,
                          lambda holder=holder: self.pl.wasserstein1_to_normal(holder["s"].values),
                          self._check_w1))
        return out

    def _check_sample(self, kind, s):
        reps = self.sizes.clt_reps
        values = np.asarray(s.values, dtype=float)
        require(values.shape == (reps,) and bool(np.all(np.isfinite(values))),
                "standardized values missing or not finite")
        exact_mean = self.means[str(kind)]
        require(abs(s.center - exact_mean) <= 1e-9 * exact_mean,
                f"{kind}: center {s.center} != exact mean {exact_mean}")
        raw = values * s.scale + s.center
        se = float(np.std(raw, ddof=1)) / math.sqrt(reps)
        gap = abs(float(np.mean(raw)) - exact_mean)
        require(gap <= _Z * se, f"{kind}: raw mean off by {gap:.2f} > {_Z} SE ({se:.2f})")

    def _check_ks(self, ks, s):
        reps = self.sizes.clt_reps
        ref = float(self.kstest(np.asarray(s.values), "norm").statistic)
        require(abs(ks - ref) <= 1e-12, f"KS {ks} != scipy's {ref}")
        # DKW at false-alarm 1e-9, plus 0.05 for n = 2000 not being infinite
        bound = math.sqrt(math.log(2e9) / (2.0 * reps)) + 0.05
        require(ks <= bound, f"KS {ks:.4f} > {bound:.4f}")

    def _check_w1(self, w1):
        reps = self.sizes.clt_reps
        # E[W1] <= (int sqrt(F(1-F)) dx) / sqrt(R) = 1.6147 / sqrt(R) for the
        # normal; W1 is 1/sqrt(R)-Lipschitz in the sample, so Gaussian
        # concentration adds sqrt(2 ln(1e9) / R); plus 0.05 as for KS.
        bound = (1.6147 + math.sqrt(2.0 * _LOG_ALARM)) / math.sqrt(reps) + 0.05
        require(0.0 <= w1 <= bound, f"W1 {w1:.4f} outside [0, {bound:.4f}]")


class SizebiasCoupling(Workload):
    """The Stein bound at small n, couple_batch at large n, and the
    size-bias identity with f = square."""

    def __init__(self, pl, seed, sizes):
        super().__init__(pl, seed, sizes)
        self.counts["clamped"] = 0

    def build_references(self):
        s = self.sizes
        self.means = {n: oracle.mean_inversions(n) for n in (s.stein_n, s.couple_n)}

    def ops(self):
        s = self.sizes
        stein_seed, couple_seed, identity_seed = (self.next_seed() for _ in range(3))
        return [
            Op("stein_bound", s.stein_outer * (1 + s.stein_inner),
               lambda: self._stein(stein_seed), self._check_stein),
            Op("couple_batch", s.couple_reps,
               lambda: self.pl.couple_batch(s.couple_n, s.couple_reps, couple_seed),
               self._check_couple),
            Op("verify_size_bias_identity", 2 * s.identity_reps,
               lambda: self.pl.verify_size_bias_identity(
                   s.identity_n, "square", s.identity_reps, identity_seed),
               self._check_identity),
        ]

    def _stein(self, seed):
        s = self.sizes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = self.pl.stein_bound(s.stein_n, s.stein_outer, s.stein_inner, seed)
        self.counts["clamped"] += sum("clamping" in str(w.message) for w in caught)
        return report

    def _check_stein(self, r):
        s = self.sizes
        n = s.stein_n
        se = math.sqrt(r.sigma2 / s.stein_outer)
        gap = abs(r.mu - self.means[n])
        require(gap <= _Z * se, f"stein mu off by {gap:.2f} > {_Z} SE ({se:.2f})")
        require(0.0 < r.second_moment <= (2 * n) ** 2, f"E[(W^s-W)^2] = {r.second_moment}")
        require(r.var_cond >= 0.0 and math.isfinite(r.bound) and r.bound > 0.0,
                f"bound {r.bound}, var_cond {r.var_cond}")

    def _check_couple(self, d):
        s = self.sizes
        n, reps = s.couple_n, s.couple_reps
        w, w_s, i, j, res = (np.asarray(d[k]) for k in ("w", "w_s", "i", "j", "resampled"))
        require(all(a.shape == (reps,) for a in (w, w_s, i, j, res)), "bad array shapes")
        require(bool(np.all(np.abs(w_s - w) <= 2 * n)), "|w_s - w| > 2n")
        require(bool(np.all(w_s >= 1)), "w_s < 1")
        require(bool(np.all(w_s[~res] == w[~res])), "w_s != w where no resample")
        require(bool(np.all((1 <= i) & (i < j) & (j <= n))), "index pair out of range")
        se = float(np.std(w, ddof=1)) / math.sqrt(reps)
        gap = abs(float(np.mean(w)) - self.means[n])
        require(gap <= _Z * se, f"mean W off by {gap:.2f} > {_Z} SE ({se:.2f})")

    def _check_identity(self, r):
        require(r.pooled_se > 0 and r.lhs > 0, f"lhs {r.lhs}, pooled SE {r.pooled_se}")
        require(r.gap_in_se <= _Z, f"identity gap {r.gap_in_se:.2f} SE > {_Z}")


RECORD_KEYS = {"command", "params", "results", "version", "runtime_seconds"}


def _record(text: str, command: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    require(len(lines) == 1, f"{command}: expected one RunRecord line, got {len(lines)}")
    rec = json.loads(lines[0])
    require(isinstance(rec, dict) and set(rec) == RECORD_KEYS,
            f"{command}: RunRecord keys {sorted(rec) if isinstance(rec, dict) else rec}")
    require(rec["command"] == command, f"RunRecord command {rec['command']!r}")
    return rec


class CliTables(Workload):
    """In-process ``permlab.cli.main`` on the table and scalar commands."""

    def __init__(self, pl, seed, sizes):
        super().__init__(pl, seed, sizes)
        import permlab.cli  # noqa: F401  (binds pl.cli)

        s = sizes
        self.counts["bytes_out"] = 0
        self.commands = [
            ("pmf inverse-unfair", ["pmf", "--model", "inverse-unfair", "--n", str(s.pmf_n)]),
            ("pmf unfair", ["pmf", "--model", "unfair", "--n", str(s.pmf_n)]),
            ("tv", ["tv", "--n", str(s.pmf_n)]),
            ("moments inv", ["moments", "--stat", "inv", "--n", str(s.moments_n)]),
            ("sample unfair", ["sample", "--model", "unfair", "--n", str(s.sample_n),
                               "--reps", str(s.sample_reps), "--threads", str(WORKERS)]),
        ]

    def build_references(self):
        n = self.sizes.pmf_n
        self.identity_prob = float(Fraction(2 ** n, math.factorial(n + 1)))
        self.tv_exact = oracle.tv(oracle.plackett_luce_law(range(1, n + 1)), oracle.uniform_law(n))
        self.mean_inv = oracle.mean_inversions(self.sizes.moments_n)

    def ops(self):
        out = []
        for label, argv in self.commands:
            if argv[0] == "sample":
                argv = argv + ["--seed", str(self.next_seed())]
            rows = {"pmf": math.factorial(self.sizes.pmf_n),
                    "tv": 2 * math.factorial(self.sizes.pmf_n),
                    "sample": self.sizes.sample_reps}.get(argv[0], 0)
            out.append(Op(label, rows, lambda argv=argv: self._run(argv),
                          lambda res, argv=argv: self._check(argv, res)))
        return out

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.pl.cli.main(argv)
            except SystemExit as exc:  # argparse and some commands exit this way
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def _check(self, argv, res):
        code, out, err = res
        self.counts["bytes_out"] += len(out.encode()) + len(err.encode())
        command = argv[0]
        require(code == 0, f"{command}: exit code {code}: {err.strip()[:200]}")
        getattr(self, f"_check_{command}")(argv, out, err)

    def _check_pmf(self, argv, out, err):
        n = self.sizes.pmf_n
        lines = out.splitlines()
        require(lines[0] == "permutation,prob_5dp,prob_full", f"pmf header {lines[0]!r}")
        rows = lines[1:]
        require(len(rows) == math.factorial(n), f"pmf has {len(rows)} rows")
        probs = [float(r.rsplit(",", 1)[1]) for r in rows]
        total = math.fsum(probs)
        require(abs(total - 1.0) <= 1e-12, f"pmf sums to {total!r}")
        identity = '"(' + ",".join(str(v) for v in range(1, n + 1)) + ')"'
        require(rows[0].startswith(identity), f"pmf first row {rows[0]!r}")
        require(probs[0] == self.identity_prob,
                f"pmf identity row {probs[0]!r} != {self.identity_prob!r}")
        _record(err, "pmf")

    def _check_tv(self, argv, out, err):
        res = _record(out, "tv")["results"]
        tv = res["tv_exact"]
        require(tv is not None and abs(tv - self.tv_exact) <= 1e-12,
                f"tv_exact {tv} != oracle {self.tv_exact}")
        require(res["lower_bound"] <= tv, f"lower bound {res['lower_bound']} > TV {tv}")

    def _check_moments(self, argv, out, err):
        res = _record(out, "moments")["results"]
        require(abs(res["mean"] - self.mean_inv) <= 1e-9 * self.mean_inv,
                f"moments mean {res['mean']} != {self.mean_inv}")
        require(abs(res["mean_coeff"] - (1.0 - math.log(2.0)) / 2.0) <= 1e-15,
                f"mean_coeff {res['mean_coeff']}")

    def _check_sample(self, argv, out, err):
        n, reps = self.sizes.sample_n, self.sizes.sample_reps
        rows = out.splitlines()
        require(len(rows) == reps, f"sample printed {len(rows)} rows")
        mat = np.array([r.strip('"').split(",") for r in rows], dtype=np.int64)
        _check_permutation_rows(mat, reps, n)
        rec = _record(err, "sample")
        require(rec["results"] == {"rows": reps}, f"sample results {rec['results']}")


WORKLOADS = {
    "small_n_fidelity": SmallNFidelity,
    "clt_large_n": CltLargeN,
    "sizebias_coupling": SizebiasCoupling,
    "cli_tables": CliTables,
}
