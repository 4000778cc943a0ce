"""Command-line interface.

Every run emits exactly one RunRecord, a JSON object with the command, the
fully resolved parameters (including the seed, generated and reported when
not supplied), the results, the package version and the runtime.  Scalar
commands print the record on stdout; table commands stream CSV rows on stdout
and put the record on stderr, so data and diagnostics never mix.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import exact, montecarlo, sizebias
from .models import (
    ModelKind,
    ModelSpec,
    chain_from_config,
    load_config,
    phi_from_config,
    sample_permutation_matrix,
)
from .perm import Permutation
from .rng import fresh_seed
from .stats import evaluate, parse_statistic

try:  # installed package metadata, if available
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("permlab")
except Exception:  # pragma: no cover
    VERSION = "0.1.0"


def _record(command: str, params: dict, results: dict, t0: float) -> dict:
    return {
        "command": command,
        "params": params,
        "results": results,
        "version": VERSION,
        "runtime_seconds": round(time.perf_counter() - t0, 6),
    }


def _emit_record(rec: dict, to_stderr: bool) -> None:
    stream = sys.stderr if to_stderr else sys.stdout
    json.dump(rec, stream)
    stream.write("\n")


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else fresh_seed()


def _model_spec(args) -> ModelSpec:
    kind = ModelKind(args.model)
    if kind is ModelKind.PHI:
        if getattr(args, "phi_table", None):
            obj = load_config(args.phi_table)
            phi = phi_from_config(obj.get("phi", obj))
        else:
            phi = phi_from_config(getattr(args, "phi", None) or "identity")
        return ModelSpec.phi_draw(phi)
    if kind is ModelKind.MARKOV:
        if not getattr(args, "chain", None):
            raise SystemExit("markov model needs --chain FILE")
        obj = load_config(args.chain)
        return ModelSpec.markov_draw(chain_from_config(obj.get("chain", obj)))
    return ModelSpec(kind)


def _trunc5(p: Fraction) -> str:
    """Truncate an exact probability to 5 decimals (the table convention)."""
    t = (p.numerator * 100000) // p.denominator
    return f"{t // 100000}.{t % 100000:05d}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_sample(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    spec = _model_spec(args)
    montecarlo._check_budget(args.n, args.reps, montecarlo.DEFAULT_MAX_BUDGET)
    mat = sample_permutation_matrix(spec, args.n, args.reps, seed, workers=args.threads)
    params = {
        "model": spec.kind.value,
        "n": args.n,
        "reps": args.reps,
        "seed": seed,
        "threads": args.threads,
        "format": args.format,
    }
    if args.format == "json":
        rec = _record("sample", params, {"permutations": mat.tolist()}, t0)
        _emit_record(rec, to_stderr=False)
        return 0
    out = csv.writer(sys.stdout)
    for row in mat:
        out.writerow([",".join(str(int(v)) for v in row)])
    _emit_record(_record("sample", params, {"rows": int(mat.shape[0])}, t0), to_stderr=True)
    return 0


def cmd_pmf(args) -> int:
    t0 = time.perf_counter()
    kind = ModelKind(args.model)
    if kind not in (ModelKind.UNIFORM, ModelKind.UNFAIR, ModelKind.INVERSE_UNFAIR):
        raise SystemExit(f"pmf supports uniform/unfair/inverse-unfair, not {kind.value}")
    law = exact.enumerate_law(args.n, kind, exact=True)
    params = {"model": kind.value, "n": args.n}
    out = csv.writer(sys.stdout)
    out.writerow(["permutation", "prob_5dp", "prob_full"])
    total = Fraction(0)
    for outcome, p in zip(law.outcomes, law.probs):
        total += p
        text = "(" + ",".join(map(str, outcome)) + ")"
        out.writerow([text, _trunc5(p), repr(float(p))])
    results = {"outcomes": len(law.outcomes), "total_probability": repr(float(total))}
    _emit_record(_record("pmf", params, results, t0), to_stderr=True)
    return 0


def cmd_tv(args) -> int:
    t0 = time.perf_counter()
    results: dict = {"n": args.n}
    limit = exact.enumeration_limit()
    if args.n <= limit:
        results["tv_exact"] = float(
            exact.tv_model_vs_uniform(args.n, ModelKind.INVERSE_UNFAIR)
        )
    else:
        results["tv_exact"] = None
    if args.n >= 3:
        p_rho, p_pi, diff = exact.tv_event_lower_bound(args.n)
        results.update({"p_rho": p_rho, "p_pi": p_pi, "lower_bound": diff})
    else:
        results.update({"p_rho": None, "p_pi": None, "lower_bound": None})
    _emit_record(_record("tv", {"n": args.n}, results, t0), to_stderr=False)
    return 0


def cmd_stats(args) -> int:
    t0 = time.perf_counter()
    kind = parse_statistic(args.stat)
    texts = list(args.perm or [])
    if not texts:
        texts = [line.strip() for line in sys.stdin if line.strip()]
    out = csv.writer(sys.stdout)
    out.writerow(["permutation", "statistic", "value"])
    for text in texts:
        p = Permutation.from_string(text)
        out.writerow([str(p), str(kind), evaluate(kind, p)])
    rec = _record("stats", {"stat": str(kind)}, {"rows": len(texts)}, t0)
    _emit_record(rec, to_stderr=True)
    return 0


def cmd_moments(args) -> int:
    t0 = time.perf_counter()
    kind = parse_statistic(args.stat)
    n = args.n
    results: dict
    if kind.tag == "desc":
        results = {"mean": exact.mean_m_descents(n, kind.m)}
        if kind.m == 1:
            results["mean_asymptotic"] = exact.asymptotic_mean_descents(n)
            results["variance"] = exact.var_descents(n)
            results["variance_mode"] = "exact"
            results["variance_asymptotic"] = exact.asymptotic_var_m_descents(n, 1)
        else:
            results["variance"] = exact.asymptotic_var_m_descents(n, kind.m)
            results["variance_mode"] = "asymptotic"
    elif kind.tag == "inv":
        consts = exact.inversion_constants()
        results = {
            "mean": exact.mean_inversions_exact(n),
            "mean_coeff": consts.mean_coeff,
            "var_coeff": consts.var_coeff,
            "variance_asymptotic": consts.var_coeff * n ** 3,
        }
    else:
        raise SystemExit(f"no closed-form moments for statistic {kind}")
    rec = _record("moments", {"stat": str(kind), "n": n}, results, t0)
    _emit_record(rec, to_stderr=False)
    return 0


def cmd_clt(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    kind = parse_statistic(args.stat)
    spec = _model_spec(args)
    sample = montecarlo.standardized_sample(
        kind, spec, args.n, args.reps, seed,
        centering=args.centering, workers=args.threads,
    )
    if args.emit_sample:
        with open(args.emit_sample, "w") as fh:
            for v in sample.values:
                fh.write(f"{float(v)!r}\n")
    results = {
        "center": sample.center,
        "scale": sample.scale,
        "mean": sample.sample_mean,
        "var": sample.sample_variance,
        "ks": montecarlo.ks_to_normal(sample.values),
        "w1": montecarlo.wasserstein1_to_normal(sample.values),
    }
    params = {
        "kind": str(kind),
        "model": spec.kind.value,
        "n": args.n,
        "reps": args.reps,
        "seed": seed,
        "centering": montecarlo.Centering(args.centering).value,
        "threads": args.threads,
    }
    _emit_record(_record("clt", params, results, t0), to_stderr=False)
    return 0


def cmd_ratio(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    kind = parse_statistic(args.stat)
    report = montecarlo.moment_ratio_mc(
        kind, args.n, args.reps, seed, k=args.k, workers=args.threads
    )
    results = {
        "ratio": report.ratio,
        "se": report.se,
        "model_moment": report.model_moment,
        "uniform_moment": report.uniform_moment,
    }
    if kind.tag == "desc" and kind.m == 1 and args.k == 1:
        results["closed_form_ratio"] = exact.moment_ratio_descents(args.n)
    params = {
        "stat": str(kind),
        "n": args.n,
        "reps": args.reps,
        "k": args.k,
        "seed": seed,
        "threads": args.threads,
    }
    _emit_record(_record("ratio", params, results, t0), to_stderr=False)
    return 0


def cmd_sizebias(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    params = {"n": args.n, "seed": seed, "check": args.check}
    # var/bound hold each outer score row and its inner completions
    rows = args.outer * (1 + args.inner) if args.check in ("var", "bound") else args.reps
    montecarlo._check_budget(args.n, rows, montecarlo.DEFAULT_MAX_BUDGET)
    if args.check in ("identity", "square") or args.check.startswith("indicator:"):
        report = sizebias.verify_size_bias_identity(args.n, args.check, args.reps, seed)
        params["reps"] = args.reps
        results = {
            "f": report.f_name,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "pooled_se": report.pooled_se,
            "gap_in_se": report.gap_in_se,
        }
    elif args.check == "var":
        params.update({"outer": args.outer, "inner": args.inner})
        _, d = sizebias._differences(args.n, args.outer, args.inner, seed)
        raw, value = sizebias._var_cond(d, args.n)
        results = {
            "var_cond": value,
            "var_cond_over_n": value / args.n,
            "var_cond_raw": raw,
            "clamped": raw < 0.0,
        }
    elif args.check == "bound":
        params.update({"outer": args.outer, "inner": args.inner})
        report = sizebias.stein_bound(args.n, args.outer, args.inner, seed)
        results = {
            "mu": report.mu,
            "sigma2": report.sigma2,
            "var_cond": report.var_cond,
            "var_cond_raw": report.var_cond_raw,
            "clamped": report.clamped,
            "second_moment": report.second_moment,
            "bound": report.bound,
        }
    else:
        raise SystemExit(f"unknown check {args.check!r}")
    _emit_record(_record("sizebias", params, results, t0), to_stderr=False)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_seed_threads(sp) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help="root seed; generated and reported when omitted")
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker count (results are identical for any value)")


def _add_model(sp, default: str = "inverse-unfair") -> None:
    sp.add_argument("--model", default=default,
                    choices=[k.value for k in ModelKind])
    sp.add_argument("--phi", default=None,
                    help="phi rule for --model phi: 'one' or 'identity'")
    sp.add_argument("--phi-table", default=None,
                    help="JSON config with a phi table for --model phi")
    sp.add_argument("--chain", default=None,
                    help="JSON config with states/transitions for --model markov")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="permlab",
        description="Unfair and inverse-unfair random permutations: sampling, "
                    "exact laws, statistics, CLT checks and size-bias bounds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw permutations from a model")
    _add_model(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, default=1)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_seed_threads(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("pmf", help="exact pmf table over S_n (lexicographic)")
    sp.add_argument("--model", default="inverse-unfair",
                    choices=["uniform", "unfair", "inverse-unfair"])
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_pmf)

    sp = sub.add_parser("tv", help="exact TV to uniform plus the event lower bound")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_tv)

    sp = sub.add_parser("stats", help="evaluate a statistic on permutations "
                                      "(--perm or stdin, one per line)")
    sp.add_argument("--stat", required=True)
    sp.add_argument("--perm", action="append",
                    help="one-line permutation like 4,3,1,2 (repeatable)")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("moments", help="closed-form moments of a statistic")
    sp.add_argument("--stat", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("clt", help="standardized sample with KS/W1 normality gaps")
    sp.add_argument("--stat", required=True)
    _add_model(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--centering", default="exact",
                    choices=[c.value for c in montecarlo.Centering])
    sp.add_argument("--emit-sample", default=None, metavar="PATH",
                    help="also write the standardized sample, one value per line")
    _add_seed_threads(sp)
    sp.set_defaults(func=cmd_clt)

    sp = sub.add_parser("ratio", help="MC moment ratio of a statistic vs uniform")
    sp.add_argument("--stat", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    _add_seed_threads(sp)
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("sizebias", help="size-bias coupling checks and the "
                                         "Stein bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--check", default="bound",
                    help="identity | square | indicator:t | var | bound")
    sp.add_argument("--reps", type=int, default=20000,
                    help="replicas for the identity checks")
    sp.add_argument("--outer", type=int, default=2000,
                    help="outer score draws for var/bound")
    sp.add_argument("--inner", type=int, default=2,
                    help="completions per outer draw for var/bound")
    _add_seed_threads(sp)
    sp.set_defaults(func=cmd_sizebias)

    return ap


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
