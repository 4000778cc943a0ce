"""Command-line interface.

``main`` is the run envelope: it parses the arguments, starts the clock,
draws a seed where a seeded command got none and parses ``--stat`` into its
``StatisticKind``.  A subcommand only computes: it writes any table body and
returns its results.  ``main`` then emits exactly one RunRecord, a JSON object
with the command, every parsed argument as params (the seed drawn, the
statistic normalized), the results, the package version and the runtime: on
stdout for scalar commands, on stderr after the CSV rows of table commands,
so data and diagnostics never mix.  A refused run, a bad argument included,
prints one ``error:`` line, exits 1 and emits no record; the line names a
number of more than 20 digits by its digit count.

``sample`` and ``pmf`` write their table bodies by the row blocks of
``models._block_rows`` (at most 2^20 values), each block gathered as bytes
from numpy tables and written as one str, byte for byte what the csv module
writes: the joined permutation field is quoted, and bare at n = 1 where it
holds no comma.  CSV ``sample`` draws each block just before writing it.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__ as VERSION
from . import exact, montecarlo, sizebias
from .models import (
    _block_rows,
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

_JSON_ENTRIES = 10 ** 7  # sample --format json holds the matrix: about 52 bytes an entry


def _record(args, results: dict, t0: float) -> dict:
    """The RunRecord of a run: params are the parsed arguments as ``main``
    resolved them, the statistic as its text."""
    params = {k: str(v) if k == "stat" else v
              for k, v in vars(args).items() if k not in ("command", "func")}
    return {
        "command": args.command,
        "params": params,
        "results": results,
        "version": VERSION,
        "runtime_seconds": round(time.perf_counter() - t0, 6),
    }


def _finite(obj):
    """obj with each non-finite float made None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit_record(rec: dict, to_stderr: bool) -> None:
    stream = sys.stderr if to_stderr else sys.stdout
    try:
        text = json.dumps(rec, allow_nan=False)
    except ValueError:  # strict JSON has no NaN or Infinity: write them as null
        text = json.dumps(_finite(rec), allow_nan=False)
    stream.write(text + "\n")


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
            raise ValueError("markov model needs --chain FILE")
        obj = load_config(args.chain)
        return ModelSpec.markov_draw(chain_from_config(obj.get("chain", obj)))
    return ModelSpec(kind)


def _row_writer(n: int, lead: str, close: str, cells):
    """A function write(block, ids) that writes row r of ``block`` (n values
    in 0..n) to stdout as the csv module would: a first field lead + the
    row's values joined by "," + close, then cells[ids[r]] (str or bytes), the
    rest of the line.  csv quotes a field only where it holds a comma, so
    one-value rows go bare.  ",<v>" by value and close + cell by id are 1-D
    zero-padded fixed-width bytes tables, built once here; each block takes
    from both once, viewed as uint8, drops the zero bytes with
    ``bytes.translate`` and is written as one str."""
    quote = '"' if n > 1 else ""
    values = np.array([f",{v}" for v in range(n + 1)], dtype="S")
    cells = np.char.add((close + quote).encode(), np.asarray(cells, dtype="S"))
    head = np.frombuffer((quote + lead).encode(), dtype=np.uint8)

    def write(block, ids) -> None:
        k = len(block)
        line = np.concatenate([np.broadcast_to(head, (k, head.size)),
                               values.take(block).view(np.uint8),
                               cells.take(ids).view(np.uint8).reshape(k, -1)], axis=1)
        line[:, head.size] = 0  # the first value takes no comma
        sys.stdout.write(line.tobytes().translate(None, b"\0").decode("ascii"))

    return write


def _write_rows(mat, lead: str, close: str, cells, ids) -> None:
    """Write the rows of ``mat`` by ``_row_writer``, in row blocks."""
    n = mat.shape[1]
    write, step = _row_writer(n, lead, close, cells), _block_rows(n)
    for a in range(0, len(mat), step):
        write(mat[a:a + step], ids[a:a + step])


# ---------------------------------------------------------------------------
# subcommands: each returns its results, after writing any table body

def cmd_sample(args) -> dict:
    """CSV rows are drawn, ranked and written one block at a time: rows a..b
    come from streams a..b, so the bytes are the whole matrix's, and memory
    does not grow with --reps.  Every refusal fires before the first block
    is written.  JSON holds the whole matrix, so it is capped lower."""
    spec = _model_spec(args)
    n, reps = args.n, args.reps
    montecarlo._check_budget(n, reps)
    if args.format == "json":
        if n * reps > _JSON_ENTRIES:
            raise ValueError(f"{reps} rows of n = {n}: {n * reps} entries exceed the JSON cap "
                             f"{_JSON_ENTRIES}; use --format csv")
        mat = sample_permutation_matrix(spec, n, reps, args.seed, workers=args.threads)
        return {"permutations": mat.tolist()}
    write, step = _row_writer(n, "", "", ["\r\n"]), _block_rows(n)
    ids = np.zeros(step, dtype=np.intp)
    for a in range(0, reps, step):
        mat = sample_permutation_matrix(spec, n, min(step, reps - a), args.seed,
                                        first_stream=a, workers=args.threads)
        write(mat, ids[:len(mat)])
    return {"rows": reps}


def cmd_pmf(args) -> dict:
    """Row r of S_n has probability num/den[r], integers below 2^53.  Each
    distinct den is one cell, a/b in lowest terms: 5 decimals truncated from
    the integer digits of a * 10^5 // b, and repr(a / b), its one Python
    step.  The total is summed exactly over the lcm of the b."""
    perms, num, den = exact._law_table(args.n, args.model)
    dens, ids, counts = np.unique(den, return_inverse=True, return_counts=True)
    a, b = num // np.gcd(num, dens), dens // np.gcd(num, dens)
    digits = (a * 100000 // b)[:, None] // 10 ** np.arange(5, -1, -1) % 10 + ord("0")
    fives = np.insert(digits.astype(np.uint8), 1, ord("."), axis=1).view("S7")[:, 0]
    full = np.char.add(np.array(list(map(repr, (a / b).tolist())), dtype="S"), b"\r\n")
    cells = np.char.add(np.char.add(b",", fives), np.char.add(b",", full))
    lcm = math.lcm(*b.tolist())
    total = sum(x * c * (lcm // y) for x, y, c in zip(a.tolist(), b.tolist(), counts.tolist()))
    sys.stdout.write("permutation,prob_5dp,prob_full\r\n")
    _write_rows(perms, "(", ")", cells, ids)
    return {"outcomes": len(perms), "total_probability": repr(total / lcm)}


def cmd_tv(args) -> dict:
    results: dict = {"n": args.n}
    try:
        results["tv_exact"] = float(exact.tv_model_vs_uniform(args.n, ModelKind.INVERSE_UNFAIR))
    except exact.EnumerationLimit:
        results["tv_exact"] = None
    if args.n >= 3:
        p_rho, p_pi, diff = exact.tv_event_lower_bound(args.n)
        results.update({"p_rho": p_rho, "p_pi": p_pi, "lower_bound": diff})
    else:
        results.update({"p_rho": None, "p_pi": None, "lower_bound": None})
    return results


def cmd_stats(args) -> dict:
    kind = args.stat
    texts = list(args.perm or [])
    if not texts:
        texts = [line.strip() for line in sys.stdin if line.strip()]
    # every row is evaluated before any is written: a refused run prints no table
    rows = [(str(p), str(kind), evaluate(kind, p)) for p in map(Permutation.from_string, texts)]
    out = csv.writer(sys.stdout)
    out.writerow(["permutation", "statistic", "value"])
    out.writerows(rows)
    return {"rows": len(texts)}


def cmd_moments(args) -> dict:
    return exact.closed_form_moments(args.stat, args.n)


def cmd_clt(args) -> dict:
    spec = _model_spec(args)
    sample = montecarlo.standardized_sample(
        args.stat, spec, args.n, args.reps, args.seed,
        centering=args.centering, workers=args.threads,
    )
    if args.emit_sample:
        with open(args.emit_sample, "w") as fh:
            for v in sample.values:
                fh.write(f"{float(v)!r}\n")
    return {
        "center": sample.center,
        "scale": sample.scale,
        "mean": sample.sample_mean,
        "var": sample.sample_variance,
        "ks": montecarlo.ks_to_normal(sample.values),
        "w1": montecarlo.wasserstein1_to_normal(sample.values),
    }


def cmd_ratio(args) -> dict:
    kind = args.stat
    results = asdict(montecarlo.moment_ratio_mc(
        kind, args.n, args.reps, args.seed, k=args.k, workers=args.threads
    ))
    if kind.tag == "desc" and kind.m == 1 and args.k == 1:
        results["closed_form_ratio"] = exact.moment_ratio_descents(args.n)
    return results


def cmd_sizebias(args) -> dict:
    identity = args.check in ("identity", "square") or args.check.startswith("indicator:")
    if not identity and args.check not in ("var", "bound"):
        raise ValueError(f"unknown check {args.check!r}")
    # var/bound hold each outer score row and its inner completions; the
    # identity checks draw reps coupled rows and reps independent ones
    rows = 2 * args.reps if identity else args.outer * (1 + args.inner)
    montecarlo._check_budget(args.n, rows)
    if identity:
        report = sizebias.verify_size_bias_identity(args.n, args.check, args.reps, args.seed)
        results = {"f": args.check, **asdict(report), "gap_in_se": report.gap_in_se}
    elif args.check == "var":  # no sigma^2 guard: the variance does not divide by it
        raw = sizebias.estimate_var_conditional(args.n, args.outer, args.inner, args.seed,
                                                 clamp=False)
        var_cond = max(raw, 0.0)
        results = {
            "var_cond": var_cond,
            "var_cond_over_n": var_cond / args.n,
            "var_cond_raw": raw,
            "clamped": raw < 0.0,
        }
    else:
        results = asdict(sizebias.stein_bound(args.n, args.outer, args.inner, args.seed))
    return results


# ---------------------------------------------------------------------------
# parser

def _add_seed_threads(sp) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help="root seed; generated and reported when omitted")
    sp.add_argument("--threads", type=int, default=1,
                    help="checked (>= 1) but selects nothing: large inversion counts use up "
                         "to one thread per CPU, with identical results on any host")


def _add_model(sp, default: str = "inverse-unfair") -> None:
    sp.add_argument("--model", default=default,
                    choices=[k.value for k in ModelKind])
    sp.add_argument("--phi", default=None,
                    help="phi rule for --model phi: 'one' or 'identity'")
    sp.add_argument("--phi-table", default=None,
                    help="JSON config with a phi table for --model phi")
    sp.add_argument("--chain", default=None,
                    help="JSON config with states/transitions for --model markov")


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with a ValueError, which ``main`` prints as one
    ``error:`` line with exit 1, where argparse prints its usage and exits 2.
    Subcommand parsers are of this class too."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    sp.add_argument("--seed", type=int, default=None,
                    help="root seed; generated and reported when omitted")
    sp.set_defaults(func=cmd_sizebias)

    return ap


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        if hasattr(args, "seed") and args.seed is None:  # reported in params
            args.seed = fresh_seed()
        if hasattr(args, "stat"):
            args.stat = parse_statistic(args.stat)
        results = args.func(args)
        table = args.command in ("pmf", "stats") or getattr(args, "format", None) == "csv"
        _emit_record(_record(args, results, t0), to_stderr=table)
    except (ValueError, OSError, MemoryError) as exc:
        # a number of more than 20 digits is named by its digit count
        text = re.sub(r"\d{21,}", lambda m: f"<{len(m[0])} digits>", str(exc) or "out of memory")
        print(f"error: {text}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
