"""permlab benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload clt_large_n --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(set-up time, rows per second at a reference host speed, peak memory,
success rate); with
``--trace 1`` it carries the per-layer metrics of a traced run.  Earlier
stdout lines print each metric with its unit, the error rate, and an
``info`` object that is never gated.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_permlab():
    """Import permlab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import permlab

    if not Path(permlab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"permlab came from {permlab.__file__}, not {SRC}")
    return permlab


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes instead of the benchmark's")
    ap.add_argument("--setup-only", action="store_true",
                    help="import permlab, build the inputs and exit (timed by the parent)")
    return ap.parse_args(argv)


def build(pl, args):
    sizes = workloads.TINY if args.tiny else workloads.FULL
    return workloads.WORKLOADS[args.workload](pl, args.seed, sizes)


# A typical median of reference_s() on the 2-core x86-64 container that the
# figures in bench/README.md come from (runs read 0.019 to 0.037 s there):
# rows_per_s is reported at that host speed.
REFERENCE_S = 0.030


def reference_s() -> float:
    """Wall time of a fixed task that calls nothing in permlab: an integer
    loop and a list of tuples turned into an array.

    The shared host this benchmark runs on drifts in speed by a fifth or more
    over tens of seconds, with CPU time equal to wall time, and pure Python
    and numpy slow down together.  Each timed op is scaled by REFERENCE_S
    over the mean of reference_s() measured right before and right after it,
    which cancels most of that drift while leaving every change to permlab
    in the figure.  The collector is off so that the task does not depend on
    what the program left on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        pairs = np.array([(i, i + 1) for i in range(50_000)])
        elapsed = time.perf_counter() - t0
        del pairs
    finally:
        if enabled:
            gc.enable()
    return elapsed


def time_setup(args, repeats: int) -> float:
    """Median wall time of fresh processes that import permlab and build the
    workload inputs.  Not scaled by reference_s(): set-up is mostly imports
    and process start, which did not track the reference task."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Attempted and failed ops, plus per-op call times (tracing off): wall
    times, and the same scaled to the reference host speed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_walls: dict[str, list[float]] = {}
        self.op_scaled: dict[str, list[float]] = {}
        self.op_rows: dict[str, int] = {}
        self.reference_times: list[float] = []

    def run_iteration(self, wl, timed: bool) -> None:
        # each timed op is scaled by the mean of the reference times taken
        # right before and right after it; an op's "after" is the next's "before"
        ref = reference_s() if timed else 0.0
        for op in wl.ops():
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # an op that raises is a failed op; keep going
                self._fail(op.name, traceback.format_exc())
                continue
            elapsed = time.perf_counter() - t0
            if timed:
                ref_after = reference_s()
                self.reference_times.append(ref_after)
                self.op_walls.setdefault(op.name, []).append(elapsed)
                self.op_scaled.setdefault(op.name, []).append(
                    elapsed * 2.0 * REFERENCE_S / (ref + ref_after))
                self.op_rows[op.name] = op.rows
                ref = ref_after
            try:
                op.check(result)
            except workloads.CheckFailed as exc:
                self._fail(op.name, f"check failed: {exc}")
            except Exception:
                self._fail(op.name, "check raised:\n" + traceback.format_exc())

    def _fail(self, name: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {message.strip()}")
        print(f"FAILED {name}: {message.strip()}", file=sys.stderr)

    def rows_per_s(self, times: dict[str, list[float]]) -> float:
        """Rows of one iteration over the sum of each op's median call time."""
        seconds = sum(statistics.median(t) for t in times.values())
        return sum(self.op_rows.values()) / seconds if seconds > 0 else 0.0


def repeat_for(seconds: float, body) -> int:
    """Call body() at least once, and again while the next call, taking as
    long as the last one, would end within ``seconds``; return the count."""
    t_start = time.perf_counter()
    count = 0
    while True:
        t0 = time.perf_counter()
        body()
        count += 1
        now = time.perf_counter()
        if now + (now - t0) - t_start > seconds:
            return count


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(pl, args, info) -> tuple[Tally, dict]:
    wl = build(pl, args)
    setup_s = time_setup(args, wl.sizes.setup_repeats)
    wl.build_references()
    tally = Tally()
    first_peak_mb: list[float] = []

    def iteration():
        tally.run_iteration(wl, timed=True)
        if not first_peak_mb:
            first_peak_mb.append(peak_rss_mb())

    info["iterations"] = repeat_for(args.seconds, iteration)
    # Later iterations only ratchet the peak up by allocator fragmentation,
    # by an amount that varies from run to run; the whole-run peak is info.
    info["peak_rss_mb_whole_run"] = peak_rss_mb()
    info["rows_per_s_wall"] = tally.rows_per_s(tally.op_walls)
    info["reference_s_median"] = (statistics.median(tally.reference_times)
                                  if tally.reference_times else None)
    info["op_median_s"] = {k: statistics.median(v) for k, v in tally.op_walls.items()}
    info["op_times_s"] = tally.op_walls
    rate = 1.0 - tally.failed / tally.attempted
    return tally, {
        "setup_s": (setup_s, "s"),
        "rows_per_s": (tally.rows_per_s(tally.op_scaled), "rows/s"),
        "peak_rss_mb": (first_peak_mb[0], "MB"),
        "success_rate": (rate, "ratio"),
    }


def per_layer_metrics(summary: dict, counts: dict, per_iter: float, overhead_s: float) -> dict:
    """name -> (value per traced iteration, unit); layers a workload does not
    reach read 0."""
    by_name = summary["by_name"]

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0) * per_iter

    def calls(name):
        return by_name.get(name, {}).get("calls", 0) * per_iter

    counters = summary["counters"]
    cpu = summary["cpu_per_wall"]
    draws = calls("sizebias.draw_pair1")
    return {
        "rng.make_generator.calls": (calls("rng.make_generator"), "count"),
        "rng.make_generator.self_s": (self_s("rng.make_generator"), "s"),
        "models.sample_score_matrix.self_s": (self_s("models.sample_score_matrix"), "s"),
        "models.sample_permutation_matrix.self_s":
            (self_s("models.sample_permutation_matrix"), "s"),
        "models.invert_rows.self_s": (self_s("models.invert_rows"), "s"),
        "models.walk.calls": (calls("models.walk"), "count"),
        "models.walk.self_s": (self_s("models.walk"), "s"),
        "models.cpu_per_wall": (cpu.get("models", 0.0), "ratio"),
        "stats.ranks_matrix.self_s": (self_s("stats.ranks_matrix"), "s"),
        "stats.inversions_batch.calls": (calls("stats.inversions_batch"), "count"),
        "stats.inversions_batch.self_s": (self_s("stats.inversions_batch"), "s"),
        "stats.inversions_batch.sort_elems_computed":
            (counters.get("stats.inversions_batch.sort_elems_computed", 0) * per_iter, "count"),
        "stats.m_descents_batch.self_s": (self_s("stats.m_descents_batch"), "s"),
        "stats.evaluate.calls": (calls("stats.evaluate"), "count"),
        "stats.evaluate.self_s": (self_s("stats.evaluate"), "s"),
        "stats.cpu_per_wall": (cpu.get("stats", 0.0), "ratio"),
        "montecarlo.standardized_sample.self_s":
            (self_s("montecarlo.standardized_sample"), "s"),
        "montecarlo.ks_to_normal.self_s": (self_s("montecarlo.ks_to_normal"), "s"),
        "montecarlo.wasserstein1_to_normal.self_s":
            (self_s("montecarlo.wasserstein1_to_normal"), "s"),
        "sizebias.index_distribution.self_s": (self_s("sizebias.index_distribution"), "s"),
        "sizebias.index_pairs":
            (counters.get("sizebias.index_distribution.index_pairs", 0) * per_iter, "count"),
        "sizebias.draw_pair1.calls": (draws, "count"),
        "sizebias.draw_pair1.self_s": (self_s("sizebias.draw_pair1"), "s"),
        "sizebias.resample_conditional_pair.calls":
            (calls("sizebias.resample_conditional_pair"), "count"),
        "sizebias.resample_conditional_pair.self_s":
            (self_s("sizebias.resample_conditional_pair"), "s"),
        "sizebias.recount.self_s": (summary["recount_self_s"] * per_iter, "s"),
        "sizebias.resampled_frac":
            (calls("sizebias.resample_conditional_pair") / draws if draws else 0.0, "ratio"),
        "sizebias.clamped": (counts.get("clamped", 0) * per_iter, "count"),
        "exact.enumerate_law.self_s": (self_s("exact.enumerate_law"), "s"),
        "exact.pmf.calls": (calls("exact.pmf"), "count"),
        "exact.pmf.self_s": (self_s("exact.pmf"), "s"),
        "exact.tv_distance.self_s": (self_s("exact.tv_distance"), "s"),
        "exact.mean_inversions_exact.self_s": (self_s("exact.mean_inversions_exact"), "s"),
        "perm.all_permutations.self_s": (self_s("perm.all_permutations"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_out": (counts.get("bytes_out", 0) * per_iter, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def traced(pl, args, info) -> tuple[Tally, dict]:
    """Alternate untraced and traced iterations; per-layer metrics are per
    traced iteration, and the overhead is the difference of median walls."""
    wl = build(pl, args)
    wl.build_references()
    tracer = spans.Tracer()
    tally = Tally()
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_counts: dict[str, int] = {}

    def pair():
        t0 = time.perf_counter()
        tally.run_iteration(wl, timed=False)
        walls[False].append(time.perf_counter() - t0)
        before = dict(wl.counts)
        t0 = time.perf_counter()
        with tracer.installed(), tracer.span(spans.ROOT_SPAN):
            tally.run_iteration(wl, timed=False)
        walls[True].append(time.perf_counter() - t0)
        for key, value in wl.counts.items():
            traced_counts[key] = traced_counts.get(key, 0) + value - before.get(key, 0)

    repeat_for(args.seconds, pair)
    n_traced = len(walls[True])
    summary = spans.summarise(tracer)
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics = per_layer_metrics(summary, traced_counts, 1.0 / n_traced, overhead)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.write_spans(spans_path, tracer.spans)
    info.update({
        "traced_iterations": n_traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "absent_bindings": summary["absent"],
        "layer_self_s": {k: v / n_traced for k, v in sorted(summary["by_layer"].items())},
        "self_over_traced_wall": (summary["self_total_s"] / summary["root_wall_s"]
                                  if summary["root_wall_s"] else 0.0),
        "layers_reached": sorted(k for k in summary["by_layer"] if k != "bench"),
    })
    return tally, metrics


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pl = import_permlab()
    except ImportError as exc:
        print(f"bench: cannot import permlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        build(pl, args)
        return 0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "workers": workloads.WORKERS,
    }
    if args.trace:
        tally, metrics = traced(pl, args, info)
    else:
        tally, metrics = end_to_end(pl, args, info)
    info["failures"] = tally.failures
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'error_rate':48s} {tally.failed / tally.attempted:14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
