import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import permlab
from permlab import cli, stats


def run_cli(args, capsys):
    """Run the CLI in-process; return (exit_code, stdout, stderr)."""
    code = cli.main(args)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def record_of(text):
    rec = json.loads(text.strip().splitlines()[-1])
    assert set(rec) == {"command", "params", "results", "version", "runtime_seconds"}
    return rec


def test_pmf_table(capsys):
    code, out, err = run_cli(["pmf", "--model", "inverse-unfair", "--n", "3"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["permutation", "prob_5dp", "prob_full"]
    assert len(rows) == 7
    assert rows[1] == ["(1,2,3)", "0.33333", repr(1 / 3)]
    assert rows[6][1] == "0.06666"  # truncation, not rounding
    rec = record_of(err)
    assert rec["command"] == "pmf"
    assert rec["results"]["outcomes"] == 6


def _pmf_oracle(n, model):
    """The pmf table written row by row through csv.writer."""
    from permlab import exact

    law = exact.enumerate_law(n, model, exact=True)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["permutation", "prob_5dp", "prob_full"])
    for o, p in zip(law.outcomes, law.probs):
        t = p.numerator * 100000 // p.denominator
        writer.writerow(["(" + ",".join(map(str, o)) + ")", f"{t // 100000}.{t % 100000:05d}",
                         repr(float(p))])
    return out.getvalue(), repr(float(sum(law.probs)))


@pytest.mark.parametrize("model", ["inverse-unfair", "unfair", "uniform"])
def test_pmf_rows_match_per_row_formatting(capsys, monkeypatch, model):
    # each distinct probability is formatted once and rows are written by
    # block; the bytes are still the per-row csv.writer table's (a bare first
    # field at n = 1), and the total is the exact sum
    monkeypatch.setattr(permlab.models, "_BLOCK_ROWS", 5)
    for n in range(1, 9):
        code, out, err = run_cli(["pmf", "--model", model, "--n", str(n)], capsys)
        want, total = _pmf_oracle(n, model)
        assert code == 0 and out == want, (model, n)
        assert record_of(err)["results"]["total_probability"] == total
    assert _pmf_oracle(1, model)[0].endswith("\r\n(1),1.00000,1.0\r\n")


def test_pmf_unfair_differs(capsys):
    _, out_r, _ = run_cli(["pmf", "--model", "inverse-unfair", "--n", "4"], capsys)
    _, out_f, _ = run_cli(["pmf", "--model", "unfair", "--n", "4"], capsys)
    rows_r = {r[0]: r[1] for r in csv.reader(io.StringIO(out_r)) if r[0] != "permutation"}
    rows_f = {r[0]: r[1] for r in csv.reader(io.StringIO(out_f)) if r[0] != "permutation"}
    assert rows_r["(1,2,3,4)"] == rows_f["(1,2,3,4)"] == "0.13333"
    assert rows_r["(2,3,4,1)"] != rows_f["(2,3,4,1)"]


def test_pmf_rejects_markov(capsys):
    code, out, err = run_cli(["pmf", "--model", "markov", "--n", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: argument --model: invalid choice: 'markov'")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("model", ["uniform", "unfair", "inverse-unfair"])
def test_pmf_and_tv_reject_n_below_one(capsys, model):
    for argv in (["pmf", "--model", model, "--n", "0"], ["tv", "--n", "0"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: n must be >= 1, got 0\n"


def test_tv_record(capsys):
    code, out, err = run_cli(["tv", "--n", "3"], capsys)
    assert code == 0 and err == ""
    rec = record_of(out)
    assert rec["results"]["tv_exact"] == pytest.approx(0.25)
    assert rec["results"]["lower_bound"] == pytest.approx(0.25)


def test_tv_large_n_skips_exact(capsys):
    code, out, _ = run_cli(["tv", "--n", "1000"], capsys)
    rec = record_of(out)
    assert rec["results"]["tv_exact"] is None
    assert rec["results"]["lower_bound"] > 0.5


def test_tv_tiny_n(capsys):
    code, out, _ = run_cli(["tv", "--n", "2"], capsys)
    rec = record_of(out)
    assert rec["results"]["tv_exact"] is not None
    assert rec["results"]["lower_bound"] is None


def test_stats_perm_args(capsys):
    code, out, err = run_cli(
        ["stats", "--stat", "inv", "--perm", "4,3,1,2", "--perm", "1,2,3,4"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["4,3,1,2", "inv", "5"]
    assert rows[2] == ["1,2,3,4", "inv", "0"]
    assert record_of(err)["results"]["rows"] == 2


def test_stats_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2,1,3\n\n3,2,1\n"))
    code, out, _ = run_cli(["stats", "--stat", "desc:1"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["2,1,3", "desc:1", "1"]
    assert rows[2] == ["3,2,1", "desc:1", "2"]


def test_stats_bad_perm(capsys):
    code, out, err = run_cli(["stats", "--stat", "inv", "--perm", "1,1"], capsys)
    assert code == 1
    assert "error" in err


def test_moments_desc(capsys):
    from permlab import exact

    code, out, _ = run_cli(["moments", "--stat", "desc:1", "--n", "100"], capsys)
    rec = record_of(out)
    assert rec["results"]["variance_mode"] == "exact"
    assert rec["results"]["mean"] == pytest.approx(exact.mean_m_descents(100, 1))
    assert rec["results"]["variance"] == pytest.approx(exact.var_descents(100))
    code, out, _ = run_cli(["moments", "--stat", "desc:3", "--n", "100"], capsys)
    rec = record_of(out)
    assert rec["results"]["variance_mode"] == "asymptotic"


def test_moments_inv(capsys):
    code, out, _ = run_cli(["moments", "--stat", "inv", "--n", "50"], capsys)
    rec = record_of(out)
    assert rec["results"]["mean_coeff"] == pytest.approx(0.1534264, abs=1e-6)
    assert rec["results"]["var_coeff"] == pytest.approx(0.0181163, abs=1e-6)


def test_moments_desc_window_past_n_is_inv(capsys):
    _, inv, _ = run_cli(["moments", "--stat", "inv", "--n", "10"], capsys)
    for m in (9, 10, 10 ** 21, 10 ** 110):
        code, out, _ = run_cli(["moments", "--stat", f"desc:{m}", "--n", "10"], capsys)
        assert code == 0 and record_of(out)["results"] == record_of(inv)["results"], m
    # desc:1 keeps its exact variance at n = 2, where 1 >= n - 1 too
    _, out, _ = run_cli(["moments", "--stat", "desc:1", "--n", "2"], capsys)
    assert record_of(out)["results"]["variance_mode"] == "exact"


def test_moments_unsupported(capsys):
    code, out, err = run_cli(["moments", "--stat", "las", "--n", "10"], capsys)
    assert code == 1 and out == ""
    assert err == "error: no closed-form moments for statistic las\n"


@pytest.mark.parametrize("stat", ["inv", "desc:1", "desc:3"])
def test_moments_record_is_the_clt_center_and_scale(capsys, stat):
    from permlab import exact, montecarlo
    from permlab.stats import parse_statistic

    assert permlab.UnknownClosedForm is exact.UnknownClosedForm
    assert montecarlo.UnknownClosedForm is exact.UnknownClosedForm
    code, out, _ = run_cli(["moments", "--stat", stat, "--n", "50"], capsys)
    res = record_of(out)["results"]
    assert code == 0 and res["variance_mode"] in ("exact", "asymptotic")
    for centering in montecarlo.Centering:
        args = (parse_statistic(stat), 50, centering)
        if centering is montecarlo.Centering.ASYMPTOTIC and "mean_asymptotic" not in res:
            with pytest.raises(exact.UnknownClosedForm):
                montecarlo._center_and_scale(*args)
            continue
        key = "mean_asymptotic" if centering is montecarlo.Centering.ASYMPTOTIC else "mean"
        assert montecarlo._center_and_scale(*args) == (res[key], math.sqrt(res["variance"]))
    assert stat != "desc:3" or "mean_asymptotic" not in res


@pytest.mark.parametrize("stat,n,limit_s", [
    ("desc:10000", 100_000, 1.0),
    ("desc:999999", 1_000_000, 2.0),
    ("desc:1000000000000000000000", 10, 1.0),
])
def test_moments_desc_time_is_bounded_in_m(capsys, stat, n, limit_s):
    code, out, _ = run_cli(["moments", "--stat", stat, "--n", str(n)], capsys)
    rec = record_of(out)
    assert code == 0
    assert rec["runtime_seconds"] < limit_s


def test_ratio_asc_time_is_bounded_in_m(capsys):
    # a window past n - 1 is every pair: asc is ainv, at the merge count's cost;
    # a window past (n - 1) / 2 is every pair less the few distances past it
    from permlab import models, stats

    n, reps, wide = 20000, 10, "asc:" + str(10 ** 30)
    recs = {}
    for stat in (wide, "ainv", "desc:19997", "asc:19997"):
        code, out, _ = run_cli(["ratio", "--stat", stat, "--n", str(n), "--reps", str(reps),
                                "--seed", "1"], capsys)
        assert code == 0
        recs[stat] = record_of(out)
        assert stat == "ainv" or recs[stat]["runtime_seconds"] < 1.0, stat
    assert recs[wide]["results"]["ratio"] == recs["ainv"]["results"]["ratio"]
    # each moment is the mean window count of the same score rows: the
    # descending pairs less those at distances 19998 and 19999, and the
    # ascents the window's other pairs
    for first, spec, key in ((0, models.ModelSpec.inverse_unfair(), "model_moment"),
                             (reps, models.ModelSpec.uniform(), "uniform_moment")):
        x = models.sample_score_matrix(spec, n, reps, 1, first)
        far = sum(np.count_nonzero(x[:, :n - d] > x[:, d:], axis=1) for d in (19998, 19999))
        desc = stats.inversions_batch(x) - far
        pairs = n * (n - 1) // 2 - 3
        assert recs["desc:19997"]["results"][key] == float(np.mean(desc.astype(float)))
        assert recs["asc:19997"]["results"][key] == float(np.mean((pairs - desc).astype(float)))


def test_sample_csv_and_seed_reported(capsys):
    code, out, err = run_cli(
        ["sample", "--model", "inverse-unfair", "--n", "5", "--reps", "4",
         "--seed", "99", "--threads", "1"],
        capsys,
    )
    assert code == 0
    rows = [r[0] for r in csv.reader(io.StringIO(out))]
    assert len(rows) == 4
    for row in rows:
        assert sorted(int(v) for v in row.split(",")) == [1, 2, 3, 4, 5]
    rec = record_of(err)
    assert rec["params"]["seed"] == 99


def _model_argvs(tmp_path):
    """--model arguments of every model, config files written to tmp_path."""
    phi, chain = tmp_path / "phi.json", tmp_path / "chain.json"
    phi.write_text(json.dumps({"phi": {"table": {"1": 2, "2": 5}}}))
    chain.write_text(json.dumps({"chain": {"states": [1, 3],
                                           "transitions": [[0.5, 0.5], [0.0, 1.0]]}}))
    return [["--model", m] for m in ("uniform", "unfair", "inverse-unfair")] + [
        ["--model", "phi", "--phi", "one"], ["--model", "phi", "--phi-table", str(phi)],
        ["--model", "markov", "--chain", str(chain)]]


@pytest.mark.parametrize("n", [1, 2, 5, 9, 10, 11, 99, 100, 101, 999, 1000, 1001])
def test_sample_csv_bytes(capsys, monkeypatch, tmp_path, n):
    # blocks of 3 rows cross block edges at every digit width, drawn block by
    # block from streams 0, 3 and 6 and formatted from tables built once; the
    # oracle is csv.writer on one joined field per row of the whole JSON
    # matrix, quoted, bare at n = 1 where the row holds no comma
    monkeypatch.setattr(permlab.models, "_BLOCK_ROWS", 3)
    sample, row_writer, drawn = cli.sample_permutation_matrix, cli._row_writer, []

    def spy(spec, n, reps, seed, first_stream=0, workers=1):
        drawn.append((first_stream, reps))
        return sample(spec, n, reps, seed, first_stream, workers)

    monkeypatch.setattr(cli, "sample_permutation_matrix", spy)
    monkeypatch.setattr(cli, "_row_writer", lambda *args: drawn.append("tables")
                        or row_writer(*args))
    for model in _model_argvs(tmp_path):
        argv = ["sample", *model, "--n", str(n), "--reps", "7", "--seed", "5"]
        code, out, _ = run_cli(argv, capsys)
        assert drawn == ["tables", (0, 3), (3, 3), (6, 1)], model
        perms = record_of(run_cli(argv + ["--format", "json"], capsys)[1])["results"]
        drawn.clear()
        want = io.StringIO()
        writer = csv.writer(want)
        for row in perms["permutations"]:
            writer.writerow([",".join(map(str, row))])
        assert code == 0 and out == want.getvalue(), model
        assert n != 1 or out == "1\r\n" * 7


def test_wide_rows_are_written_in_bounded_blocks(monkeypatch):
    # blocks hold at most 2^20 values: 5 rows a block at n = 200000 trace
    # about 21 MB, where one 4096-row block (all 20 rows here) traces 79 MB
    import tracemalloc
    from types import SimpleNamespace

    n, reps = 200_000, 20
    mat = np.tile(np.arange(1, n + 1), (reps, 1))
    sizes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=lambda text: sizes.append(len(text))))
    tracemalloc.start()
    cli._write_rows(mat, "", "", ["\r\n"], np.zeros(reps, dtype=np.intp))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    row = 2 + len(",".join(map(str, range(1, n + 1)))) + 2
    assert sizes == [5 * row] * 4
    assert peak < 48 * 2 ** 20


@pytest.mark.parametrize("model", ["unfair", "markov"])
def test_csv_sample_memory_does_not_grow_with_reps(monkeypatch, tmp_path, model):
    # CSV sample holds one block at a time: 16 blocks trace the peak of 4,
    # where a whole matrix traces four times as much (blocks of 256 rows
    # keep the test short; 1048-row blocks, the 2^20 entries of n = 1000,
    # trace 32 MB at either reps)
    import tracemalloc
    from types import SimpleNamespace

    monkeypatch.setattr(permlab.models, "_BLOCK_ROWS", 256)
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"states": [1, 3], "transitions": [[0.5, 0.5], [0.0, 1.0]]}))
    config = ["--chain", str(chain)] if model == "markov" else []
    null = SimpleNamespace(write=len)
    monkeypatch.setattr(sys, "stdout", null)
    monkeypatch.setattr(sys, "stderr", null)
    step, peaks = permlab.models._block_rows(1000), []
    for reps in (4 * step, 16 * step):
        tracemalloc.start()
        code = cli.main(["sample", "--model", model, *config, "--n", "1000",
                         "--reps", str(reps), "--seed", "1"])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_sample_json_cap_refused_before_allocation(capsys, monkeypatch):
    # JSON holds the whole matrix, so it admits at most _JSON_ENTRIES entries
    drawn = []

    def stub(spec, n, reps, seed, first_stream=0, workers=1):
        drawn.append(n * reps)
        return np.ones((1, 1), dtype=np.int64)

    monkeypatch.setattr(cli, "sample_permutation_matrix", stub)
    cap = cli._JSON_ENTRIES
    code, out, _ = run_cli(["sample", "--n", "10", "--reps", str(cap // 10), "--format", "json"],
                           capsys)
    assert code == 0 and drawn == [cap]
    code, out, err = run_cli(["sample", "--n", "1", "--reps", str(cap + 1), "--format", "json"],
                             capsys)
    assert (code, out, drawn) == (1, "", [cap])
    assert err == f"error: {cap + 1} rows of n = 1: {cap + 1} entries exceed the JSON cap " \
                  f"{cap}; use --format csv\n"


def test_sample_generates_seed(capsys):
    _, _, err = run_cli(
        ["sample", "--model", "uniform", "--n", "3", "--reps", "1"], capsys
    )
    rec = record_of(err)
    assert isinstance(rec["params"]["seed"], int)


def test_sample_json_reproducible(capsys):
    args = ["sample", "--model", "unfair", "--n", "6", "--reps", "3",
            "--seed", "7", "--format", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args + ["--threads", "4"], capsys)
    a = record_of(out1)["results"]["permutations"]
    b = record_of(out2)["results"]["permutations"]
    assert a == b
    assert len(a) == 3 and len(a[0]) == 6


def test_sample_phi_table_config(tmp_path, capsys):
    cfg = tmp_path / "phi.json"
    cfg.write_text(json.dumps({"phi": {"table": {"1": 9}, "default": "identity"}}))
    code, out, err = run_cli(
        ["sample", "--model", "phi", "--phi-table", str(cfg), "--n", "4",
         "--reps", "2", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert record_of(err)["params"]["model"] == "phi"


def test_sample_markov_config(tmp_path, capsys):
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps(
        {"chain": {"states": [1, 2], "transitions": [[0.5, 0.5], [0.5, 0.5]]}}
    ))
    code, out, err = run_cli(
        ["sample", "--model", "markov", "--chain", str(cfg), "--n", "4",
         "--reps", "2", "--seed", "3"],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize("model, key, cfg", [
    ("phi", "--phi-table", {"phi": {"table": {"1": 10 ** 23}}}),
    ("markov", "--chain",
     {"chain": {"states": [1, 2 ** 63], "transitions": [[0.5, 0.5], [0.5, 0.5]]}}),
])
def test_sample_huge_draw_count_is_a_one_line_error(tmp_path, capsys, model, key, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(
        ["sample", "--model", model, key, str(path), "--n", "3", "--seed", "1"], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "2^63" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("model, key, cfg", [
    ("phi", "--phi-table", {"phi": {"table": {"1": 2.5}}}),
    ("markov", "--chain",
     {"chain": {"states": [1, 2.5], "transitions": [[0.5, 0.5], [0.5, 0.5]]}}),
])
def test_sample_non_integer_draw_count_is_a_one_line_error(tmp_path, capsys, model, key, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(
        ["sample", "--model", model, key, str(path), "--n", "3", "--seed", "1"], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "2.5 is not an integer" in err
    assert len(err.splitlines()) == 1


def test_sample_nan_transition_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text('{"chain": {"states": [1, 2], "transitions": [[NaN, 1.0], [0.5, 0.5]]}}')
    code, out, err = run_cli(
        ["sample", "--model", "markov", "--chain", str(path), "--n", "4", "--seed", "1"], capsys
    )
    assert code == 1 and out == ""
    assert err == "error: transition probabilities must be finite and nonnegative\n"


@pytest.mark.parametrize("argv, stream", [
    (["sample", "--n", "3", "--reps", "2"], "err"),
    (["clt", "--stat", "inv", "--n", "10", "--reps", "20"], "out"),
    (["ratio", "--stat", "inv", "--n", "10", "--reps", "20"], "out"),
])
def test_threads_default_is_one_on_any_host(capsys, argv, stream):
    # a record must not depend on the CPU count of the host that wrote it
    code, out, err = run_cli(argv + ["--seed", "1"], capsys)
    assert code == 0
    assert record_of({"out": out, "err": err}[stream])["params"]["threads"] == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(capsys, threads):
    for args in (["sample", "--n", "3"],
                 ["clt", "--stat", "inv", "--n", "10", "--reps", "20"]):
        code, out, err = run_cli(args + ["--seed", "1", "--threads", threads], capsys)
        assert code == 1 and out == ""
        assert err == f"error: workers must be >= 1, got {threads}\n"


def test_sample_markov_needs_config(capsys):
    code, out, err = run_cli(["sample", "--model", "markov", "--n", "4", "--reps", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "error: markov model needs --chain FILE\n"


def test_clt_record(capsys):
    code, out, _ = run_cli(
        ["clt", "--stat", "inv", "--model", "inverse-unfair", "--n", "100",
         "--reps", "1000", "--seed", "1", "--threads", "2"],
        capsys,
    )
    rec = record_of(out)
    res = rec["results"]
    assert abs(res["mean"]) < 0.2
    assert res["ks"] < 0.1
    assert res["w1"] < 0.15
    assert rec["params"]["centering"] == "exact"
    assert rec["params"]["stat"] == "inv"


def _chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"chain": {"states": [1, 2],
                                          "transitions": [[0.5, 0.5], [0.0, 1.0]]}}))
    return str(path)


@pytest.mark.parametrize("model", [
    ["--stat", "inv", "--model", "uniform"],
    ["--stat", "inv", "--model", "markov", "--chain", "CHAIN"],
    ["--stat", "inv", "--model", "phi", "--phi", "one"],
    ["--stat", "desc:1", "--model", "unfair"],
])
def test_clt_refuses_models_its_closed_forms_do_not_describe(capsys, tmp_path, model):
    # the centering is the inverse-unfair closed form, which fits none of these
    model = [_chain_file(tmp_path) if a == "CHAIN" else a for a in model]
    code, out, err = run_cli(["clt", *model, "--n", "50", "--reps", "100", "--seed", "1"],
                             capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _rerun_argv(rec):
    """argv rebuilt from a record's params: None skipped, lists repeated."""
    argv = [rec["command"]]
    for key, value in rec["params"].items():
        for v in value if isinstance(value, list) else [] if value is None else [value]:
            argv += ["--" + key.replace("_", "-"), str(v)]
    return argv


def test_rerun_from_record_params_reproduces_the_run(capsys, tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"phi": {"table": {"1": 10, "3": 2}, "default": "one"}}))
    sample = ["sample", "--n", "6", "--reps", "5"]
    tables = [
        sample + ["--model", "phi", "--phi", "one", "--seed", "3"],
        sample + ["--model", "phi", "--phi-table", str(phi), "--seed", "3"],
        sample + ["--model", "markov", "--chain", _chain_file(tmp_path)],  # seed generated
        ["stats", "--stat", " desc:2", "--perm", "3,1,4,2", "--perm", "2,4,1,3"],
        ["pmf", "--model", "unfair", "--n", "4"],
    ]
    scalars = [
        ["clt", "--stat", "inv", "--model", "unfair", "--n", "30", "--reps", "40"],
        ["ratio", "--stat", "desc:1", "--n", "20", "--reps", "30", "--k", "2", "--seed", "5"],
        ["sizebias", "--check", "var", "--n", "12", "--outer", "40", "--inner", "3",
         "--seed", "1"],
        ["moments", "--stat", "desc:3", "--n", "40"],
    ]
    for argv in tables + scalars:
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        rec = record_of(err if argv in tables else out)
        again = run_cli(_rerun_argv(rec), capsys)
        assert again[0] == 0, again[2]
        if argv in tables:
            assert again[1] == out, argv
        else:
            assert record_of(again[1])["results"] == rec["results"], argv


def test_moments_refuses_n_past_the_table_cap(capsys):
    import tracemalloc

    tracemalloc.start()
    code, out, err = run_cli(["moments", "--stat", "inv", "--n", "1000001"], capsys)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "10^6" in err
    assert peak < 8 * 2 ** 20


def test_clt_emit_sample(tmp_path, capsys):
    path = tmp_path / "sample.txt"
    code, out, _ = run_cli(
        ["clt", "--stat", "inv", "--model", "inverse-unfair", "--n", "50",
         "--reps", "200", "--seed", "5", "--emit-sample", str(path)],
        capsys,
    )
    assert code == 0
    vals = [float(line) for line in path.read_text().splitlines()]
    assert len(vals) == 200
    import numpy as np

    assert abs(float(np.mean(vals)) - record_of(out)["results"]["mean"]) < 1e-12


def test_ratio_record(capsys):
    code, out, _ = run_cli(
        ["ratio", "--stat", "desc:1", "--n", "200", "--reps", "1500",
         "--seed", "2"],
        capsys,
    )
    rec = record_of(out)
    res = rec["results"]
    assert res["closed_form_ratio"] == pytest.approx(0.989, abs=0.005)
    assert abs(res["ratio"] - res["closed_form_ratio"]) < 5 * res["se"]


def test_ratio_incsub_counts_past_int64(capsys):
    code, out, _ = run_cli(
        ["ratio", "--stat", "incsub:20", "--n", "1000", "--reps", "4", "--seed", "1"], capsys
    )
    res = record_of(out)["results"]
    assert code == 0 and res["ratio"] == pytest.approx(709272.7, rel=1e-6)
    assert res["uniform_moment"] > 2.0 ** 63


@pytest.mark.parametrize("k", ["160", "2000"])
def test_ratio_moment_overflow_is_a_one_line_error(capsys, k):
    # 10^160 is a float64, its square and mean_b^4 are not; 10^2000 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["ratio", "--stat", "inv", "--n", "5", "--reps", "5",
                                  "--k", k, "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err == f"error: moments of order k = {k} overflow float64; ratio undefined\n"


def test_sizebias_identity_record(capsys):
    code, out, _ = run_cli(
        ["sizebias", "--n", "10", "--check", "identity", "--reps", "4000",
         "--seed", "3"],
        capsys,
    )
    rec = record_of(out)
    assert rec["results"]["gap_in_se"] < 5.0


def test_records_are_strict_json(capsys):
    # NaN and Infinity are not JSON: a record writes them as null, and the
    # identity check's 0/0 gap (both sides exactly 0) reads 0
    code, out, _ = run_cli(
        ["sizebias", "--n", "10", "--check", "indicator:nan", "--reps", "50", "--seed", "1"],
        capsys,
    )
    rec = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
    assert code == 0 and rec["results"]["gap_in_se"] == 0.0
    cli._emit_record({"a": math.nan, "b": [math.inf, 1.5], "c": {"d": -math.inf}}, False)
    assert json.loads(capsys.readouterr().out) == {"a": None, "b": [None, 1.5], "c": {"d": None}}


def test_one_replica_reports_no_spread(capsys):
    # one value has no sample variance: clt records it as null, and ratio,
    # whose standard error needs it, is refused with one line
    code, out, _ = run_cli(["clt", "--stat", "inv", "--n", "20", "--reps", "1", "--seed", "1"],
                           capsys)
    rec = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
    assert code == 0 and rec["results"]["var"] is None
    code, out, err = run_cli(["ratio", "--stat", "locmax", "--n", "20", "--reps", "1",
                              "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "error: ratio needs reps >= 2: one value has no sample variance\n"


def test_clt_at_n_1_is_one_error_line(capsys):
    # every statistic is constant on S_1: no scale to standardize by
    code, out, err = run_cli(["clt", "--stat", "inv", "--n", "1", "--reps", "10",
                              "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: degenerate scale") and err.count("\n") == 1


def test_sizebias_bound_record(capsys):
    code, out, _ = run_cli(
        ["sizebias", "--n", "30", "--check", "bound", "--outer", "400",
         "--inner", "2", "--seed", "4"],
        capsys,
    )
    rec = record_of(out)
    assert rec["results"]["bound"] > 0
    bound = rec["results"]
    code, out, _ = run_cli(
        ["sizebias", "--n", "10", "--check", "var", "--outer", "300",
         "--inner", "3", "--seed", "4"],
        capsys,
    )
    rec = record_of(out)
    assert rec["results"]["var_cond"] >= 0
    # both records carry the unclamped estimate and whether it was clamped
    for res in (bound, rec["results"]):
        assert res["var_cond"] == max(res["var_cond_raw"], 0.0)
        assert res["clamped"] == (res["var_cond_raw"] < 0.0)


def test_sizebias_var_needs_no_spread_of_w(capsys):
    # every outer inversion count is equal here: the bound refuses to divide
    # by that zero sigma^2, the conditional variance does not need it
    argv = ["sizebias", "--n", "2", "--outer", "2", "--inner", "2", "--seed", "2"]
    code, out, err = run_cli(argv + ["--check", "var"], capsys)
    res = record_of(out)["results"]
    assert code == 0 and err == ""
    assert res == {"var_cond": 0.0, "var_cond_over_n": 0.0, "var_cond_raw": 0.0,
                   "clamped": False}
    code, out, err = run_cli(argv + ["--check", "bound"], capsys)
    assert code == 1 and err.startswith("error: degenerate variance estimate")


def test_sizebias_unknown_check(capsys):
    code, out, err = run_cli(["sizebias", "--n", "5", "--check", "nonsense"], capsys)
    assert code == 1 and out == ""
    assert err == "error: unknown check 'nonsense'\n"


def test_sizebias_has_no_threads_option(capsys):
    code, out, err = run_cli(["sizebias", "--n", "5", "--threads", "2"], capsys)
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --threads 2\n")


@pytest.mark.parametrize("argv", [["--help"], ["sample", "--help"]])
def test_help_still_exits_0(capsys, argv):
    # parser refusals are one error line with exit 1 (the edge grid); help
    # is no refusal
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0 and "usage: permlab" in capsys.readouterr().out


def test_entry_point_subprocess():
    # the child imports the permlab this test imported, installed or not
    src = str(Path(permlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "permlab.cli", "tv", "--n", "4"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["command"] == "tv"


@pytest.mark.skipif(
    shutil.which("permlab") is None,
    reason="no `permlab` executable on PATH; install it with `pip install -e .`",
)
def test_console_script_installed():
    out = subprocess.run(
        ["permlab", "moments", "--stat", "inv", "--n", "10"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["command"] == "moments"


def test_enum_cap_is_fixed_at_8(capsys):
    code, out, err = run_cli(["pmf", "--model", "uniform", "--n", "9"], capsys)
    assert code == 1 and out == ""
    assert err == "error: n=9 exceeds the enumeration cap 8\n"
    code, out, _ = run_cli(["tv", "--n", "9"], capsys)
    rec = record_of(out)
    assert rec["results"]["tv_exact"] is None  # 9 > cap, exact TV skipped
    assert rec["results"]["lower_bound"] is not None


def test_moments_inv_large_n_matches_digamma_form(capsys):
    from scipy.special import digamma

    n = 1_000_000
    code, out, _ = run_cli(["moments", "--stat", "inv", "--n", str(n)], capsys)
    assert code == 0
    j = np.arange(1, n + 1, dtype=float)
    want = math.fsum((j - 1) - j * (digamma(2 * j) - digamma(j + 1)))
    assert record_of(out)["results"]["mean"] == pytest.approx(want, rel=1e-12)


def test_sample_budget_rejected_before_allocation(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled past the budget check")

    monkeypatch.setattr(cli, "sample_permutation_matrix", no_sampling)
    code, out, err = run_cli(["sample", "--n", "100000", "--reps", "100000"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("check, rows", [
    ("identity", ["--reps", "300000"]),  # n * reps = 6e8
    ("var", ["--outer", "100000"]),  # n * outer = 2e8, times 1 + inner = 6e8
    ("bound", ["--outer", "100000"]),
])
def test_sizebias_budget_rejected_before_allocation(capsys, monkeypatch, check, rows):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled past the budget check")

    for name in ("verify_size_bias_identity", "_differences", "stein_bound"):
        monkeypatch.setattr(cli.sizebias, name, no_sampling)
    code, _, err = run_cli(["sizebias", "--n", "2000", "--check", check, *rows], capsys)
    assert code == 1
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("argv", [
    ["sizebias", "--check", "identity", "--n", "10", "--reps", "60"],  # 2 * 600 rows drawn
    ["ratio", "--stat", "inv", "--n", "10", "--reps", "60"],
])
def test_budget_counts_every_row_drawn(capsys, monkeypatch, argv):
    # n * reps = 600 fits a budget of 1000, the 1200 scores drawn do not,
    # and the refusal names the rows it counted
    monkeypatch.setattr(cli.montecarlo, "DEFAULT_MAX_BUDGET", 1000)
    code, out, err = run_cli([*argv, "--seed", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: 120 rows of n = 10: 1200 entries exceed budget 1000\n"


@pytest.mark.parametrize("n", ["0", "10", str(10 ** 12)])
def test_unknown_sizebias_check_is_refused_before_the_budget(capsys, n):
    argv = ["sizebias", "--check", "nonsense", "--n", n, "--reps", str(10 ** 12), "--seed", "1"]
    assert run_cli(argv, capsys) == (1, "", "error: unknown check 'nonsense'\n")


def _identity_results(n, f, reps, seed):
    report = cli.sizebias.verify_size_bias_identity(n, f, reps, seed)
    return {"f": f, **asdict(report), "gap_in_se": report.gap_in_se}


@pytest.mark.parametrize("argv, report", [
    (["ratio", "--stat", "inv", "--n", "20", "--reps", "50", "--seed", "3"],
     lambda: asdict(cli.montecarlo.moment_ratio_mc(cli.parse_statistic("inv"), 20, 50, 3))),
    (["sizebias", "--check", "bound", "--n", "12", "--outer", "200", "--inner", "2",
      "--seed", "4"],
     lambda: asdict(cli.sizebias.stein_bound(12, 200, 2, 4))),
    (["sizebias", "--check", "square", "--n", "12", "--reps", "200", "--seed", "4"],
     lambda: _identity_results(12, "square", 200, 4)),
], ids=["ratio", "bound", "square"])
def test_record_results_are_the_library_report(capsys, argv, report):
    # a report holds results only: the record's inputs are its params
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert record_of(out)["results"] == report()


def test_memory_error_is_a_one_line_error(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_tv", out_of_memory)
    code, out, err = run_cli(["tv", "--n", "3"], capsys)
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


# a small run of each subcommand, to which one integer option is appended
_BASE_ARGV = {
    "sample": ["sample", "--n", "5", "--reps", "3", "--seed", "1"],
    "pmf": ["pmf", "--n", "3"],
    "tv": ["tv", "--n", "3"],
    "stats": ["stats", "--stat", "inv", "--perm", "2,1"],
    "moments": ["moments", "--stat", "inv", "--n", "5"],
    "clt": ["clt", "--stat", "inv", "--n", "20", "--reps", "10", "--seed", "1"],
    "ratio": ["ratio", "--stat", "inv", "--n", "5", "--reps", "5", "--seed", "1"],
    "sizebias": ["sizebias", "--n", "10", "--reps", "20", "--outer", "20", "--inner", "1",
                 "--seed", "1"],
}


def _option_argvs():
    """Read from the parser, on each subcommand's small run: every integer
    option over -1, 0 and values that are not integers, every ``choices``
    value, and ``--stat`` over every tag, with m = 1, 2 and 10^30 where the
    tag takes one."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_BASE_ARGV)
    selectors = sorted(stats._TAGS_PLAIN) + [f"{tag}:{m}" for tag in sorted(stats._TAGS_WITH_M)
                                              for m in (1, 2, 10 ** 30)]
    for command, sp in sub.choices.items():
        for action in sp._actions:
            if action.type is int:
                values = ("-1", "0", "1e3", "nan", "")
            elif action.choices is not None:
                values = action.choices
            elif action.dest == "stat":
                values = selectors
            else:
                continue
            for value in values:
                yield [*_BASE_ARGV[command], action.option_strings[0], value]


def _edge_grid(tmp_path):
    """argv of every subcommand over edge values: every integer option at
    -1, 0 and non-integers, every choice, every statistic tag, n of 0, 1, 2
    and 10^12, reps of 0, 1 and 10^12, windows past n, a NaN threshold and
    transition, bad thread counts, the JSON cap and every model, each
    refused before a large allocation or small."""
    yield from _option_argvs()
    yield ["sample", "--n", "1", "--reps", str(cli._JSON_ENTRIES + 1), "--format", "json"]
    # parser refusals: no subcommand, a required option missing, an unknown one
    yield from ([], ["clt", "--n", "5", "--reps", "5"], ["tv", "--n", "3", "--nope"])
    models = _model_argvs(tmp_path) + [["--model", "markov"]]
    wide = f"desc:{10 ** 30}"
    seed = ["--seed", "1"]
    nan_chain = tmp_path / "nan_chain.json"
    nan_chain.write_text('{"chain": {"states": [1, 2], "transitions": [[NaN, 1.0], [0.5, 0.5]]}}')
    yield ["sample", "--model", "markov", "--chain", str(nan_chain), "--n", "4", *seed]
    for n in ("0", "1", "2", str(10 ** 12)):
        yield ["tv", "--n", n]
        for model in ("uniform", "unfair", "inverse-unfair"):
            yield ["pmf", "--model", model, "--n", n]
        for stat in ("inv", "desc:1", "desc:3", wide, "las"):
            yield ["moments", "--stat", stat, "--n", n]
        for reps in ("0", "1", str(10 ** 12)):
            for model in models:
                yield ["sample", *model, "--n", n, "--reps", reps, *seed]
                for stat in ("inv", "desc:1", wide):
                    yield ["clt", "--stat", stat, *model, "--n", n, "--reps", reps, *seed]
            for stat in ("inv", "ainv", "desc:1", wide, "locmax", "incsub:2"):
                yield ["ratio", "--stat", stat, "--n", n, "--reps", reps, *seed]
            for check in ("identity", "square", "indicator:nan", "indicator:x", "nonsense"):
                yield ["sizebias", "--check", check, "--n", n, "--reps", reps, *seed]
            for check in ("var", "bound"):
                yield ["sizebias", "--check", check, "--n", n, "--outer", reps, *seed]
                yield ["sizebias", "--check", check, "--n", n, "--outer", "50", "--inner", reps,
                       *seed]
    for threads in ("0", "-1", str(10 ** 9)):
        yield ["sample", "--n", "5", "--reps", "3", *seed, "--threads", threads]
        for cmd in ("clt", "ratio"):
            yield [cmd, "--stat", "inv", "--n", "20", "--reps", "10", *seed, "--threads", threads]
    # the CSV byte kernel: every pmf table, and sample at a digit-width edge
    for n in range(3, 9):
        for model in ("uniform", "unfair", "inverse-unfair"):
            yield ["pmf", "--model", model, "--n", str(n)]
    for n in ("9", "10", "11"):
        for model in models:
            yield ["sample", *model, "--n", n, "--reps", "50", *seed]
    yield ["stats", "--stat", wide, "--perm", "3,1,2"]
    yield ["stats", "--stat", "incsub:50", "--perm", "10,9,8,7,6,5,4,3,2,1"]
    for cmd in ("clt", "ratio"):
        yield [cmd, "--stat", "incsub:50", "--n", "10", "--reps", "5", *seed]
    for k in ("0", "160", "2000", str(10 ** 400)):  # k-th powers past float64 are refused
        yield ["ratio", "--stat", "inv", "--n", "5", "--reps", "5", "--k", k, *seed]
    yield ["tv", "--n", str(2 ** 1024)]  # past the float range, the bound is still a float
    # n past the moment table cap, inside the sampling budget
    yield ["moments", "--stat", "inv", "--n", str(10 ** 8)]
    yield ["moments", "--stat", "inv", "--n", str(10 ** 400)]  # past float64, refused as one line
    # values of hundreds of digits past a cap: the refusal names their digit count
    huge = str(10 ** 400)
    yield ["pmf", "--n", huge]
    yield ["sample", "--n", huge, *seed]
    yield ["sample", "--n", "3", "--reps", huge, *seed]
    for cmd in ("clt", "ratio"):
        yield [cmd, "--stat", "inv", "--n", huge, "--reps", "2", *seed]
    yield ["sizebias", "--n", huge, *seed]
    yield ["sizebias", "--check", "identity", "--n", "5", "--reps", huge, *seed]
    yield ["stats", "--stat", f"rising:{huge}", "--perm", "3,1,2"]
    yield ["clt", "--stat", "inv", "--n", str(10 ** 8), "--reps", "2", *seed]
    yield ["sizebias", "--check", "identity", "--n", str(10 ** 8), "--reps", "2", *seed]
    yield ["sizebias", "--check", "bound", "--n", str(10 ** 8), "--outer", "2", "--inner", "1",
           *seed]


def test_every_subcommand_over_edge_values(capsys, tmp_path):
    # exit 0 with one strict-JSON record (on stderr after a table), or exit 1
    # with one error line of at most 200 characters and no output, in bounded
    # time and traced memory
    import time
    import tracemalloc

    def no_constant(name):
        raise ValueError(f"{name} is not strict JSON")

    bad = []
    for argv in _edge_grid(tmp_path):
        tracemalloc.start()
        t0 = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if code == 0:
            text = err or out
            ok = len(text.splitlines()) == 1 and bool(
                json.loads(text, parse_constant=no_constant))
        else:
            ok = (code == 1 and out == "" and err.startswith("error: ")
                  and err.count("\n") == 1 and len(err.rstrip("\n")) <= 200)
        if not ok or seconds > 2.0 or peak > 64 * 2 ** 20:
            bad.append((argv, code, err, round(seconds, 3), peak))
    assert bad == []


def test_refusals_name_huge_numbers_by_digit_count(capsys):
    # up to 20 digits (2^64 has 20) a number is written out; past that, its
    # digit count stands in for it, so the line stays short
    huge, seed = str(10 ** 400), ["--seed", "1"]
    assert run_cli(["moments", "--stat", "inv", "--n", huge], capsys) == (
        1, "", "error: n = <401 digits> exceeds the moment table cap 10^6\n")
    assert run_cli(["clt", "--stat", "inv", "--n", huge, "--reps", "2", *seed], capsys) == (
        1, "", "error: 2 rows of n = <401 digits>: <401 digits> entries exceed budget "
               "500000000\n")
    assert run_cli(["sample", "--n", "3", "--reps", str(2 ** 64), *seed], capsys) == (
        1, "", f"error: {2 ** 64} rows of n = 3: {3 * 2 ** 64} entries exceed budget "
               "500000000\n")


@pytest.mark.parametrize("argv, table", [
    pytest.param(["sample", "--n", "3"], True, id="sample-csv"),
    pytest.param(["sample", "--n", "3", "--format", "json"], False, id="sample-json"),
    pytest.param(["pmf", "--n", "3"], True, id="pmf"),
    pytest.param(["tv", "--n", "3"], False, id="tv"),
    pytest.param(["stats", "--stat", " desc:2", "--perm", "2,1"], True, id="stats"),
    pytest.param(["moments", "--stat", " desc:2", "--n", "3"], False, id="moments"),
    pytest.param(["clt", "--stat", " desc:2", "--n", "3", "--reps", "2"], False, id="clt"),
    pytest.param(["ratio", "--stat", " desc:2", "--n", "3", "--reps", "2"], False, id="ratio"),
    pytest.param(["sizebias", "--n", "3"], False, id="sizebias"),
])
def test_main_is_the_one_run_envelope(capsys, monkeypatch, argv, table):
    # a command only computes: main resolves the seed and the statistic and
    # writes the one record, on stderr after a table and on stdout otherwise
    command, seen = argv[0], []

    def stub(args):
        seen.append(args)
        return {"marker": command}

    monkeypatch.setattr(cli, f"cmd_{command}", stub)
    code, out, err = run_cli(argv, capsys)
    text, other = (err, out) if table else (out, err)
    assert code == 0 and other == "" and len(text.splitlines()) == 1
    rec = record_of(text)
    assert rec["command"] == command and rec["results"] == {"marker": command}
    if command in ("sample", "clt", "ratio", "sizebias"):
        assert type(rec["params"]["seed"]) is int and seen[0].seed == rec["params"]["seed"]
    else:
        assert "seed" not in rec["params"]
    if "--stat" in argv:
        assert rec["params"]["stat"] == "desc:2"
        assert seen[0].stat == permlab.parse_statistic("desc:2")

    def refuse(args):
        raise ValueError("refused")

    monkeypatch.setattr(cli, f"cmd_{command}", refuse)
    assert run_cli(argv, capsys) == (1, "", "error: refused\n")
