import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import permlab
from permlab import cli


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


def test_pmf_unfair_differs(capsys):
    _, out_r, _ = run_cli(["pmf", "--model", "inverse-unfair", "--n", "4"], capsys)
    _, out_f, _ = run_cli(["pmf", "--model", "unfair", "--n", "4"], capsys)
    rows_r = {r[0]: r[1] for r in csv.reader(io.StringIO(out_r)) if r[0] != "permutation"}
    rows_f = {r[0]: r[1] for r in csv.reader(io.StringIO(out_f)) if r[0] != "permutation"}
    assert rows_r["(1,2,3,4)"] == rows_f["(1,2,3,4)"] == "0.13333"
    assert rows_r["(2,3,4,1)"] != rows_f["(2,3,4,1)"]


def test_pmf_rejects_markov(capsys):
    with pytest.raises(SystemExit):
        cli.main(["pmf", "--model", "markov", "--n", "3"])


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


def test_moments_unsupported(capsys):
    with pytest.raises(SystemExit):
        cli.main(["moments", "--stat", "las", "--n", "10"])


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


def test_sample_markov_needs_config(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sample", "--model", "markov", "--n", "4", "--reps", "1"])


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
    assert rec["params"]["kind"] == "inv"


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


def test_sizebias_identity_record(capsys):
    code, out, _ = run_cli(
        ["sizebias", "--n", "10", "--check", "identity", "--reps", "4000",
         "--seed", "3"],
        capsys,
    )
    rec = record_of(out)
    assert rec["results"]["gap_in_se"] < 5.0


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


def test_sizebias_unknown_check(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sizebias", "--n", "5", "--check", "nonsense"])


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


def test_enum_limit_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("PERMLAB_ENUM_LIMIT", "4")
    code, out, err = run_cli(["pmf", "--model", "uniform", "--n", "5"], capsys)
    assert code == 1
    assert "error" in err
    code, out, _ = run_cli(["tv", "--n", "5"], capsys)
    rec = record_of(out)
    assert rec["results"]["tv_exact"] is None  # 5 > cap, exact TV skipped


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


def test_memory_error_is_a_one_line_error(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_tv", out_of_memory)
    code, out, err = run_cli(["tv", "--n", "3"], capsys)
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"
