"""Command-line interface: subcommands, formats, files, exit codes."""
import hashlib
import json
import sys

import pytest

from f2cayley import CayleyGraph, load_records
from f2cayley.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_sample_writes_loadable_graph(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, out = run(capsys, "sample", "--n", "5", "--seed", "11", "--out", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 5 and d["seed"] == 11
    G = CayleyGraph.from_text(path.read_text())
    assert len(G.generators) == d["a_size"]


def test_omega_from_seed_and_from_file_agree(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert main(["sample", "--n", "6", "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    code1, out1 = run(capsys, "omega", "--n", "6", "--seed", "3")
    code2, out2 = run(capsys, "omega", "--in", str(path))
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)
    assert json.loads(out1)["optimal"] is True


def test_chi_reports_bracket(capsys):
    code, out = run(capsys, "chi", "--n", "4", "--seed", "9")
    assert code == 0
    d = json.loads(out)
    assert d["lower"] <= d["upper"]
    if d["exact"] is not None:
        assert d["lower"] == d["exact"] == d["upper"]


def test_moments_json_and_csv_file(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code, out = run(capsys, "moments", "--n", "6", "--m", "2", "--csv", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["E_M"] == "651/8" and d["holds_E"] is True
    lines = path.read_text().splitlines()
    assert lines[0].startswith("n,m,E_M") and lines[1].startswith("6,2,651/8")


def test_moments_csv_format_on_stdout(capsys):
    code, out = run(capsys, "--format", "csv", "moments", "--n", "2", "--m", "1")
    assert code == 0
    header, row = out.splitlines()
    assert header.split(",")[:4] == ["n", "m", "E_M", "Var_M"]
    assert row.split(",")[:4] == ["2", "1", "3/2", "3/4"]


# sha256 of the exact E_M and Var_M strings at n = 64, m = 14 (5,145 and
# 15,009 characters), as the Fraction sums of the moments print them.
M14_DIGESTS = {
    "E_M": "e5883c9a548fbce86edf326d5c2d79f00cc71141cab8fa11ab4be92a7bcabee8",
    "Var_M": "36545fdf68320382ed6859f897298437ab69209d0ef12c037d25db9544d97952",
}


def test_moments_print_past_the_int_digit_limit(tmp_path, capsys):
    """Var M at m = 14 has a 9,864-digit denominator; the moments command
    raises Python's int-to-str limit as far as its output needs and puts it
    back afterwards."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    path = tmp_path / "m.csv"
    code, out = run(capsys, "moments", "--n", "64", "--m", "14", "--csv", str(path))
    assert code == 0
    d = json.loads(out)
    assert {k: hashlib.sha256(d[k].encode()).hexdigest() for k in M14_DIGESTS} == M14_DIGESTS
    row = path.read_text().splitlines()[1].split(",")
    assert row[:4] == ["64", "14", d["E_M"], d["Var_M"]]
    code, out = run(capsys, "--format", "csv", "moments", "--n", "64", "--m", "14")
    assert code == 0
    assert out.splitlines()[1].split(",")[:4] == row[:4]
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_skl_counts_and_csv(tmp_path, capsys):
    path = tmp_path / "c.csv"
    code, out = run(capsys, "skl", "--n", "2", "--k", "2", "--csv", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["counts"] == {"1": 6} and d["total"] == 6
    assert path.read_text().splitlines()[1] == "2,2,1,6,3"


def test_freiman_dim_defaults_ambient(capsys):
    code, out = run(capsys, "freiman-dim", "--set", "0", "1", "2", "3")
    assert code == 0
    d = json.loads(out)
    assert d["r"] == 2 and d["k"] == 4
    assert sorted(d) == ["k", "n", "r", "witness"]
    code2, out2 = run(capsys, "freiman-dim", "--set", "a", "b", "--n", "4")
    assert code2 == 0
    assert json.loads(out2)["r"] == 1
    code3, out3 = run(capsys, "freiman-dim", "--set", "1", "2", "4", "8", "10", "20", "40")
    assert code3 == 0  # seven points: no size cap
    assert json.loads(out3) == {"n": 7, "k": 7, "r": 6, "witness": ["0", "1", "2", "4", "8", "10", "20"]}


def test_classify_and_density(capsys):
    code, out = run(capsys, "classify", "--n", "8", "--eps", "0.25")
    assert code == 0
    d = json.loads(out)
    assert d["predicted_omega"] == 16 and d["in_t"] is True
    code2, out2 = run(capsys, "density", "--nmax", "1000", "--eps", "0.5")
    assert code2 == 0
    d2 = json.loads(out2)
    assert d2["count"] + 23 == d2["total"]  # frozen: 976 of 999 classified in
    code3, out3 = run(capsys, "density", "--nmax", str(10**18), "--eps", "0.5")
    assert code3 == 0
    d3 = json.loads(out3)
    assert (d3["count"], d3["total"]) == (982_231_999_139_726_956, 10**18 - 1)


def test_bounds_negative_exponent(capsys):
    code, out = run(capsys, "bounds", "--n", "1024", "--k", "10240", "--l", "102400")
    assert code == 0
    assert json.loads(out)["log2_bound"] < 0


def test_experiment_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    cfg.write_text(json.dumps(dict(ns=[4], trials=3, base_seed=5,
                                   out_dir=str(out_dir))))
    code, out = run(capsys, "--threads", "2", "experiment", "--config", str(cfg))
    assert code == 0
    d = json.loads(out)
    assert d["trials"] == 3
    assert len(load_records(d["records_path"])) == 3


def test_experiment_output_dir_errors_exit_2(tmp_path, capsys):
    # an empty out_dir, and one under a regular file, which cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out_dir in ("", str(blocker / "out")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(ns=[4], trials=2, base_seed=5, out_dir=out_dir)))
        assert main(["experiment", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_precondition_exit_code(capsys):
    assert main(["classify", "--n", "1"]) == 2
    assert main(["omega", "--n", "6"]) == 2  # no seed and no file
    assert main(["freiman-dim", "--set", "zz"]) == 2
    assert main(["sample", "--n", "40", "--seed", "1"]) == 2
    assert main(["experiment", "--config", "/nonexistent.json"]) == 2
    capsys.readouterr()


def test_negative_n_exit_code(capsys):
    assert main(["skl", "--n", "-1", "--k", "1"]) == 2
    assert main(["freiman-dim", "--set", "1", "2", "--n", "-3"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 2


def test_negative_budget_exit_code(capsys):
    assert main(["omega", "--n", "6", "--seed", "3", "--budget", "-5"]) == 2
    assert main(["chi", "--n", "5", "--seed", "3", "--budget", "-1"]) == 2
    assert "budget must be an integer >= 0" in capsys.readouterr().err
    code, out = run(capsys, "omega", "--n", "6", "--seed", "3", "--budget", "0")
    assert code == 0 and json.loads(out)["nodes"] == 0


def test_budget_exit_code(capsys):
    assert main(["skl", "--n", "13", "--k", "10"]) == 3
    assert main(["moments", "--n", "64", "--m", "21"]) == 3
    # refused before 2^n, whose 6,021 digits no int-to-str conversion takes,
    # is built or printed
    assert main(["skl", "--n", "20000", "--k", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("budget refused:") == 3


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
