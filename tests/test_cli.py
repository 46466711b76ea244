"""Command-line interface: subcommands, formats, files, exit codes."""
import json

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
    code2, out2 = run(capsys, "freiman-dim", "--set", "a", "b", "--n", "4")
    assert code2 == 0
    assert json.loads(out2)["r"] == 1


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


def test_precondition_exit_code(capsys):
    assert main(["classify", "--n", "1"]) == 2
    assert main(["omega", "--n", "6"]) == 2  # no seed and no file
    assert main(["freiman-dim", "--set", "zz"]) == 2
    assert main(["sample", "--n", "40", "--seed", "1"]) == 2
    assert main(["experiment", "--config", "/nonexistent.json"]) == 2
    capsys.readouterr()


def test_budget_exit_code(capsys):
    assert main(["skl", "--n", "13", "--k", "10"]) == 3
    capsys.readouterr()


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
