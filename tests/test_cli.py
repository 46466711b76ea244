"""Command-line interface: subcommands, formats, files, exit codes."""
import hashlib
import json
import random
import sys
from decimal import Decimal

import pytest

from f2cayley import CayleyGraph, load_records
from f2cayley.cli import _decimal, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def sha256(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


# For each command: sha256 of its stdout under --format json and csv, and of
# each file it writes, which must not depend on the format.  Commands run in
# a fresh directory with relative paths, so the paths they print are fixed.
# chi_open stays open at [7, 8] (an empty CSV cell); omega and freiman_dim
# print lists, skl dicts, and skl_multi a dict of two cells and terms c / 2^l.
GOLDEN = {
    "sample": (
        ["sample", "--n", "5", "--seed", "11", "--out", "g.txt"],
        {
            "json": "d296a72cce84272b4721e7d0d3080e2b57b08fb1fe27e71526fcc62684565955",
            "csv": "3f37edc6c2a5750f8e10a6ea1eed888973dc19a6accbb3cad196dcd2bb0a27d9",
            "g.txt": "0370961d275761f294f4a82753948841788bd31866c4fb6a5569fa043b921200",
        },
    ),
    "omega": (
        ["omega", "--n", "4", "--seed", "2"],
        {
            "json": "7bb5f79450680b6661b9b3b76b6619bbe2e3806e4ca745470dfa8a9b10627cf7",
            "csv": "4e3e611722daaa292da252dd097c4aca9b4032e34997bdca2fec5b96afad2307",
        },
    ),
    "chi": (
        ["chi", "--n", "4", "--seed", "9"],
        {
            "json": "43a2b608f91907aca249caf7c9113e8befda1b9642ab6c13cc71166ad5a315ee",
            "csv": "afefc068dd84c15d6eb469b5b24dd1dbf9ab9f7a7efa0d0cefb93d5fc2b925f5",
        },
    ),
    "chi_open": (
        ["chi", "--n", "6", "--seed", "9332450797614185446"],
        {
            "json": "50814822224ef58f629f81f41a50caf6358106a9bd9c727a3dc1be62b07d1e6e",
            "csv": "52a09da97ea64055f340a60534b5e7d9d0956162bcdc8121d92b27bb15c71eee",
        },
    ),
    "moments": (
        ["moments", "--n", "9", "--m", "3", "--csv", "m.csv"],
        {
            "json": "bad8b7aa68e6b98bee6f9acb881b495f59e3ecaf4cea481bf9acdb6336808ed2",
            "csv": "0503401ce8a53325ea2192f737dc2c7efa640f9e40a953ceef4f14a20ad12174",
            "m.csv": "0503401ce8a53325ea2192f737dc2c7efa640f9e40a953ceef4f14a20ad12174",
        },
    ),
    "skl": (
        ["skl", "--n", "3", "--k", "3", "--csv", "c.csv"],
        {
            "json": "81bd891e43067ff4424ad97bcff831085e42a1b080a70d47159a0564d8ddbb75",
            "csv": "ccf7c73bfd0ab93e14150f3ffff80ad15eb8e467ad1b4075f09e5ac720ab0116",
            "c.csv": "9c15a0eefe3d2b3976aa04b32d2d34f492c777ebcc152338dfa1df0aa24a45d6",
        },
    ),
    "skl_multi": (
        ["skl", "--n", "4", "--k", "4", "--csv", "c.csv"],
        {
            "json": "8eddf7d7ae6c494b254cc2f9fe838cff2422d5dd0dbbe906e57e7a2fd5c8018f",
            "csv": "c8b032b3a18cdd700026c42c453c658a0e95f6f0fa6ad1f040bd52490b0137d7",
            "c.csv": "fd72f440fcd0d326f0cbc828f0b1c0c5773555a8d8baf1e88870f0997bc7f2d9",
        },
    ),
    "freiman_dim": (
        ["freiman-dim", "--set", "1", "2", "4", "8", "10", "20", "40"],
        {
            "json": "71b50cbffa5f9c30b4971e0ec391f5e84d7a4aa47f48e97df68ddfef0881a2df",
            "csv": "e0730e95721b645b2efc11a575b764747093e8a285bc064aa5e9ca7232eef95b",
        },
    ),
    "classify": (
        ["classify", "--n", "8", "--eps", "0.25"],
        {
            "json": "4991754a9259f945944db70e678a6c03d68a68cae872d3de0b4d6e5872a2bd20",
            "csv": "a6f551293ba156ade7c632ae485d6768f48f9334abb0bdd4824f416933a4ba6a",
        },
    ),
    "density": (
        ["density", "--nmax", "1000", "--eps", "0.5"],
        {
            "json": "03e2f9f43277fe6a07f1e84fe5cac6ab9f57987cbddec0a7023e060878a6c66c",
            "csv": "c62fe7b8e878a03a146051db4b71c55cbaf4e8e33809a8011ee317a24fff0b0b",
        },
    ),
    "bounds": (
        ["bounds", "--n", "1024", "--k", "10240", "--l", "102400"],
        {
            "json": "4375b613c8b392236c24ed8e634e12bf16313a51c3c7e6f5160abb2ad9e64038",
            "csv": "f79fa7409bbf6d69783aa2dff0a81adc0213a5339fbc0e84772046a3f7a3196b",
        },
    ),
    "experiment": (
        ["experiment", "--config", "cfg.json"],
        {
            "json": "3871fb94ad11eb10abee1ecb358be08d430d55538b20d906d3e9b88fda3be666",
            "csv": "06fa027b75146b5e4d0b34cd74f128c34abd0af2d87f8bd2cd4c09ec911ec454",
        },
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, fmt, tmp_path, monkeypatch, capsys):
    argv, digests = GOLDEN[name]
    files = [f for f in digests if f not in ("json", "csv")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(
        json.dumps(dict(ns=[4], trials=2, base_seed=5, out_dir="out")))
    assert main(["--format", fmt, *argv]) == 0
    got = {fmt: sha256(capsys.readouterr().out)}
    got.update((f, sha256((tmp_path / f).read_bytes())) for f in files)
    assert got == {k: digests[k] for k in (fmt, *files)}


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
    assert path.read_text().splitlines() == [
        "n,m,E_M,Var_M,paper_E_lb,paper_Var_ub,cheb,cheb_ub,holds_E,holds_Var,holds_cheb",
        "6,2,651/8,63147/64,16,8704,97/651,64,True,True,True",
    ]


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


def refuse_to_set_the_digit_limit(monkeypatch):
    def refuse(_):
        raise AssertionError("the CLI changed the int-to-str digit limit")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)


def test_moments_print_past_the_int_digit_limit(tmp_path, capsys, monkeypatch):
    """Var M at m = 14 has a 9,864-digit denominator, past Python's default
    int-to-str limit of 4,300 digits; the moments command prints it in full
    without ever setting that limit."""
    refuse_to_set_the_digit_limit(monkeypatch)
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


def test_skl_prints_a_union_bound_past_the_int_digit_limit(tmp_path, capsys, monkeypatch):
    # 2k > N: all C(16384, 16383) = 2^14 sets have l = 16383, so the union
    # bound is 2^14 / 2^16383, whose denominator has 4,928 digits
    refuse_to_set_the_digit_limit(monkeypatch)
    path = tmp_path / "c.csv"
    code, out = run(capsys, "skl", "--n", "14", "--k", "16383", "--csv", str(path))
    assert code == 0
    term = "1/" + str(Decimal(2**16369))
    assert json.loads(out)["union_bound"] == term
    assert path.read_text().splitlines()[-1] == "14,16383,16383,16384," + term


def test_decimal_conversion_matches_decimal_of_int():
    rng = random.Random(20)
    xs = [0] + [rng.getrandbits(b) | 1 << (b - 1)
                for b in (1, 2, 64, 4095, 4096, 4097, 8193, 65_537, 300_000)]
    xs += [(1 << k) + d for k in (1, 4096, 4097, 100_000, 300_000) for d in (-1, 1)]
    for x in xs:
        for v in (x, -x):
            assert str(_decimal(v)) == str(Decimal(v)), v.bit_length()


def test_skl_counts_and_csv(tmp_path, capsys):
    path = tmp_path / "c.csv"
    code, out = run(capsys, "skl", "--n", "2", "--k", "2", "--csv", str(path))
    assert code == 0
    d = json.loads(out)
    assert d["counts"] == {"1": 6} and d["total"] == 6
    assert path.read_text().splitlines() == ["n,k,l,count,union_bound_term", "2,2,1,6,3"]


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
    assert main(["omega", "--seed", "3"]) == 2  # a seed and no n
    assert main(["freiman-dim", "--set", "zz"]) == 2
    assert main(["freiman-dim", "--set", ""]) == 2
    assert main(["--threads", "0", "classify", "--n", "8"]) == 2
    assert main(["sample", "--n", "40", "--seed", "1"]) == 2
    assert main(["experiment", "--config", "/nonexistent.json"]) == 2
    assert main(["bounds", "--n", "-5", "--k", "2", "--l", "20"]) == 2
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


def test_argparse_rejects_an_empty_set(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["freiman-dim", "--set"])  # nargs="+" needs one element
    assert exc.value.code == 2
