import csv
import io
import json

import pytest

from heckesphere.cli import main
from heckesphere.hecke import HeckeAlgebra
from heckesphere.spherical import SphericalModule


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"generators": ["s", "t"], "m": [[1, 3], [3, 1]]}))
    return str(path)


class TestCompute:
    def test_rank_example(self, capsys, a2_file):
        code, out, _ = run(capsys, "rank", "--system", a2_file, "--J", "s",
                           "-x", "t", "-y", "t")
        assert code == 0 and out.strip() == "1 + v^2"

    def test_rank_empty(self, capsys, a2_file):
        code, out, _ = run(capsys, "rank", "--system", a2_file, "--J", "s",
                           "-x", "", "-y", "")
        assert code == 0 and out.strip() == "1"

    def test_kl_closed_form(self, capsys, a2_file):
        code, out, _ = run(capsys, "kl", "--system", a2_file, "-x", "sts")
        assert code == 0
        assert out.strip() == (
            "(v^3) d_e + (v^2) d_s + (v^2) d_t + (v) d_st + (v) d_ts + (1) d_sts"
        )

    def test_act_json(self, capsys, a2_file):
        code, out, _ = run(capsys, "act", "--system", a2_file, "--J", "s",
                           "-x", "t", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["basis"] == "spherical-standard"
        assert data["terms"] == [
            {"elt": "", "coeff": [[1, 1]]},
            {"elt": "t", "coeff": [[0, 1]]},
        ]

    @pytest.mark.parametrize("argv", [
        ("kl", "-x", "sts"),
        ("act", "--J", "s", "-x", "tst"),
    ])
    def test_element_csv(self, capsys, a2, argv):
        code, out, _ = run(capsys, *argv, "--system", "a2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        alg = HeckeAlgebra(a2)
        if argv[0] == "kl":
            elt = alg.kl_basis((0, 1, 0))
        else:
            elt = SphericalModule(alg, {0}).expand_expression((1, 0, 1))
        assert rows == [["elt", "coeff"]] + [
            [a2.format_word(x) or "e", str(c)] for x, c in elt.items()]

    def test_stroll_csv(self, capsys, a2_file):
        code, out, _ = run(capsys, "stroll", "--system", a2_file, "--J", "s",
                           "-x", "tst", "--bits", "111", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("bits,")
        assert "U1 U1 X1" in lines[1]

    def test_localize(self, capsys, a2_file):
        code, out, _ = run(capsys, "localize", "--system", a2_file, "-x", "ss")
        assert code == 0
        assert out.strip().splitlines() == ["e: 2", "s: 2"]

    def test_builtin_name(self, capsys):
        code, out, _ = run(capsys, "rank", "--system", "a2", "--J", "s",
                           "-x", "t", "-y", "t")
        assert code == 0 and out.strip() == "1 + v^2"


class TestLightleaf:
    def test_sll_example(self, capsys, a2_file):
        code, out, _ = run(capsys, "sll", "--system", a2_file, "--J", "s",
                           "-x", "tst", "--bits", "111")
        assert code == 0 and "wall-plug:s" in out and "degree=-1" in out

    def test_sll_empty(self, capsys, a2_file):
        code, out, _ = run(capsys, "sll", "--system", a2_file, "--J", "s",
                           "-x", "", "--bits", "")
        assert code == 0 and "degree=0" in out

    def test_sdl(self, capsys, a2_file):
        code, out, _ = run(capsys, "sdl", "--system", a2_file, "--J", "s",
                           "-x", "tst", "--bits", "111", "-y", "ts", "--bits2", "11")
        assert code == 0 and "degree=-1" in out

    def test_sdl_endpoint_mismatch_exits_4(self, capsys, a2_file):
        code, _, err = run(capsys, "sdl", "--system", a2_file, "--J", "s",
                           "-x", "t", "--bits", "1", "-y", "t", "--bits2", "0")
        assert code == 4 and "endpoint" in err

    def test_nsll(self, capsys, a2_file):
        code, out, _ = run(capsys, "nsll", "--system", a2_file, "--J", "s",
                           "-x", "tst", "--bits", "111")
        assert code == 0 and "wall-transfer:s" in out


class TestErrors:
    def test_bad_bits(self, capsys, a2_file):
        code, _, err = run(capsys, "sll", "--system", a2_file, "--J", "s",
                           "-x", "tst", "--bits", "11")
        assert code == 2 and err

    def test_bad_bits2_names_its_flag(self, capsys):
        code, _, err = run(capsys, "sdl", "--system", "a2", "--J", "s",
                           "-x", "t", "--bits", "1", "-y", "t", "--bits2", "11")
        assert code == 2 and "--bits2" in err

    def test_unknown_generator(self, capsys, a2_file):
        code, _, err = run(capsys, "rank", "--system", a2_file, "--J", "q",
                           "-x", "t", "-y", "t")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "kl", "--system", "/nonexistent.json", "-x", "s")
        assert code == 2

    def test_budget_exceeded_exits_3(self, capsys):
        code, _, err = run(capsys, "kl", "--system", "infinite_dihedral",
                           "--budget", "2", "-x", "stst")
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("argv,fmt", [
        (("rank", "--J", "s", "-x", "t", "-y", "t"), "csv"),
        (("sll", "--J", "s", "-x", "tst", "--bits", "111"), "csv"),
        (("sdl", "--J", "s", "-x", "tst", "--bits", "111", "-y", "ts", "--bits2", "11"),
         "csv"),
        (("nsll", "--J", "s", "-x", "tst", "--bits", "111"), "csv"),
        (("verify", "--suite", "hecke"), "json"),
        (("verify", "--suite", "hecke"), "csv"),
    ], ids=["rank-csv", "sll-csv", "sdl-csv", "nsll-csv", "verify-json", "verify-csv"])
    def test_unsupported_format_exits_2(self, capsys, argv, fmt):
        # The same command line in text format succeeds.
        assert main([*argv, "--system", "a2", "--budget", "8"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--system", "a2", "--budget", "8", "--format", fmt])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert not out.out
        assert out.err.startswith("usage:") and "invalid choice: " + repr(fmt) in out.err

    @pytest.mark.parametrize("argv,complaint", [
        (("sll", "-x", "ts", "--bits", "1", "--all"),
         "argument --all: not allowed with argument --bits"),
        (("sll", "-x", "ts"), "one of the arguments --bits --all is required"),
        (("nsll", "-x", "ts"), "the following arguments are required: --bits"),
        (("sdl", "-x", "ts", "--bits", "11", "-y", "ts"),
         "the following arguments are required: --bits2"),
    ], ids=["sll-bits-and-all", "sll-no-bits", "nsll-no-bits", "sdl-no-bits2"])
    def test_missing_or_clashing_bits_exit_2(self, capsys, argv, complaint):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--system", "a2", "--J", "s"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert not out.out
        assert out.err.startswith("usage:") and complaint in out.err

    def test_unknown_suite_exits_2(self, capsys, a2_file):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--system", a2_file, "--suite", "nonsense"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert not out.out
        assert out.err.startswith("usage:") and "invalid choice: 'nonsense'" in out.err


class TestVerify:
    def test_hecke_suite_passes(self, capsys, a2_file):
        code, out, _ = run(capsys, "verify", "--system", a2_file,
                           "--budget", "8", "--suite", "hecke")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS hecke/") for line in lines)
        assert len(lines) == 6

    @pytest.mark.parametrize("system,budget", [
        ("a3", 4), ("i2_7", 6), ("b3", 7), ("infinite_dihedral", 6), ("b2", 3),
    ])
    def test_hecke_suite_on_a_cut_ball(self, capsys, system, budget):
        code, out, _ = run(capsys, "verify", "--system", system,
                           "--budget", str(budget), "--suite", "hecke")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS hecke/") for line in lines)

    @pytest.mark.parametrize("system,budget", [("a3", 4), ("b2", 3)])
    def test_spherical_suite_on_a_cut_ball(self, capsys, system, budget):
        code, out, _ = run(capsys, "verify", "--system", system,
                           "--budget", str(budget), "--suite", "spherical")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS spherical/") for line in lines)

    @pytest.mark.parametrize("suite,checks", [("strolls", 6), ("lightleaf", 4)])
    def test_word_suites_on_a_cut_ball(self, capsys, suite, checks):
        code, out, _ = run(capsys, "verify", "--system", "b2",
                           "--budget", "3", "--suite", suite)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == checks
        assert all(line.startswith(f"PASS {suite}/") for line in lines)

    @pytest.mark.parametrize("system,suite", [
        ("a2", "hecke"), ("a2", "spherical"), ("infinite_dihedral", "all"),
    ])
    def test_budget_0_runs_without_a_crash(self, capsys, system, suite):
        # Every pool of sampled elements is empty: no draw, no case, no failure.
        code, out, err = run(capsys, "verify", "--system", system,
                             "--budget", "0", "--suite", suite)
        assert code == 0 and not err
        lines = out.splitlines()
        assert len(lines) == (22 if suite == "all" else 6)
        assert all(line.split()[0] in ("PASS", "EMPTY") for line in lines)

    def test_a_check_with_no_case_is_empty(self, capsys):
        code, out, _ = run(capsys, "verify", "--system", "infinite_dihedral",
                           "--budget", "0", "--suite", "hecke", "--suite", "spherical")
        assert code == 0
        lines = out.splitlines()
        assert "EMPTY hecke/kl-wellformed" in lines
        assert "EMPTY spherical/decomp-wallcross" in lines
        assert "PASS hecke/bwj-pi-identity" in lines  # J = {} is certified

    def test_deterministic_output(self, capsys, a2_file):
        args = ("stroll", "--system", a2_file, "--J", "s", "-x", "tst",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
