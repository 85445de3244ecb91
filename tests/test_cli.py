import csv
import hashlib
import io
import json

import pytest

from conftest import AFFINE_A2
from heckesphere.cli import build_parser, main
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

    def test_sdl_endpoint_mismatch_names_the_endpoints_as_words(self, capsys):
        code, out, err = run(capsys, "sdl", "--system", "a2", "--J", "s",
                             "-x", "s", "--bits", "1", "-y", "t", "--bits2", "1")
        assert (code, out, err) == (4, "", "endpoint mismatch: endpoints differ: e vs t\n")

    def test_nsll(self, capsys, a2_file):
        code, out, _ = run(capsys, "nsll", "--system", a2_file, "--J", "s",
                           "-x", "tst", "--bits", "111")
        assert code == 0 and "wall-transfer:s" in out

    def test_nsll_within_the_ball(self, capsys):
        # Every intermediate (s, st, sts, sts) has length <= 3, so budget 3
        # prints the recipe that budget 4 does.
        argv = ("nsll", "--system", "infinite_dihedral", "--J", "s", "-x", "stst",
                "--bits", "1110")
        assert run(capsys, *argv, "--budget", "3") == run(capsys, *argv, "--budget", "4") == (
            0, "word=stst bits=1110\n"
               "  step 1: X1 [U1] pre=- op=wall-transfer:s post=- -> s\n"
               "  step 2: U1 [U1] pre=- op=none post=- -> st\n"
               "  step 3: U1 [U1] pre=- op=none post=- -> sts\n"
               "  step 4: U0 [U0] pre=- op=dot-kill post=- -> sts\n"
               "target=sts degree=1\n", "")


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
        assert code == 2 and "unknown generator 'q'" in err

    def test_J_is_read_as_a_word_is(self, capsys):
        # With one-character names, 'st' is {s, t}, as -x st is the word s t.
        argv = ("act", "--system", "b3", "-x", "tsut")
        joined = run(capsys, *argv, "--J", "st")
        assert joined[0] == 0 and joined == run(capsys, *argv, "--J", "s,t")
        assert joined != run(capsys, *argv, "--J", "s")

    @pytest.mark.parametrize("generators", [[1, 2], [None, True], "st"],
                             ids=["integers", "null-and-bool", "string"])
    def test_generator_names_must_be_a_list_of_strings(self, capsys, tmp_path, generators):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generators": generators, "m": [[1, 3], [3, 1]]}))
        code, out, err = run(capsys, "kl", "--system", str(path), "-x", "sts")
        assert code == 2 and not out and "generator names must be a list of strings" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "kl", "--system", "/nonexistent.json", "-x", "s")
        assert code == 2

    @pytest.mark.parametrize("m", [[[1, 3.9], [3.9, 1]], [[True, 3], [3, True]],
                                   [[1, "4"], ["4", 1]]], ids=["float", "bool", "string"])
    def test_non_integer_matrix_entry_exits_2(self, capsys, tmp_path, m):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generators": ["s", "t"], "m": m}))
        code, out, err = run(capsys, "kl", "--system", str(path), "-x", "sts")
        assert code == 2 and not out and "matrix entries must be integers" in err

    def test_budget_exceeded_exits_3(self, capsys):
        code, _, err = run(capsys, "kl", "--system", "infinite_dihedral",
                           "--budget", "2", "-x", "stst")
        assert code == 3 and "budget" in err

    def test_a_large_budget_costs_only_the_layers_a_query_reaches(self, capsys):
        # The group grows as the query reaches each layer, so a budget of
        # 100000 on an infinite group prints what a budget of 12 does.
        small = run(capsys, "kl", "--system", "infinite_dihedral", "--budget", "12", "-x", "stst")
        large = run(capsys, "kl", "--system", "infinite_dihedral", "--budget", "100000",
                    "-x", "stst")
        assert large == small and small[0] == 0 and small[1]

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



class TestOneParser:
    """main builds its parser once; each call still parses into a fresh
    Namespace."""

    def test_a_second_call_sees_none_of_the_first(self, capsys):
        assert build_parser() is build_parser()
        code, out, _ = run(capsys, "rank", "--system", "a2", "--J", "s",
                           "-x", "s", "-y", "s", "--format", "json")
        assert (code, out) == (0, "[[-2, 1], [0, 2], [2, 1]]\n")
        # No --J and no --format: J = {} and text, not the first call's J = {s}.
        code, out, _ = run(capsys, "act", "--system", "a2", "-x", "s")
        assert (code, out) == (0, "(v) m_e + (1) m_s\n")
        code, out, _ = run(capsys, "act", "--system", "a2", "--J", "s", "-x", "s",
                           "--format", "csv")
        assert (code, out.splitlines()) == (0, ["elt,coeff", "e,v^-1 + v"])
        code, out, _ = run(capsys, "rank", "--system", "a2", "-x", "s", "-y", "s")
        assert (code, out) == (0, "1 + v^2\n")

    def test_a_rejection_exits_2_on_every_call(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["kl", "--system", "a2", "-x", "s", "--format", "yaml"])
            assert exc.value.code == 2
            assert "invalid choice: 'yaml'" in capsys.readouterr().err
            code, out, _ = run(capsys, "kl", "--system", "a2", "-x", "s")
            assert (code, out) == (0, "(v) d_e + (1) d_s\n")

# -- every --format of every subcommand, byte for byte ------------------------------

# One fixed command line per subcommand; AFFINE stands for affine A2 loaded
# from a JSON file.
RECORDED_CALLS = {
    "kl": ("--system", "a3", "--budget", "12", "-x", "tsuts"),
    "act": ("--system", "b2", "--budget", "10", "--J", "s", "-x", "tstst"),
    "rank": ("--system", "AFFINE", "--budget", "8", "--J", "s,t", "-x", "ustu", "-y", "uts"),
    "stroll": ("--system", "a2", "--J", "s", "-x", "tsts"),
    "localize": ("--system", "AFFINE", "--budget", "8", "-x", "stus"),
    "sll": ("--system", "b2", "--budget", "10", "--J", "t", "-x", "stst", "--all"),
    "sdl": ("--system", "a3", "--budget", "12", "--J", "s", "-x", "tsut", "--bits", "1101",
            "-y", "tsu", "--bits2", "110"),
    "nsll": ("--system", "AFFINE", "--budget", "8", "--J", "s", "-x", "tsuts",
             "--bits", "11011"),
}

# (exit code, sha256 of stdout) for each (subcommand, --format) it accepts.
RECORDED_OUTPUT = {
    ("kl", "text"): (0, "886d905c734329626715fa586a4fcc69fbd23e18353bb01589e9d3393ff47bb7"),
    ("kl", "json"): (0, "d13f017af0fd67b51461bb5f1849721c28023cc53f0298ce130145300df49bd6"),
    ("kl", "csv"): (0, "fc2c3488019aff21edf58920e26aeb5a918bcbd5d4adf99c8120a89a95adc2dd"),
    ("act", "text"): (0, "9fa7557f3882df607ada855091f4cffcd8accb0daae7d948f76579d9c6640823"),
    ("act", "json"): (0, "b522600569a42cf2ea764fe03a73190f3ad97415d7f9e9907f4dfa09a5eb88df"),
    ("act", "csv"): (0, "4996e1cb44c02c89ebd3a1ebacb789f85a23b0ae3267858f8d3562b106508dc0"),
    ("rank", "text"): (0, "2b9354796a8cdca6ae1ecb3ff773a924f3e4611d6a6130e0ee7e95bbc75548eb"),
    ("rank", "json"): (0, "deae5eb9ad91bbbe8184fba5662a79c807f0a9cb6a05fb005deef1fbf3f8cf22"),
    ("stroll", "text"): (0, "2ef1a44a0ed2818438d190efc291700b3df86a35e2297575714d6d2716e64f55"),
    ("stroll", "json"): (0, "ba85a0b02c3c54625577d58ff7887e64a83f91f79cdb7344e2cff35469b6af91"),
    ("stroll", "csv"): (0, "9cbeff566e17098c1d2bc748a60200cc3b55ffda27e4654f9baabc8b19fb8e71"),
    ("localize", "text"): (0, "3dd271ed62df71af06e85330ed2553b038a22cdb6c4189f7cd5c2972c902f1c0"),
    ("localize", "json"): (0, "5be37e06f38ba254a62be950050aa0fcfba26428ee652222b4b8ae7b7d91983b"),
    ("localize", "csv"): (0, "60ef1760e2d319ede1ebb363acea6cd2826cca78e90172a77c6ebcab8605729c"),
    ("sll", "text"): (0, "4bc13ccfd3f5f11dd519a6100765cc98122a6c0359e871f78667f1ac05024189"),
    ("sll", "json"): (0, "a163e98b85d3b7d8296cdd9f9d4aec7819fcd47d965e6e603a630929d3ed2594"),
    ("sdl", "text"): (0, "2871119336fe182731d9d634fe9b935c744d6df3e4de5ca16c7e6f2b2aa613ae"),
    ("sdl", "json"): (0, "97f831ab61645083880dd9f0252ec1c1b7f2f1e815a05b3395f9e95436652ec5"),
    ("nsll", "text"): (0, "9b4b5e4557317efbd5416c62abb4d5bf20288110b0aaf3c403cda9f349791022"),
    ("nsll", "json"): (0, "02c2526056cb0a16c99872b276c88e50c02fdce477a3dbc9a945de58217b9bce"),
}


@pytest.mark.parametrize("cmd,fmt", list(RECORDED_OUTPUT),
                         ids=[f"{cmd}-{fmt}" for cmd, fmt in RECORDED_OUTPUT])
def test_output_matches_recorded_digest(capsys, tmp_path, cmd, fmt):
    path = tmp_path / "affine_a2.json"
    path.write_text(json.dumps(AFFINE_A2.to_json()))
    argv = [str(path) if a == "AFFINE" else a for a in RECORDED_CALLS[cmd]]
    code = main([cmd, *argv, "--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == RECORDED_OUTPUT[cmd, fmt]
