"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kobstruct import (
    FgAbGroup,
    GroupHom,
    classify,
    compose,
    kunneth,
    pi_star,
    pi_star_full,
    section_exists_k,
    unital_free_product_k,
)
import kobstruct
from kobstruct import cli, fgab, kinv
from kobstruct.catalog import MAX_ENTRIES, MAX_GENERATORS, MAX_INDEX_DIGITS, MAX_NESTING, MAX_POWER, ParseError
from kobstruct.cli import (
    EXIT_CLOSED_PIPE,
    EXIT_ERROR,
    EXIT_INTERNAL,
    EXIT_NOT_FG,
    EXIT_OBSTRUCTED,
    EXIT_OK,
    main,
)

from conftest import random_element, random_finite_group


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def cli_counts(*argv):
    """The cost counts (``fgab._counting``) of one command line, which
    must exit 0 or 1 with output and nothing on stderr."""
    with fgab._counting() as counts:
        code, out, err = run_cli(*argv)
    assert code in (EXIT_OK, EXIT_OBSTRUCTED) and out and not err, argv
    return counts


def test_kgroups_text():
    code, out, err = run_cli("kgroups", "C^2 (*) C^2")
    assert code == EXIT_OK and not err
    assert "K0 = Z^4" in out and "K1 = 0" in out


@pytest.mark.parametrize(
    "expr, lines",
    [
        ("M_2 (*C) M_3", ["K0 = Z", "unit class = [6]", "K1 = 0"]),
        # both unit classes are torsion: K1 gains the indeterminate Z
        (
            "O_3 (*C) O_5",
            ["K0 = Z/2", "unit class = [1]", "K1 = Z", "K1 contains an extra Z summand (not canonically placed)"],
        ),
    ],
)
def test_kgroups_unital_free_product_text(expr, lines):
    code, out, err = run_cli("kgroups", expr)
    assert (code, err) == (EXIT_OK, "")
    assert out == "\n".join([f"expr: {expr}"] + lines) + "\n"


def test_kgroups_tensor_json():
    code, out, _ = run_cli("kgroups", "O_3 (x) O_3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["k0"] == {"rank": 0, "torsion": [2]}
    assert payload["result"]["k1"] == {"rank": 0, "torsion": [2]}


def test_kgroups_single_atom():
    code, out, _ = run_cli("kgroups", "M_2")
    assert code == EXIT_OK
    assert "L = (Z, 0, [2])" in out


def test_classify_possible_exit_zero():
    code, out, _ = run_cli("classify", "M_2", "M_3", "--mode", "unital")
    assert code == EXIT_OK
    assert "PossibleCaseIII" in out
    assert "section deg0: matrix [[1]]" in out


def test_classify_obstructed_exit_one():
    code, out, _ = run_cli("classify", "O_4", "O_7")
    assert code == EXIT_OBSTRUCTED
    assert "TorNonzero" in out


def test_classify_torus():
    code, out, _ = run_cli("classify", "C(T)", "C(T)")
    assert code == EXIT_OBSTRUCTED
    assert "K1TensorNonzero" in out


def test_classify_json_schema():
    code, out, _ = run_cli("classify", "M_2", "M_3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"]["outcome"] == "PossibleCaseIII"
    assert payload["verdict"]["case"] == "III"
    assert payload["verdict"]["witness"] is None
    assert payload["maps"]["pi0"]["matrix"] == [[1]]
    # keys are emitted sorted
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_classify_text_builds_no_map_it_does_not_print():
    # The rank clause decides C^24 against C^24, and text output never
    # prints pi0 or pi1, so neither map is built; JSON still carries both,
    # but K1 of C^2 is 0, so pi1 is the matrix with no columns, built
    # without the images of any generator.
    with fgab._counting() as counts:
        code, out, _ = run_cli("classify", "C^24", "C^24")
    assert code == EXIT_OBSTRUCTED and "RankInequality" in out
    assert (counts["map0"], counts["map1"]) == (0, 0)
    with fgab._counting() as counts:
        code, out, _ = run_cli("classify", "C^2", "C^2", "--format", "json")
    assert code == EXIT_OBSTRUCTED and (counts["map0"], counts["map1"]) == (1, 0)
    assert set(json.loads(out)["maps"]) == {"pi0", "pi1"}
    pi1 = kinv.PairAnalysis(kobstruct.evaluate("C^2"), kobstruct.evaluate("C^2")).pi1
    assert (pi1.source, pi1.matrix.cols, pi1.matrix.rows) == (FgAbGroup(), 0, pi1.target.ngens)


# Runs one classify through cli.main in this interpreter and prints the
# exit code, the wall time of the call and the process's peak RSS in MB.
_TIMED_CLASSIFY = """
import io, resource, sys, time
from kobstruct.cli import main
k, fmt = sys.argv[1:]
start = time.perf_counter()
code = main(["classify", f"C^{k}", f"C^{k}", "--format", fmt], out=io.StringIO())
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, seconds, peak / (2**20 if sys.platform == "darwin" else 2**10))
"""


@pytest.mark.parametrize("fmt, budget_s", [("text", 0.5), ("json", 3.0)])
def test_classify_free_pair_costs_its_output(fmt, budget_s):
    # classify C^48 C^48 once built the k^2 x k^2 Kronecker structure of
    # Z^48 (x) Z^48 densely and multiplied through it: 2-3 s for text,
    # which prints no map, and 20-45 s for JSON, with a 259 MB peak.
    # Now text costs a few ms and JSON about 0.2 s and 40 MB for its
    # 2304 x 95 pi0 (2-vCPU VM).  A fresh interpreter keeps the peak
    # RSS that of this command alone.
    pytest.importorskip("resource")
    src = str(Path(kobstruct.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_CLASSIFY, "48", fmt],
        capture_output=True, text=True, env=env, timeout=50, check=True,
    )
    code, seconds, peak_mb = done.stdout.split()
    assert int(code) == EXIT_OBSTRUCTED
    assert float(seconds) < budget_s
    assert float(peak_mb) < 100


def test_classify_rejects_free_product_argument():
    code, _, err = run_cli("classify", "O_2 (*) O_2", "O_3")
    assert code == EXIT_ERROR and "free products" in err


def test_parse_error_exit_two():
    code, _, err = run_cli("kgroups", "Q_1")
    assert code == EXIT_ERROR and "position" in err


def test_car_exit_three():
    code, _, err = run_cli("kgroups", "CAR")
    assert code == EXIT_NOT_FG and "finitely generated" in err
    code, _, _ = run_cli("classify", "CAR", "O_2")
    assert code == EXIT_NOT_FG


_FLAGGED = (
    '{"k0": {"rank": 1, "torsion": []}, "k1": {"rank": 0, "torsion": []},'
    ' "unit": [1], "finitely_generated": false}'
)
# the literal alone, then as either operand of each operator
_FLAGGED_EXPRESSIONS = {"alone": _FLAGGED}
for _op in ("(x)", "(*C)", "(*)"):
    _FLAGGED_EXPRESSIONS[f"{_op}-left"] = f"{_FLAGGED} {_op} M_2"
    _FLAGGED_EXPRESSIONS[f"{_op}-right"] = f"M_2 {_op} ({_FLAGGED})"


@pytest.mark.parametrize("command", ["kgroups", "classify", "section"])
@pytest.mark.parametrize("expr", _FLAGGED_EXPRESSIONS.values(), ids=_FLAGGED_EXPRESSIONS.keys())
def test_finitely_generated_flag_is_an_unknown_field(expr, command):
    # a literal is finitely generated by construction, so no field of it
    # may say otherwise: the key is unknown like a misspelled one
    message = f"error: bad literal invariant: unknown field finitely_generated (at position {expr.index('{')})\n"
    argvs = [[command, expr]] if command == "kgroups" else [[command, expr, "O_2"], [command, "O_2", expr]]
    for argv in argvs:
        for fmt in ("text", "json"):
            code, out, err = run_cli(*argv, "--format", fmt)
            assert (code, out, err) == (EXIT_ERROR, "", message)


def test_literal_inside_compound_expression():
    lit = '{"k0":{"rank":0,"torsion":[2]},"k1":{"rank":0,"torsion":[]},"unit":[1]}'
    code, out, _ = run_cli("kgroups", f"{lit} (x) {lit}", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["k0"] == {"rank": 0, "torsion": [2]}
    assert payload["result"]["k1"] == {"rank": 0, "torsion": [2]}


def test_section_subcommand():
    code, out, _ = run_cli("section", "M_2", "M_3")
    assert code == EXIT_OK
    assert "section deg0: matrix [[1]]" in out
    code, out, _ = run_cli("section", "M_2", "M_2")
    assert code == EXIT_OBSTRUCTED
    assert "section deg0: none" in out
    code, out, _ = run_cli("section", "C^2", "C^2", "--mode", "full", "--format", "json")
    assert code == EXIT_OBSTRUCTED
    assert json.loads(out)["sections"]["deg0"] is None


def test_paper_examples_all_pass():
    code, out, _ = run_cli("paper-examples")
    assert code == EXIT_OK
    assert "9/9 examples passed" in out
    assert "FAIL" not in out


def test_paper_examples_only_and_json():
    code, out, _ = run_cli("paper-examples", "--only", "ex4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["results"][0]["id"] == "ex4"
    code, _, err = run_cli("paper-examples", "--only", "nope")
    assert code == EXIT_ERROR and "error: argument --only: invalid choice: 'nope' (choose from " in err
    assert "c2-rank" in err and "oinf-absorb" in err


def test_usage_error_exit_two():
    code, _, _ = run_cli("classify", "M_2")
    assert code == EXIT_ERROR
    code, _, _ = run_cli("no-such-command")
    assert code == EXIT_ERROR
    # an empty example id names no example, so nothing runs
    code, out, err = run_cli("paper-examples", "--only", "")
    assert (code, out) == (EXIT_ERROR, "")
    assert "error: argument --only: invalid choice: '' (choose from " in err


def test_argparse_text_goes_to_the_given_streams(capsys):
    out, err = io.StringIO(), io.StringIO()
    assert main(["classify", "M_2"], out=out, err=err) == EXIT_ERROR
    assert not out.getvalue()
    assert err.getvalue().startswith("usage: kobstruct classify")
    assert "error: the following arguments are required: expr_b" in err.getvalue()
    for argv in (["--help"], ["section", "--help"]):
        out, err = io.StringIO(), io.StringIO()
        assert main(argv, out=out, err=err) == EXIT_OK
        assert out.getvalue().startswith("usage: kobstruct") and not err.getvalue()
    assert capsys.readouterr() == ("", "")


def _record_namespace(seen, command, args, out):
    seen.append({k: v for k, v in vars(args).items() if k != "subcommand"})
    return command(args, out)


@pytest.fixture
def namespaces(monkeypatch):
    """The namespaces the commands are called with, each command's
    function wrapped in the declaration that both readers read."""
    seen = []
    for name, (*grammar, func) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, (*grammar, functools.partial(_record_namespace, seen, func)))
    return seen


def _reference_main(argv):
    """Exit code, stdout and stderr of one ``parse_args`` on the top
    parser, followed by the command it picks."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return (EXIT_OK if exc.code in (0, None) else EXIT_ERROR), out.getvalue(), err.getvalue()
    try:
        code = args.func(args, out)
    except ParseError as exc:
        err.write(f"error: {exc}\n")
        code = EXIT_ERROR
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["kgroups", "C^2 (*) C^2"],
        ["kgroups", "M_2", "--format", "json"],
        ["classify", "M_2", "M_3", "--mode", "full", "--format", "json"],
        ["classify", "--mode", "unital", "O_4", "O_7"],
        ["section", "M_2", "M_3"],
        ["section", "C^2", "C^2", "--mode=full", "--format=json"],
        ["paper-examples", "--only", "ex4"],
        ["-h"],
        ["--help"],
        ["kgroups", "-h"],
        ["classify", "M_2", "--help"],
        ["section", "-h"],
        ["paper-examples", "--help"],
        [],
        ["classfy", "M_2", "M_3"],
        ["--format", "json", "kgroups", "M_2"],
        ["classify", "M_2"],
        ["section", "M_2", "M_3", "--mode", "half"],
        ["kgroups", "M_2", "--format"],
        ["kgroups", "M_2", "--form", "json"],
        ["kgroups", "-C"],
        ["kgroups", "--", "-C"],
        ["kgroups", "-C (x) C"],
        ["classify", "O_2", "O_3", "extra", "--bogus"],
        ["paper-examples", "extra"],
        ["section", "--format", "json", "M_2", "--mode", "full", "M_3"],
        ["kgroups", "M_2", "--format", "json", "--format", "text"],
        ["paper-examples", "--only", ""],
        ["classify", "M_2", "M_3", "--mode"],
        ["paper-examples", "--only", "nope"],
    ],
)
def test_dispatch_matches_one_top_level_parse(argv, namespaces):
    # exit code, output, errors and namespace are those of parse_args on
    # the top parser, whether main reads the command line itself or not
    got = run_cli(*argv)
    got_namespaces = list(namespaces)
    namespaces.clear()
    assert got == _reference_main(argv)
    assert got_namespaces == namespaces


@pytest.mark.parametrize("argv, kind", [([["x"]], "list"), ([123], "int"), (["kgroups", None], "NoneType")])
def test_an_argument_that_is_not_a_str_is_a_usage_error(argv, kind):
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out=out, err=err) == EXIT_ERROR
    assert (out.getvalue(), err.getvalue()) == ("", f"error: command-line arguments must be str, not {kind}\n")


def test_leftover_arguments_are_a_top_parser_error():
    code, out, err = run_cli("classify", "O_2", "O_3", "extra", "--bogus")
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("usage: kobstruct [-h] ")
    assert err.endswith("\nkobstruct: error: unrecognized arguments: extra --bogus\n")


# Tokens for the two readers of a command line: positionals (one with
# spaces, the empty string), every option name, values in and out of
# their choices, and what only argparse reads (a lone "-", a negative
# number, "--", help, the = form and an abbreviation).
_ARGV_TOKENS = (
    "M_2", "A (*C) B", "", "-", "-1", "--", "-h", "--help", "--mode", "--format", "--only",
    "--mode=full", "--form", "full", "unital", "half", "json", "text", "ex4",
)


def test_direct_reader_agrees_with_argparse():
    # every command line of up to 4 of the tokens, for each command: where
    # the direct reader accepts one, the top parser reads the same
    # namespace, bar the command's name, and leaves nothing over
    parser = cli._build_parser()
    accepted = 0
    for name, command in cli._COMMANDS.items():
        for size in range(5):
            for argv in itertools.product(_ARGV_TOKENS, repeat=size):
                got = cli._read(command, argv)
                if got is None:
                    continue
                accepted += 1
                with contextlib.redirect_stderr(io.StringIO()):
                    want, extra = parser.parse_known_args([name, *argv])
                del want.subcommand
                assert (vars(got), extra) == (vars(want), []), (name, argv)
    assert accepted > 1000


def test_direct_reader_refuses_what_only_argparse_reads():
    command = cli._COMMANDS["section"]
    assert cli._read(command, ["M_2", "M_3", "--mode", "full"]) is not None
    for argv in (
        ["M_2", "M_3", "--mode=full"],
        ["M_2", "M_3", "--mo", "full"],
        ["M_2", "M_3", "--mode"],
        ["M_2", "M_3", "--mode", "half"],
        ["M_2", "M_3", "--mode", "-1"],
        ["M_2", "--", "M_3"],
        ["M_2", "-1"],
        ["M_2", "M_3", "-h"],
        ["M_2"],
        ["M_2", "M_3", "M_4"],
    ):
        assert cli._read(command, argv) is None, argv


def test_well_formed_command_lines_skip_argparse(monkeypatch):
    # the catalog's command lines and one with an option between the
    # command and its positionals never reach argparse
    def refuse(*args, **kwargs):
        raise AssertionError("argparse read a well-formed command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    for argv, want in (
        (("classify", "M_2", "M_3", "--mode", "unital", "--format", "json"), EXIT_OK),
        (("section", "O_2", "O_3", "--mode", "full", "--format", "json"), EXIT_OK),
        (("kgroups", "M_2 (*C) M_3", "--format", "json"), EXIT_OK),
        (("paper-examples", "--format", "json"), EXIT_OK),
        (("classify", "--mode", "unital", "O_4", "O_7"), EXIT_OBSTRUCTED),
    ):
        code, out, err = run_cli(*argv)
        assert (code, err) == (want, ""), argv
        assert out


class _ClosedPipe(io.StringIO):
    """An output stream whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipe_is_no_fault_of_the_program():
    for argv in (("classify", "M_2", "M_3", "--format", "json"), ("kgroups", "C^2 (*) C^2")):
        err = io.StringIO()
        assert main(list(argv), out=_ClosedPipe(), err=err) == EXIT_CLOSED_PIPE
        assert err.getvalue() == ""


@pytest.mark.parametrize(
    "argv",
    [("classify", "C^30", "C^30", "--format", "json"), ("kgroups", "M_2"), ("--help",), ("classify", "-h")],
    ids=["mid-write", "at-flush", "help", "command-help"],
)
def test_closed_pipe_exits_quietly_from_the_console(argv):
    # stdout is a pipe whose reader has gone, as for `kobstruct ... | head`
    # once head exits, and block-buffered, as a console script's piped
    # stdout is: a large output meets the closed pipe while it is
    # written, a small one (and argparse's help) when main flushes it.
    # None prints anything, not even when the interpreter flushes stdout
    # at exit.
    src = str(Path(kobstruct.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "kobstruct.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=50,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (EXIT_CLOSED_PIPE, b"")


def test_large_power_of_c_is_an_expression_error():
    for expr, position in (("C^" + str(MAX_POWER + 1), 0), ("O_2 (x) C^" + "9" * 21, 8)):
        code, out, err = run_cli("kgroups", expr)
        assert code == EXIT_ERROR and not out
        assert err == f"error: power of C must be <= {MAX_POWER} (at position {position})\n"
    code, out, _ = run_cli("kgroups", f"C^{MAX_POWER}")
    assert code == EXIT_OK and f"Z^{MAX_POWER}" in out


_MAP_OVER = f"the induced map in degree 0 needs a 16100 x 261 matrix, more than the {MAX_ENTRIES} entries accepted"
_SUM_OVER = f"K0A + K0B needs a 2001 x 2001 matrix, more than the {MAX_ENTRIES} entries accepted"
# (Z/2)^60, so K0 of its square is (Z/2)^3600
_Z2_60 = json.dumps({"k0": {"rank": 0, "torsion": [2] * 60}, "k1": {"rank": 0, "torsion": []}, "unit": [1] * 60})
# Each input is just over a size limit, so without the limits it would
# build its groups and matrices in full.
_OVERSIZED = [
    (
        ("kgroups", "C^100 (x) C^100 (x) C^3"),
        f"the tensor product's K0 has 30000 generators, more than the {MAX_GENERATORS} accepted",
    ),
    (("kgroups", "(C^20 (x) C^100) (*) C", "--format", "json"), _SUM_OVER),
    (
        # its unital quotient has 3601 generators and 3601 relations, and
        # ran for minutes without the limit
        ("kgroups", f"({_Z2_60} (x) {_Z2_60}) (*C) C"),
        f"the unital quotient of K0A + K0B needs a 3601 x 3601 matrix, more than the {MAX_ENTRIES} entries accepted",
    ),
    (("classify", "C^7 (x) C^23", "C^100"), _MAP_OVER),
    (("classify", "C^7 (x) C^23", "C^100", "--format", "json"), _MAP_OVER),
    (("section", "C^100", "C^7 (x) C^23"), _MAP_OVER),
]


@pytest.mark.parametrize("argv, message", _OVERSIZED, ids=[" ".join(argv) for argv, _ in _OVERSIZED])
def test_oversized_input_is_an_expression_error(argv, message):
    # Refused from generator counts before anything of that size is built.
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")


def test_input_at_the_size_limits_runs():
    # 20000 = MAX_GENERATORS generators, and a pair whose pi0 would be
    # 15000 x 250, under MAX_ENTRIES
    code, out, _ = run_cli("kgroups", "C^100 (x) C^100 (x) C^2")
    assert code == EXIT_OK and f"Z^{MAX_GENERATORS}" in out
    assert run_cli("classify", "C^3 (x) C^50", "C^100")[0] == EXIT_OBSTRUCTED


def test_unital_free_product_of_two_thousand_generators_runs():
    # K0A + K0B = Z^2001 takes one relation, 2001 x 1; the limit on n x n
    # matrices that the unital quotient no longer builds refused it.
    start = time.perf_counter()
    code, out, _ = run_cli("kgroups", "(C^20 (x) C^100) (*C) C", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK and json.loads(out)["result"]["k0"] == {"rank": 2000, "torsion": []}


def test_unital_quotient_of_a_thousand_generators_costs_its_relations():
    # (C^10 (x) C^100) (*C) C quotients K0A + K0B = Z^1001 by one
    # relation.  With dense n x n transforms that took 0.33-0.38 s and
    # about 40 MiB; with sparse ones about 10 ms and 1 MiB (2-vCPU VM).
    argv = ("kgroups", "(C^10 (x) C^100) (*C) C", "--format", "json")
    start = time.perf_counter()
    code, out, _ = run_cli(*argv)
    assert time.perf_counter() - start < 0.15
    assert code == EXIT_OK and json.loads(out)["result"]["k0"] == {"rank": 1000, "torsion": []}
    tracemalloc.start()
    try:
        run_cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_tensor_square_of_a_hundred_torsion_factors_runs():
    # Each K-group of L (x) L sums 40,000 cyclic factors.  The
    # invariant-factor merge once carried each factor down past every
    # factor it divides, one gcd each: 50 s here, about 1 s when it steps
    # over that run (2-vCPU VM).
    torsion = [2] * 50 + [12] * 50
    lit = json.dumps({"k0": {"rank": 0, "torsion": torsion}, "k1": {"rank": 0, "torsion": torsion}, "unit": [1] * 100})
    start = time.perf_counter()
    code, out, err = run_cli("kgroups", f"{lit} (x) {lit}")
    assert time.perf_counter() - start < 5.0
    group = FgAbGroup(0, [2] * 30_000 + [12] * 10_000)
    assert (code, err) == (EXIT_OK, "") and out.splitlines()[1].startswith(f"L = ({group}, {group}, ")


def test_output_determinism():
    for argv in (
        ("classify", "M_2", "M_3", "--mode", "unital"),
        ("classify", "O_4", "O_7", "--format", "json"),
        ("kgroups", "C^2 (*C) C^2", "--format", "json"),
        ("paper-examples",),
        ("section", "O_3", "M_3", "--mode", "full"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


def test_deep_parenthesis_nest_is_an_expression_error():
    deep = "(" * 2000 + "C" + ")" * 2000
    code, out, err = run_cli("kgroups", deep)
    assert code == EXIT_ERROR and not out
    assert "position" in err and f"deeper than {MAX_NESTING}" in err
    limit = "(" * MAX_NESTING + "C" + ")" * MAX_NESTING
    code, out, _ = run_cli("kgroups", limit)
    assert code == EXIT_OK and "L = (Z, 0, [1])" in out


def test_long_tensor_chain_evaluates():
    code, out, err = run_cli("kgroups", " (x) ".join(["C"] * 3000))
    assert code == EXIT_OK and not err
    assert out.endswith("L = (Z, 0, [1])\n")


def test_over_long_index_is_an_expression_error():
    code, out, err = run_cli("kgroups", "O_2 (x) M_" + "7" * 5000)
    assert code == EXIT_ERROR and not out
    assert "at position 8" in err
    assert "set_int_max_str_digits" not in err
    code, out, _ = run_cli("kgroups", "M_" + "7" * MAX_INDEX_DIGITS)
    assert code == EXIT_OK


def test_internal_fault_is_exit_four():
    # Valid input whose tensor unit class has about 5000 digits: printing
    # it reaches Python's int-to-string limit, which is no fault of the
    # input.
    code, out, err = run_cli("kgroups", " (x) ".join(["M_" + "9" * MAX_INDEX_DIGITS] * 5))
    assert code == EXIT_INTERNAL and not out
    assert err.startswith("internal error: ") and "4300" in err


def test_bad_literal_is_an_expression_error():
    bad = '{"k0": {"rank": 1, "torsion": []}, "k1": {"rank": 0, "torsion": []}, "unit": [1, 2]}'
    code, out, err = run_cli("kgroups", bad)
    assert code == EXIT_ERROR and not out
    assert err.startswith("error: bad literal invariant") and "position 0" in err


_BAD_LITERALS = {
    "deep-unit": '{"k0": {"rank": 1}, "k1": {"rank": 0}, "unit": '
    + "[" * 100_000
    + "]" * 100_000
    + "}",
    "rank-1e400": '{"k0": {"rank": 1e400}, "k1": {"rank": 0}, "unit": [1]}',
    "unit-Infinity": '{"k0": {"rank": 1}, "k1": {"rank": 0}, "unit": [Infinity]}',
    "rank-1.5": '{"k0": {"rank": 1.5}, "k1": {"rank": 0}, "unit": [1]}',
    "torsion-2.7": '{"k0": {"rank": 1}, "k1": {"rank": 0, "torsion": [2.7]}, "unit": [1]}',
    "unit-true": '{"k0": {"rank": 1}, "k1": {"rank": 0}, "unit": [true]}',
    "rank-1e20": '{"k0": {"rank": 1}, "k1": {"rank": 100000000000000000000}, "unit": [1]}',
    # a misspelled field was ignored, in a group and at the top level
    "torsoin": '{"k0": {"rank": 1, "torsoin": [2]}, "k1": {"rank": 0}, "unit": [1]}',
    "finitely_generatd": '{"k0": {"rank": 1}, "k1": {"rank": 0}, "unit": [1], "finitely_generatd": false}',
    # the unit was read against the re-sorted factors, so its order moved
    "k0-torsion-4-2": '{"k0": {"rank": 0, "torsion": [4, 2]}, "k1": {"rank": 0}, "unit": [2, 1]}',
}


@pytest.mark.parametrize("literal", _BAD_LITERALS.values(), ids=_BAD_LITERALS.keys())
@pytest.mark.parametrize("command", ["kgroups", "classify", "section"])
def test_bad_literal_values_are_expression_errors(command, literal):
    # each once ended in exit 4 or was silently truncated to exit 0
    argv = [command, literal] if command == "kgroups" else [command, "M_2", literal]
    code, out, err = run_cli(*argv)
    assert code == EXIT_ERROR and not out
    assert err.startswith("error: bad literal invariant") and "position 0" in err


def test_shared_parser_keeps_no_state_between_calls():
    code, out, _ = run_cli("classify", "M_2", "M_3", "--mode", "full", "--format", "json")
    assert code == EXIT_OK and "sections" in json.loads(out)
    code, out, _ = run_cli("classify", "M_2", "M_3", "--format", "json")
    assert code == EXIT_OK and "sections" not in json.loads(out)
    assert run_cli("classify", "M_2")[0] == EXIT_ERROR
    assert run_cli("section", "M_2", "M_3", "--mode", "half")[0] == EXIT_ERROR
    code, out, _ = run_cli("section", "M_2", "M_3")
    assert code == EXIT_OK and "mode: unital" in out


# Inputs for the property that the command line ends every command with
# an exit code of 0-3 and never raises.  Indices stay under 50 digits
# inside (x) chains, so no product reaches Python's 4300-digit limit on
# printing integers (pinned as exit 4 above), and C^k is either small
# or above MAX_POWER, an expression error: C^k within the limit inside
# (x) chains builds k^2 generators.  Literal triples are as small as the
# torsion-literals benchmark uses, since larger ones can hit the known
# growth of the Smith normal form; one in four has one value swapped
# for a float, bool, string or deep array.
_small_index = st.integers(2, 10**49)
_atoms = st.one_of(
    st.sampled_from(
        ["O_2", "O3", "O_12", "Oinf", "O_inf", "M_1", "M_6", "M2(Oinf)", "C", "C^2",
         "CT", "C(T)", "C01", "C([0,1])", "CAR"]
    ),
    _small_index.map("O_{}".format),
    _small_index.map("M_{}".format),
    _small_index.map("M_{}(Oinf)".format),
    st.integers(MAX_POWER + 1, 10**49).map("C^{}".format),
)
_trees = st.recursive(
    _atoms,
    lambda sub: st.tuples(sub, st.sampled_from(["(x)", "(*)", "(*C)", " ( x ) "]), sub).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    ),
    max_leaves=3,
)


@st.composite
def _groups(draw):
    factors = draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 9, 25, 49]), max_size=4))
    return {"rank": draw(st.integers(0, 1)), "torsion": sorted(factors)}


# JSON text that is no integer, for one field of a literal: floats
# (Infinity and 1e400 among them), booleans, strings and arrays nested
# past the decoder's recursion limit.
_bad_values = st.one_of(
    st.floats().map(json.dumps),
    st.sampled_from(["1e400", "-Infinity", "NaN", "2.0"]),
    st.booleans().map(json.dumps),
    st.text(max_size=4).map(json.dumps),
    st.integers(1, 100_000).map(lambda d: "[" * d + "]" * d),
)
_SLOT = "\x00slot"


@st.composite
def _literals(draw):
    k0, k1 = draw(_groups()), draw(_groups())
    ngens = k0["rank"] + len(k0["torsion"])
    unit = draw(st.lists(st.integers(-60, 60), min_size=ngens, max_size=ngens))
    obj = {"k0": k0, "k1": k1, "unit": unit}
    if draw(st.integers(0, 3)):
        return json.dumps(obj)
    # swap one value for text that is no integer
    slots = [(k0, "rank"), (k1, "rank")]
    slots += [(seq, i) for seq in (k0["torsion"], k1["torsion"], unit) for i in range(len(seq))]
    seq, key = draw(st.sampled_from(slots))
    seq[key] = _SLOT
    return json.dumps(obj).replace(json.dumps(_SLOT), draw(_bad_values))


_expressions = st.one_of(
    _trees,
    _literals(),
    st.tuples(st.integers(90, 110), _atoms).map(lambda t: "(" * t[0] + t[1] + ")" * t[0]),
    st.tuples(st.sampled_from(["O_", "M_", "C^"]), st.integers(1001, 1200)).map(
        lambda t: t[0] + "7" * t[1]
    ),
    _literals().map(lambda text: text[: len(text) // 2]),
    st.text(alphabet='{}[]:," k0k1unitrankorsion-123', max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["kgroups", "classify", "section"]),
    _expressions,
    _expressions,
    st.sampled_from([[], ["--mode", "unital"], ["--mode", "full"]]),
    st.sampled_from(["text", "json"]),
)
def test_cli_exits_zero_to_three_and_never_raises(command, a, b, mode, fmt):
    argv = [command, a] if command == "kgroups" else [command, a, b, *mode]
    code, _, err = run_cli(*argv, "--format", fmt)
    assert code in (EXIT_OK, EXIT_OBSTRUCTED, EXIT_ERROR, EXIT_NOT_FG), err
    if err.startswith("usage: "):
        # argparse's own usage error, for an expression that starts with "-"
        assert code == EXIT_ERROR and err.startswith("usage: kobstruct") and ": error: " in err
    else:
        assert not err or err.startswith("error: ")


def _sections_json(report):
    return {
        "deg0": report.deg0.to_json() if report.deg0 else None,
        "deg1": report.deg1.to_json() if report.deg1 else None,
        "extra_z_ok": report.extra_z_ok,
    }


def _json(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("mode", ["unital", "full"])
def test_classify_payload_matches_separate_public_calls(catalog, mode):
    for name_a, a in catalog:
        for name_b, b in catalog:
            kun = kunneth(a, b)
            pi0, pi1, _ = pi_star(a, b)
            expected = {
                "command": "classify",
                "expr_a": name_a,
                "expr_b": name_b,
                "invariant_a": a.to_json(),
                "invariant_b": b.to_json(),
                "groups": {
                    "unital_free_product": unital_free_product_k(a, b).to_json(),
                    "tensor": {"k0": kun.k0.to_json(), "k1": kun.k1.to_json()},
                },
                "maps": {"pi0": pi0.to_json(), "pi1": pi1.to_json()},
                "verdict": classify(a, b).to_json(),
                "sections": {"mode": mode, **_sections_json(section_exists_k(a, b, mode))},
            }
            _, out, _ = run_cli("classify", name_a, name_b, "--mode", mode, "--format", "json")
            assert json.loads(out) == _json(expected), (name_a, name_b)


def test_section_full_payload_matches_separate_public_calls(catalog):
    for name_a, a in catalog:
        for name_b, b in catalog:
            report = section_exists_k(a, b, "full")
            expected = {
                "command": "section",
                "expr_a": name_a,
                "expr_b": name_b,
                "mode": "full",
                "sections": _sections_json(report),
            }
            code, out, _ = run_cli("section", name_a, name_b, "--mode", "full", "--format", "json")
            assert json.loads(out) == _json(expected), (name_a, name_b)
            assert code == (EXIT_OK if report.all_clear else EXIT_OBSTRUCTED)
            for s, f in zip(report[:2], pi_star_full(a, b)):
                if s is not None:
                    assert compose(s, f) == GroupHom.identity(f.target), (name_a, name_b)


def _onto(an, degree):
    """Whether the induced maps of ``degree`` reach the solver: onto a
    tensor K-group with generators."""
    return an.tensor_groups[degree].ngens > 0 and getattr(an, f"cokernel{degree}").is_trivial


@pytest.mark.parametrize("mode", ["unital", "full"])
def test_classify_solves_each_induced_map_once(catalog, mode):
    # classify's map-level checks and the section report read the same
    # sections, so no induced map of a command reaches the solver twice;
    # and a section decided by a nontrivial cokernel never reaches it at
    # all.  The report solves one map per degree that is onto; in full
    # mode the verdict may solve pi0 besides the report's lifted_pi0.
    total = 0
    for name_a, a in catalog:
        for name_b, b in catalog:
            an = kinv.PairAnalysis(a, b)
            onto = _onto(an, 0) + _onto(an, 1)
            solved = cli_counts("classify", name_a, name_b, "--mode", mode)["solve"]
            extra = _onto(an, 0) if mode == "full" else 0
            assert onto <= solved <= onto + extra, (name_a, name_b)
            total += solved
    assert total, "no classify command reached the solver"


# Z + Z/2 against Z + Z/3: K1 = 0 on both sides, and the Tor of the K0s is 0
_Z_Z2 = '{"k0": {"rank": 1, "torsion": [2]}, "k1": {"rank": 0, "torsion": []}, "unit": [1, 1]}'
_Z_Z3 = '{"k0": {"rank": 1, "torsion": [3]}, "k1": {"rank": 0, "torsion": []}, "unit": [2, 1]}'


@pytest.mark.parametrize("command, mode", [("classify", "unital"), ("section", "full")])
@pytest.mark.parametrize(
    "expr_a, expr_b, k1",
    [("M_2", "M_3", False), (_Z_Z2, _Z_Z3, False), ("CT", "CT", True)],
    ids=["M_2-M_3", "literals", "CT-CT"],
)
def test_degree_one_costs_nothing_when_k1_is_zero(command, mode, expr_a, expr_b, k1):
    # With K1A + K1B = 0, pi1 is the matrix with no columns and its
    # section the hom from a tensor K1 of 0: neither reads the images of
    # a generator nor reaches the solver.  CT against CT, with K1 = Z,
    # still builds pi1 and solves its section.
    an = kinv.PairAnalysis(kobstruct.evaluate(expr_a), kobstruct.evaluate(expr_b))
    counts = cli_counts(command, expr_a, expr_b, "--mode", mode, "--format", "json")
    assert counts["map1"] == k1
    assert counts["solve"] == _onto(an, 0) + k1


def test_json_commands_build_no_text_lines(monkeypatch):
    def refuse(*args):
        raise AssertionError("a text line built for JSON output")

    for name in ("_invariant_lines", "_kpair_lines", "_section_lines"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(kinv.KInvariant, "__str__", refuse)
    for argv in (
        ("classify", "M_2", "M_3", "--mode", "unital"),
        ("section", "O_2", "O_3", "--mode", "full"),
        ("kgroups", "M_2 (*C) M_3"),
        ("kgroups", "M_2"),
    ):
        code, out, err = run_cli(*argv, "--format", "json")
        assert (code, err) == (EXIT_OK, ""), argv
        assert json.loads(out)["command"] == argv[0]


def _catalog_runs(catalog):
    """Exit code and stdout of three JSON commands on every ordered
    catalog pair."""
    for a, _ in catalog:
        for b, _ in catalog:
            for argv in (
                ("classify", a, b, "--mode", "unital", "--format", "json"),
                ("section", a, b, "--mode", "full", "--format", "json"),
                ("kgroups", f"{a} (*C) {b}", "--format", "json"),
            ):
                code, out, _ = run_cli(*argv)
                yield code, out


# SHA-256 of exit code and stdout of the commands above over all ordered
# catalog pairs, recorded from the Smith normal form engine of
# alternating Hermite stages: printed coordinates (unit classes, maps,
# sections, witness matrices) follow the quotient generators it picks.
CATALOG_DIGEST = "47843618ed8f2db8df4947fec5693ca4023859e832c6d44291c616f8fcaf9f7c"


def test_catalog_outputs_pinned(catalog):
    digest = hashlib.sha256()
    for code, out in _catalog_runs(catalog):
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CATALOG_DIGEST


def _group_invariants(node, path=""):
    """(path, rank, torsion) of every group in a JSON payload."""
    if isinstance(node, dict):
        if node.keys() >= {"rank", "torsion"}:
            yield path, node["rank"], node["torsion"]
        for key, value in sorted(node.items()):
            yield from _group_invariants(value, f"{path}/{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _group_invariants(value, f"{path}/{k}")


def _coordinate_free(code, out):
    """What a command's output says whatever generators the engine picks:
    its exit code, the verdict's outcome, case, parameters, witness
    clause and cokernel, every group, which sections exist and
    extra_z_ok.  Unit classes and matrices are left out."""
    payload = json.loads(out) if out else {}
    verdict = payload.get("verdict") or {}
    witness = verdict.get("witness") or {}
    sections = payload.get("sections") or {}
    return repr((
        code,
        [verdict.get(key) for key in ("outcome", "case", "parameters")],
        witness.get("clause"),
        witness.get("detail", {}).get("cokernel"),
        list(_group_invariants(payload)),
        [sections.get(key) is not None for key in ("deg0", "deg1")],
        sections.get("extra_z_ok"),
    ))


# SHA-256 of _coordinate_free over the same commands, recorded from the
# engine with the smallest-pivot loop: a change of the generators the
# engine picks may move CATALOG_DIGEST but never this one.
CATALOG_INVARIANTS_DIGEST = "cce8f87fd69445b8d73bfba9d44cce59da87f34069efd351be250835a8f7371d"


def test_catalog_invariants_pinned(catalog):
    digest = hashlib.sha256()
    for code, out in _catalog_runs(catalog):
        digest.update(_coordinate_free(code, out).encode())
    assert digest.hexdigest() == CATALOG_INVARIANTS_DIGEST


def _literal(rng):
    """A seeded literal triple: K0 of rank 0-2 with 0-2 factors (so
    sometimes 0, and sometimes finite with a torsion unit class), K1 of
    rank 0-1 with 0-1 factors (0 in four draws of nine), and a random
    unit class."""
    k0 = FgAbGroup(rng.randint(0, 2), [rng.choice((2, 3, 4, 6, 9)) for _ in range(rng.randint(0, 2))])
    k1 = FgAbGroup(rng.choice((0, 0, 1)), [rng.choice((2, 3, 4)) for _ in range(rng.choice((0, 0, 1)))])
    unit = [rng.randint(-4, 4) for _ in range(k0.rank)] + [rng.randrange(d) for d in k0.torsion]
    return {"k0": k0.to_json(), "k1": k1.to_json(), "unit": unit}


def _literal_pairs():
    rng = random.Random(28)
    return [(_literal(rng), _literal(rng)) for _ in range(80)]


# SHA-256 of exit code, stdout and stderr of the commands of
# test_literal_outputs_pinned over _literal_pairs, recorded before the
# induced maps, sections and tensor parts of zero groups were read off
# generator counts.
LITERAL_DIGEST = "7499e8627949b2b1075333ecde4f97a6b73d1446d137d30d7d3cdc1ba63d1151"


def test_literal_outputs_pinned():
    pairs = _literal_pairs()
    sides = [x for pair in pairs for x in pair]
    # the list reaches K1 != 0, a zero K0 and torsion unit classes
    assert any(x["k1"] != {"rank": 0, "torsion": []} for x in sides)
    assert any(x["k0"] == {"rank": 0, "torsion": []} for x in sides)
    assert any(x["k0"]["rank"] == 0 and any(x["unit"]) for x in sides)
    digest = hashlib.sha256()
    for lit_a, lit_b in pairs:
        a, b = json.dumps(lit_a), json.dumps(lit_b)
        for argv in (
            ("classify", a, b, "--mode", "unital"),
            ("classify", a, b, "--mode", "unital", "--format", "json"),
            ("section", a, b, "--mode", "unital", "--format", "json"),
            ("section", a, b, "--mode", "full", "--format", "json"),
            ("kgroups", f"{a} (*C) {b}", "--format", "json"),
        ):
            code, out, err = run_cli(*argv)
            digest.update(f"{code}\n{out}\n{err}".encode())
    assert digest.hexdigest() == LITERAL_DIGEST


def _interleaved_literal(k, torsion):
    """A literal with K0 torsion ``torsion * k`` (interleaved coprime
    orders), K1 = 0 and an all-ones unit class."""
    orders = [d for d in torsion for _ in range(k)]
    return json.dumps({"k0": {"rank": 0, "torsion": orders}, "k1": {"rank": 0}, "unit": [1] * len(orders)})


# SHA-256 of exit code, stdout and stderr of three commands on the pairs
# A = (Z/2)^k + (Z/6)^k, B = (Z/3)^k + (Z/6)^k for k = 3, 6 and 12, whose
# Kronecker presentations take long merge runs in _cyclic_canonical;
# recorded before its lift entries were reduced.
INTERLEAVED_DIGEST = "5702185780358d4feec8bee933b04e96f29ff9c2f346c7794ac675ee27822bcf"


def test_interleaved_torsion_outputs_pinned():
    digest = hashlib.sha256()
    for k in (3, 6, 12):
        a, b = _interleaved_literal(k, (2, 6)), _interleaved_literal(k, (3, 6))
        for argv in (
            ("kgroups", f"{a} (x) {b}"),
            ("kgroups", f"{a} (*C) {b}"),
            ("classify", a, b, "--mode", "unital", "--format", "json"),
        ):
            code, out, err = run_cli(*argv)
            digest.update(f"{code}\n{out}\n{err}".encode())
    assert digest.hexdigest() == INTERLEAVED_DIGEST


def test_interleaved_torsion_costs_by_count():
    # The cost of the pairs above as counts, which do not depend on the
    # machine.  kgroups of the tensor product carries the unit's rows
    # through the merges and builds no full basis change; classify builds
    # those of K0A + K0B and of K1 of the unital free product, and one
    # quotient by the unit relation.  The bounds are the counts when
    # they were recorded.
    for k, merges in ((6, 666), (12, 10_440)):
        a, b = _interleaved_literal(k, (2, 6)), _interleaved_literal(k, (3, 6))
        counts = cli_counts("kgroups", f"{a} (x) {b}", "--format", "json")
        assert not counts["basis"] and 0 < counts["merge"] <= merges, k
    a, b = _interleaved_literal(6, (2, 6)), _interleaved_literal(6, (3, 6))
    counts = cli_counts("classify", a, b, "--mode", "unital", "--format", "json")
    assert counts["basis"] <= 2 and counts["smith:uinv"] <= 1 and counts["merge"] <= 687, counts


# ---------------------------------------------------------------------------
# The JSON writer against json.dumps


def _writer_text(value):
    out = io.StringIO()
    cli._emit_json(value, out)
    return out.getvalue()


def _emitted_payloads(monkeypatch, argvs):
    """The payloads the commands of ``argvs`` hand to the writer."""
    payloads = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit_json", lambda payload, out: payloads.append(payload))
        for argv in argvs:
            run_cli(*argv, "--format", "json")
    return payloads


def _assert_writer_matches_json_dumps(payloads):
    for payload in payloads:
        assert _writer_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n", payload


def test_json_writer_matches_json_dumps_on_catalog_payloads(catalog, monkeypatch):
    argvs = [("paper-examples",)]
    for a, _ in catalog:
        for b, _ in catalog:
            for mode in ("unital", "full"):
                argvs += [("classify", a, b, "--mode", mode), ("section", a, b, "--mode", mode)]
            argvs += [("kgroups", f"{a} {op} {b}") for op in ("(*C)", "(*)", "(x)")]
    payloads = _emitted_payloads(monkeypatch, argvs)
    assert len(payloads) == len(argvs) == 1 + 7 * len(catalog) ** 2
    _assert_writer_matches_json_dumps(payloads)


def _torsion_literal(rng):
    k0 = FgAbGroup(rng.randint(0, 1), random_finite_group(rng, max_order=60, max_factors=3).torsion)
    k1 = FgAbGroup(rng.randint(0, 1), random_finite_group(rng).torsion)
    return json.dumps({"k0": k0.to_json(), "k1": k1.to_json(), "unit": list(random_element(rng, k0).coords)})


def test_json_writer_matches_json_dumps_on_torsion_literals(monkeypatch):
    rng = random.Random(27)
    argvs = []
    for _ in range(60):
        a, b = _torsion_literal(rng), _torsion_literal(rng)
        argvs += [
            ("classify", a, b, "--mode", "full"),
            ("section", a, b, "--mode", "unital"),
            ("kgroups", f"{a} (*) {b}"),
        ]
    payloads = _emitted_payloads(monkeypatch, argvs)
    assert len(payloads) == len(argvs)
    _assert_writer_matches_json_dumps(payloads)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], {}, [[]]]},
        [[[]]],
        {"n": [-1, 0, -(2**1000), 2**1000 - 1], "m": -(2**1000)},
        {"t": True, "f": False, "z": None, "l": [True, False, None], "mixed": [1, True, None, "1"]},
        {"s": ["é", "\u2603", "\U0001f600", "\ud800", "\x00\x1f\x7f", '"\\/\n\r\t\b\f', ""]},
        {"é": 1, "\n": 2, "b": 3, "a": 4, "B": 5, "": 6, "\x00": 7, "\U0001f600": 8, "aa": 9},
        {"z": {"y": [1, [2, [3]]], "x": "s"}, "a": [{"k": [[1, 2], [3]], "j": {}}], "m": [[0] * 3] * 4},
        "top-level string",
        7,
    ],
)
def test_json_writer_matches_json_dumps_on_edge_cases(value):
    _assert_writer_matches_json_dumps([value])


class _Int(int):
    pass


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [0.0]}, (1, 2), {"a": (1,)}, {1: "a"}, {"a": {2: 0}}, _Int(3), [1, _Int(3)], {"a": _Int(0)}],
)
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _writer_text(value)
