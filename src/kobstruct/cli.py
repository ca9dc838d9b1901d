"""Command-line front end.

Subcommands
-----------
    kgroups EXPR            K-groups of an algebra expression
    classify EXPR_A EXPR_B  run the splitting classifier on a pair
    section EXPR_A EXPR_B   solve for sections of the induced maps
    paper-examples          replay the fixed regression suite

Exit codes: 0 success / splitting possible, 1 obstructed or a failing
regression item, 2 usage or expression errors, 3 an algebra whose
K-theory is not finitely generated (CAR), 4 an internal error (a fault
of the program, not of its input), 141 (128 + SIGPIPE, what a shell
reports for a writer SIGPIPE ended) when the reader of the output has
gone, as in ``kobstruct ... | head``, with nothing printed.

Each command's grammar (its positionals, its options with the values
they take, defaults and help, and its function) is declared once, as
the data ``_COMMANDS``, and two readers read it.  A well-formed command
line is read straight off it (``_read``); anything else (``-h``,
``--mode=full``, an abbreviation, a missing argument, a bad choice)
goes to the argparse parser built from it for that call
(``_build_parser``), which prints its help, usage and errors unchanged.
Nothing is kept from one call to the next.  Only the argparse path
redirects the streams, since only argparse writes to ``sys.stdout``
and ``sys.stderr``.
Output is deterministic.  JSON output is the text of
``json.dumps(payload, sort_keys=True, indent=2)``, written by a small
writer for the shapes the commands emit, a matrix row at a time.
"""

from __future__ import annotations

import contextlib
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd
from types import SimpleNamespace

from . import obstruct
from .catalog import (
    NonFinitelyGeneratedError,
    ParseError,
    SizeLimitError,
    UnsupportedNestingError,
    check_pair,
    evaluate,
)
from .fgab import FgAbGroup, GroupHom, cokernel, compose, quotient_by
from .kinv import KInvariant, KPair, PairAnalysis, kunneth, unital_free_product_k
from .obstruct import (
    OBSTRUCTED,
    classify,
    classify_analysis,
    ex4_no_scaled_section,
    m_oo_unit_divisibility,
    section_exists_analysis,
)

EXIT_OK = 0
EXIT_OBSTRUCTED = 1
EXIT_ERROR = 2
EXIT_NOT_FG = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer SIGPIPE ended


def _json_parts(value, indent: str, parts: list[str], write) -> None:
    """Append to ``parts`` the text ``json.dumps(value, sort_keys=True,
    indent=2)`` gives ``value`` nested at ``indent`` (a newline and its
    spaces), and ``write`` the parts out after each element of a list
    that is not all ints, so a matrix goes out a row at a time.  Only
    the shapes the commands emit are accepted: dicts with str keys,
    lists, ints, strs, bools and None; anything else is a TypeError,
    an internal error rather than different bytes."""
    kind = type(value)
    if kind is str:
        parts.append(_json_str(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is bool:
        parts.append("true" if value else "false")
    elif value is None:
        parts.append("null")
    elif kind is not list and kind is not dict:
        raise TypeError(f"the JSON writer takes no {kind.__name__}")
    elif not value:
        parts.append("[]" if kind is list else "{}")
    elif kind is list and all(type(v) is int for v in value):
        inner = indent + "  "
        parts.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]")
    elif kind is list:
        inner, sep = indent + "  ", "["
        for item in value:
            parts.append(sep + inner)
            _json_parts(item, inner, parts, write)
            write("".join(parts))
            parts.clear()
            sep = ","
        parts.append(indent + "]")
    else:
        inner, sep = indent + "  ", "{"
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"the JSON writer takes no {type(key).__name__} key")
            parts.append(sep + inner + _json_str(key) + ": ")
            _json_parts(value[key], inner, parts, write)
            sep = ","
        parts.append(indent + "}")


def _emit_json(payload: dict, out) -> None:
    parts = []
    _json_parts(payload, "\n", parts, out.write)
    out.write("".join(parts) + "\n")


def _emit_text(lines: list[str], out) -> None:
    out.write("\n".join(lines) + "\n")


def _invariant_lines(label: str, inv: KInvariant) -> list[str]:
    return [f"{label}: L = {inv}"]


def _kpair_lines(kp: KPair) -> list[str]:
    lines = [f"K0 = {kp.k0}"]
    if kp.unit is not None:
        lines.append(f"unit class = {list(kp.unit.coords)}")
    lines.append(f"K1 = {kp.k1}")
    if kp.extra_z:
        lines.append("K1 contains an extra Z summand (not canonically placed)")
    return lines


def _cmd_kgroups(args, out) -> int:
    result = evaluate(args.expr)
    if args.format == "json":
        _emit_json({"command": "kgroups", "expr": args.expr, "result": result.to_json()}, out)
    elif isinstance(result, KInvariant):
        _emit_text([f"expr: {args.expr}", f"L = {result}"], out)
    else:
        _emit_text([f"expr: {args.expr}"] + _kpair_lines(result), out)
    return EXIT_OK


def _require_invariant(value, name: str) -> KInvariant:
    if not isinstance(value, KInvariant):
        raise UnsupportedNestingError(
            f"{name} must evaluate to an algebra invariant; free products "
            "produce K-pairs and cannot be classified as algebras"
        )
    return value


def _section_payload(report) -> dict:
    return {
        "deg0": report.deg0.to_json() if report.deg0 else None,
        "deg1": report.deg1.to_json() if report.deg1 else None,
        "extra_z_ok": report.extra_z_ok,
    }


def _section_lines(report) -> list[str]:
    lines = []
    for deg, hom in (("deg0", report.deg0), ("deg1", report.deg1)):
        if hom is None:
            lines.append(f"section {deg}: none")
        else:
            lines.append(f"section {deg}: matrix {hom.matrix.to_json()}")
    lines.append(f"extra Z summand compatible: {report.extra_z_ok}")
    return lines


def _analysis(args) -> PairAnalysis:
    a = _require_invariant(evaluate(args.expr_a), "the first expression")
    b = _require_invariant(evaluate(args.expr_b), "the second expression")
    check_pair(a, b)
    return PairAnalysis(a, b)


def _cmd_classify(args, out) -> int:
    an = _analysis(args)
    a, b = an.a, an.b
    verdict = classify_analysis(an)
    ufp = an.unital_free_product
    k0, k1 = an.tensor_groups
    report = section_exists_analysis(an, args.mode) if args.mode else None
    if args.format == "json":
        payload = {
            "command": "classify",
            "expr_a": args.expr_a,
            "expr_b": args.expr_b,
            "invariant_a": a.to_json(),
            "invariant_b": b.to_json(),
            "verdict": verdict.to_json(),
            "groups": {
                "unital_free_product": ufp.to_json(),
                "tensor": {"k0": k0.to_json(), "k1": k1.to_json()},
            },
            # text output never prints the maps: build them only for
            # JSON, or when the verdict or the sections read them
            "maps": {"pi0": an.pi0.to_json(), "pi1": an.pi1.to_json()},
        }
        if report is not None:
            payload["sections"] = {"mode": args.mode, **_section_payload(report)}
        _emit_json(payload, out)
    else:
        lines = _invariant_lines(f"A = {args.expr_a}", a)
        lines += _invariant_lines(f"B = {args.expr_b}", b)
        lines += [
            f"K(unital free product): K0 = {ufp.k0}, K1 = {ufp.k1}"
            + (" (with extra Z)" if ufp.extra_z else ""),
            f"K(tensor product): K0 = {k0}, K1 = {k1}",
            f"verdict: {verdict.outcome}",
        ]
        if verdict.parameters is not None:
            params = ", ".join(f"{k}={v}" for k, v in verdict.parameters_dict().items())
            lines.append(f"case parameters: {params}")
        if verdict.witness is not None:
            lines.append(f"witness: {verdict.witness.clause}")
            lines.append(f"  {verdict.witness.explanation}")
        if report is not None:
            lines.append(f"sections ({args.mode} mode):")
            lines.extend("  " + s for s in _section_lines(report))
        _emit_text(lines, out)
    return EXIT_OBSTRUCTED if verdict.outcome == OBSTRUCTED else EXIT_OK


def _cmd_section(args, out) -> int:
    an = _analysis(args)
    a, b = an.a, an.b
    report = section_exists_analysis(an, args.mode)
    if args.format == "json":
        _emit_json({
            "command": "section",
            "expr_a": args.expr_a,
            "expr_b": args.expr_b,
            "mode": args.mode,
            "sections": _section_payload(report),
        }, out)
    else:
        _emit_text(
            _invariant_lines(f"A = {args.expr_a}", a)
            + _invariant_lines(f"B = {args.expr_b}", b)
            + [f"mode: {args.mode}"]
            + _section_lines(report),
            out,
        )
    return EXIT_OK if report.all_clear else EXIT_OBSTRUCTED


# ---------------------------------------------------------------------------
# Fixed regression suite


def _ex_c2_rank():
    c2 = evaluate("C^2")
    v = classify(c2, c2)
    ok = v.outcome == OBSTRUCTED and v.witness.clause == obstruct.RANK_INEQUALITY
    return ok, f"verdict {v.outcome}/{v.witness.clause if v.witness else '-'}"


def _ex_mn_same():
    details = []
    ok = True
    for n in (2, 3, 4, 6):
        an = PairAnalysis(evaluate(f"M_{n}"), evaluate(f"M_{n}"))
        v = classify_analysis(an)
        pi0 = an.pi0
        coker = cokernel(pi0)
        good = (
            v.outcome == OBSTRUCTED
            and v.witness.clause == obstruct.PI0_NOT_SURJECTIVE
            and dict(v.witness.detail)["cokernel"] == str(coker)
            and coker == FgAbGroup(0, (n,))
            and abs(pi0.matrix[0, 0]) == n
            and pi0.matrix[0, 1] % n == 0
        )
        ok = ok and good
        details.append(f"n={n}: {v.outcome}, coker={coker}")
    return ok, "; ".join(details)


def _ex_m2_m3():
    an = PairAnalysis(evaluate("M_2"), evaluate("M_3"))
    v = classify_analysis(an)
    s = section_exists_analysis(an, "unital").deg0
    pi0 = an.pi0
    z2 = FgAbGroup(2)
    _, proj = quotient_by(z2, z2.element((2, -3)))
    ok = (
        v.outcome == obstruct.POSSIBLE_CASE_III
        and v.parameters_dict()["u"] == 2
        and v.parameters_dict()["w"] == 3
        and s is not None
        and compose(s, pi0) == GroupHom.identity(pi0.target)
        and s(pi0.target.element((1,))) == proj(z2.element((1, -1)))
    )
    return ok, f"verdict {v.outcome}, section {s.matrix.to_json() if s else None}"


def _ex_m_oinf_unit():
    x = m_oo_unit_divisibility(2, 3)
    none = m_oo_unit_divisibility(2, 4)
    ok = x is not None and none is None
    if ok:
        kp = unital_free_product_k(evaluate("M_2(Oinf)"), evaluate("M_3(Oinf)"))
        ok = (6 * x) == kp.unit
    return ok, f"(2,3) witness {list(x.coords) if x else None}; (2,4) none: {none is None}"


def _ex_ex4():
    w = ex4_no_scaled_section()
    ok = w.clause == obstruct.NO_SECTION_0
    return ok, f"witness {w.clause}"


def _ex_cuntz_gcd():
    ok = True
    bad = []
    for m in range(2, 13):
        for n in range(2, 13):
            v = classify(evaluate(f"O_{m}"), evaluate(f"O_{n}"))
            want = obstruct.POSSIBLE_CASE_II if gcd(m - 1, n - 1) == 1 else OBSTRUCTED
            if v.outcome != want:
                ok = False
                bad.append((m, n))
    return ok, "all pairs 2<=m,n<=12 agree" if ok else f"mismatches: {bad}"


def _ex_torus_k1():
    ct = evaluate("CT")
    v = classify(ct, ct)
    ok = v.outcome == OBSTRUCTED and v.witness.clause == obstruct.K1_TENSOR_NONZERO
    return ok, f"verdict {v.outcome}/{v.witness.clause if v.witness else '-'}"


def _ex_o2_absorb():
    kp = kunneth(evaluate("O_2"), evaluate("O_2"))
    ok = kp.k0.is_trivial and kp.k1.is_trivial and kp.unit.is_zero
    return ok, f"L(O_2 (x) O_2) = ({kp.k0}, {kp.k1}, {list(kp.unit.coords)})"


def _ex_oinf_absorb():
    from .catalog import catalog_entries

    oinf = evaluate("Oinf")
    ok = True
    bad = []
    for name, inv in catalog_entries():
        for left, right in ((oinf, inv), (inv, oinf)):
            kp = kunneth(left, right)
            if not (kp.k0 == inv.k0 and kp.k1 == inv.k1 and kp.unit == inv.unit):
                ok = False
                bad.append(name)
    return ok, "absorption holds across the catalog" if ok else f"failures: {bad}"


_EXAMPLES = (
    ("c2-rank", "two-point algebras: rank count obstructs a splitting", _ex_c2_rank),
    ("mn-same", "equal matrix algebras: degree-0 map is multiplication by n", _ex_mn_same),
    ("m2-m3", "coprime matrix algebras: case III with an explicit section", _ex_m2_m3),
    ("m-oinf-unit", "unit divisibility in the stabilized matrix free product", _ex_m_oinf_unit),
    ("ex4", "two projections: scale constraints admit no section", _ex_ex4),
    ("cuntz-gcd", "Cuntz algebra pairs: the torsion case applies iff the K0 orders are coprime", _ex_cuntz_gcd),
    ("torus-k1", "two circles: nonzero K1 tensor obstructs", _ex_torus_k1),
    ("o2-absorb", "tensor square of the zero-K-theory Cuntz algebra stays trivial", _ex_o2_absorb),
    ("oinf-absorb", "tensoring with (Z, 0, 1) preserves every catalog invariant", _ex_oinf_absorb),
)
_EXAMPLE_IDS = tuple(ident for ident, _, _ in _EXAMPLES)


def _cmd_paper_examples(args, out) -> int:
    selected = _EXAMPLES if args.only is None else [e for e in _EXAMPLES if e[0] == args.only]
    results = []
    for ident, description, runner in selected:
        passed, detail = runner()
        results.append(
            {"id": ident, "description": description, "passed": passed, "detail": detail}
        )
    passed = all(r["passed"] for r in results)
    if args.format == "json":
        _emit_json({"command": "paper-examples", "passed": passed, "results": results}, out)
    else:
        lines = [
            f"{'PASS' if r['passed'] else 'FAIL'} {r['id']:<14} {r['description']}"
            for r in results
        ]
        lines.append(f"{sum(r['passed'] for r in results)}/{len(results)} examples passed")
        _emit_text(lines, out)
    return EXIT_OK if passed else EXIT_OBSTRUCTED


# The command grammar, declared once and read by both readers of a
# command line, ``_read`` and the parser of ``_build_parser``.  Each
# command has its help, its positionals, its options by dest, each
# ``--dest`` taking one value (the values it accepts, its default and
# its help), and its function.
_FORMAT = (("text", "json"), "text", "output format")
_MODES = ("unital", "full")
_COMMANDS = {
    "kgroups": ("K-groups of an algebra expression", ("expr",), {"format": _FORMAT}, _cmd_kgroups),
    "classify": (
        "classify a pair of algebras", ("expr_a", "expr_b"),
        {"mode": (_MODES, None, "additionally solve for sections of the induced maps"), "format": _FORMAT},
        _cmd_classify,
    ),
    "section": (
        "solve for sections of the induced maps", ("expr_a", "expr_b"),
        {"mode": (_MODES, "unital", None), "format": _FORMAT},
        _cmd_section,
    ),
    "paper-examples": (
        "run the fixed regression suite", (),
        {"only": (_EXAMPLE_IDS, None, "run a single example by id"), "format": _FORMAT},
        _cmd_paper_examples,
    ),
}


def _build_parser():
    """The argparse parser of ``_COMMANDS``, built (and argparse loaded)
    only for a command line that ``_read`` leaves to it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="kobstruct",
        description=(
            "Exact K-theory of tensor and free products of unital algebras, "
            "and the splitting classifier for the quotient between them."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, positionals, options, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest in positionals:
            p.add_argument(dest)
        for dest, (choices, default, help_text) in options.items():
            p.add_argument("--" + dest, choices=choices, default=default, help=help_text)
        p.set_defaults(func=func)
    return parser


def _read(command, tokens):
    """The arguments ``tokens`` give ``command`` (an entry of
    ``_COMMANDS``), read off its declaration into a ``SimpleNamespace``,
    or None for a command line this reader leaves to argparse.

    A token is a positional unless it is exactly one of the command's
    option names, which takes the next token as its value; the last of
    a repeated option wins, and options may stand between positionals.
    Any other token that starts with ``-`` (``-h``, ``--``, ``--mode=full``,
    an abbreviation, ``-1``), an option with no value or with one not
    among the values it accepts, and a missing or extra positional all
    give None: argparse then prints the help or the usage error, or
    reads what it accepts."""
    _, positionals, options, func = command
    values = {dest: option[1] for dest, option in options.items()}
    free = []
    tokens = iter(tokens)
    for token in tokens:
        if token[:1] != "-":
            free.append(token)
            continue
        option = options.get(token[2:]) if token[:2] == "--" else None
        value = next(tokens, None)
        if option is None or value not in option[0]:
            return None
        values[token[2:]] = value
    if len(free) != len(positionals):
        return None
    values.update(zip(positionals, free))
    values["func"] = func
    return SimpleNamespace(**values)


def main(argv=None, out=None, err=None) -> int:
    """Run one command line and return its exit code.  Both readers
    read the one declaration ``_COMMANDS``: a well-formed command line
    is read straight off it (``_read``); anything else goes to one
    ``parse_args`` of the argparse parser built from it, which prints
    help and usage errors unchanged, and only then are the streams
    redirected.  An argument that is not a str is a usage error."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    for token in argv:
        if not isinstance(token, str):
            err.write(f"error: command-line arguments must be str, not {type(token).__name__}\n")
            return EXIT_ERROR
    command = _COMMANDS.get(argv[0]) if argv else None
    args = _read(command, argv[1:]) if command is not None else None
    code = None
    try:
        if args is None:
            try:
                # argparse writes --help to sys.stdout and usage errors to
                # sys.stderr; send them to this call's streams
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    args = _build_parser().parse_args(argv)
            except SystemExit as exc:
                code = EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
        if code is None:
            code = args.func(args, out)
        if out is sys.stdout:
            # a reader that has gone shows here, not in the flush at exit;
            # this covers argparse's help as well as a command's output
            out.flush()
        return code
    except BrokenPipeError:
        # the reader of the output has gone (``| head``): no fault of the
        # program.  As the Python documentation's recipe for SIGPIPE has
        # it, stdout is pointed at devnull, so the flush at exit meets no
        # closed pipe and prints nothing.
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except NonFinitelyGeneratedError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_NOT_FG
    except (ParseError, SizeLimitError, UnsupportedNestingError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Exception as exc:
        # anything else is a fault of the program, whatever the input
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
