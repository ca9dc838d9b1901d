"""Tests for the builtin table and the expression language."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kobstruct import FgAbGroup, KInvariant, KPair
from kobstruct.catalog import (
    Atom,
    FreeProd,
    Literal,
    MAX_POWER,
    NonFinitelyGeneratedError,
    ParseError,
    Tensor,
    UnitalFreeProd,
    UnsupportedNestingError,
    builtin,
    catalog_entries,
    evaluate,
    parse,
    print_expr,
)

Z = FgAbGroup(1)


# ---------------------------------------------------------------------------
# builtin table


def test_builtin_cuntz():
    inv = builtin("O", 3)
    assert inv.k0 == FgAbGroup(0, (2,)) and inv.k1.is_trivial
    assert inv.unit.coords == (1,)


def test_builtin_o2_is_literally_trivial():
    inv = builtin("O", 2)
    assert inv.k0 == FgAbGroup() and inv.k1 == FgAbGroup()
    assert inv.unit.coords == ()


def test_builtin_matrix_series():
    assert builtin("M", 6).unit.coords == (6,)
    assert builtin("MOinf", 4).unit.coords == (4,)
    assert builtin("M", 1) == builtin("C")


def test_builtin_diagonals_and_circle():
    c2 = builtin("Cpow", 2)
    assert c2.k0 == FgAbGroup(2) and c2.unit.coords == (1, 1)
    ct = builtin("CT")
    assert ct.k1 == Z
    c01 = builtin("C01")
    assert c01.k0 == Z and c01.k1.is_trivial and c01.unit.coords == (1,)


def test_builtin_rejects_car():
    with pytest.raises(NonFinitelyGeneratedError):
        builtin("CAR")
    with pytest.raises(NonFinitelyGeneratedError):
        evaluate("CAR")


def test_builtin_range_checks():
    with pytest.raises(ValueError):
        builtin("O", 1)
    with pytest.raises(ValueError):
        builtin("M", 0)
    with pytest.raises(ValueError):
        builtin("Cpow", 0)


# ---------------------------------------------------------------------------
# parsing


def test_parse_tensor():
    assert parse("O_2 (x) M_3") == Tensor(Atom("O", 2), Atom("M", 3))
    assert parse("O2(x)M3") == Tensor(Atom("O", 2), Atom("M", 3))


def test_parse_unital_free():
    assert parse("C^2 (*C) C^2") == UnitalFreeProd(Atom("Cpow", 2), Atom("Cpow", 2))
    assert parse("C^2 (*) C^2") == FreeProd(Atom("Cpow", 2), Atom("Cpow", 2))


def test_parse_atom_aliases():
    assert parse("Oinf") == Atom("Oinf")
    assert parse("O_inf") == Atom("Oinf")
    assert parse("C(T)") == Atom("CT")
    assert parse("CT") == Atom("CT")
    assert parse("C([0,1])") == Atom("C01")
    assert parse("C01") == Atom("C01")
    assert parse("M_2(Oinf)") == Atom("MOinf", 2)
    assert parse("M2(Oinf)") == Atom("MOinf", 2)


def test_parse_literal():
    text = '{"k0":{"rank":1,"torsion":[3]},"k1":{"rank":0,"torsion":[]},"unit":[1,0]}'
    node = parse(text)
    assert isinstance(node, Literal)
    assert node.invariant.k0 == FgAbGroup(1, (3,))
    assert node.invariant.unit.coords == (1, 0)


def test_literal_ends_where_its_json_ends():
    # a brace inside a string value belongs to the literal
    text = '{"k0": {"rank": 1, "note": "}{"}, "k1": {"rank": 0}, "unit": [2]} (x) M_3'
    node = parse(text)
    assert isinstance(node, Tensor) and node.right == Atom("M", 3)
    assert node.left.invariant.unit.coords == (2,)
    assert evaluate(text).unit.coords == (6,)


def test_parse_precedence_and_parens():
    node = parse("O_2 (x) O_3 (*C) M_2")
    assert node == UnitalFreeProd(Tensor(Atom("O", 2), Atom("O", 3)), Atom("M", 2))
    node = parse("O_2 (x) (O_3 (x) O_4)")
    assert node == Tensor(Atom("O", 2), Tensor(Atom("O", 3), Atom("O", 4)))
    node = parse("(O_2 (*) O_3)")
    assert node == FreeProd(Atom("O", 2), Atom("O", 3))


def test_parse_left_associativity():
    node = parse("M_2 (x) M_3 (x) M_5")
    assert node == Tensor(Tensor(Atom("M", 2), Atom("M", 3)), Atom("M", 5))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse("O_2 (x)")
    assert exc.value.position == 7
    with pytest.raises(ParseError):
        parse("Q_17")
    with pytest.raises(ParseError):
        parse("O_1")
    with pytest.raises(ParseError):
        parse("O_2 M_3")
    with pytest.raises(ParseError):
        parse("(O_2 (x) M_3")
    with pytest.raises(ParseError):
        parse('{"k0": {"rank": 1')


# Errors of the expression front end, recorded before the atom and
# operator tables replaced the lexer's, parser's and builtin's per-kind
# code: the exception type and the exact message, position included.
_WRONG_UNIT = '{"k0": {"rank": 1, "torsion": [3]}, "k1": {"rank": 0, "torsion": []}, "unit": [1]}'
_CAR = (
    "the CAR algebra has K0 = Z[1/2], which is not finitely generated; "
    "only finitely generated K-theory is supported"
)
_NESTED_FREE = "free products may appear only at the top level of an expression"


def _literal(k0='{"rank": 1}', k1='{"rank": 0}', unit="[1]", extra=""):
    return f'{{"k0": {k0}, "k1": {k1}, "unit": {unit}{extra}}}'


# nested far past the JSON decoder's recursion limit
_DEEP = "[" * 100_000 + "]" * 100_000
# a literal with as many generators as accepted, and one more
_AT_LIMIT = _literal(k1=f'{{"rank": {MAX_POWER - 2}, "torsion": [1, 2, 6]}}')
_OVER_LIMIT = _literal(k0=f'{{"rank": {MAX_POWER + 1}}}', unit=str([1] * (MAX_POWER + 1)))

FRONT_END_ERRORS = [
    ("O_1", ParseError, "Cuntz index must be >= 2 (at position 0)"),
    ("O_0", ParseError, "Cuntz index must be >= 2 (at position 0)"),
    ("M_0", ParseError, "matrix size must be >= 1 (at position 0)"),
    ("M_0(Oinf)", ParseError, "matrix size must be >= 1 (at position 0)"),
    ("C^0", ParseError, "power of C must be >= 1 (at position 0)"),
    ("Ofoo", ParseError, "unknown algebra name 'Ofoo' (at position 0)"),
    ("Cfoo", ParseError, "unknown algebra name 'Cfoo' (at position 0)"),
    ("CT2", ParseError, "unknown algebra name 'CT2' (at position 0)"),
    ("O_inf2", ParseError, "unknown algebra name 'O_inf2' (at position 0)"),
    ("O_inf_2", ParseError, "unknown algebra name 'O_inf_2' (at position 0)"),
    ("CAR2", ParseError, "unknown algebra name 'CAR2' (at position 0)"),
    ("O_", ParseError, "unknown algebra name 'O_' (at position 0)"),
    ("C^", ParseError, "unknown algebra name 'C^' (at position 0)"),
    ("C^x", ParseError, "unknown algebra name 'C^x' (at position 0)"),
    ("M(Oinf)", ParseError, "unknown algebra name 'M' (at position 0)"),
    ("Q_17", ParseError, "unknown algebra name 'Q_17' (at position 0)"),
    # an index is ASCII digits only
    ("O_\u0663", ParseError, "unknown algebra name 'O_' (at position 0)"),
    ("M_\u0663(Oinf)", ParseError, "unknown algebra name 'M_' (at position 0)"),
    ("C([0,1]", ParseError, "unexpected character '[' (at position 2)"),
    ("C([1,0])", ParseError, "unexpected character '[' (at position 2)"),
    ("C (T", ParseError, "unknown algebra name 'T' (at position 3)"),
    ("C\u00a0(T", ParseError, "unknown algebra name 'T' (at position 3)"),
    ("M_2 (Oinf", ParseError, "trailing input after expression (at position 4)"),
    ("M_2(Oinf)abc", ParseError, "unknown algebra name 'abc' (at position 9)"),
    ("M_2(Oinf)(Oinf)", ParseError, "trailing input after expression (at position 9)"),
    ("C(T)x", ParseError, "unknown algebra name 'x' (at position 4)"),
    ("C([0 ,1 ] )x", ParseError, "unknown algebra name 'x' (at position 11)"),
    ("CT(T)", ParseError, "unknown algebra name 'T' (at position 3)"),
    ("C01 (T)", ParseError, "unknown algebra name 'T' (at position 5)"),
    ("C^2(T)", ParseError, "unknown algebra name 'T' (at position 4)"),
    ("Oinf(Oinf)", ParseError, "trailing input after expression (at position 4)"),
    ("O_2 (x) (*) M_2", ParseError, "expected an algebra expression (at position 8)"),
    ("C (x)(x) C", ParseError, "expected an algebra expression (at position 5)"),
    ("O_2 (x ) (* C) C", ParseError, "expected an algebra expression (at position 9)"),
    ("O_2 (* C", ParseError, "unexpected character '*' (at position 5)"),
    ("(\u00a0x) C", ParseError, "expected an algebra expression (at position 0)"),
    ("O_2 (\u00a0x\u00a0) \u00a0", ParseError, "unexpected end of expression (at position 11)"),
    ("(", ParseError, "unexpected end of expression (at position 1)"),
    (")", ParseError, "expected an algebra expression (at position 0)"),
    ("C)", ParseError, "trailing input after expression (at position 1)"),
    ("(C (x) M_2", ParseError, "unexpected end of expression (at position 10)"),
    ("O_2 (x) M_3 (", ParseError, "trailing input after expression (at position 12)"),
    ("", ParseError, "unexpected end of expression (at position 0)"),
    ("   ", ParseError, "unexpected end of expression (at position 3)"),
    ("O_2 (x)", ParseError, "unexpected end of expression (at position 7)"),
    ("O_2 M_3", ParseError, "trailing input after expression (at position 4)"),
    ("O_2 # M_3", ParseError, "unexpected character '#' (at position 4)"),
    ("M_" + "1" * 1001, ParseError, "index has 1001 digits, more than the 1000 accepted (at position 0)"),
    ("M_" + "1" * 1001 + "(Oinf)", ParseError, "index has 1001 digits, more than the 1000 accepted (at position 0)"),
    ("(" * 101 + "C" + ")" * 101, ParseError, "parentheses nest deeper than 100 levels (at position 100)"),
    ("{}", ParseError, "bad literal invariant: missing field k0 (at position 0)"),
    ('{"k0": {"rank": 1}}', ParseError, "bad literal invariant: missing field k1 (at position 0)"),
    (_literal(k0="[]"), ParseError, "bad literal invariant: k0 must be an object, not list (at position 0)"),
    (
        "{{}",
        ParseError,
        "bad literal invariant: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1) (at position 0)",
    ),
    (
        _literal(unit=_DEEP),
        ParseError,
        "bad literal invariant: maximum recursion depth exceeded while decoding "
        "a JSON array from a unicode string (at position 0)",
    ),
    (_literal(k0='{"rank": 1e400}'), ParseError, "bad literal invariant: rank must be an integer, not float (at position 0)"),
    (_literal(unit="[Infinity]"), ParseError, "bad literal invariant: unit entry must be an integer, not float (at position 0)"),
    (_literal(k0='{"rank": 1.5}'), ParseError, "bad literal invariant: rank must be an integer, not float (at position 0)"),
    (
        _literal(k1='{"rank": 0, "torsion": [2.7]}'),
        ParseError,
        "bad literal invariant: torsion entry must be an integer, not float (at position 0)",
    ),
    (_literal(unit="[true]"), ParseError, "bad literal invariant: unit entry must be an integer, not bool (at position 0)"),
    (_literal(k0='{"rank": "1"}'), ParseError, "bad literal invariant: rank must be an integer, not str (at position 0)"),
    (_literal(unit="1"), ParseError, "bad literal invariant: unit must be an array, not int (at position 0)"),
    (_literal(k0='{"rank": true}'), ParseError, "bad literal invariant: rank must be an integer, not bool (at position 0)"),
    (
        _literal(k1='{"rank": 0, "torsion": 6}'),
        ParseError,
        "bad literal invariant: torsion must be an array, not int (at position 0)",
    ),
    (
        _literal(extra=', "finitely_generated": 0'),
        ParseError,
        "bad literal invariant: finitely_generated must be a boolean, not int (at position 0)",
    ),
    (
        "M_2 (x) " + _literal(k0='{"rank": [[[]]]}'),
        ParseError,
        "bad literal invariant: rank must be an integer, not list (at position 8)",
    ),
    (_WRONG_UNIT, ParseError, "bad literal invariant: expected 2 coordinates, got 1 (at position 0)"),
    # the lexer accepts the literal at the limit, so the parser sees the ")"
    (_AT_LIMIT + ")", ParseError, f"trailing input after expression (at position {len(_AT_LIMIT)})"),
    (
        "M_2 (x) " + _OVER_LIMIT,
        ParseError,
        f"bad literal invariant: K0 has {MAX_POWER + 1} generators, more than the {MAX_POWER} accepted (at position 8)",
    ),
    ("CAR", NonFinitelyGeneratedError, _CAR),
    ("O_2 (x) CAR", NonFinitelyGeneratedError, _CAR),
    ("(O_2 (*) O_2) (x) O_3", UnsupportedNestingError, _NESTED_FREE),
    ("O_2 (*) O_2 (*C) O_3", UnsupportedNestingError, _NESTED_FREE),
]


@pytest.mark.parametrize(
    "text, error, message",
    FRONT_END_ERRORS,
    ids=[ascii(t) if len(t) <= 24 else f"{ascii(t[:12])}...{len(t)}" for t, _, _ in FRONT_END_ERRORS],
)
def test_front_end_errors_pinned(text, error, message):
    with pytest.raises(ValueError) as exc:
        evaluate(text)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "kind, param, error, message",
    [
        ("O", 1, ValueError, "Cuntz index must be an integer >= 2"),
        ("O", None, ValueError, "Cuntz index must be an integer >= 2"),
        ("M", 0, ValueError, "matrix size must be an integer >= 1"),
        ("MOinf", 0, ValueError, "matrix size must be an integer >= 1"),
        ("Cpow", 0, ValueError, "power of C must be an integer >= 1"),
        ("Cpow", None, ValueError, "power of C must be an integer >= 1"),
        ("X", None, ValueError, "unknown atom kind 'X'"),
        ("CAR", None, NonFinitelyGeneratedError, _CAR),
    ],
)
def test_builtin_errors_pinned(kind, param, error, message):
    with pytest.raises(ValueError) as exc:
        builtin(kind, param)
    assert type(exc.value) is error and str(exc.value) == message


def test_power_of_c_is_bounded():
    assert builtin("Cpow", MAX_POWER).k0 == FgAbGroup(MAX_POWER)
    with pytest.raises(ValueError, match=f"power of C must be an integer <= {MAX_POWER}"):
        builtin("Cpow", MAX_POWER + 1)
    assert parse(f"C^{MAX_POWER}") == Atom("Cpow", MAX_POWER)
    for text, position in ((f"C^{MAX_POWER + 1}", 0), ("M_2 (x) C^" + "1" * 30, 8)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"power of C must be <= {MAX_POWER} (at position {position})"


def _random_tree(rng, depth, allow_free):
    atoms = [
        Atom("O", rng.randint(2, 9)),
        Atom("M", rng.randint(1, 9)),
        Atom("MOinf", rng.randint(1, 5)),
        Atom("Oinf"),
        Atom("C"),
        Atom("Cpow", rng.randint(1, 4)),
        Atom("CT"),
        Atom("C01"),
    ]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    left = _random_tree(rng, depth - 1, False)
    right = _random_tree(rng, depth - 1, False)
    kinds = [Tensor, FreeProd, UnitalFreeProd] if allow_free else [Tensor]
    return rng.choice(kinds)(left, right)


def test_print_parse_round_trip():
    rng = random.Random(99)
    for _ in range(120):
        tree = _random_tree(rng, rng.randint(0, 4), allow_free=True)
        assert parse(print_expr(tree)) == tree


def test_print_parse_round_trip_with_literal():
    lit = Literal(builtin("O", 5))
    tree = Tensor(lit, Atom("M", 2))
    assert parse(print_expr(tree)) == tree


leaves = st.one_of(
    st.builds(Atom, st.just("O"), st.integers(2, 10**12)),
    st.builds(Atom, st.sampled_from(["M", "MOinf", "Cpow"]), st.integers(1, 99)),
    st.builds(Atom, st.sampled_from(["Oinf", "C", "CT", "C01", "CAR"])),
    st.just(Literal(builtin("O", 5))),
)
trees = st.recursive(
    leaves,
    lambda sub: st.tuples(st.sampled_from([Tensor, FreeProd, UnitalFreeProd]), sub, sub).map(
        lambda t: t[0](t[1], t[2])
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_print_parse_round_trip_property(tree):
    # operators of every precedence, nested anywhere: parse does not
    # evaluate, so free products below a tensor are fine here
    assert parse(print_expr(tree)) == tree


def _left_spine(tree):
    """A left-deep tree as its innermost left leaf and the (operator,
    right operand) pairs above it, read without recursion."""
    steps = []
    while not isinstance(tree, (Atom, Literal)):
        steps.append((type(tree), tree.right))
        tree = tree.left
    return tree, steps[::-1]


def test_print_parse_round_trip_long_chain():
    # 3000 factors: printing must not recurse, and a flat chain must not
    # print as 2998 nested parentheses, which parse refuses
    for op in (" (x) ", " (*) ", " (*C) "):
        text = op.join(["C", "M_2", "O_3"] * 1000)
        tree = parse(text)
        assert print_expr(tree) == text
        assert _left_spine(parse(print_expr(tree))) == _left_spine(tree)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_tensor_of_matrices():
    inv = evaluate("M_2 (x) M_3")
    assert isinstance(inv, KInvariant)
    assert inv.k0 == Z and inv.k1.is_trivial
    assert inv.unit.coords == (6,)


def test_eval_absorption():
    inv = evaluate("Oinf (x) O_4")
    assert inv == evaluate("O_4")


def test_eval_unital_free_product_root():
    kp = evaluate("O_2 (*C) O_2")
    assert isinstance(kp, KPair)
    assert kp.k0.is_trivial and kp.k1 == Z and kp.extra_z


def test_eval_nested_tensor():
    inv = evaluate("(M_2 (x) M_3) (x) M_5")
    assert inv.unit.coords == (30,)


def test_eval_rejects_nested_free_products():
    with pytest.raises(UnsupportedNestingError):
        evaluate("(O_2 (*) O_2) (x) O_3")
    with pytest.raises(UnsupportedNestingError):
        evaluate("O_2 (*) O_2 (*) O_2")
    with pytest.raises(UnsupportedNestingError):
        evaluate("(O_2 (*C) O_2) (*) O_3")


def test_eval_literal_round_trip():
    text = '{"k0":{"rank":1,"torsion":[3]},"k1":{"rank":0,"torsion":[]},"unit":[2,1]}'
    inv = evaluate(text)
    assert inv.k0 == FgAbGroup(1, (3,)) and inv.unit.coords == (2, 1)


def test_eval_tensor_symmetry_and_associativity():
    rng = random.Random(5)
    names = ["O_3", "O_5", "M_2", "M_3", "CT", "C^2", "Oinf"]
    for _ in range(20):
        a, b, c = (rng.choice(names) for _ in range(3))
        ab = evaluate(f"{a} (x) {b}")
        ba = evaluate(f"{b} (x) {a}")
        assert (ab.k0, ab.k1) == (ba.k0, ba.k1)
        left = evaluate(f"({a} (x) {b}) (x) {c}")
        right = evaluate(f"{a} (x) ({b} (x) {c})")
        assert (left.k0, left.k1) == (right.k0, right.k1)


def test_catalog_entries_shape():
    entries = catalog_entries()
    assert len(entries) == 20
    names = [n for n, _ in entries]
    assert "O_2" in names and "Oinf" in names and "CT" in names
    for _, inv in entries:
        assert isinstance(inv, KInvariant)
