"""Builtin invariants and the textual algebra-expression language.

Atoms, in the order the lexer tries them; each spells a whole name:
    O_inf or Oinf        infinite Cuntz algebra   (Z, 0, 1)
    O_n, n >= 2          Cuntz algebras           (Z/(n-1), 0, 1)
    M_n(Oinf), n >= 1    stabilized matrix units  (Z, 0, n)
    M_n, n >= 1          matrix algebras          (Z, 0, n)
    C(T) or CT           circle functions         (Z, Z, 1)
    C([0,1]) or C01      interval functions       (Z, 0, 1)
    C^k, 1 <= k <= 100   k-point diagonals        (Z^k, 0, (1, ..., 1))
    C                    the scalars              (Z, 0, 1)
    CAR                  rejected: its K0 = Z[1/2] is not finitely generated
    {...}                a literal JSON triple {"k0": ..., "k1": ..., "unit": [...]}

Operators, tightest first, all left-associative, parentheses allowed:
    (x)    tensor product        (may nest; evaluates to a new triple)
    (*)    free product          (root only; evaluates to a K-pair)
    (*C)   unital free product   (root only; evaluates to a K-pair)

The underscore in atom names is optional ("O2" parses like "O_2") and
whitespace is ignored between tokens.  The two lists are the tables
``_ATOMS`` and ``_OPERATORS``; the lexer, the parser, :func:`builtin`
and :func:`print_expr` all read them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .fgab import FgAbGroup
from .kinv import (
    KInvariant,
    free_product_k,
    kunneth_invariant,
    unital_free_product_k,
)

__all__ = [
    "ParseError",
    "NonFinitelyGeneratedError",
    "UnsupportedNestingError",
    "Atom",
    "Tensor",
    "FreeProd",
    "UnitalFreeProd",
    "Literal",
    "builtin",
    "parse",
    "print_expr",
    "eval_expr",
    "evaluate",
    "catalog_entries",
]


class ParseError(ValueError):
    """Syntax or range error in an algebra expression; carries a position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonFinitelyGeneratedError(ValueError):
    """The requested algebra does not have finitely generated K-theory."""


class UnsupportedNestingError(ValueError):
    """A free product appeared below another operator."""


@dataclass(frozen=True)
class Atom:
    kind: str  # the kind of a row of the atom table _ATOMS below
    param: int | None = None


@dataclass(frozen=True)
class Tensor:
    left: object
    right: object


@dataclass(frozen=True)
class FreeProd:
    left: object
    right: object


@dataclass(frozen=True)
class UnitalFreeProd:
    left: object
    right: object


@dataclass(frozen=True)
class Literal:
    invariant: KInvariant


_Z = FgAbGroup(1)
_TRIVIAL = FgAbGroup()

# Deepest parenthesis nesting the parser accepts: each level costs the
# recursive-descent parser three stack frames, so this keeps far below
# Python's recursion limit.
MAX_NESTING = 100
# Longest decimal index (O_n, M_n, C^k) accepted; Python refuses to
# convert strings beyond 4300 digits, and no algebra here needs more.
MAX_INDEX_DIGITS = 1000
# Largest k in C^k (its K0 is Z^k, and a product of two such atoms has
# k^2 generators), and the most generators a literal's K0 or K1 may have.
MAX_POWER = 100


def _ones(k0, k1=_TRIVIAL):
    """The triple whose unit class is the sum of the generators of k0."""
    return KInvariant(k0, k1, k0.element([1] * k0.ngens))


def _matrix(n):
    return KInvariant(_Z, _TRIVIAL, _Z.element((n,)))


def _car(_):
    raise NonFinitelyGeneratedError(
        "the CAR algebra has K0 = Z[1/2], which is not finitely "
        "generated; only finitely generated K-theory is supported"
    )


class _AtomRow(NamedTuple):
    kind: str
    written: re.Pattern  # the whole name, with any suffix that belongs to it
    printed: str  # str.format template of the index
    least: int | None  # least index, None for an atom without one
    most: int | None  # largest index, None where there is no limit
    noun: str | None  # what the index counts, for the range messages
    invariant: Callable[[int | None], KInvariant]


# The atoms in the order the lexer tries them: a form with a suffix
# before the bare name it starts with.  The index is group 1.
_ATOMS = tuple(
    _AtomRow(kind, re.compile(written), printed, least, most, noun, invariant)
    for kind, written, printed, least, most, noun, invariant in (
        ("Oinf", r"O_?inf", "Oinf", None, None, None, lambda _: _ones(_Z)),
        ("O", r"O_?([0-9]+)", "O_{}", 2, None, "Cuntz index", lambda n: _ones(FgAbGroup(0, (n - 1,)))),
        ("MOinf", r"M_?([0-9]+)\s*\(\s*O_?inf\s*\)", "M_{}(Oinf)", 1, None, "matrix size", _matrix),
        ("M", r"M_?([0-9]+)", "M_{}", 1, None, "matrix size", _matrix),
        ("CT", r"C(?:T|\s*\(\s*T\s*\))", "CT", None, None, None, lambda _: _ones(_Z, _Z)),
        ("C01", r"C(?:01|\s*\(\s*\[\s*0\s*,\s*1\s*\]\s*\))", "C01", None, None, None, lambda _: _ones(_Z)),
        ("Cpow", r"C\^([0-9]+)", "C^{}", 1, MAX_POWER, "power of C", lambda n: _ones(FgAbGroup(n))),
        ("C", r"C", "C", None, None, None, lambda _: _ones(_Z)),
        ("CAR", r"CAR", "CAR", None, None, None, _car),
    )
)
_ATOM_OF_KIND = {row.kind: row for row in _ATOMS}


class _Operator(NamedTuple):
    written: str
    node: type
    strength: int  # binding strength: higher binds tighter


_OPERATORS = (
    _Operator("(x)", Tensor, 2),
    _Operator("(*C)", UnitalFreeProd, 1),
    _Operator("(*)", FreeProd, 1),
)
_OPERATOR_OF_NODE = {op.node: op for op in _OPERATORS}
_LEAF = 1 + max(op.strength for op in _OPERATORS)  # binds tighter than any operator
# Whitespace may separate the characters of an operator.  One group per
# row, in table order.
_OPERATOR_TOKEN = re.compile(
    "|".join("(" + r"\s*".join(map(re.escape, op.written)) + ")" for op in _OPERATORS)
)


def builtin(kind: str, param: int | None = None) -> KInvariant:
    """The invariant table for the named algebra.

    >>> builtin("O", 3)
    KInvariant(k0=FgAbGroup(0, (2,)), k1=FgAbGroup(0, ()), unit=GroupElement(FgAbGroup(0, (2,)), (1,)), finitely_generated=True)
    >>> builtin("O", 2).k0
    FgAbGroup(0, ())
    """
    row = _ATOM_OF_KIND.get(kind)
    if row is None:
        raise ValueError(f"unknown atom kind {kind!r}")
    if row.least is not None and (param is None or param < row.least):
        raise ValueError(f"{row.noun} must be an integer >= {row.least}")
    if row.most is not None and param > row.most:
        raise ValueError(f"{row.noun} must be an integer <= {row.most}")
    return row.invariant(param)


# ---------------------------------------------------------------------------
# Lexer

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_^]*")
_JSON = json.JSONDecoder()


def _tokenize(text: str):
    """Tokens: ("op", _Operator), ("lparen",), ("rparen",), ("atom", Atom),
    ("literal", KInvariant), each tagged with its source position."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            m = _OPERATOR_TOKEN.match(text, i)
            if m:
                tokens.append(("op", _OPERATORS[m.lastindex - 1], i))
                i = m.end()
            else:
                tokens.append(("lparen", None, i))
                i += 1
            continue
        if ch == ")":
            tokens.append(("rparen", None, i))
            i += 1
            continue
        if ch == "{":
            try:
                obj, j = _JSON.raw_decode(text, i)
                inv = KInvariant.from_json(obj)
                for name, group in (("K0", inv.k0), ("K1", inv.k1)):
                    if group.ngens > MAX_POWER:
                        raise ValueError(f"{name} has {group.ngens} generators, more than the {MAX_POWER} accepted")
            except (ValueError, RecursionError) as exc:
                # RecursionError: an array or object nested too deep to decode
                raise ParseError(f"bad literal invariant: {exc}", i) from None
            tokens.append(("literal", inv, i))
            i = j
            continue
        atom, j = _lex_atom(text, i)
        tokens.append(("atom", atom, i))
        i = j
    return tokens


def _lex_atom(text: str, pos: int):
    """The atom at ``pos`` and the position after it: the first row of
    ``_ATOMS`` that spells the whole name there, with its suffix if the
    row has one (M_n(Oinf), C(T), C([0,1]))."""
    name = _NAME.match(text, pos)
    if not name:
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    for row in _ATOMS:
        m = row.written.match(text, pos)
        # a match that ends inside the name spells only part of it ("CT2")
        if m is None or m.end() < name.end():
            continue
        param = None
        if row.least is not None:
            digits = m.group(1)
            if len(digits) > MAX_INDEX_DIGITS:
                raise ParseError(
                    f"index has {len(digits)} digits, more than the {MAX_INDEX_DIGITS} accepted",
                    pos,
                )
            param = int(digits)
            if param < row.least:
                raise ParseError(f"{row.noun} must be >= {row.least}", pos)
            if row.most is not None and param > row.most:
                raise ParseError(f"{row.noun} must be <= {row.most}", pos)
        return Atom(row.kind, param), m.end()
    raise ParseError(f"unknown algebra name {name.group(0)!r}", pos)


# ---------------------------------------------------------------------------
# Parser: one left-associative chain per binding strength of _OPERATORS,
# each with operands of the next strength; factors bind tightest.

class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.pos += 1
        return tok

    def parse_expr(self, strength=1):
        """A left-associative chain of the operators of ``strength``."""
        op = node = None
        while True:
            rhs = self.parse_factor() if strength + 1 == _LEAF else self.parse_expr(strength + 1)
            node = rhs if op is None else op.node(node, rhs)
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1].strength != strength:
                return node
            op = self.next()[1]

    def parse_factor(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "lparen":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", pos
                )
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            closing = self.next()
            if closing[0] != "rparen":
                raise ParseError("expected ')'", closing[2])
            return node
        if kind == "atom":
            return value
        if kind == "literal":
            return Literal(value)
        raise ParseError("expected an algebra expression", pos)


def parse(text: str):
    """Parse an algebra expression into its syntax tree.

    >>> parse("O_2 (x) M_3")
    Tensor(left=Atom(kind='O', param=2), right=Atom(kind='M', param=3))
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, text)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError("trailing input after expression", trailing[2])
    return node


def _print_leaf(expr) -> str:
    if isinstance(expr, Literal):
        return json.dumps(expr.invariant.to_json(), sort_keys=True, separators=(",", ":"))
    return _ATOM_OF_KIND[expr.kind].printed.format(expr.param)


def _binding(expr) -> int:
    op = _OPERATOR_OF_NODE.get(type(expr))
    return _LEAF if op is None else op.strength


def print_expr(expr) -> str:
    """Deterministic textual form; parse(print_expr(t)) == t.

    Operands are parenthesized only where the parser needs it: a left
    operand that binds more loosely than its operator, a right operand
    that does not bind tighter.  So a left-deep chain of one precedence
    level, which is how the parser reads ``A (x) B (x) C``, prints flat.
    Works with an explicit stack, so chains of any length print.
    """
    parts = []
    todo = [expr]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
        elif type(item) in _OPERATOR_OF_NODE:
            op = _OPERATOR_OF_NODE[type(item)]
            left, right = [item.left], [item.right]
            if _binding(item.left) < op.strength:
                left = ["(", item.left, ")"]
            if _binding(item.right) <= op.strength:
                right = ["(", item.right, ")"]
            todo.extend(reversed(left + [f" {op.written} "] + right))
        else:
            parts.append(_print_leaf(item))
    return "".join(parts)


def eval_expr(expr, root: bool = True):
    """Evaluate a syntax tree to a KInvariant, or a KPair for a
    root-level free product.

    Free products may appear only at the root: their K-theory is a
    K-pair, not an invariant triple of an algebra that could be fed
    back into the tensor formula.  A literal flagged as not finitely
    generated may stand alone, for the decision layer to refuse, but is
    refused as an operand, since the formulas would drop the flag.

    >>> eval_expr(parse("M_2 (x) M_3")).unit.coords
    (6,)
    """
    if isinstance(expr, Atom):
        return builtin(expr.kind, expr.param)
    if isinstance(expr, Literal):
        if not (root or expr.invariant.finitely_generated):
            raise NonFinitelyGeneratedError(
                'a literal flagged "finitely_generated": false cannot be an operand; '
                "the K-theory formulas only cover finitely generated inputs"
            )
        return expr.invariant
    if isinstance(expr, Tensor):
        # A chain A (x) B (x) C ... parses left-deep; walk its spine
        # with a stack instead of one recursion per factor.
        rights = []
        while isinstance(expr, Tensor):
            rights.append(expr.right)
            expr = expr.left
        value = eval_expr(expr, root=False)
        for right in reversed(rights):
            value = kunneth_invariant(value, eval_expr(right, root=False))
        return value
    if isinstance(expr, (FreeProd, UnitalFreeProd)):
        if not root:
            raise UnsupportedNestingError(
                "free products may appear only at the top level of an expression"
            )
        left = eval_expr(expr.left, root=False)
        right = eval_expr(expr.right, root=False)
        if isinstance(expr, FreeProd):
            return free_product_k(left, right)
        return unital_free_product_k(left, right)
    raise TypeError(f"not an algebra expression: {expr!r}")


def evaluate(text: str):
    """Parse and evaluate in one step."""
    return eval_expr(parse(text))


_CATALOG_NAMES = (
    "O_2",
    "O_3",
    "O_4",
    "O_5",
    "O_6",
    "O_7",
    "O_12",
    "Oinf",
    "M_2",
    "M_3",
    "M_4",
    "M_6",
    "M_2(Oinf)",
    "M_3(Oinf)",
    "M_6(Oinf)",
    "C",
    "C^2",
    "C^3",
    "CT",
    "C01",
)


def catalog_entries():
    """The named invariants used by the catalog-wide sweeps."""
    return [(name, evaluate(name)) for name in _CATALOG_NAMES]
