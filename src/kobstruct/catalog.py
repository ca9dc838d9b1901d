"""Builtin invariants and the textual algebra-expression language.

Atoms
-----
    O_2, O_3, ...      Cuntz algebras           (Z/(n-1), 0, 1)
    Oinf               infinite Cuntz algebra   (Z, 0, 1)
    M_1, M_2, ...      matrix algebras          (Z, 0, n)
    M_n(Oinf)          stabilized matrix units  (Z, 0, n)
    C                  the scalars              (Z, 0, 1)
    C^k                k-point diagonals        (Z^k, 0, (1, ..., 1))
    C(T) or CT         circle functions         (Z, Z, 1)
    C([0,1]) or C01    interval functions       (Z, 0, 1)
    {...}              a literal JSON triple {"k0": ..., "k1": ..., "unit": [...]}

``CAR`` is recognized and rejected: its K0 is the dyadic rationals,
which are not finitely generated, and everything here requires
finitely generated K-theory.

Operators, tightest first, all left-associative, parentheses allowed:
    (x)    tensor product        (may nest; evaluates to a new triple)
    (*)    free product          (root only; evaluates to a K-pair)
    (*C)   unital free product   (root only; evaluates to a K-pair)

The underscore in atom names is optional ("O2" parses like "O_2") and
whitespace is ignored between tokens.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

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
    kind: str  # "O" | "Oinf" | "M" | "MOinf" | "C" | "Cpow" | "CT" | "C01" | "CAR"
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


def builtin(kind: str, param: int | None = None) -> KInvariant:
    """The invariant table for the named algebra.

    >>> builtin("O", 3)
    KInvariant(k0=FgAbGroup(0, (2,)), k1=FgAbGroup(0, ()), unit=GroupElement(FgAbGroup(0, (2,)), (1,)), finitely_generated=True)
    >>> builtin("O", 2).k0
    FgAbGroup(0, ())
    """
    if kind == "O":
        if param is None or param < 2:
            raise ValueError("Cuntz index must be an integer >= 2")
        k0 = FgAbGroup(0, (param - 1,))
        return KInvariant(k0, _TRIVIAL, k0.element([1] * k0.ngens))
    if kind == "Oinf":
        return KInvariant(_Z, _TRIVIAL, _Z.element((1,)))
    if kind in ("M", "MOinf"):
        if param is None or param < 1:
            raise ValueError("matrix size must be an integer >= 1")
        return KInvariant(_Z, _TRIVIAL, _Z.element((param,)))
    if kind == "C":
        return KInvariant(_Z, _TRIVIAL, _Z.element((1,)))
    if kind == "Cpow":
        if param is None or param < 1:
            raise ValueError("power of C must be an integer >= 1")
        zk = FgAbGroup(param)
        return KInvariant(zk, _TRIVIAL, zk.element([1] * param))
    if kind == "CT":
        return KInvariant(_Z, _Z, _Z.element((1,)))
    if kind == "C01":
        return KInvariant(_Z, _TRIVIAL, _Z.element((1,)))
    if kind == "CAR":
        raise NonFinitelyGeneratedError(
            "the CAR algebra has K0 = Z[1/2], which is not finitely "
            "generated; only finitely generated K-theory is supported"
        )
    raise ValueError(f"unknown atom kind {kind!r}")


# ---------------------------------------------------------------------------
# Lexer

_OP_TENSOR = re.compile(r"\(\s*x\s*\)")
_OP_UFREE = re.compile(r"\(\s*\*\s*C\s*\)")
_OP_FREE = re.compile(r"\(\s*\*\s*\)")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_^]*")
_SUFFIX_OINF = re.compile(r"\s*\(\s*O_?inf\s*\)")
_SUFFIX_T = re.compile(r"\s*\(\s*T\s*\)")
_SUFFIX_01 = re.compile(r"\s*\(\s*\[\s*0\s*,\s*1\s*\]\s*\)")

_ATOM_O = re.compile(r"O_?(\d+)$")
_ATOM_OINF = re.compile(r"O_?inf$|Oinf$")
_ATOM_M = re.compile(r"M_?(\d+)$")
_ATOM_CPOW = re.compile(r"C\^(\d+)$")


def _tokenize(text: str):
    """Tokens: ("op", kind), ("lparen",), ("rparen",), ("atom", Atom),
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
            m = _OP_TENSOR.match(text, i)
            if m:
                tokens.append(("op", "tensor", i))
                i = m.end()
                continue
            m = _OP_UFREE.match(text, i)
            if m:
                tokens.append(("op", "ufree", i))
                i = m.end()
                continue
            m = _OP_FREE.match(text, i)
            if m:
                tokens.append(("op", "free", i))
                i = m.end()
                continue
            tokens.append(("lparen", None, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("rparen", None, i))
            i += 1
            continue
        if ch == "{":
            depth = 0
            j = i
            while j < n:
                if text[j] == "{":
                    depth += 1
                elif text[j] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise ParseError("unbalanced braces in literal", i)
            raw = text[i : j + 1]
            try:
                inv = KInvariant.from_json(json.loads(raw))
            except (ValueError, KeyError, TypeError) as exc:
                raise ParseError(f"bad literal invariant: {exc}", i) from None
            tokens.append(("literal", inv, i))
            i = j + 1
            continue
        m = _NAME.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", i)
        name = m.group(0)
        j = m.end()
        atom, j = _lex_atom(name, text, j, i)
        tokens.append(("atom", atom, i))
        i = j
        continue
    return tokens


def _lex_atom(name: str, text: str, j: int, pos: int):
    """Resolve an atom name, consuming a parenthesized suffix if it is
    part of the atom (M_n(Oinf), C(T), C([0,1]))."""
    m = _ATOM_M.match(name)
    if m:
        k = _index(m, pos)
        suf = _SUFFIX_OINF.match(text, j)
        if suf:
            _check_range(k >= 1, "matrix size must be >= 1", pos)
            return Atom("MOinf", k), suf.end()
        _check_range(k >= 1, "matrix size must be >= 1", pos)
        return Atom("M", k), j
    if name == "C":
        suf = _SUFFIX_T.match(text, j)
        if suf:
            return Atom("CT"), suf.end()
        suf = _SUFFIX_01.match(text, j)
        if suf:
            return Atom("C01"), suf.end()
        return Atom("C"), j
    if _ATOM_OINF.match(name):
        return Atom("Oinf"), j
    m = _ATOM_O.match(name)
    if m:
        k = _index(m, pos)
        _check_range(k >= 2, "Cuntz index must be >= 2", pos)
        return Atom("O", k), j
    m = _ATOM_CPOW.match(name)
    if m:
        k = _index(m, pos)
        _check_range(k >= 1, "power of C must be >= 1", pos)
        return Atom("Cpow", k), j
    if name == "CT":
        return Atom("CT"), j
    if name == "C01":
        return Atom("C01"), j
    if name == "CAR":
        return Atom("CAR"), j
    raise ParseError(f"unknown algebra name {name!r}", pos)


def _index(match, pos):
    digits = match.group(1)
    _check_range(
        len(digits) <= MAX_INDEX_DIGITS,
        f"index has {len(digits)} digits, more than the {MAX_INDEX_DIGITS} accepted",
        pos,
    )
    return int(digits)


def _check_range(ok, message, pos):
    if not ok:
        raise ParseError(message, pos)


# ---------------------------------------------------------------------------
# Parser: expr := product ((*)|(*C) product)*;  product := factor ((x) factor)*

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

    def parse_expr(self):
        node = self.parse_product()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] in ("free", "ufree"):
                self.next()
                rhs = self.parse_product()
                node = (FreeProd if tok[1] == "free" else UnitalFreeProd)(node, rhs)
            else:
                return node

    def parse_product(self):
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] == "tensor":
                self.next()
                node = Tensor(node, self.parse_factor())
            else:
                return node

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


_ATOM_NAMES = {
    "Oinf": "Oinf",
    "C": "C",
    "CT": "CT",
    "C01": "C01",
    "CAR": "CAR",
}


# Binding strength for printing: leaves, then (x), then (*) and (*C).
_OPS = {Tensor: ("(x)", 2), FreeProd: ("(*)", 1), UnitalFreeProd: ("(*C)", 1)}
_LEAF = 3


def _print_leaf(expr) -> str:
    if isinstance(expr, Literal):
        return json.dumps(expr.invariant.to_json(), sort_keys=True, separators=(",", ":"))
    if expr.kind == "O":
        return f"O_{expr.param}"
    if expr.kind == "M":
        return f"M_{expr.param}"
    if expr.kind == "MOinf":
        return f"M_{expr.param}(Oinf)"
    if expr.kind == "Cpow":
        return f"C^{expr.param}"
    return _ATOM_NAMES[expr.kind]


def _binding(expr) -> int:
    return _OPS[type(expr)][1] if type(expr) in _OPS else _LEAF


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
        elif type(item) in _OPS:
            op, strength = _OPS[type(item)]
            left, right = [item.left], [item.right]
            if _binding(item.left) < strength:
                left = ["(", item.left, ")"]
            if _binding(item.right) <= strength:
                right = ["(", item.right, ")"]
            todo.extend(reversed(left + [f" {op} "] + right))
        else:
            parts.append(_print_leaf(item))
    return "".join(parts)


def eval_expr(expr, root: bool = True):
    """Evaluate a syntax tree to a KInvariant, or a KPair for a
    root-level free product.

    Free products may appear only at the root: their K-theory is a
    K-pair, not an invariant triple of an algebra that could be fed
    back into the tensor formula.

    >>> eval_expr(parse("M_2 (x) M_3")).unit.coords
    (6,)
    """
    if isinstance(expr, Atom):
        return builtin(expr.kind, expr.param)
    if isinstance(expr, Literal):
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
