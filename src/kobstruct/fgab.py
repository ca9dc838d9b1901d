"""Exact arithmetic for finitely generated abelian groups.

The engine underneath everything here is the Smith normal form of an
integer matrix, computed exactly with Python's unbounded integers.  On
top of it sit canonical invariant-factor forms, group elements with
reduced coordinates, integer-matrix homomorphisms, tensor and Tor,
quotients, and solvers for divisibility and section (right inverse)
problems.  Every Smith-form system is laid out by one builder,
``_presentation``, as [m | R_g]: the rows of m, each followed by its
generator's order in the column of its invariant factor.  The solvers
share one routine for such systems, ``_solve_mod``.  A section solves
the image of a generator of order d inside the span of the elements d
kills, a list of (generator, scale) pairs, or, for a map of a group to
itself, in one system for all generators: an onto endomorphism is an
automorphism, whose inverse is the section.

A group's invariant factors are built in one pass: a factor that the
top of the chain divides is appended, any other carries gcds down the
chain.  Direct sums and the Kronecker presentation of a tensor product
are sums of cyclic groups, so they skip the Smith normal form:
``_cyclic_canonical`` merges their orders into a divisibility chain with
2x2 Bezout steps and never factors an integer.  Its basis changes are
dict rows, so input that is already canonical (a free group, a sum with
one nonzero part) costs its length, not its square, and a caller that
reads a few vectors of a basis change carries them through the merges
instead of building it.  A quotient by one element, as a group only, is
read off gcds (``_quotient_group``).  The Smith normal form handles the
general presentations: quotients, cokernels and the solvers' systems.
A quotient by one element, whose relations are a diagonal plus one
column, carries its transforms as dict rows (``_quotient_full``), so it
costs about its relations.

The Smith normal form engine ``_snf_rows`` alternates Hermite
stages (``_hnf_rows``, after Kannan and Bachem) on the columns and the
rows of a matrix until it is diagonal, then makes the diagonal a
divisibility chain with 2x2 Bezout steps.  It has three modes, one
per kind of caller, and tracks only the transforms that caller reads:
none for ``cokernel`` and ``is_surjective`` (the group is read off the
diagonal), u and v for ``smith_normal_form`` and so ``_solve_mod``,
and u and u^-1 for quotients.  A stage carries v or u as trailing
entries of the rows it reduces; for quotients the row stages carry u
and u^-1, which takes other operations, as dict rows apart from them,
with the same row operations.  u depends only on the lattice the
columns span, so the generators a quotient reads off it do too.
Matrices the package builds from its own integer tuples skip the
public constructor's conversion and checks (``IntMatrix._trusted``).

Conventions
-----------
* A group is stored as ``Z^rank  (+)  Z/d1 (+) ... (+) Z/dk`` with the
  invariant factors forming a divisibility chain d1 | d2 | ... | dk.
  Two groups are isomorphic exactly when they are field-equal.
* Element coordinates list the free coordinates first, then one
  coordinate per invariant factor, always reduced into [0, d).
* A homomorphism is a matrix against canonical generators; column j is
  the image of the j-th generator of the source, written in target
  coordinates.
* A presentation's relation matrix has one row per generator and one
  column per relation (the matrix of the map Z^relations -> Z^generators).
* The one sparse format is the dict row, from column to nonzero entry.
  The canonical forms give lists of them, no dict in two places, and
  all arithmetic on them is here: ``_combine`` and ``_axpy`` add rows,
  ``_times`` multiplies rows by the matrix of other rows and ``_apply``
  by a vector, ``_transpose`` turns a list around, ``_dense`` fills it.
* The cyclic path (``_cyclic_canonical``) merges the rows it is given,
  the identity unless a caller gives its own rows M, and then gives
  to_canon @ M: it never mutates M and hands back a row of M that no
  merge touches as it is.  Its lift is bounded: an entry at a position
  of order c_k lies in [0, c_k), so to_canon @ lift is the identity
  modulo the canonical orders, all a ``GroupHom`` reads.
* Costs are counted, not timed, for tests: ``with _counting() as c``
  sets a ``Counter`` in a ``ContextVar`` (PEP 567) for the block, and
  five sites add to it: ``basis`` (``_cyclic_canonical`` without
  starting rows), ``merge`` (one of its merges), ``smith:<mode>`` (one
  ``_snf_rows`` run), ``solve`` (``right_inverse_exists``) and
  ``map<d>`` (``kinv.PairAnalysis._images(d)``).  Outside a block each
  site reads the variable once.

All values are immutable ``_Value`` records, as are those of the other
modules; every operation is a pure function and no state is kept
between calls, so everything can be shared freely across threads; a
caller that reads a structure more than once keeps it itself.  The
module is arithmetic only: it writes JSON (``to_json``) but reads
none, as ``kinv.KInvariant.from_json`` reads every literal.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from math import gcd, inf, lcm
from operator import add, attrgetter, index, itemgetter, mul

__all__ = [
    "GroupMismatchError",
    "IntMatrix",
    "FgAbGroup",
    "GroupElement",
    "GroupHom",
    "smith_normal_form",
    "direct_sum_many",
    "quotient_by",
    "tensor",
    "tor",
    "tensor_elem",
    "compose",
    "cokernel",
    "is_surjective",
    "right_inverse_exists",
    "solve_divisibility",
]

_COUNTS = ContextVar("kobstruct.fgab.counts", default=None)


@contextmanager
def _counting():
    """Count the costs of the calls made in the block, as a Counter of
    events (see Conventions), visible in this context alone."""
    counts = Counter()
    token = _COUNTS.set(counts)
    try:
        yield counts
    finally:
        _COUNTS.reset(token)


def _count(event, n=1):
    """Add ``n`` to ``event`` in the active collector, if there is one."""
    if (counts := _COUNTS.get()) is not None:
        counts[event] += n


class GroupMismatchError(ValueError):
    """An element or hom was used with the wrong group."""


class _Value:
    """An immutable record: the base of every value type of the package.

    A subclass names its fields in ``__slots__``, and its ``__init__``
    checks its arguments and sets each field once with
    ``object.__setattr__``; any later assignment or deletion raises
    AttributeError.  Two values are equal when they have the same type
    and equal fields, a value hashes as its fields, and its repr is
    ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _names = ()  # the fields, in order, inherited fields first

    def __init_subclass__(cls):
        cls._names += cls.__slots__
        cls._fields = attrgetter(*cls._names)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Integer matrices


class IntMatrix(_Value):
    """An immutable integer matrix with unbounded entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = tuple(tuple(map(index, row)) for row in data)  # a TypeError for floats
        if cols is not None and index(cols) < 0:
            raise ValueError("cols must be nonnegative")
        rows = len(data)
        if rows:
            width = len(data[0])
            if any(map(width.__ne__, map(len, data))):
                raise ValueError("ragged rows in matrix")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", index(cols))
        object.__setattr__(self, "data", data)

    @classmethod
    def _trusted(cls, data, cols):
        """The matrix with rows ``data``, a tuple of int tuples of width
        ``cols`` that the package built itself: no conversion, no checks."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        return self

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns, rows):
        """Build a matrix of shape (rows, len(columns)) from column vectors
        of ints."""
        if rows < 0:
            raise ValueError("rows must be nonnegative")
        columns = [tuple(c) for c in columns]
        if any(len(c) != rows for c in columns):
            raise ValueError("column of wrong length")
        return cls._trusted(tuple(zip(*columns)) if columns else ((),) * rows, len(columns))

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return [row[j] for row in self.data]

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix._trusted(tuple(map(add, self.data, other.data)), self.cols + other.cols)

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            ot = list(zip(*other.data)) if other.data else [()] * other.cols
            out = tuple([tuple([sum(map(mul, row, col)) for col in ot]) for row in self.data])
            return IntMatrix._trusted(out, other.cols)
        # matrix @ vector
        vec = tuple(other)
        if self.cols != len(vec):
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum(map(mul, row, vec)) for row in self.data)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def to_json(self):
        return [list(row) for row in self.data]


# ---------------------------------------------------------------------------
# Smith normal form


def _hnf_rows(lines, tail, inv=None):
    """Hermite normal form of the rows ``lines``: (rank, lines).

    Rows are inserted one at a time (Kannan and Bachem, SIAM J. Comput.
    8(4), 1979).  A new row is scanned left to right: at a column that
    already has a pivot it is combined with the pivot row, by a plain
    subtraction when the pivot divides the entry and by a 2x2 Bezout
    step otherwise; at the first nonzero column without a pivot it
    becomes that column's pivot, made positive, and elimination stops.
    After each insertion every entry above a pivot is reduced into
    [0, pivot), in ascending pivot-column order, so no entry outgrows
    the pivots.  At the end the pivot rows come first, by pivot column,
    and the zero rows last; the rank is their number.

    ``tail``, when given, is a transform that takes the same operations,
    updated in place.  Alone it is dense, and row i is lines[i] followed
    by tail[i]: pivots are sought among the first ``width`` entries
    only, and each operation is one pass over the whole row.  With
    ``inv``, which takes the inverse transposes (an operation on two
    rows of tail changes the other row of inv), both are dict rows kept
    apart from the rows, so an operation costs the entries it touches.
    """
    width = len(lines[0])
    sparse = inv is not None
    a = [[*r, *t] for r, t in zip(lines, tail)] if tail and not sparse else [list(r) for r in lines]
    owner = [-1] * width  # pivot column -> the row holding that pivot, or -1
    cols, pivot_rows = [], []  # pivot columns, ascending, and their rows
    zero_rows = []  # the rows eliminated to zero
    for i in range(len(a)):
        row = a[i]
        for j in range(width):
            y = row[j]
            if not y:
                continue
            p = owner[j]
            if p < 0:
                if y < 0:
                    a[i] = [-e for e in row]
                    if sparse:
                        tail[i], inv[i] = _combine(-1, tail[i]), _combine(-1, inv[i])
                owner[j] = i
                k = bisect(cols, j)
                cols.insert(k, j)
                pivot_rows.insert(k, i)
                break
            prow = a[p]
            x = prow[j]
            if y % x == 0:
                q = y // x
                row = a[i] = [e - q * f for e, f in zip(row, prow)]
                if sparse:
                    _axpy(tail[i], -q, tail[p])
                    _axpy(inv[p], q, inv[i])
                continue
            # (row_p, row_i) <- (s row_p + t row_i, (x/g) row_i - (y/g) row_p)
            g, s, t = _bezout(x, abs(y))
            if y < 0:
                t = -t
            xg, yg = x // g, y // g
            _mix(a, p, i, s, t, -yg, xg)
            if sparse:
                _mix_sparse(tail, p, i, s, t, -yg, xg)
                _mix_sparse(inv, p, i, xg, yg, -t, s)
            row = a[i]
        else:
            zero_rows.append(i)
        for k in range(1, len(cols)):
            r, c = pivot_rows[k], cols[k]
            prow = a[r]
            pivot = prow[c]
            for x in pivot_rows[:k]:
                e = a[x][c]
                if e < 0 or e >= pivot:
                    q = e // pivot
                    a[x] = [f - q * g for f, g in zip(a[x], prow)]
                    if sparse:
                        _axpy(tail[x], -q, tail[r])
                        _axpy(inv[r], q, inv[x])
    order = pivot_rows + zero_rows
    a = [a[i] for i in order]
    if sparse:
        tail[:] = [tail[i] for i in order]
        inv[:] = [inv[i] for i in order]
    elif tail:
        tail[:] = [r[width:] for r in a]
        return len(cols), [r[:width] for r in a]
    return len(cols), a


def _snf_rows(rows, ncols, track=None):
    """Diagonalize the matrix m with rows ``rows``, ``ncols`` wide,
    returning (u, uinv_t, d, v_t) with d = u m v.

    u and v are unimodular; d is diagonal, nonnegative, and its entries
    form a divisibility chain.  Hermite stages (``_hnf_rows``) alternate
    until the matrix is diagonal: on its columns, as the rows of its
    transpose, each followed by its row of v_t, then on its rows, each
    followed by its row of u; uinv_t takes the inverse transposes and
    stays apart.  A stage leaves each leading pivot the gcd of its row or
    column, so the pivot shrinks until it divides its line and a stage
    clears it.  The first stage gives the column Hermite form, the same
    for every matrix with the same column lattice, so u depends on that
    lattice alone.  The chain step then replaces each pair of diagonal
    entries x = d_i, y = d_j (i < j) with y % x by
    g = gcd(x, y) = s*x + t*y and lcm(x, y): rows u_i, u_j by
    s*u_i + t*u_j and (x/g)*u_j - (y/g)*u_i, as ``_cyclic_canonical``
    does, and columns v_i, v_j by v_i + v_j and (s*x/g)*v_j - (t*y/g)*v_i.

    Only d is always computed.  ``track`` is one of three modes: None
    tracks nothing (``cokernel``), "uinv" tracks u and uinv_t, the
    transpose of u^-1, as dict rows (for quotients), so that a relation
    matrix that is mostly zero, such as a diagonal plus one column,
    costs about its nonzero entries, and "v" tracks u and v_t, the
    transpose of v (``smith_normal_form``).  An untracked transform is
    None; transposed, each update is a whole-row operation.  Every step
    reads only the matrix being reduced, so d and u are the same in
    every mode that computes them.
    """
    if track not in (None, "uinv", "v"):
        raise ValueError(f"unknown tracking mode {track!r}")
    _count(f"smith:{track or 'none'}")
    n = len(rows)
    sparse = track == "uinv"
    u = ([{i: 1} for i in range(n)] if sparse else _identity_rows(n)) if track else None
    uinv_t = [{i: 1} for i in range(n)] if sparse else None
    v_t = _identity_rows(ncols) if track == "v" else None
    mix = _mix_sparse if sparse else _mix
    a = [list(row) for row in rows]
    rank = 0
    while n and ncols:
        # column operations on a are row operations on its transpose
        rank, at = _hnf_rows(list(zip(*a)), v_t)
        a = [list(row) for row in zip(*at)]
        if _is_diagonal(a):
            break
        rank, a = _hnf_rows(a, u, uinv_t)
        if _is_diagonal(a):
            break
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = a[i][i], a[j][j]
            if y % x == 0:
                continue
            g, s, t = _bezout(x, y)
            xg, yg = x // g, y // g
            a[i][i], a[j][j] = g, x * yg
            mix(u, i, j, s, t, -yg, xg)
            mix(uinv_t, i, j, xg, yg, -t, s)
            _mix(v_t, i, j, 1, 1, -t * yg, s * xg)
    return u, uinv_t, a, v_t


def _mix(rows, i, j, a, b, c, d):
    """Replace rows r_i, r_j of ``rows``, unless None, by a*r_i + b*r_j
    and c*r_i + d*r_j."""
    if rows:
        p, q = rows[i], rows[j]
        rows[i] = [a * e + b * f for e, f in zip(p, q)]
        rows[j] = [c * e + d * f for e, f in zip(p, q)]


def _mix_sparse(rows, i, j, a, b, c, d):
    """``_mix`` on dict rows."""
    if rows:
        p, q = rows[i], rows[j]
        rows[i], rows[j] = _combine(a, p, b, q), _combine(c, p, d, q)


def _is_diagonal(a):
    return not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(a))


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def smith_normal_form(m: IntMatrix):
    """Return (u, d, v) with d = u @ m @ v in Smith normal form.

    u and v are unimodular and the diagonal of d is nonnegative with
    d1 | d2 | ... .  Empty and zero matrices are fine.

    >>> u, d, v = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> [d[0, 0], d[1, 1]]
    [2, 4]
    """
    u, _, d, v_t = _snf_rows(m.data, m.cols, "v")
    return (
        IntMatrix._trusted(tuple(map(tuple, u)), m.rows),
        IntMatrix._trusted(tuple(map(tuple, d)), m.cols),
        IntMatrix.from_columns(v_t, m.cols),
    )


def _presentation(rows, g):
    """The rows of [m | R_g] for the matrix m with rows ``rows``, one
    per generator of g: each row of m, then, for a generator of order d,
    d in the column of its invariant factor.  Every Smith-form system
    of the package is laid out here."""
    zeros = (0,) * len(g.torsion)
    out = [tuple(row) + zeros for row in rows[: g.rank]]
    for j, (row, d) in enumerate(zip(rows[g.rank :], g.torsion)):
        out.append(tuple(row) + zeros[:j] + (d,) + zeros[j + 1 :])
    return tuple(out)


def _solve_mod(rows, n, rhs_list):
    """Solve m @ x = b modulo the relations of a presentation, for each b.

    ``rows`` are those of the system [m | R] (``_presentation``), whose
    first n columns are m.  One Smith normal form d = u [m | R] v serves
    every right-hand side: [m | R] (x, y) = b has an integer solution
    exactly when each entry of c = u b is divisible by the matching
    diagonal entry of d (zero where that entry is zero or absent), and
    then (x, y) = v c' with c'_i = c_i / d_ii.  Yields one entry per
    right-hand side, in order and only as far as the caller reads: the
    n entries of x, or None when there is no solution.
    """
    m = IntMatrix._trusted(rows, len(rows[0]) if rows else n)
    u, d, v = smith_normal_form(m)
    for rhs in rhs_list:
        c = u @ tuple(rhs)
        y = [0] * m.cols
        for i in range(m.rows):
            di = d[i, i] if i < m.cols else 0
            if (c[i] % di if di else c[i]) != 0:
                y = None
                break
            if di:
                y[i] = c[i] // di
        yield None if y is None else list(v @ tuple(y))[:n]


# ---------------------------------------------------------------------------
# Groups, elements, homomorphisms


class FgAbGroup(_Value):
    """A finitely generated abelian group in invariant-factor form.

    ``FgAbGroup(rank, torsion)`` normalizes its input: zero factors are
    absorbed into the rank, units +-1 are dropped, signs are forgotten,
    and an arbitrary factor list is merged into a divisibility chain in
    one pass, since Z/c + Z/d = Z/gcd(c, d) + Z/lcm(c, d): a factor the
    last one of the chain divides is appended, and any other replaces
    the factors it meets, from the top down, by their lcm with it and
    carries the gcd on, until the factor below divides what is carried
    (which goes in there) or it is 1.  The chain is unique, so two
    groups are isomorphic iff they compare equal.

    >>> FgAbGroup(0, (2, 3)) == FgAbGroup(0, (6,))
    True
    >>> FgAbGroup(1, (4, 0, 1))
    FgAbGroup(2, (4,))
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank=0, torsion=()):
        rank = index(rank)  # a TypeError for floats, which int() would truncate
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        chain = []  # the invariant factors so far, each dividing the next
        for d in torsion:
            d = abs(index(d))
            if not d:
                rank += 1
            # the lcm with d takes the place of each factor c met and
            # gcd(c, d) is carried down
            i = len(chain)
            while d > 1:
                if not i or d % chain[i - 1] == 0:
                    chain.insert(i, d)
                    break
                i -= 1
                c = chain[i]
                g = gcd(c, d)
                if g == d:
                    # d divides c, so c keeps its value, as does each
                    # factor below c that d divides; these form one run (d
                    # divides every factor above one it divides): skip it
                    if i and chain[i - 1] % d == 0:
                        i = bisect_left(chain, True, 0, i - 1, key=lambda e: e % d == 0)
                    continue
                chain[i] = c // g * d
                d = g
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", tuple(chain))

    @property
    def ngens(self):
        return self.rank + len(self.torsion)

    @property
    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    @property
    def is_finite(self):
        return self.rank == 0

    def torsion_order(self):
        """Order of the torsion subgroup (1 when torsion-free)."""
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def torsion_part(self):
        return FgAbGroup(0, self.torsion)

    def relation_matrix(self):
        """One column d_i * e_(rank+i) per invariant factor."""
        return IntMatrix._trusted(_presentation([()] * self.ngens, self), len(self.torsion))

    def reduce(self, coords):
        coords = list(map(index, coords))
        if len(coords) != self.ngens:
            raise GroupMismatchError(
                f"expected {self.ngens} coordinates, got {len(coords)}"
            )
        for i, d in enumerate(self.torsion, self.rank):
            coords[i] %= d
        return tuple(coords)

    def element(self, coords):
        return GroupElement(self, coords)

    def zero(self):
        return GroupElement(self, (0,) * self.ngens)

    def generator(self, k):
        if not 0 <= k < self.ngens:
            raise IndexError(f"generator {k} is not in range(0, {self.ngens})")
        coords = [0] * self.ngens
        coords[k] = 1
        return GroupElement(self, coords)

    def generators(self):
        return [self.generator(k) for k in range(self.ngens)]

    def __repr__(self):
        return f"FgAbGroup({self.rank}, {self.torsion})"

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


class GroupElement(_Value):
    """An element of an FgAbGroup, coordinates always reduced."""

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group.reduce(coords))

    def _check(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise GroupMismatchError("elements belong to different groups")

    def __add__(self, other):
        self._check(other)
        return GroupElement(
            self.group, [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self._check(other)
        return GroupElement(
            self.group, [a - b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        return GroupElement(self.group, [-a for a in self.coords])

    def __mul__(self, n):
        n = index(n)  # a TypeError for 2.5, which int() would truncate
        return GroupElement(self.group, [n * a for a in self.coords])

    __rmul__ = __mul__

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def order(self):
        """Exact order of the element; math.inf when infinite."""
        g = self.group
        if any(self.coords[: g.rank]):
            return inf
        n = 1
        for d, c in zip(g.torsion, self.coords[g.rank :]):
            if c:
                n = lcm(n, d // gcd(d, c))
        return n

    def __repr__(self):
        return f"GroupElement({self.group!r}, {self.coords})"


class GroupHom(_Value):
    """A homomorphism between canonical groups, as an integer matrix.

    Column j holds the image of the j-th source generator in target
    coordinates.  Construction verifies well-definedness: each torsion
    generator of order d must map to an element killed by d.  Columns
    are stored reduced, so hom equality is plain field equality.  A hom
    with an empty side, whose source or target has no generators, is
    read off the generator counts: its matrix, with no rows or no
    columns, has nothing to reduce or check and is stored as it is.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ValueError(
                f"hom matrix must be {target.ngens} x {source.ngens}, "
                f"got {matrix.rows} x {matrix.cols}"
            )
        if matrix.rows and matrix.cols:
            # reduce row by row: the row of a generator of order d mod d
            rank = target.rank
            matrix = IntMatrix._trusted(
                matrix.data[:rank]
                + tuple([tuple([e % d for e in row]) for row, d in zip(matrix.data[rank:], target.torsion)]),
                matrix.cols,
            )
            orders = _orders(target)
            for j, d in enumerate(source.torsion, source.rank):
                if any(d * row[j] % t if t else row[j] for row, t in zip(matrix.data, orders)):
                    raise ValueError(
                        f"not a well-defined hom: generator of order {d} maps to "
                        f"an element not killed by {d}"
                    )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def identity(cls, g):
        return cls(g, g, IntMatrix.identity(g.ngens))

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.source:
            raise GroupMismatchError("element is not in the source group")
        return GroupElement(self.target, self.matrix @ x.coords)

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r}, {self.matrix!r})"

    def to_json(self):
        return {"matrix": self.matrix.to_json()}


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """The composite g after f, i.e. (g . f)(x) = g(f(x)).

    >>> two = GroupHom(FgAbGroup(1), FgAbGroup(1), IntMatrix([[2]]))
    >>> three = GroupHom(FgAbGroup(1), FgAbGroup(1), IntMatrix([[3]]))
    >>> compose(two, three).matrix[0, 0]
    6
    """
    if f.target != g.source:
        raise GroupMismatchError("compose: target of f must be source of g")
    return GroupHom(f.source, g.target, g.matrix @ f.matrix)


# ---------------------------------------------------------------------------
# Presentations and canonical forms


def _canonicalize_sparse(rows, ncols):
    """Canonical form of Z^n / columnspan(relations), the relation
    matrix having the n rows ``rows``, ``ncols`` wide.

    Returns (group, to_canon, lift), one dict row of each per canonical
    generator: ``to_canon`` maps old generator coordinates to canonical
    ones, ``lift`` is an old-coordinate representative of the generator,
    and to_canon @ lift is the identity.  They are the rows of u and
    uinv_t of ``_snf_rows`` at the free and then the torsion positions
    of the diagonal, so they depend only on the lattice the relations
    span, not on how its columns are listed."""
    u, uinv_t, d, _ = _snf_rows(rows, ncols, "uinv")
    group, free_pos, tors_pos = _diagonal_group(d, ncols)
    # orient free generators: first nonzero coefficient positive (the
    # corresponding rows of d are zero, so d = u m v is preserved)
    for p in free_pos:
        if u[p][min(u[p])] < 0:
            u[p], uinv_t[p] = _combine(-1, u[p]), _combine(-1, uinv_t[p])
    order = free_pos + tors_pos
    return group, [u[p] for p in order], [uinv_t[p] for p in order]


def _diagonal_group(d, relations: int):
    """The group presented by the Smith diagonal ``d`` (the reduced rows
    of a relation matrix with ``relations`` columns), and the positions
    of its free and torsion generators: (group, free_pos, tors_pos)."""
    diag = [d[i][i] for i in range(min(len(d), relations))]
    free_pos = [i for i in range(len(d)) if i >= len(diag) or diag[i] == 0]
    tors_pos = [i for i in range(len(diag)) if diag[i] > 1]
    return FgAbGroup(len(free_pos), [diag[i] for i in tors_pos]), free_pos, tors_pos


def _orders(g: FgAbGroup):
    """The order of each canonical generator of g, 0 for a free one."""
    return [0] * g.rank + list(g.torsion)


def _bezout(x, y):
    """(g, s, t) with g = gcd(x, y) = s*x + t*y, for positive x and y."""
    g = gcd(x, y)
    s = pow(x // g, -1, y // g)
    return g, s, (g - s * x) // y


def _cyclic_canonical(orders, rows=None):
    """Canonical form of (+)_k Z/c_k, where c_k = 0 stands for Z.

    Returns (group, to_canon, lift) as ``_canonicalize_sparse`` does for
    the diagonal presentation, in dict rows, without a Smith normal form:
    keys are positions in ``orders``.  Free generators come first in
    their given order.  The torsion orders are merged into a divisibility
    chain until none changes: sort, and replace each adjacent pair x, y
    with y % x by gcd g = s*x + t*y and lcm(x, y), rows r_i, r_j of
    to_canon by s*r_i + t*r_j and (x/g)*r_j - (y/g)*r_i, and columns
    c_i, c_j of lift by (x/g)*c_i + (y/g)*c_j and s*c_j - t*c_i.  Each
    step is unimodular with its inverse applied to lift, and each lift
    entry it writes, at a torsion position k, is reduced into [0, c_k):
    to_canon @ lift is the identity modulo the canonical orders, and
    interleaved coprime orders do not grow the lifts.  No integer is
    ever factored.  Input that is already canonical takes one pass and
    keeps one entry per row, so a free group of rank n costs n, not n^2.

    The merges start from ``rows``, one dict row per position, or from
    the identity: each is a row operation, so with rows M the second
    value is to_canon @ M, integer for integer, and to_canon is not built.
    """
    if rows is None:
        _count("basis")
        rows = [{k: 1} for k in range(len(orders))]
    free = [k for k, c in enumerate(orders) if c == 0]
    # one [order, to_canon row, lift column] per torsion generator
    tors = [[c, rows[k], {k: 1}] for k, c in enumerate(orders) if c > 1]

    def reduced(col):
        return {k: r for k, e in col.items() if (r := e % orders[k])}

    changed, merges = True, 0
    while changed:
        tors.sort(key=itemgetter(0))
        changed = False
        for i in range(len(tors) - 1):
            (x, ri, ci), (y, rj, cj) = tors[i], tors[i + 1]
            if y % x:
                merges += 1
                g, s, t = _bezout(x, y)
                xg, yg = x // g, y // g
                # a gcd of 1 is dropped after the pass, unread
                tors[i] = [g, _combine(s, ri, t, rj), reduced(_combine(xg, ci, yg, cj))] if g > 1 else [1]
                tors[i + 1] = [x * yg, _combine(-yg, ri, xg, rj), reduced(_combine(-t, ci, s, cj))]
                changed = True
        tors = [e for e in tors if e[0] > 1]
    _count("merge", merges)
    group = FgAbGroup(len(free), [c for c, _, _ in tors])
    to_canon = [rows[k] for k in free] + [r for _, r, _ in tors]
    return group, to_canon, [{k: 1} for k in free] + [c for _, _, c in tors]


def _combine(a, p, b=0, q=None):
    """The dict row a*p + b*q, without zero entries."""
    out = {k: a * e for k, e in p.items()} if a else {}
    return _axpy(out, b, q) if b else out


def _axpy(p, b, q):
    """p += b*q for dict rows, in place, dropping the entries that
    cancel; returns p."""
    for k, e in q.items():
        e = p.get(k, 0) + b * e
        if e:
            p[k] = e
        else:
            del p[k]
    return p


def _times(rows, other):
    """The product of the dict rows ``rows`` with the matrix of the dict
    rows ``other``, as dict rows again: one step per pair of nonzero
    entries that meet."""
    out = []
    for row in rows:
        acc = {}
        for k, c in row.items():
            for j, y in other[k].items():
                acc[j] = acc.get(j, 0) + c * y
        out.append(acc)
    return out


def _apply(rows, v):
    """The product of the dict rows ``rows`` with the vector ``v``."""
    return [sum([e * v[p] for p, e in row.items()]) for row in rows]


def direct_sum_many(groups):
    """Canonical form of g1 (+) ... (+) gn with its injections.

    Returns (sum, injections), one injection per summand.  A sum of
    groups with no generators is read off the counts: the trivial group,
    and from each summand the hom with the empty matrix.

    >>> s, _ = direct_sum_many((FgAbGroup(0, (2,)), FgAbGroup(0, (3,))))
    >>> s
    FgAbGroup(0, (6,))
    """
    groups = tuple(groups)
    if not any(g.ngens for g in groups):
        s = FgAbGroup()
        return s, tuple(GroupHom(g, s, IntMatrix._trusted((), 0)) for g in groups)
    s, to_canon, _ = _cyclic_canonical([c for g in groups for c in _orders(g)])
    return s, _injections(groups, s, to_canon)


def _injections(groups, s, to_canon):
    """The injection of each of ``groups`` into their sum ``s``, whose
    dict rows ``to_canon`` (``_cyclic_canonical``) map the summands'
    coordinates onto those of s."""
    n = s.ngens
    # per generator p of the summands: its image
    columns = _dense(_transpose(to_canon, sum(g.ngens for g in groups)), n).data
    injections, offset = [], 0
    for g in groups:
        injections.append(GroupHom(g, s, IntMatrix.from_columns(columns[offset : offset + g.ngens], n)))
        offset += g.ngens
    return tuple(injections)


def _transpose(vectors, n):
    """The ``n`` dict rows of the matrix whose columns are the dict rows
    ``vectors``."""
    rows = [{} for _ in range(n)]
    for r, v in enumerate(vectors):
        for p, e in v.items():
            rows[p][r] = e
    return rows


def _dense(vectors, n) -> IntMatrix:
    """The matrix of the dict rows ``vectors``, ``n`` columns wide."""
    out = []
    for v in vectors:
        row = [0] * n
        for p, e in v.items():
            row[p] = e
        out.append(tuple(row))
    return IntMatrix._trusted(tuple(out), n)


def _quotient_full(g: FgAbGroup, x: GroupElement):
    """(q, to_canon, lift) of g / <x>, in dict rows as
    ``_canonicalize_sparse`` gives them, from the relation matrix
    [x | R_g], one column plus a diagonal.  They depend only on the
    lattice its columns span, so they are those of [R_g | x] too."""
    if x.group != g:
        raise GroupMismatchError("quotient element is not in the group")
    return _canonicalize_sparse(_presentation([[c] for c in x.coords], g), len(g.torsion) + 1)


def quotient_by(g: FgAbGroup, x: GroupElement):
    """Canonical form of g / <x> and the projection hom.

    >>> z4 = FgAbGroup(4)
    >>> q, proj = quotient_by(z4, z4.element((1, 1, -1, -1)))
    >>> q
    FgAbGroup(3, ())
    """
    q, to_canon, _ = _quotient_full(g, x)
    return q, GroupHom(g, q, _dense(to_canon, g.ngens))


def _quotient_group(g: FgAbGroup, x: GroupElement) -> FgAbGroup:
    """The group g / <x> that ``quotient_by`` returns, from gcds alone.

    Write g = Z^r + Z/d_1 + ... + Z/d_k and x = (f; t_1..t_k).  With
    F = gcd(f), d_(k+1) = 0, h_1 = 0 and
    h_(j+1) = (d_(j+1)/d_j) gcd(h_j, t_j), let
    e_j = gcd(d_j, F, t_j..t_k, h_j).  Then d_1...d_(j-1) e_j is the gcd
    of the j x j minors of [relations | x] (M. Newman, Integral
    Matrices, ch. II), so g/<x> has the invariant factors
    d_(j-1) e_j / e_(j-1) for j up to k, and up to k+1 when F != 0,
    which costs one free generator.  O(r+k) gcds and products: h_j stays
    below d_j, so no integer exceeds d_k max(d_k, |F|) (|F| when k = 0).
    """
    if x.group != g:
        raise GroupMismatchError("quotient element is not in the group")
    f = gcd(*x.coords[: g.rank])
    t = x.coords[g.rank :]
    d = g.torsion + ((0,) if f else ())
    tail = [0] * (len(t) + 1)  # tail[j] = gcd(t_j, ..., t_k)
    for j in range(len(t) - 1, -1, -1):
        tail[j] = gcd(t[j], tail[j + 1])
    factors, h, prev_d, prev_e = [], 0, 1, 1
    for j, dj in enumerate(d):
        e = gcd(dj, f, tail[j], h)
        factors.append(prev_d * e // prev_e)
        if j + 1 < len(d):
            h = d[j + 1] // dj * gcd(h, t[j])
        prev_d, prev_e = dj, e
    return FgAbGroup(g.rank - (f != 0), factors)


# ---------------------------------------------------------------------------
# Tensor and Tor


def tensor(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Canonical form of the tensor product over Z.

    Distributes over the cyclic decomposition: Z (x) G = G and
    Z/d (x) Z/e = Z/gcd(d, e).  A factor with no generators gives the
    trivial group, with no factors to merge.

    >>> tensor(FgAbGroup(0, (2,)), FgAbGroup(0, (3,)))
    FgAbGroup(0, ())
    """
    if not (g.ngens and h.ngens):
        return FgAbGroup()
    factors = [gcd(d, e) for d in g.torsion for e in h.torsion]
    factors += list(g.torsion) * h.rank
    factors += list(h.torsion) * g.rank
    return FgAbGroup(g.rank * h.rank, factors)


def tor(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Canonical form of Tor_1(g, h): free parts vanish, cyclic parts
    contribute Z/gcd(d, e), so a factor with no torsion gives the
    trivial group, with no factors to merge.

    >>> tor(FgAbGroup(0, (2,)), FgAbGroup(0, (4,)))
    FgAbGroup(0, (2,))
    """
    if not (g.torsion and h.torsion):
        return FgAbGroup()
    return FgAbGroup(0, [gcd(d, e) for d in g.torsion for e in h.torsion])


def _kronecker(g: FgAbGroup, h: FgAbGroup):
    """The orders of the Kronecker presentation of g (x) h: generator
    (i, j), u_i (x) v_j, at flat index i * h.ngens + j, of order
    gcd(c_i, c_j) for generator orders c_i of g and c_j of h (0 for
    free).  ``_cyclic_canonical`` of them maps Kronecker coordinates
    onto canonical coordinates of tensor(g, h)."""
    return [gcd(c, e) for c in _orders(g) for e in _orders(h)]


def tensor_elem(x: GroupElement, y: GroupElement) -> GroupElement:
    """The image of x (x) y in tensor(x.group, y.group).

    The Kronecker vector of x (x) y, as a one-column matrix, is carried
    through the merges of the Kronecker presentation, so the image is
    bilinear and consistent across calls for the same pair of groups.

    >>> z = FgAbGroup(1)
    >>> tensor_elem(z.element((2,)), z.element((3,))).coords
    (6,)
    """
    column = [{0: e} if (e := a * b) else {} for a in x.coords for b in y.coords]
    tg, rows, _ = _cyclic_canonical(_kronecker(x.group, y.group), column)
    return GroupElement(tg, [r.get(0, 0) for r in rows])


# ---------------------------------------------------------------------------
# Exact questions about homs


def cokernel(f: GroupHom) -> FgAbGroup:
    """Canonical form of target / image, presented by [f | R_h]."""
    ncols = f.matrix.cols + len(f.target.torsion)
    _, _, d, _ = _snf_rows(_presentation(f.matrix.data, f.target), ncols)
    return _diagonal_group(d, ncols)[0]


def is_surjective(f: GroupHom) -> bool:
    """Exact surjectivity test: trivial cokernel.

    >>> z = FgAbGroup(1)
    >>> is_surjective(GroupHom(z, z, IntMatrix([[2]])))
    False
    """
    return cokernel(f).is_trivial


def right_inverse_exists(f: GroupHom):
    """A hom s with f . s = id on f.target, or None if none exists.

    Decided exactly over the integers by ``_solve_mod``.  A target
    generator e_j of order d must go to g[d] = {x : d*x = 0}, so
    s(e_j) = S_d y_j, where S_d spans g[d] modulo the relations of g.
    S_d is a list of (generator, scale) pairs: every generator at scale
    1 for d = 0, otherwise (i, c / gcd(c, d)) for each torsion generator
    i of order c.  y_j solves [f S_d | R_h] (y_j, z) = e_j, where f S_d
    is f at the pairs' generators times their scales.  Generators of the
    same order share that system, so each distinct order takes one
    Smith normal form.

    An endomorphism (source equal to target) needs one system, [f | R_h]
    for every generator: a finitely generated abelian group is Hopfian,
    so an onto endomorphism is an automorphism, and its inverse, the one
    section, already sends each e_j into g[d].  One that is not onto
    leaves some e_j unsolved.  A source with fewer generators than the
    target returns None before any system is built: f cannot be onto,
    so it has no right inverse.  A target with no generators builds none.

    >>> z = FgAbGroup(1)
    >>> right_inverse_exists(GroupHom(z, FgAbGroup(0, (2,)), IntMatrix([[1]]))) is None
    True
    >>> g = FgAbGroup(1, (4,))  # Z + Z/4, and (a, b) |-> (-a, a + 3b)
    >>> right_inverse_exists(GroupHom(g, g, IntMatrix([[-1, 0], [1, 3]]))).matrix
    IntMatrix([[-1, 0], [3, 3]])
    """
    _count("solve")
    g, h = f.source, f.target
    sg, hg = g.ngens, h.ngens
    # in invariant-factor form ngens is the fewest elements that
    # generate the group, so f cannot be onto a target with more
    if sg < hg:
        return None
    # the span of each generator's image: g[d] for order d, or all of
    # g (key 0) for an endomorphism
    orders = [0] * hg if g == h else _orders(h)
    cols = []
    # orders ascend with j, so the columns come out in generator order
    for d in dict.fromkeys(orders):
        span = [(i, c // gcd(c, d)) for i, c in enumerate(g.torsion, g.rank)] if d else [(i, 1) for i in range(sg)]
        rows = _presentation([[row[i] * e for i, e in span] for row in f.matrix.data], h)
        rhs = ([int(i == j) for i in range(hg)] for j in range(hg) if orders[j] == d)
        for y in _solve_mod(rows, len(span), rhs):
            if y is None:
                return None
            col = [0] * sg
            for (i, e), yi in zip(span, y):
                col[i] = e * yi
            cols.append(col)
    return GroupHom(h, g, IntMatrix.from_columns(cols, sg))


def solve_divisibility(g: FgAbGroup, target: GroupElement, n: int):
    """An element x of g with n*x = target, or None.

    Solves n * x = target modulo the relations of g, the system
    [n*I | R_g] (``_presentation``), through ``_solve_mod``.

    >>> z = FgAbGroup(1)
    >>> solve_divisibility(z, z.element((6,)), 2).coords
    (3,)
    >>> solve_divisibility(z, z.element((1,)), 2) is None
    True
    """
    if target.group != g:
        raise GroupMismatchError("target element is not in the group")
    n = index(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    k = g.ngens
    rows = _presentation([[n * (i == j) for j in range(k)] for i in range(k)], g)
    (sol,) = _solve_mod(rows, k, [target.coords])
    return None if sol is None else GroupElement(g, sol)
