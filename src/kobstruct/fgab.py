"""Exact arithmetic for finitely generated abelian groups.

The engine underneath everything here is the Smith normal form of an
integer matrix, computed exactly with Python's unbounded integers.  On
top of it sit canonical invariant-factor forms, group elements with
reduced coordinates, integer-matrix homomorphisms, tensor and Tor,
quotients, and solvers for divisibility and section (right inverse)
problems.  The solvers share one routine for integer systems modulo a
lattice, ``_solve_mod``.  A section solves the image of a generator of
order d inside the span of the elements d kills (``_torsion_span``).

Direct sums and the Kronecker presentation of a tensor product are
sums of cyclic groups, so they skip the Smith normal form:
``_cyclic_canonical`` merges their orders into a divisibility chain with
2x2 Bezout steps and never factors an integer.  Its basis changes are
sparse, so input that is already canonical (a free group, a sum with
one nonzero part) costs its length, not its square.  The Smith normal
form handles the general presentations: quotients, cokernels and the
solvers' systems.

The Smith normal form engine ``_snf_engine`` is one Hermite routine
(``_hnf_rows``, after Kannan and Bachem), which inserts one row at a
time and reduces every entry above a pivot, so no entry outgrows the
pivots.  It runs on the columns of the matrix, then on its rows, in
turn until the matrix is diagonal; 2x2 Bezout steps then make the
diagonal a divisibility chain.  The first stage leaves the column
Hermite form, which depends only on the lattice the columns span, so
the generators a quotient reads off u do too.  Each caller of the
engine tracks only the transforms it reads: ``cokernel`` and
``is_surjective`` none (the group is read off the diagonal),
``is_injective`` the right transform v, ``smith_normal_form`` and so
``_solve_mod`` u and v, and ``_canonicalize_full`` (quotients) u and
u^-1.  Every step reads the matrix alone, so d and every transform are
the same whichever are tracked.  Matrices the package builds from its
own integer tuples skip the public constructor's conversion and checks
(``IntMatrix._trusted``).

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

All values are immutable, every operation is a pure function and no
state is kept between calls, so everything can be shared freely across
threads; a caller that reads a structure more than once keeps it itself.
"""

from __future__ import annotations

from bisect import insort
from math import gcd, inf, lcm
from operator import add, index, itemgetter, mul

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
    "is_injective",
    "right_inverse_exists",
    "constrained_section_exists",
    "solve_divisibility",
]


class GroupMismatchError(ValueError):
    """An element, constraint, or hom was used with the wrong group."""


# ---------------------------------------------------------------------------
# Integer matrices


class IntMatrix:
    """An immutable integer matrix with unbounded entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = tuple(tuple(map(int, row)) for row in data)
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
        object.__setattr__(self, "cols", int(cols))
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

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns, rows):
        """Build a matrix of shape (rows, len(columns)) from column vectors
        of ints."""
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

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def to_json(self):
        return [list(row) for row in self.data]


# ---------------------------------------------------------------------------
# Smith normal form


def _hnf_rows(a, sides, inv_sides):
    """Bring the rows of ``a`` into Hermite normal form, in place.

    Rows are inserted one at a time (Kannan and Bachem, SIAM J. Comput.
    8(4), 1979).  A new row is scanned left to right: at a column that
    already has a pivot it is combined with the pivot row, by a plain
    subtraction when the pivot divides the entry and by a 2x2 Bezout
    step otherwise; at the first nonzero column without a pivot it
    becomes that column's pivot, made positive, and elimination stops.
    After each insertion every entry above a pivot is reduced into
    [0, pivot), in ascending pivot-column order, so no entry outgrows
    the pivots.  At the end the pivot rows come first, by pivot column,
    and the zero rows last.  Every row operation is applied to each
    matrix in ``sides`` as well, and its inverse transpose to each in
    ``inv_sides``.  Returns the rank, the number of pivot rows.
    """
    ncols = len(a[0]) if a else 0
    same = (a, *sides)
    every = same + tuple(inv_sides)
    owner = {}  # pivot column -> the row holding that pivot
    pivots = []  # (pivot column, its row), ascending
    zero_rows = []  # the rows eliminated to zero

    def sub(i, p, q):
        # row_i -= q * row_p; the inverse transposes take row_p += q * row_i
        for rows in same:
            rows[i] = [e - q * f for e, f in zip(rows[i], rows[p])]
        for rows in inv_sides:
            rows[p] = [e + q * f for e, f in zip(rows[p], rows[i])]

    for i in range(len(a)):
        row = a[i]
        for j in range(ncols):
            y = row[j]
            if not y:
                continue
            p = owner.get(j)
            if p is None:
                if y < 0:
                    for rows in every:
                        rows[i] = [-e for e in rows[i]]
                owner[j] = i
                insort(pivots, (j, i))
                break
            x = a[p][j]
            if y % x == 0:
                sub(i, p, y // x)
                row = a[i]
                continue
            # (row_p, row_i) <- (s row_p + t row_i, (x/g) row_i - (y/g) row_p)
            g, s, t = _bezout(x, abs(y))
            if y < 0:
                t = -t
            xg, yg = x // g, y // g
            _mix(same, p, i, s, t, -yg, xg)
            _mix(inv_sides, p, i, xg, yg, -t, s)
            row = a[i]
        else:
            zero_rows.append(i)
        for k, (c, r) in enumerate(pivots):
            pivot = a[r][c]
            for _, x in pivots[:k]:
                e = a[x][c]
                if e < 0 or e >= pivot:
                    sub(x, r, e // pivot)
    order = [r for _, r in pivots] + zero_rows
    for rows in every:
        rows[:] = [rows[i] for i in order]
    return len(pivots)


def _snf_engine(m: IntMatrix, left: bool = False, inverse: bool = False, right: bool = False):
    """Diagonalize m, returning (u, uinv_t, d, v_t) with d = u m v.

    u and v are unimodular; d is diagonal, nonnegative, and its entries
    form a divisibility chain.  Hermite stages (``_hnf_rows``) alternate
    until the matrix is diagonal: on its columns, as the rows of its
    transpose (tracked on v_t), then on its rows (tracked on u and
    uinv_t), and so on.  A stage leaves each leading pivot the gcd of
    its row or column, so the pivot shrinks until it divides its line
    and a stage clears it.  The first stage gives the column Hermite
    form, the same for every matrix with the same column lattice, so u
    depends on that lattice alone.  The chain step then replaces each
    pair of diagonal entries x = d_i, y = d_j (i < j) with y % x by
    g = gcd(x, y) = s*x + t*y and lcm(x, y): rows u_i, u_j by
    s*u_i + t*u_j and (x/g)*u_j - (y/g)*u_i, as ``_cyclic_canonical``
    does, and columns v_i, v_j by v_i + v_j and (s*x/g)*v_j - (t*y/g)*v_i.

    Only d is always computed.  Each transform is tracked only when its
    caller asks for it, and is None otherwise: u when ``left`` is set
    (``smith_normal_form``, ``_canonicalize_full``), uinv_t, the
    transpose of u^-1, when ``inverse`` is set (``_canonicalize_full``),
    and v_t, the transpose of v, when ``right`` is set
    (``smith_normal_form``, ``is_injective``); ``cokernel`` asks for
    none.  Keeping uinv_t and v_t transposed makes every update a
    whole-row operation.  Every step reads only the matrix being
    reduced, so d and each tracked transform are the same whichever
    others are tracked.
    """
    nrows, ncols = m.rows, m.cols
    u = _identity_rows(nrows) if left else None
    uinv_t = _identity_rows(nrows) if inverse else None
    v_t = _identity_rows(ncols) if right else None
    row_sides = [u] if left else []
    inv_sides = [uinv_t] if inverse else []
    col_sides = [v_t] if right else []
    a = [list(row) for row in m.data]
    rank = 0
    while nrows and ncols:
        # column operations on a are row operations on its transpose
        at = [list(col) for col in zip(*a)]
        rank = _hnf_rows(at, col_sides, [])
        a = [list(row) for row in zip(*at)]
        if _is_diagonal(a):
            break
        rank = _hnf_rows(a, row_sides, inv_sides)
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
            _mix(row_sides, i, j, s, t, -yg, xg)
            _mix(inv_sides, i, j, xg, yg, -t, s)
            _mix(col_sides, i, j, 1, 1, -t * yg, s * xg)
    return u, uinv_t, a, v_t


def _mix(sides, i, j, a, b, c, d):
    """Replace rows r_i, r_j of each matrix in ``sides`` by a*r_i + b*r_j
    and c*r_i + d*r_j."""
    for rows in sides:
        p, q = rows[i], rows[j]
        rows[i] = [a * e + b * f for e, f in zip(p, q)]
        rows[j] = [c * e + d * f for e, f in zip(p, q)]


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
    u, _, d, v_t = _snf_engine(m, left=True, right=True)
    return (
        IntMatrix._trusted(tuple(map(tuple, u)), m.rows),
        IntMatrix._trusted(tuple(map(tuple, d)), m.cols),
        IntMatrix.from_columns(v_t, m.cols),
    )


def _solve_mod(a: IntMatrix, rel: IntMatrix, rhs_list):
    """Solve a @ x = b modulo the column span of ``rel``, for each b.

    One Smith normal form d = u [a | rel] v serves every right-hand
    side: [a | rel] (x, y) = b has an integer solution exactly when each
    entry of c = u b is divisible by the matching diagonal entry of d
    (zero where that entry is zero or absent), and then (x, y) = v c'
    with c'_i = c_i / d_ii.  Yields one entry per right-hand side, in
    order and only as far as the caller reads: the a.cols entries of x,
    or None when there is no solution.
    """
    m = a.hstack(rel)
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
        yield None if y is None else list(v @ tuple(y))[: a.cols]


def _scalar(d, n):
    """d times the n x n identity."""
    return IntMatrix([[d * (r == c) for c in range(n)] for r in range(n)], cols=n)


def _block_diag(blocks):
    """The matrix with ``blocks`` down its diagonal and zeros elsewhere."""
    cols = sum(b.cols for b in blocks)
    rows, left = [], 0
    for b in blocks:
        rows += [[0] * left + list(row) + [0] * (cols - left - b.cols) for row in b.data]
        left += b.cols
    return IntMatrix(rows, cols=cols)


# ---------------------------------------------------------------------------
# Groups, elements, homomorphisms


class FgAbGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``FgAbGroup(rank, torsion)`` normalizes its input: zero factors are
    absorbed into the rank, units +-1 are dropped, signs are forgotten,
    and an arbitrary factor list is merged into a divisibility chain.
    As a result two groups are isomorphic iff they compare equal.

    >>> FgAbGroup(0, (2, 3)) == FgAbGroup(0, (6,))
    True
    >>> FgAbGroup(1, (4, 0, 1))
    FgAbGroup(2, (4,))
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank=0, torsion=()):
        rank = int(rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        factors = [abs(int(d)) for d in torsion]
        rank += factors.count(0)
        factors = [d for d in factors if d > 1]
        # sort and merge until the factors form a divisibility chain,
        # which is then sorted too
        while any(y % x for x, y in zip(factors, factors[1:])):
            factors.sort()
            for i in range(len(factors) - 1):
                x, y = factors[i], factors[i + 1]
                if y % x:
                    factors[i], factors[i + 1] = gcd(x, y), lcm(x, y)
            factors = [d for d in factors if d > 1]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", tuple(factors))

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup is immutable")

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
        cols = []
        for i, d in enumerate(self.torsion):
            col = [0] * self.ngens
            col[self.rank + i] = d
            cols.append(col)
        return IntMatrix.from_columns(cols, self.ngens)

    def reduce(self, coords):
        coords = list(map(int, coords))
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
        coords = [0] * self.ngens
        coords[k] = 1
        return GroupElement(self, coords)

    def generators(self):
        return [self.generator(k) for k in range(self.ngens)]

    def __eq__(self, other):
        return (
            isinstance(other, FgAbGroup)
            and self.rank == other.rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.rank, self.torsion))

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

    @classmethod
    def from_json(cls, obj, field="group"):
        rank = _json_int(_json_field(obj, "rank", field), "rank")
        return cls(rank, _json_ints(obj.get("torsion", ()), "torsion"))


def _json_field(obj, name, owner):
    """``obj[name]``, or a ValueError naming what is wrong: ``owner``
    (the JSON value ``obj``) is not an object, or has no field ``name``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{owner} must be an object, not {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"missing field {name}")
    return obj[name]


def _json_int(value, field):
    """``value`` if it is an int; otherwise a ValueError naming ``field``.

    A bool (JSON true or false) is refused too, as are floats and
    strings, which ``int`` would truncate or coerce."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, not {type(value).__name__}")
    return value


def _json_ints(values, field):
    """``values`` if it is a list or tuple of ints, as ``_json_int``
    checks each; otherwise a ValueError naming ``field``."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{field} must be an array, not {type(values).__name__}")
    return [_json_int(v, f"{field} entry") for v in values]


class GroupElement:
    """An element of an FgAbGroup, coordinates always reduced."""

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group.reduce(coords))

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

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

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group == other.group
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.group, self.coords))

    def __repr__(self):
        return f"GroupElement({self.group!r}, {self.coords})"

    def __str__(self):
        return str(list(self.coords))

    def to_json(self):
        return {"coords": list(self.coords)}


class GroupHom:
    """A homomorphism between canonical groups, as an integer matrix.

    Column j holds the image of the j-th source generator in target
    coordinates.  Construction verifies well-definedness: each torsion
    generator of order d must map to an element killed by d.  Columns
    are stored reduced, so hom equality is plain field equality.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ValueError(
                f"hom matrix must be {target.ngens} x {source.ngens}, "
                f"got {matrix.rows} x {matrix.cols}"
            )
        # reduce row by row: the row of a generator of order d mod d
        rank = target.rank
        reduced = IntMatrix._trusted(
            matrix.data[:rank]
            + tuple([tuple([e % d for e in row]) for row, d in zip(matrix.data[rank:], target.torsion)]),
            matrix.cols,
        )
        orders = _orders(target)
        for j, d in enumerate(source.torsion, source.rank):
            if any(d * row[j] % t if t else row[j] for row, t in zip(reduced.data, orders)):
                raise ValueError(
                    f"not a well-defined hom: generator of order {d} maps to "
                    f"an element not killed by {d}"
                )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("GroupHom is immutable")

    @classmethod
    def identity(cls, g):
        return cls(g, g, IntMatrix.identity(g.ngens))

    def __call__(self, x: GroupElement) -> GroupElement:
        if x.group != self.source:
            raise GroupMismatchError("element is not in the source group")
        return GroupElement(self.target, self.matrix @ x.coords)

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

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


def _canonicalize_full(generators: int, relations: IntMatrix):
    """Canonical form of Z^generators / columnspan(relations).

    Returns (group, to_canon, lift): ``to_canon`` maps old generator
    coordinates to canonical coordinates, ``lift`` picks an old-
    coordinate representative for each canonical generator, and
    to_canon @ lift is the identity.  All three depend only on the
    lattice the relations span, not on how its columns are listed.
    """
    if relations.rows != generators:
        raise ValueError(
            "relation matrix must have one row per generator "
            f"({generators}), got {relations.rows}"
        )
    u, uinv_t, d, _ = _snf_engine(relations, left=True, inverse=True)
    group, free_pos, tors_pos = _diagonal_group(d, relations.cols)
    # orient free generators: first nonzero coefficient positive (the
    # corresponding rows of d are zero, so d = u m v is preserved)
    for p in free_pos:
        lead = next((e for e in u[p] if e), 0)
        if lead < 0:
            u[p] = [-e for e in u[p]]
            uinv_t[p] = [-e for e in uinv_t[p]]
    order = free_pos + tors_pos
    to_canon = IntMatrix._trusted(tuple([tuple(u[p]) for p in order]), generators)
    lift = IntMatrix.from_columns([uinv_t[p] for p in order], generators)
    return group, to_canon, lift


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


def _cyclic_canonical(orders):
    """Canonical form of (+)_k Z/c_k, where c_k = 0 stands for Z.

    Returns (group, to_canon, lift) as ``_canonicalize_full`` does for
    the diagonal presentation, without a Smith normal form, and sparse:
    to_canon holds one row per canonical generator and lift one column,
    each a tuple of (position in ``orders``, nonzero entry) pairs.  Free
    generators come first in their given order.  The torsion orders are
    merged into a divisibility chain as in ``FgAbGroup``: sort, and
    replace each adjacent pair x, y with y % x by gcd g = s*x + t*y and
    lcm(x, y), rows r_i, r_j of to_canon by s*r_i + t*r_j and
    (x/g)*r_j - (y/g)*r_i, and columns c_i, c_j of lift by
    (x/g)*c_i + (y/g)*c_j and s*c_j - t*c_i.  Each step is unimodular
    with its inverse applied to lift, so to_canon @ lift stays the
    identity; no integer is ever factored.  Input that is already
    canonical takes one pass and keeps one entry per row, so a free
    group of rank n costs n, not n^2.
    """
    free = [((k, 1),) for k, c in enumerate(orders) if c == 0]
    # one [order, to_canon row, lift column] per torsion generator
    tors = [[c, {k: 1}, {k: 1}] for k, c in enumerate(orders) if c > 1]
    changed = True
    while changed:
        tors.sort(key=itemgetter(0))
        changed = False
        for i in range(len(tors) - 1):
            (x, ri, ci), (y, rj, cj) = tors[i], tors[i + 1]
            if y % x:
                g, s, t = _bezout(x, y)
                xg, yg = x // g, y // g
                tors[i] = [g, _combine(s, ri, t, rj), _combine(xg, ci, yg, cj)]
                tors[i + 1] = [x * yg, _combine(-yg, ri, xg, rj), _combine(-t, ci, s, cj)]
                changed = True
        tors = [e for e in tors if e[0] > 1]
    group = FgAbGroup(len(free), [c for c, _, _ in tors])
    to_canon = free + [tuple(r.items()) for _, r, _ in tors]
    return group, to_canon, free + [tuple(c.items()) for _, _, c in tors]


def _combine(a, p, b, q):
    """The sparse vector a*p + b*q, without zero entries."""
    out = {k: a * e for k, e in p.items()}
    for k, e in q.items():
        e = out.get(k, 0) + b * e
        if e:
            out[k] = e
        else:
            out.pop(k, None)
    return out


def direct_sum_many(groups):
    """Canonical form of g1 (+) ... (+) gn with injections/projections.

    Returns (sum, injections, projections), one of each per summand.

    >>> s, _, _ = direct_sum_many((FgAbGroup(0, (2,)), FgAbGroup(0, (3,))))
    >>> s
    FgAbGroup(0, (6,))
    """
    groups = tuple(groups)
    s, to_canon, lift = _cyclic_canonical([c for g in groups for c in _orders(g)])
    n, total = s.ngens, sum(g.ngens for g in groups)
    # per generator p of the summands: its image, and coordinate p of each lift
    columns, lift_rows = _transposed(to_canon, total), _transposed(lift, total)
    injections, projections, offset = [], [], 0
    for g in groups:
        block = slice(offset, offset + g.ngens)
        injections.append(GroupHom(g, s, IntMatrix.from_columns(columns[block], n)))
        projections.append(GroupHom(s, g, IntMatrix._trusted(tuple(map(tuple, lift_rows[block])), n)))
        offset += g.ngens
    return s, tuple(injections), tuple(projections)


def _transposed(vectors, n):
    """The ``n`` dense rows of the matrix whose columns are the sparse
    ``vectors`` of (position, entry) pairs that ``_cyclic_canonical`` gives."""
    rows = [[0] * len(vectors) for _ in range(n)]
    for r, v in enumerate(vectors):
        for p, e in v:
            rows[p][r] = e
    return rows


def _quotient_full(g: FgAbGroup, x: GroupElement):
    if x.group != g:
        raise GroupMismatchError("quotient element is not in the group")
    rel = g.relation_matrix().hstack(IntMatrix.from_columns([x.coords], g.ngens))
    q, to_canon, lift = _canonicalize_full(g.ngens, rel)
    return q, GroupHom(g, q, to_canon), lift


def quotient_by(g: FgAbGroup, x: GroupElement):
    """Canonical form of g / <x> and the projection hom.

    >>> z4 = FgAbGroup(4)
    >>> q, proj = quotient_by(z4, z4.element((1, 1, -1, -1)))
    >>> q
    FgAbGroup(3, ())
    """
    q, proj, _ = _quotient_full(g, x)
    return q, proj


# ---------------------------------------------------------------------------
# Tensor and Tor


def tensor(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Canonical form of the tensor product over Z.

    Distributes over the cyclic decomposition: Z (x) G = G and
    Z/d (x) Z/e = Z/gcd(d, e).

    >>> tensor(FgAbGroup(0, (2,)), FgAbGroup(0, (3,)))
    FgAbGroup(0, ())
    """
    factors = [gcd(d, e) for d in g.torsion for e in h.torsion]
    factors += list(g.torsion) * h.rank
    factors += list(h.torsion) * g.rank
    return FgAbGroup(g.rank * h.rank, factors)


def tor(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Canonical form of Tor_1(g, h): free parts vanish, cyclic parts
    contribute Z/gcd(d, e).

    >>> tor(FgAbGroup(0, (2,)), FgAbGroup(0, (4,)))
    FgAbGroup(0, (2,))
    """
    return FgAbGroup(0, [gcd(d, e) for d in g.torsion for e in h.torsion])


def _tensor_structure(g: FgAbGroup, h: FgAbGroup):
    """Canonicalized Kronecker presentation of g (x) h.

    Generator (i, j) of the presentation is u_i (x) v_j at flat index
    i * h.ngens + j, of order gcd(c_i, c_j) for generator orders c_i of
    g and c_j of h (0 for free); the returned sparse rows (as
    ``_cyclic_canonical`` gives them) map those Kronecker coordinates
    onto canonical coordinates of tensor(g, h).
    """
    group, to_canon, _ = _cyclic_canonical(
        [gcd(c, e) for c in _orders(g) for e in _orders(h)]
    )
    return group, to_canon


def tensor_elem(x: GroupElement, y: GroupElement) -> GroupElement:
    """The image of x (x) y in tensor(x.group, y.group).

    Computed through the Kronecker presentation, so it is bilinear and
    consistent across calls for the same pair of groups.

    >>> z = FgAbGroup(1)
    >>> tensor_elem(z.element((2,)), z.element((3,))).coords
    (6,)
    """
    tg, to_canon = _tensor_structure(x.group, y.group)
    xs, ys, n = x.coords, y.coords, y.group.ngens
    return GroupElement(
        tg, [sum([c * xs[p // n] * ys[p % n] for p, c in row]) for row in to_canon]
    )


# ---------------------------------------------------------------------------
# Exact questions about homs


def cokernel(f: GroupHom) -> FgAbGroup:
    """Canonical form of target / image."""
    stacked = f.matrix.hstack(f.target.relation_matrix())
    _, _, d, _ = _snf_engine(stacked)
    return _diagonal_group(d, stacked.cols)[0]


def is_surjective(f: GroupHom) -> bool:
    """Exact surjectivity test: trivial cokernel.

    >>> z = FgAbGroup(1)
    >>> is_surjective(GroupHom(z, z, IntMatrix([[2]])))
    False
    """
    return cokernel(f).is_trivial


def is_injective(f: GroupHom) -> bool:
    """Exact injectivity test: trivial kernel modulo source relations."""
    stacked = f.matrix.hstack(f.target.relation_matrix())
    _, _, d, v_t = _snf_engine(stacked, right=True)
    rank = sum(1 for i in range(min(stacked.rows, stacked.cols)) if d[i][i] != 0)
    # the columns of v past the rank span the kernel of [f | R_h]
    sg = f.source.ngens
    return not any(any(f.source.reduce(col[:sg])) for col in v_t[rank:])


def _torsion_span(g: FgAbGroup, d: int) -> IntMatrix:
    """Columns spanning g[d] = {x : d*x = 0} modulo the relations of g:
    the identity for d = 0, otherwise (c / gcd(c, d)) e_i for each
    torsion generator i of order c, and none for a free generator."""
    n = g.ngens
    if not d:
        return _scalar(1, n)
    cols = [[c // gcd(c, d) * (r == i) for r in range(n)] for i, c in enumerate(g.torsion, g.rank)]
    return IntMatrix.from_columns(cols, n)


def constrained_section_exists(f: GroupHom, constraints=()):
    """A right inverse s of f with prescribed extra images, if one exists.

    Each constraint is a pair (t, w) with t in f.target and w in
    f.source; the returned hom satisfies f . s = id and s(t) = w for
    every constraint.  Decided exactly over the integers by ``_solve_mod``.

    A target generator e_j of order d must go to g[d], so s(e_j) = S_d y_j
    with S_d = ``_torsion_span(f.source, d)``.  Without constraints the
    columns of s decouple: y_j solves [f S_d | R_h] (y_j, z) = e_j, and
    generators of the same order share that matrix, so each order takes
    one Smith normal form.  Constraints tie the columns together into one
    joint system in the unknowns y_1, y_2, ... in turn: the blocks f S_j
    down the diagonal with one R_h each, then per constraint s(t) = w the
    row block [t_1 S_1 | t_2 S_2 | ...] with one R_g.

    A source with fewer generators than the target returns None before
    any system is built: f cannot be onto, so it has no right inverse.
    """
    g, h = f.source, f.target
    pairs = []
    for t, w in constraints:
        if not isinstance(t, GroupElement) or t.group != h:
            raise GroupMismatchError("constraint target lies outside f.target")
        if not isinstance(w, GroupElement) or w.group != g:
            raise GroupMismatchError("constraint image lies outside f.source")
        pairs.append((t, w))

    sg, hg = g.ngens, h.ngens
    # in invariant-factor form ngens is the fewest elements that
    # generate the group, so f cannot be onto a target with more
    if sg < hg:
        return None
    rel_h = h.relation_matrix()
    orders = _orders(h)
    # orders ascend with j, so the columns come out in generator order
    spans = {d: _torsion_span(g, d) for d in orders}
    basis = _scalar(1, hg).data
    if not pairs:
        cols = []
        for d, span in spans.items():
            rhs = [basis[j] for j in range(hg) if orders[j] == d]
            for y in _solve_mod(f.matrix @ span, rel_h, rhs):
                if y is None:
                    return None
                cols.append(span @ y)
        return GroupHom(h, g, IntMatrix.from_columns(cols, sg))

    col_spans = [spans[d] for d in orders]
    # s(t) = w, row r: sum_j t_j (S_j y_j)_r = w_r
    ties = [[tj * e for tj, span in zip(t.coords, col_spans) for e in span.row(r)]
            for t, _ in pairs for r in range(sg)]
    a = IntMatrix(list(_block_diag([f.matrix @ span for span in col_spans]).data) + ties)
    rel = _block_diag([rel_h] * hg + [g.relation_matrix()] * len(pairs))
    rhs = [e for row in basis for e in row] + [e for _, w in pairs for e in w.coords]
    (sol,) = _solve_mod(a, rel, [rhs])
    if sol is None:
        return None
    s = _block_diag(col_spans) @ sol
    return GroupHom(h, g, IntMatrix.from_columns([s[j * sg : (j + 1) * sg] for j in range(hg)], sg))


def right_inverse_exists(f: GroupHom):
    """A hom s with f . s = id on f.target, or None if none exists.

    The unconstrained case of :func:`constrained_section_exists`: one
    Smith normal form per distinct order of the target generators.

    >>> z = FgAbGroup(1)
    >>> right_inverse_exists(GroupHom(z, FgAbGroup(0, (2,)), IntMatrix([[1]]))) is None
    True
    """
    return constrained_section_exists(f, ())


def solve_divisibility(g: FgAbGroup, target: GroupElement, n: int):
    """An element x of g with n*x = target, or None.

    Solves n * x = target modulo the relations of g, the system
    [n*I | R_g], through ``_solve_mod``.

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
    (sol,) = _solve_mod(_scalar(n, g.ngens), g.relation_matrix(), [target.coords])
    return None if sol is None else GroupElement(g, sol)
