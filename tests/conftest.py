"""Shared oracles and generators for the test suite.

The oracles share no code with kobstruct and read only the plain
fields of its values (``.data``, ``.rows``, ``.cols``, ``.rank``,
``.torsion``, ``.coords``):

* ``minors_gcd_diagonal`` and ``is_unimodular`` take their determinants
  from the fraction-free (Bareiss) ``determinant`` in ``bench/oracle.py``,
  a module that imports nothing from kobstruct;
* ``exhaustive_section_exists`` and the enumeration tests in
  ``test_solver_oracles.py`` walk the elements of a finite group as
  coordinate tuples (``elements``) and apply a hom as a matrix-vector
  product reduced by the target's orders (``apply``).

``integer_solution`` solves an integer linear system by column
operations on plain lists, and judges the section solver.

The random generators below build their values with kobstruct's
constructors; they produce inputs, not verdicts.  So does
``direct_sum_projections``, which reads the projections of a direct sum
off the lift of the sum's canonical form.  ``injective_by_snf`` is a
reference rather than an oracle: it reads a kernel off the transform
that kobstruct's ``smith_normal_form`` returns.

Every test has a time budget, ``TEST_BUDGET_S``.  A faulty elimination
step makes integers grow without bound rather than raise, so a test
that runs past its budget fails where it stands, and the run stops.
"""

from __future__ import annotations

import itertools
import signal
import sys
from math import gcd
from pathlib import Path

import pytest

from kobstruct import FgAbGroup, GroupHom, IntMatrix, smith_normal_form
from kobstruct.catalog import catalog_entries
from kobstruct.fgab import _canonicalize_sparse, _cyclic_canonical, _quotient_full, _snf_rows

# bench/test_bench.py imports the same module under the same name, so
# ``pytest tests bench`` in one process loads it once
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from oracle import determinant  # noqa: E402


# The slowest test, the classifier census in test_obstruct.py, takes
# about 5 s on a 2-vCPU machine; the others under 2 s.
TEST_BUDGET_S = 60


class BudgetExceeded(BaseException):
    """Raised inside a test that runs past ``TEST_BUDGET_S``.  Not an
    Exception, so hypothesis does not shrink the example and hang again."""


def _over_budget(signum, frame):
    raise BudgetExceeded(f"the test ran past its {TEST_BUDGET_S} s budget")


@pytest.fixture(autouse=True)
def _time_budget():
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, TEST_BUDGET_S)
    try:
        yield
    finally:
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if not left:
        pytest.exit(f"stopped after a test ran past its {TEST_BUDGET_S} s budget", returncode=1)


def random_matrix(rng, max_dim=6, lo=-20, hi=20):
    rows = rng.randrange(0, max_dim + 1)
    cols = rng.randrange(0, max_dim + 1)
    data = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix(data, cols=cols)


def minors_gcd_diagonal(m: IntMatrix):
    """Expected Smith diagonal via determinantal divisors: the k-th
    entry is g_k / g_(k-1) with g_k the gcd of all k x k minors."""
    n = min(m.rows, m.cols)
    diag = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = [[m.data[i][j] for j in cols] for i in rows]
                g = gcd(g, determinant(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            diag.extend([0] * (n - len(diag)))
            break
        diag.append(g // prev)
        prev = g
    return diag


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and abs(determinant(m.data)) == 1


def elements(torsion):
    """Every element of Z/d1 (+) ... (+) Z/dk as a coordinate tuple."""
    return itertools.product(*map(range, torsion))


def apply(matrix, vec, orders):
    """The matrix (a tuple of rows) times vec, each entry reduced by the
    order of its target generator (0 for a free one)."""
    out = []
    for row, d in zip(matrix, orders):
        x = sum(a * b for a, b in zip(row, vec))
        out.append(x % d if d else x)
    return tuple(out)


def random_unimodular(rng, n, steps=12):
    """A random product of elementary integer row operations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n else 0):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix(rows, cols=n)


def random_finite_group(rng, max_order=24, max_factors=2):
    """A random finite abelian group of order at most max_order."""
    factors = []
    order = 1
    for _ in range(rng.randrange(0, max_factors + 1)):
        d = rng.randint(2, max_order)
        if order * d > max_order:
            continue
        factors.append(d)
        order *= d
    return FgAbGroup(0, factors)


def random_element(rng, group):
    coords = [rng.randint(-5, 5) for _ in range(group.rank)]
    coords += [rng.randrange(d) for d in group.torsion]
    return group.element(coords)


def random_hom(rng, source: FgAbGroup, target: FgAbGroup) -> GroupHom:
    """A uniformly scattered well-defined hom between canonical groups.

    Free generators map anywhere; a torsion generator of order d maps
    to an element of the d-torsion subgroup of the target.
    """
    cols = []
    for k in range(source.ngens):
        d = 0 if k < source.rank else source.torsion[k - source.rank]
        col = []
        for r in range(target.ngens):
            if r < target.rank:
                col.append(rng.randint(-4, 4) if d == 0 else 0)
            else:
                e = target.torsion[r - target.rank]
                if d == 0:
                    col.append(rng.randrange(e))
                else:
                    step = e // gcd(d, e)
                    col.append(step * rng.randrange(e // step))
        cols.append(col)
    return GroupHom(source, target, IntMatrix.from_columns(cols, target.ngens))


def direct_sum_projections(groups):
    """The projection of the canonical sum of ``groups`` onto each
    summand.  Column r of the lift of ``_cyclic_canonical`` writes the
    r-th canonical generator of the sum in summand coordinates, so row p
    of a projection is coordinate p of every lift column."""
    groups = tuple(groups)
    s, _, lift = _cyclic_canonical([c for g in groups for c in [0] * g.rank + list(g.torsion)])
    rows = [[0] * s.ngens for _ in range(sum(g.ngens for g in groups))]
    for r, column in enumerate(lift):
        for p, e in column.items():
            rows[p][r] = e
    projections, offset = [], 0
    for g in groups:
        projections.append(GroupHom(s, g, IntMatrix(rows[offset : offset + g.ngens], cols=s.ngens)))
        offset += g.ngens
    return tuple(projections)


def dense_rows(vectors, n):
    """The dict rows ``vectors``, as ``_cyclic_canonical`` and
    ``_quotient_full`` give them, as dense rows of length ``n``."""
    rows = [[0] * n for _ in vectors]
    for row, v in zip(rows, vectors):
        for p, e in v.items():
            row[p] = e
    return rows


def snf_engine(m: IntMatrix, track=None):
    """(u, uinv_t, d, v_t) of ``_snf_rows`` on m, with u and uinv_t of
    mode "uinv" densified into lists of rows, so that every mode gives
    the same shape."""
    u, uinv_t, d, v_t = _snf_rows(m.data, m.cols, track)
    if track == "uinv":
        u, uinv_t = dense_rows(u, m.rows), dense_rows(uinv_t, m.rows)
    return u, uinv_t, d, v_t


def canonical_form(m: IntMatrix):
    """(group, to_canon, lift) of Z^n / columnspan(m), n = m.rows, as
    ``_canonicalize_sparse`` gives them, with to_canon and lift densified
    into matrices: a row of to_canon and a column of lift per canonical
    generator."""
    group, to_canon, lift = _canonicalize_sparse(m.data, m.cols)
    n = m.rows
    return group, IntMatrix(dense_rows(to_canon, n), cols=n), IntMatrix.from_columns(dense_rows(lift, n), n)


def unital_quotient_maps(an):
    """(q, proj_q, lift) of ``an.unital_quotient`` in dense form: the
    projection of K0A + K0B onto q as a hom, and the lift of each
    generator of q as a column of a matrix."""
    q, to_canon, lift = an.unital_quotient
    s = an.unit_relation.group
    proj = GroupHom(s, q, IntMatrix(dense_rows(to_canon, s.ngens), cols=s.ngens))
    return q, proj, IntMatrix.from_columns(dense_rows(lift, s.ngens), s.ngens)


def quotient_reference(m: IntMatrix):
    """(group, to_canon rows, lift columns) of Z^n / columnspan(m), read
    off dense transforms: the rows of the u of ``smith_normal_form``,
    tracked dense as trailing entries of the rows, at the free positions
    of its diagonal, each with its first nonzero entry made positive,
    then at the torsion positions; and the same columns of u^-1 (column
    j solves u z = e_j, by ``integer_solution``), with the same signs."""
    u, d, _ = smith_normal_form(m)
    n = m.rows
    diag = [d[i, i] for i in range(min(n, m.cols))]
    free = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    tors = [i for i in range(len(diag)) if diag[i] > 1]
    inverse = [integer_solution(u.data, [int(i == j) for i in range(n)]) for j in range(n)]
    rows, cols = [], []
    for p in free + tors:
        sign = -1 if p in free and next(e for e in u.row(p) if e) < 0 else 1
        rows.append([sign * e for e in u.row(p)])
        cols.append([sign * e for e in inverse[p]])
    return FgAbGroup(len(free), [diag[i] for i in tors]), rows, cols


def assert_quotient_path(g, x):
    """``_quotient_full(g, x)``, sparse, against ``canonical_form`` of
    the presentation [R_g | x] and against ``quotient_reference``."""
    m = g.relation_matrix().hstack(IntMatrix.from_columns([x.coords], g.ngens))
    q, to_canon, lift = _quotient_full(g, x)
    rows, cols = dense_rows(to_canon, g.ngens), dense_rows(lift, g.ngens)
    group, dense_to_canon, dense_lift = canonical_form(m)
    assert q == group and tuple(map(tuple, rows)) == dense_to_canon.data, (g, x.coords)
    assert IntMatrix.from_columns(cols, g.ngens) == dense_lift, (g, x.coords)
    assert (q, rows, cols) == quotient_reference(m), (g, x.coords)


def invariant_factors_by_primes(factors):
    """(rank, torsion) of Z/f_1 + ... + Z/f_k, Z/0 counting as Z, by its
    primary decomposition: factor each f_i by trial division, then give
    the largest invariant factor the largest power of every prime, the
    next one the next largest, and so on."""
    rank, powers = 0, {}
    for f in map(abs, factors):
        if not f:
            rank += 1
        p = 2
        while f > 1:
            if p * p > f:
                p = f
            e = 0
            while f % p == 0:
                f //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p**e)
            p += 1
    length = max(map(len, powers.values()), default=0)
    torsion = [1] * length
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            torsion[length - 1 - k] *= q
    return rank, tuple(torsion)


def injective_by_snf(f: GroupHom) -> bool:
    """Injectivity read off smith_normal_form of [f | R_h]: every kernel
    column of v must vanish in the source."""
    stacked = f.matrix.hstack(f.target.relation_matrix())
    _, d, v = smith_normal_form(stacked)
    rank = sum(1 for i in range(min(stacked.rows, stacked.cols)) if d[i, i])
    sg = f.source.ngens
    return not any(any(f.source.reduce(v.column(j)[:sg])) for j in range(rank, stacked.cols))


def exhaustive_section_exists(f: GroupHom) -> bool:
    """Element-enumeration oracle for right-inverse existence.

    Valid whenever the source of f is finite.  A hom out of the target
    is freely determined by generator images subject to per-generator
    conditions, so column-wise search is exhaustive: generator e_k of
    order d needs an element x of the source with f(x) = e_k and d x = 0.
    """
    g, h = f.source, f.target
    if g.rank:
        raise ValueError("oracle needs a finite source group")
    orders = [0] * h.rank + list(h.torsion)
    for k, d in enumerate(orders):
        gen = tuple(int(i == k) for i in range(len(orders)))
        for cand in elements(g.torsion):
            if apply(f.matrix.data, cand, orders) == gen and (
                d == 0 or all(d * c % e == 0 for c, e in zip(cand, g.torsion))
            ):
                break
        else:
            return False
    return True


def integer_solution(rows, rhs):
    """An integer vector z with rows @ z == rhs, or None if there is none.

    Column operations (swaps and subtracting integer multiples) bring
    the matrix to lower echelon form H = M V, with V unimodular and
    tracked alongside; H w = rhs is then solved row by row, and z = V w.
    """
    n = len(rows[0]) if rows else 0
    cols = [[row[j] for row in rows] for j in range(n)]
    basis = [[int(i == j) for i in range(n)] for j in range(n)]  # columns of V
    pivots, c = [], 0
    for r in range(len(rows)):
        while True:
            live = [j for j in range(c, n) if cols[j][r]]
            if len(live) <= 1:
                break
            k = min(live, key=lambda j: abs(cols[j][r]))
            for j in live:
                if j != k:
                    q = cols[j][r] // cols[k][r]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[k])]
                    basis[j] = [x - q * y for x, y in zip(basis[j], basis[k])]
        if live:
            j = live[0]
            cols[c], cols[j] = cols[j], cols[c]
            basis[c], basis[j] = basis[j], basis[c]
            pivots.append(r)
            c += 1
    residual, w = list(rhs), []
    for r in range(len(rows)):
        if len(w) < len(pivots) and pivots[len(w)] == r:
            k = len(w)
            q, rem = divmod(residual[r], cols[k][r])
            if rem:
                return None
            w.append(q)
            residual = [x - q * y for x, y in zip(residual, cols[k])]
        elif residual[r]:
            return None
    z = [sum(w[k] * basis[k][i] for k in range(len(w))) for i in range(n)]
    assert [sum(a * b for a, b in zip(row, z)) for row in rows] == list(rhs)
    return z


@pytest.fixture(scope="session")
def catalog():
    return catalog_entries()
