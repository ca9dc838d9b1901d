"""Unit and property tests for the abelian-group engine."""

import hashlib
import random
import time
from math import gcd, inf, lcm, log2, prod

import pytest
from hypothesis import given, settings, strategies as st

from kobstruct import (
    FgAbGroup,
    GroupHom,
    GroupMismatchError,
    IntMatrix,
    cokernel,
    compose,
    direct_sum_many,
    is_surjective,
    quotient_by,
    right_inverse_exists,
    smith_normal_form,
    solve_divisibility,
    tensor,
    tensor_elem,
    tor,
)
from kobstruct import fgab
from kobstruct.catalog import evaluate
from kobstruct.fgab import _cyclic_canonical
from kobstruct.kinv import PairAnalysis
from conftest import (
    assert_quotient_path,
    canonical_form,
    direct_sum_projections,
    injective_by_snf,
    integer_solution,
    invariant_factors_by_primes,
    is_unimodular,
    minors_gcd_diagonal,
    random_element,
    random_hom,
    random_unimodular,
    snf_engine,
)

Z = FgAbGroup(1)
TRIVIAL = FgAbGroup()


def _diag(d):
    return [d[i, i] for i in range(min(d.rows, d.cols))]


def _presented(generators, relations):
    """The canonical group Z^generators / columnspan(relations)."""
    return cokernel(GroupHom(FgAbGroup(relations.cols), FgAbGroup(generators), relations))


def _zeros(rows, cols):
    return IntMatrix([[0] * cols for _ in range(rows)], cols=cols)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_worked_example():
    m = IntMatrix([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert _diag(d) == [2, 4]
    assert (u @ m) @ v == d
    assert is_unimodular(u) and is_unimodular(v)


def test_snf_identity():
    m = IntMatrix.identity(3)
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix.identity(3)
    assert (u @ m) @ v == d


def test_snf_zero_and_empty():
    u, d, v = smith_normal_form(IntMatrix([[0]]))
    assert _diag(d) == [0]
    for shape in ((0, 0), (0, 3), (3, 0)):
        m = _zeros(*shape)
        u, d, v = smith_normal_form(m)
        assert (u @ m) @ v == d


matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix(rows, cols=c))
    )
)


def test_hermite_rows_flip_a_negative_pivot_with_the_dict_row_transform():
    # the first row leads with a negative entry, so it becomes its
    # column's pivot by a sign flip, which the dict-row transform and its
    # inverse transpose take too; _snf_rows never flips one, since each
    # of its row stages follows a column stage whose pivots are positive
    rows = [[-2, 3, 1], [4, -1, 5], [-6, 2, 0]]
    n = len(rows)
    tail, inv = [{i: 1} for i in range(n)], [{i: 1} for i in range(n)]
    rank, h = fgab._hnf_rows(rows, tail, inv)
    assert rank == n and h[0][0] > 0
    assert all(row[i] > 0 for i, row in enumerate(h))
    t = IntMatrix([[r.get(j, 0) for j in range(n)] for r in tail])
    t_inv = IntMatrix.from_columns([[r.get(j, 0) for j in range(n)] for r in inv], n)
    assert t @ IntMatrix(rows) == IntMatrix(h)
    assert t @ t_inv == IntMatrix.identity(n)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_soundness(m):
    u, d, v = smith_normal_form(m)
    assert (u @ m) @ v == d
    assert is_unimodular(u) and is_unimodular(v)
    diag = _diag(d)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_snf_matches_minor_gcds(m):
    _, d, _ = smith_normal_form(m)
    assert _diag(d) == minors_gcd_diagonal(m)


DENSE_8X8 = [
    [-6, 3, 4, -12, -8, -18, -15, -12],
    [-5, 12, -7, 5, -19, 9, 11, 9],
    [4, 11, 16, -8, 5, -15, 11, -6],
    [-19, -3, 13, 6, 10, 4, -13, -4],
    [-14, -16, 4, 19, 4, -14, -17, 1],
    [-5, -15, 11, 13, -7, 17, -11, 18],
    [-16, 14, -18, 11, -8, -11, 17, 9],
    [17, 8, -2, 15, 2, 7, -12, -10],
]


def _engine_outputs(rows):
    """(u, d, v) of smith_normal_form and (group, to_canon, lift) of
    canonical_form, as plain tuples."""
    m = IntMatrix(rows)
    u, d, v = smith_normal_form(m)
    group, to_canon, lift = canonical_form(m)
    return u.data, d.data, v.data, group, to_canon.data, lift.data


def test_generic_engine_outputs_pinned():
    # Exact transforms of the generic engine (alternating Hermite stages,
    # then the chain step), recorded from the full-tracking
    # implementation: dropping the transforms a caller does not read
    # must not move them.
    assert _engine_outputs([[2, 4], [6, 8]]) == (
        ((1, 0), (-1, 1)), ((2, 0), (0, 4)), ((-1, 2), (1, -1)),
        FgAbGroup(0, (2, 4)), ((1, 0), (-1, 1)), ((1, 0), (1, 1)),
    )
    assert _engine_outputs([[4, 6, 0, 2, 8], [0, 3, 9, 0, 6], [2, 0, 5, 1, 7]]) == (
        ((2, -1, 0), (0, 0, 1), (3, -2, 6)),
        ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 6, 0, 0)),
        (
            (-105, -402, 411, -1, 11), (10, 38, -39, 0, -1), (85, 326, -333, 0, -9),
            (709, 2717, -2776, 2, -75), (-132, -506, 517, 0, 14),
        ),
        FgAbGroup(0, (6,)), ((3, -2, 6),), ((-1,), (-2,), (0,)),
    )
    assert _engine_outputs([[0, 6], [9, -3], [2, 2], [4, 0]]) == (
        ((5, 3, -11, -1), (13, 8, -29, -3), (-4, -2, 9, 0), (-14, -8, 30, 3)),
        ((1, 0), (0, 2), (0, 0), (0, 0)),
        ((2, -1), (1, -1)),
        FgAbGroup(2, (2,)),
        ((4, 2, -9, 0), (14, 8, -30, -3), (13, 8, -29, -3)),
        ((-1, 1, -3), (-2, -2, -3), (-1, 0, -2), (0, -1, -2)),
    )
    dense = repr(_engine_outputs(DENSE_8X8)).encode()
    assert hashlib.sha256(dense).hexdigest() == (
        "b847cf399b6e56161a83dac4b65bdff6b444d7cd9e62da8a4e36ff0689ce6777"
    )


def _quotient_presentation(group, coords):
    """The relation matrix of group / <coords> in relations-first order:
    one column per invariant factor, then the element's column.  It spans
    the lattice that ``_quotient_full`` presents element first."""
    return group.relation_matrix().hstack(IntMatrix.from_columns([coords], group.ngens))


# The quotient presentations of test_engine_outputs_pinned_on_dense_shapes,
# each a diagonal plus one column: (group, element).
_QUOTIENT_CASES = [
    (FgAbGroup(2, (2, 4, 12)), (3, -5, 1, 2, 7)),
    (FgAbGroup(0, (3, 9, 27, 81)), (2, 4, 10, 40)),
    (FgAbGroup(3, (6, 6)), (0, 4, -2, 3, 5)),
    (FgAbGroup(6, (2, 10, 30, 60, 120, 840)), tuple(range(-5, 7))),
]

# The engine's modes, each with whether it tracks u, u^-1 and v.
_MODES = {None: (False, False, False), "uinv": (True, True, False), "v": (True, False, True)}


def test_engine_outputs_pinned_on_dense_shapes():
    # Every output of the engine, in each of its three modes: none
    # (cokernel), u with u^-1 (quotients) and u with v
    # (smith_normal_form).  Inputs are two seeded matrices of each
    # dense-snf benchmark shape, entries in [-20, 20], and quotient
    # presentations, a diagonal plus one column.
    rng = random.Random(2024)
    shapes = [(8, 8), (10, 10), (12, 12), (14, 14), (16, 16), (10, 14), (14, 10), (12, 16), (16, 12), (6, 16)]
    inputs = [
        IntMatrix([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)], cols=c)
        for r, c in shapes
        for _ in range(2)
    ]
    inputs += [
        _quotient_presentation(FgAbGroup(2, (2, 4, 12)), (3, -5, 1, 2, 7)),
        _quotient_presentation(FgAbGroup(0, (3, 9, 27, 81)), (2, 4, 10, 40)),
        _quotient_presentation(FgAbGroup(3, (6, 6)), (0, 4, -2, 3, 5)),
        _quotient_presentation(FgAbGroup(6, (2, 10, 30, 60, 120, 840)), tuple(range(-5, 7))),
    ]
    start = time.perf_counter()
    digest = hashlib.sha256()
    for m in inputs:
        for track in _MODES:
            digest.update(repr(snf_engine(m, track)).encode())
    assert time.perf_counter() - start < 2.0
    # recorded from the engine with three independent flags, over the
    # three flag sets these modes stand for
    assert digest.hexdigest() == (
        "d184ff02889e5144f3113c237ccf00688accc2219a53961215cf78a7931e12e3"
    )


def test_quotient_path_matches_the_dense_canonical_form():
    # The unital quotient's relations, a diagonal plus one column, are
    # built row by row and reduced with sparse transforms; the row
    # operations, and so every coordinate, are those of the dense form.
    for group, coords in _QUOTIENT_CASES:
        assert_quotient_path(group, group.element(coords))
    rng = random.Random(43)
    for _ in range(300):
        g = FgAbGroup(rng.randint(0, 3), [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(0, 4))])
        assert_quotient_path(g, g.element([rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(g.ngens)]))


def test_free_unital_quotient_costs_its_relations():
    # Z^n / <(1, ..., 1, -1)>, the unital quotient of C^10 (x) C^100
    # against C: its dense transforms took 0.33 s and 40 MiB at n = 1,001.
    n = 1001
    g = FgAbGroup(n)
    x = g.element([1] * (n - 1) + [-1])
    start = time.perf_counter()
    q, to_canon, lift = fgab._quotient_full(g, x)
    assert time.perf_counter() - start < 0.25
    assert q == FgAbGroup(n - 1)
    assert sum(map(len, to_canon)) + sum(map(len, lift)) <= 4 * n


def _assert_own_dict_rows(to_canon, lift):
    """Each row of ``to_canon`` and of ``lift`` is a dict with no zero
    entry, and no two share one: after one in-place ``_axpy`` per row,
    each row has changed once."""
    rows = [*to_canon, *lift]
    assert all(type(r) is dict and all(r.values()) for r in rows)
    for r in rows:
        fgab._axpy(r, 1, {-1: 1})
    assert all(r[-1] == 1 for r in rows)


def test_canonical_forms_hand_out_their_own_dict_rows():
    for group, coords in _QUOTIENT_CASES:
        _assert_own_dict_rows(*fgab._quotient_full(group, group.element(coords))[1:])
    for m in _engine_matrices(41, 300):
        _assert_own_dict_rows(*fgab._canonicalize_sparse(m.data, m.cols)[1:])
    # free generators, whose rows start as {k: 1} in both, torsion ones
    # and repeated orders
    rng = random.Random(47)
    for orders in [[0, 0, 0], [0, 2, 0, 2, 3, 1, 0, 6], [4] * 5 + [0] * 5 + [6] * 5]:
        _assert_own_dict_rows(*_cyclic_canonical(orders)[1:])
    for _ in range(200):
        _assert_own_dict_rows(*_cyclic_canonical([rng.choice(CYCLIC_ORDERS) for _ in range(rng.randrange(0, 9))])[1:])


# Shapes the random engine inputs cycle through besides random ones:
# empty, one entry, one row and one column.
_EDGE_SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 6), (6, 1)]


def _engine_matrices(seed, count):
    """Random matrices up to 7 x 7; every other one has an edge shape, and
    about one in four is zero."""
    rng = random.Random(seed)
    for k in range(count):
        r, c = _EDGE_SHAPES[k % 6] if k % 2 else (rng.randint(0, 7), rng.randint(0, 7))
        e = rng.choice([0, 1, 5, 40])
        yield IntMatrix([[rng.randint(-e, e) for _ in range(c)] for _ in range(r)], cols=c)


def test_snf_engine_tracks_each_transform_alike():
    # Every step of the engine reads only the matrix being reduced, so d
    # is the same in each mode and u in both modes that track it, and an
    # untracked transform is None.
    for m in _engine_matrices(17, 600):
        outputs = {track: snf_engine(m, track) for track in _MODES}
        u, uinv_t, d, _ = outputs["uinv"]
        v_t = outputs["v"][3]
        v = IntMatrix.from_columns(v_t, m.cols)
        assert IntMatrix(u, cols=m.rows) @ m @ v == IntMatrix(d, cols=m.cols)
        assert IntMatrix(u, cols=m.rows) @ IntMatrix.from_columns(uinv_t, m.rows) == IntMatrix.identity(m.rows)
        for track, got in outputs.items():
            assert got[2] == d
            for tracked, part, ref in zip(_MODES[track], (got[0], got[1], got[3]), (u, uinv_t, v_t)):
                assert part == (ref if tracked else None)


# Pairs whose induced maps stalled the engine when it was a smallest-pivot
# loop alone: entries of its transforms outgrew the Hadamard bound by
# orders of magnitude.  Each is (A, B, the map, its cokernel).
_STALLS = [
    (   # cokernel(pi0): a 22 x 27 [f | R_h], more than 40 s before
        '{"k0":{"rank":1,"torsion":[7,441]},"k1":{"rank":1,"torsion":[25,250]},"unit":[8,0,38]}',
        '{"k0":{"rank":1,"torsion":[7,49,343,2744]},"k1":{"rank":1,"torsion":[28,24696]},'
        '"unit":[-22,4,27,18,110]}',
        "pi0",
        FgAbGroup(1, (7,) * 6 + (14,) * 3 + (98, 98, 196, 88200, 3087000)),
    ),
    (   # is_surjective(pi1): a 16 x 20 [f | R_h], 9 s or more before
        '{"k0":{"rank":1,"torsion":[9,231525]},"k1":{"rank":1,"torsion":[5,231525]},"unit":[-41,6,68287]}',
        '{"k0":{"rank":1,"torsion":[2,8,56]},"k1":{"rank":1,"torsion":[49,49,3430]},"unit":[-26,0,1,44]}',
        "pi1",
        FgAbGroup(0, (7,) * 3 + (49,) * 3 + (245, 3430, 123480, 1974445200)),
    ),
]


@pytest.mark.parametrize("lit_a, lit_b, name, coker", _STALLS, ids=["pi0", "pi1"])
def test_former_engine_stalls_finish_fast(lit_a, lit_b, name, coker):
    f = getattr(PairAnalysis(evaluate(lit_a), evaluate(lit_b)), name)
    start = time.perf_counter()
    assert cokernel(f) == coker
    assert time.perf_counter() - start < 2.0
    assert not coker.is_trivial
    m = f.matrix.hstack(f.target.relation_matrix())
    u, d, v = smith_normal_form(m)
    assert (u @ m) @ v == d
    assert is_unimodular(u) and is_unimodular(v)
    diag = _diag(d)
    assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)
    assert FgAbGroup(m.rows - sum(map(bool, diag)), [x for x in diag if x > 1]) == coker


def _bits(m):
    return max((abs(e).bit_length() for row in m.data for e in row), default=0)


def test_snf_transform_growth_is_bounded():
    # Dense n x n, (3n/4) x n and n x (3n/4) matrices with entries in
    # [-20, 20], so b = 5 input bits.  Over 40 seeds per shape the
    # largest transform entry had at most 1.08 n (b + log2 n) bits for a
    # square matrix, 0.92 for a wide one and 2.28 for a tall one, whose
    # u holds a basis of the left kernel (797 bits at 40 x 30).  The
    # bounds leave a margin of 1.5 or more over those.
    rng = random.Random(11)
    b = 5
    for n in (8, 16, 24, 32, 40):
        for r, c in ((n, n), (3 * n // 4, n), (n, 3 * n // 4)):
            m = IntMatrix([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
            u, d, v = smith_normal_form(m)
            assert (u @ m) @ v == d
            bound = (3 if r == c else 3.5) * n * (b + log2(n))
            assert max(_bits(u), _bits(v)) <= bound, (r, c)


def test_transform_free_questions_agree_with_the_full_engine():
    # Every other hom maps a group to itself.  A finitely generated
    # abelian group is Hopfian, so such a hom is injective when it is
    # onto, which lets iso_remark_check read bijectivity off
    # is_surjective and the field-equality of source and target.
    rng = random.Random(23)
    orders = [2, 3, 4, 6, 8, 9, 12]
    onto_self = onto_free = 0
    for k in range(800):
        g = FgAbGroup(rng.randint(0, 2), [rng.choice(orders) for _ in range(rng.randint(0, 3))])
        h = g if k % 2 else FgAbGroup(rng.randint(0, 2), [rng.choice(orders) for _ in range(rng.randint(1, 3))])
        f = random_hom(rng, g, h)
        stacked = f.matrix.hstack(h.relation_matrix())
        coker = cokernel(f)
        assert coker == canonical_form(stacked)[0]
        assert is_surjective(f) == coker.is_trivial
        if h == g and is_surjective(f):
            assert injective_by_snf(f), (g, f.matrix)
            onto_self += 1
            onto_free += g.rank > 0
    assert onto_self >= 30 and onto_free >= 10, (onto_self, onto_free)


def test_quotient_coordinates_depend_only_on_the_relation_lattice():
    # The engine starts with a column Hermite form, which is the same for
    # every relation matrix of one lattice, and reads nothing else of
    # the matrix, so the quotient's generators cannot depend on how the
    # relations are listed.
    rng = random.Random(37)
    for _ in range(500):
        n, k = rng.randint(1, 5), rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(k)] for _ in range(n)])
        cols = [list(c) for c in zip(*m.data)]
        rng.shuffle(cols)
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        cols[i] = [-e for e in cols[i]]
        if i != j:
            q = rng.randint(-3, 3)
            cols[j] = [e + q * f for e, f in zip(cols[j], cols[i])]
        coeffs = [rng.randint(-2, 2) for _ in cols]
        cols.append([sum(q * c[r] for q, c in zip(coeffs, cols)) for r in range(n)])
        again = IntMatrix.from_columns(cols, n)
        assert canonical_form(again) == canonical_form(m), m


def _plain_tuples(m):
    return type(m.data) is tuple and all(
        type(row) is tuple and len(row) == m.cols and all(type(e) is int for e in row)
        for row in m.data
    )


def test_trusted_constructor_matches_the_public_one():
    rng = random.Random(29)
    for _ in range(300):
        r, c, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        a = IntMatrix(rows, cols=c)
        trusted = IntMatrix._trusted(tuple(map(tuple, rows)), c)
        assert trusted == a and hash(trusted) == hash(a)
        assert (trusted.rows, trusted.cols) == (a.rows, a.cols)
        b = IntMatrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(c)], cols=k)
        built = [
            (a @ b, [[sum(a[i, t] * b[t, j] for t in range(c)) for j in range(k)] for i in range(r)], k),
            (a.hstack(a), [row + row for row in rows], 2 * c),
            (IntMatrix.from_columns([a.column(j) for j in range(c)], r), rows, c),
        ]
        for got, want_rows, cols in built:
            want = IntMatrix(want_rows, cols=cols)
            assert _plain_tuples(got) and got == want and hash(got) == hash(want)

    for _ in range(200):
        g = FgAbGroup(rng.randint(0, 2), [rng.choice([2, 4, 6]) for _ in range(rng.randint(0, 2))])
        h = FgAbGroup(rng.randint(0, 2), [rng.choice([2, 4, 6]) for _ in range(rng.randint(0, 2))])
        f = random_hom(rng, g, h)
        # an unreduced matrix of the same hom, through the public constructor
        orders = [0] * h.rank + list(h.torsion)
        shifted = [[e + t * rng.randint(-3, 3) for e in row] for row, t in zip(f.matrix.to_json(), orders)]
        again = GroupHom(g, h, IntMatrix(shifted, cols=g.ngens))
        assert _plain_tuples(f.matrix) and again == f and hash(again) == hash(f)
        s, injs = direct_sum_many((g, h))
        for m in injs:
            public = GroupHom(m.source, m.target, IntMatrix(m.matrix.to_json(), cols=m.source.ngens))
            assert _plain_tuples(m.matrix) and public == m and hash(public) == hash(m)


def test_public_constructors_still_check_their_input():
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="cols does not match"):
        IntMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="wrong length"):
        IntMatrix.from_columns([[1, 2], [3]], 2)
    converted = IntMatrix([[4, -5, True]])
    assert converted.data == ((4, -5, 1),) and _plain_tuples(converted)
    with pytest.raises(ValueError, match="hom matrix must be 1 x 1"):
        GroupHom(Z, Z, IntMatrix([[1, 2]]))
    with pytest.raises(ValueError, match="not a well-defined hom"):
        GroupHom(FgAbGroup(0, (4,)), FgAbGroup(0, (6,)), IntMatrix([[1]]))
    with pytest.raises(ValueError, match="not a well-defined hom"):
        GroupHom(FgAbGroup(0, (2,)), Z, IntMatrix([[3]]))


def test_multipliers_must_be_integers():
    # int() would truncate 2.5 to 2; exact arithmetic refuses it instead
    z2 = FgAbGroup(2)
    x = z2.element((1, 1))
    for bad in (2.5, 2.0, "2", None):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
        with pytest.raises(TypeError):
            solve_divisibility(Z, Z.element((6,)), bad)
    assert (x * 2).coords == (2 * x).coords == (2, 2)
    assert (x * True).coords == (1, 1)
    assert solve_divisibility(Z, Z.element((6,)), 2).coords == (3,)


def test_constructors_refuse_floats():
    # int() would truncate: FgAbGroup(1.7, (2.9,)) was Z + Z/2, an
    # element (2.5,) was [2] and IntMatrix([[1.5, 2]]) was [[1, 2]]
    for bad in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            FgAbGroup(bad)
        with pytest.raises(TypeError):
            FgAbGroup(0, (bad,))
        with pytest.raises(TypeError):
            Z.element((bad,))
        with pytest.raises(TypeError):
            FgAbGroup(0, (4,)).reduce((bad,))
        with pytest.raises(TypeError):
            IntMatrix([[bad, 2]])
        with pytest.raises(TypeError):
            IntMatrix([], cols=bad)
    assert FgAbGroup(True, (6, False)) == FgAbGroup(2, (6,))
    assert Z.element((True,)).coords == (1,)
    assert FgAbGroup(0, (4,)).reduce((-1,)) == (3,)
    assert IntMatrix([[True, 2]]).data == ((1, 2),)
    assert IntMatrix([], cols=True).cols == 1


def test_constructors_refuse_negative_sizes():
    # IntMatrix([], cols=-2) had -2 columns, from_columns([], -1) had no
    # rows and identity(-3) was the empty matrix
    with pytest.raises(ValueError, match="cols must be nonnegative"):
        IntMatrix([], cols=-2)
    with pytest.raises(ValueError, match="rows must be nonnegative"):
        IntMatrix.from_columns([], -1)
    with pytest.raises(ValueError):
        IntMatrix.identity(-3)
    assert IntMatrix.from_columns([], 2).data == ((), ())
    assert IntMatrix.identity(0) == IntMatrix([], cols=0)


def test_generator_refuses_an_index_out_of_range():
    # generator(-1) wrapped around to the last generator, and generator(2)
    # of a group of two raised a bare list-assignment IndexError
    g = FgAbGroup(1, (2,))
    assert g.generator(1).coords == (0, 1)
    for k in (-1, -3, 2, 5):
        with pytest.raises(IndexError, match=r"not in range\(0, 2\)"):
            g.generator(k)
    with pytest.raises(IndexError, match=r"range\(0, 0\)"):
        FgAbGroup().generator(0)


def _merged_factors(factors):
    """The invariant factors of (+) Z/d by the sort-and-merge loop run
    to a fixed point, whether or not its input is already a chain."""
    factors = [abs(d) for d in factors if abs(d) > 1]
    while True:
        factors.sort()
        changed = False
        for i in range(len(factors) - 1):
            x, y = factors[i], factors[i + 1]
            if y % x:
                factors[i], factors[i + 1] = gcd(x, y), lcm(x, y)
                changed = True
        factors = [d for d in factors if d > 1]
        if not changed:
            return tuple(factors)


def test_group_normalization_matches_the_merge_loop():
    rng = random.Random(31)
    choices = [-6, -2, 0, 1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 36]
    for k in range(1000):
        factors = [rng.choice(choices) for _ in range(rng.randint(0, 6))]
        if k % 2:
            factors = list(_merged_factors(factors))  # already a chain
        g = FgAbGroup(1, factors)
        assert g.torsion == _merged_factors(factors)
        assert g.rank == 1 + factors.count(0)


def _factor_list(rng):
    """Up to 40 factors mixing 0, +-1, negatives, repeats and products of
    distinct primes."""
    kind = rng.randrange(4)
    n = rng.randint(0, 40)
    if kind == 0:  # anything small, signs and all
        return [rng.randint(-60, 60) for _ in range(n)]
    if kind == 1:  # a few values, each repeated
        pool = [rng.choice([-1, 0, 1, 2, 3, 4, 6, 8, 9, 12, 16, 27, -18]) for _ in range(3)]
        return [rng.choice(pool) for _ in range(n)]
    if kind == 2:  # coprime mixes: products of distinct small primes
        primes = [2, 3, 5, 7, 11, 13]
        return [rng.choice((1, -1)) * prod(rng.sample(primes, rng.randint(1, 3))) for _ in range(n)]
    # prime powers, with zeros and units between them
    return [rng.choice([0, 1, -1, rng.choice([2, 3, 5]) ** rng.randint(1, 6)]) for _ in range(n)]


def test_group_constructor_matches_the_prime_power_oracle():
    rng = random.Random(41)
    for _ in range(5000):
        factors = _factor_list(rng)
        rank = rng.randint(0, 2)
        g = FgAbGroup(rank, factors)
        want_rank, want_torsion = invariant_factors_by_primes(factors)
        assert (g.rank, g.torsion) == (rank + want_rank, want_torsion), factors
    for bad in ((2.0,), (4, 2.5), (0, 6, 1e3)):
        with pytest.raises(TypeError):
            FgAbGroup(0, bad)


@pytest.mark.parametrize(
    "factors, most_s",
    [((2, 3) * 500, 0.5), ((6, 4) * 1500, 0.1), (tuple(range(301, 1, -1)), 0.1)],
    ids=["2,3x500", "6,4x1500", "301..2"],
)
def test_group_constructor_cost_on_long_factor_lists(factors, most_s):
    # Each factor is appended when the top of the chain divides it, and
    # otherwise carries gcds down the chain, stepping over each run of
    # factors it divides.  On a 2-vCPU machine this takes 1.7 ms, 7 ms
    # and 1 ms; carrying past every factor of such a run one at a time
    # took 46 ms, 0.33 s and 1.5 ms.
    start = time.perf_counter()
    g = FgAbGroup(0, factors)
    assert time.perf_counter() - start < most_s
    assert (0, g.torsion) == invariant_factors_by_primes(factors)


# ---------------------------------------------------------------------------
# Canonical forms


def test_canonicalize_examples():
    assert _presented(2, IntMatrix([[2], [-3]])) == Z
    assert _presented(2, IntMatrix([[2], [-2]])) == FgAbGroup(1, (2,))
    assert _presented(1, _zeros(1, 0)) == Z


def test_group_normalization():
    assert FgAbGroup(0, (2, 3)) == FgAbGroup(0, (6,))
    assert FgAbGroup(0, (4, 2)) == FgAbGroup(0, (2, 4))
    assert FgAbGroup(1, (0, 1, -5)) == FgAbGroup(2, (5,))
    assert FgAbGroup(0, (4, 6, 9)) == FgAbGroup(0, (6, 36))
    with pytest.raises(ValueError):
        FgAbGroup(-1)


def test_basis_change_is_onto_canonical_coords():
    g, to_canon, _ = canonical_form(IntMatrix([[2, 0], [0, 3], [0, 0]]))
    assert g == FgAbGroup(1, (6,))
    assert is_surjective(GroupHom(FgAbGroup(3), g, to_canon))


def test_canonicity_under_unimodular_change():
    rng = random.Random(7)
    for _ in range(40):
        rank = rng.randrange(0, 3)
        tors = [rng.choice([2, 3, 4, 6, 12]) for _ in range(rng.randrange(0, 3))]
        g = FgAbGroup(rank, tors)
        n = g.ngens
        rel = g.relation_matrix()
        w = random_unimodular(rng, n)
        changed = w @ rel
        # pad with redundant zero relations as well
        padded = changed.hstack(_zeros(n, 2))
        assert _presented(n, padded) == g


# ---------------------------------------------------------------------------
# Direct sums and quotients


def test_direct_sum_examples():
    assert direct_sum_many((Z, Z))[0] == FgAbGroup(2)
    assert direct_sum_many((FgAbGroup(0, (2,)), FgAbGroup(0, (3,))))[0] == FgAbGroup(0, (6,))
    assert direct_sum_many((FgAbGroup(2), FgAbGroup(2)))[0] == FgAbGroup(4)


def test_direct_sum_structure_maps():
    rng = random.Random(3)
    for _ in range(25):
        g = FgAbGroup(rng.randrange(0, 2), [rng.choice([2, 3, 4, 9])for _ in range(rng.randrange(0, 3))])
        h = FgAbGroup(rng.randrange(0, 2), [rng.choice([2, 5, 8]) for _ in range(rng.randrange(0, 2))])
        s, (inj_g, inj_h) = direct_sum_many((g, h))
        proj_g, proj_h = direct_sum_projections((g, h))
        assert compose(inj_g, proj_g) == GroupHom.identity(g)
        assert compose(inj_h, proj_h) == GroupHom.identity(h)
        assert compose(inj_g, proj_h).matrix == _zeros(h.ngens, g.ngens)
        # the two injections jointly cover the sum
        joint = inj_g.matrix.hstack(inj_h.matrix)
        assert _presented(s.ngens, joint.hstack(s.relation_matrix())).is_trivial


def test_zero_sums_are_read_off_the_counts(monkeypatch):
    # a sum of groups with no generators is the trivial group and the
    # empty injections, with no canonical form, transpose or fill built
    def refuse(*args):
        raise AssertionError("a zero sum built a canonical form")

    for name in ("_cyclic_canonical", "_transpose", "_dense"):
        monkeypatch.setattr(fgab, name, refuse)
    for groups in ((), (FgAbGroup(),), (FgAbGroup(), FgAbGroup(0, (1,)), FgAbGroup())):
        s, injections = direct_sum_many(groups)
        assert s == FgAbGroup() and len(injections) == len(groups)
        for g, inj in zip(groups, injections):
            assert (inj.source, inj.target, inj.matrix) == (g, s, IntMatrix([]))
    monkeypatch.undo()
    assert direct_sum_many((FgAbGroup(), FgAbGroup(0, (2,))))[0] == FgAbGroup(0, (2,))


def test_quotient_examples():
    z4 = FgAbGroup(4)
    q, proj = quotient_by(z4, z4.element((1, 1, -1, -1)))
    assert q == FgAbGroup(3)
    assert is_surjective(proj)

    z2 = FgAbGroup(2)
    q, proj = quotient_by(z2, z2.element((2, -3)))
    assert q == Z
    assert proj(z2.element((2, 0))) == q.element((6,))

    g = FgAbGroup(1, (4,))
    q, proj = quotient_by(g, g.zero())
    assert q == g

    with pytest.raises(GroupMismatchError):
        quotient_by(g, Z.element((1,)))


def test_quotient_kernel_is_generated_by_x():
    rng = random.Random(11)
    for _ in range(25):
        g = FgAbGroup(rng.randrange(0, 3), [rng.choice([2, 4, 6]) for _ in range(rng.randrange(0, 2))])
        if g.is_trivial:
            continue
        x = random_element(rng, g)
        q, proj = quotient_by(g, x)
        assert is_surjective(proj)
        assert proj(x).is_zero
        # every kernel generator is a multiple of x: scan a small box of
        # elements mapping to zero and solve k * x = elem
        stacked = proj.matrix.hstack(q.relation_matrix())
        _, d, v = smith_normal_form(stacked)
        rank = sum(1 for i in range(min(stacked.rows, stacked.cols)) if d[i, i])
        for j in range(rank, stacked.cols):
            col = v.column(j)[: g.ngens]
            elem = g.element(col)
            sol = _solve_multiple(g, x, elem)
            assert sol is not None, (g, x.coords, elem.coords)


def test_quotient_group_matches_minor_gcds_and_quotient_by():
    # the gcd formula against the determinantal divisors of
    # [relations | x] and against the Smith normal form of quotient_by
    rng = random.Random(21)
    for _ in range(400):
        primes = rng.sample((2, 3, 5), rng.randint(1, 2))
        torsion = [rng.choice(primes) ** rng.randint(1, 3) for _ in range(rng.randint(0, 5))]
        g = FgAbGroup(rng.randint(0, 3), torsion)
        common = rng.choice((0, 1, 2, 6, 9))  # 0 leaves the free part zero
        free = [common * rng.randint(-4, 4) for _ in range(g.rank)]
        tors = [rng.choice((0, rng.randrange(d), d // gcd(d, rng.choice(primes)))) for d in g.torsion]
        x = g.element(free + tors) if rng.random() > 0.1 else g.zero()
        got = fgab._quotient_group(g, x)
        m = g.relation_matrix().hstack(IntMatrix.from_columns([x.coords], g.ngens))
        want = FgAbGroup(m.rows - min(m.rows, m.cols), minors_gcd_diagonal(m))
        assert got == want == quotient_by(g, x)[0], (g, x.coords)
    with pytest.raises(GroupMismatchError):
        fgab._quotient_group(FgAbGroup(1, (4,)), Z.element((1,)))


def test_quotient_group_costs_its_gcds():
    # Z + (Z/2)^3000 by (2; 1, ..., 1): the free generator takes order 4
    g = FgAbGroup(1, (2,) * 3000)
    start = time.perf_counter()
    q = fgab._quotient_group(g, g.element((2,) + (1,) * 3000))
    assert time.perf_counter() - start < 1.0
    assert q == FgAbGroup(0, (2,) * 2999 + (4,))


def _solve_multiple(g, x, target):
    """Find k with k * x = target, via the one-unknown system [x | R_g]."""
    rows = fgab._presentation([[c] for c in x.coords], g)
    (sol,) = fgab._solve_mod(rows, 1, [target.coords])
    return sol


# ---------------------------------------------------------------------------
# Tensor and Tor


def test_tensor_examples():
    assert tensor(FgAbGroup(0, (2,)), FgAbGroup(0, (3,))) == TRIVIAL
    g = FgAbGroup(2, (4, 12))
    assert tensor(Z, g) == g
    assert tensor(FgAbGroup(1, (2,)), FgAbGroup(1, (4,))) == FgAbGroup(1, (2, 2, 4))


def _kronecker_presentation(g, h):
    """Relations of g (x) h on the generators u_i (x) v_j, flat index
    i * h.ngens + j: d * (u_i (x) v_j) for each u_i of order d, and
    e * (u_i (x) v_j) for each v_j of order e."""
    n = g.ngens * h.ngens
    cols = []
    for i, d in enumerate(g.torsion):
        for j in range(h.ngens):
            col = [0] * n
            col[(g.rank + i) * h.ngens + j] = d
            cols.append(col)
    for j, e in enumerate(h.torsion):
        for i in range(g.ngens):
            col = [0] * n
            col[i * h.ngens + h.rank + j] = e
            cols.append(col)
    return n, IntMatrix.from_columns(cols, n)


def test_tensor_against_presentation_oracle():
    rng = random.Random(5)
    for _ in range(30):
        g = FgAbGroup(rng.randrange(0, 3), [rng.choice([2, 3, 4, 6]) for _ in range(rng.randrange(0, 3))])
        h = FgAbGroup(rng.randrange(0, 3), [rng.choice([2, 5, 9]) for _ in range(rng.randrange(0, 2))])
        # oracle: the group the Kronecker-product presentation presents
        oracle = _presented(*_kronecker_presentation(g, h))
        assert tensor(g, h) == oracle


# A 1000-digit prime-free-looking order and multiples of it, so that
# gcds between huge orders are nontrivial; none of these is factored.
BIG = 10**999 + 7
CYCLIC_ORDERS = [0, 1, 2, 2, 3, 3, 4, 8, 9, 5, 25, 6, 12, BIG, 2 * BIG, 3 * BIG, BIG * BIG]


def _diagonal_presentation(orders):
    """Z/c_0 (+) Z/c_1 (+) ... as one relation column c_k * e_k each."""
    n = len(orders)
    return n, IntMatrix([[c * (r == k) for k in range(n)] for r, c in enumerate(orders)], cols=n)


def _check_cyclic_contract(orders):
    """_cyclic_canonical(orders) against the generic engine on the
    diagonal presentation; returns the canonical group.  The lift is
    bounded, so to_canon @ lift is the identity modulo the canonical
    orders (exactly on the free rows), and every lift entry at a torsion
    position k lies in [0, c_k).  Started from rows M, the merges carry
    exactly to_canon @ M."""
    group, rows, cols = _cyclic_canonical(orders)
    # the sparse rows of to_canon and columns of lift, as matrices
    n = len(orders)
    to_canon = IntMatrix([[dict(row).get(p, 0) for p in range(n)] for row in rows], cols=n)
    lift = IntMatrix.from_columns([[dict(col).get(p, 0) for p in range(n)] for col in cols], n)
    assert group == _presented(*_diagonal_presentation(orders))
    canon_orders = [0] * group.rank + list(group.torsion)
    product, identity = (to_canon @ lift).data, IntMatrix.identity(group.ngens).data
    for d, row, want in zip(canon_orders, product, identity):
        assert all((x - y) % d == 0 if d else x == y for x, y in zip(row, want))
    _check_lift_bound(orders, cols)
    for k, c in enumerate(orders):
        # to_canon kills the relation column c * e_k
        image = [c * e for e in to_canon.column(k)]
        assert all((x % d == 0) if d else x == 0 for x, d in zip(image, canon_orders))
    # the same merges started from seeded rows M: the same group and
    # lift, and to_canon @ M without zero entries, with M left as it was
    rng = random.Random(len(orders))
    start = [{q: e for q in range(3) if (e := rng.choice((0, 0, 1, -1, 2, -5, BIG)))} for _ in orders]
    kept = [dict(row) for row in start]
    carried_group, carried, carried_cols = _cyclic_canonical(orders, start)
    assert (carried_group, carried_cols) == (group, cols)
    product = to_canon @ IntMatrix([[row.get(q, 0) for q in range(3)] for row in start], cols=3)
    assert carried == [{q: e for q, e in enumerate(row) if e} for row in product.data]
    assert start == kept
    return group


def _check_lift_bound(orders, cols):
    """Every key of a lift column is a torsion position k, or the free
    position of its own column, and every entry lies in [0, c_k)."""
    for col in cols:
        for k, e in col.items():
            if orders[k] == 0:
                assert col == {k: 1}, (orders, col)
            else:
                assert 0 <= e < orders[k], (orders, col)


def test_cyclic_path_contract():
    rng = random.Random(23)
    for _ in range(200):
        _check_cyclic_contract([rng.choice(CYCLIC_ORDERS) for _ in range(rng.randrange(0, 8))])
    # a long run of repeated primes that must all merge
    assert _check_cyclic_contract([2] * 12 + [3] * 12 + [1, 0]) == FgAbGroup(1, (6,) * 12)
    assert _check_cyclic_contract([BIG * 2, BIG * 3, 4, 9]) == FgAbGroup(0, (6 * BIG, 36 * BIG))


def test_cyclic_lifts_stay_bounded():
    # Each lift entry is reduced modulo its position's order as a merge
    # writes it; without that, interleaved coprime orders grow the
    # entries by about 1.6 bits per (2, 3) pair.  The lists are longer
    # than the engine oracle of test_cyclic_path_contract can take: runs
    # of (2, 3), the Kronecker orders of (Z/2)^6 + (Z/6)^6 against
    # (Z/3)^6 + (Z/6)^6, and seeded lists of small orders.
    rng = random.Random(31)
    kronecker = [gcd(c, e) for c in [2] * 6 + [6] * 6 for e in [3] * 6 + [6] * 6]
    lists = [CYCLIC_ORDERS, [2, 3] * 60, kronecker]
    lists += [[rng.randrange(0, 40) for _ in range(rng.randrange(0, 30))] for _ in range(100)]
    for orders in lists:
        _check_lift_bound(orders, _cyclic_canonical(orders)[2])


def test_cyclic_path_direct_sum_and_tensor_identities():
    rng = random.Random(29)

    def group():
        return FgAbGroup(rng.randrange(0, 2), [rng.choice(CYCLIC_ORDERS[2:]) for _ in range(rng.randrange(0, 3))])

    for _ in range(40):
        g, h = group(), group()
        s, (inj_g, inj_h) = direct_sum_many((g, h))
        proj_g, proj_h = direct_sum_projections((g, h))
        orders = [0] * g.rank + list(g.torsion) + [0] * h.rank + list(h.torsion)
        assert s == _presented(*_diagonal_presentation(orders))
        assert compose(inj_g, proj_g) == GroupHom.identity(g)
        assert compose(inj_h, proj_h) == GroupHom.identity(h)
        assert compose(inj_g, proj_h).matrix == _zeros(h.ngens, g.ngens)
        joint = inj_g.matrix.hstack(inj_h.matrix)
        assert _presented(s.ngens, joint.hstack(s.relation_matrix())).is_trivial
        assert tensor(g, h) == _presented(*_kronecker_presentation(g, h))
        x, x2 = random_element(rng, g), random_element(rng, g)
        y, y2 = random_element(rng, h), random_element(rng, h)
        assert tensor_elem(x + x2, y) == tensor_elem(x, y) + tensor_elem(x2, y)
        assert tensor_elem(x, y + y2) == tensor_elem(x, y) + tensor_elem(x, y2)
        # the generators' tensors generate g (x) h
        t = tensor(g, h)
        images = [tensor_elem(a, b).coords for a in g.generators() for b in h.generators()]
        gens = IntMatrix.from_columns(images, t.ngens)
        assert _presented(t.ngens, gens.hstack(t.relation_matrix())).is_trivial


def test_tor_examples():
    assert tor(Z, FgAbGroup(3, (2, 4))) == TRIVIAL
    assert tor(FgAbGroup(0, (2,)), FgAbGroup(0, (4,))) == FgAbGroup(0, (2,))
    assert tor(FgAbGroup(0, (2,)), FgAbGroup(0, (3,))) == TRIVIAL


def test_tor_kernel_oracle():
    # Tor(Z/d, H) is the kernel of multiplication by d on H
    for d in (2, 3, 4, 6):
        for h in (FgAbGroup(0, (4,)), FgAbGroup(0, (6,)), FgAbGroup(0, (2, 8))):
            mult = GroupHom(h, h, IntMatrix([[d * int(i == j) for j in range(h.ngens)] for i in range(h.ngens)]))
            stacked = mult.matrix.hstack(h.relation_matrix())
            _, dd, v = smith_normal_form(stacked)
            rank = sum(1 for i in range(min(stacked.rows, stacked.cols)) if dd[i, i])
            cols = [list(v.column(j))[: h.ngens] for j in range(rank, stacked.cols)]
            # kernel = subgroup generated by those columns inside h
            gens = IntMatrix.from_columns(cols, h.ngens)
            # kernel group: Z^cols / (preimage of relations), computed as
            # canonical form of the subgroup via its generator matrix
            ker = _subgroup_of(h, gens)
            assert ker == tor(FgAbGroup(0, (d,)), h)


def _subgroup_of(h, gens):
    """Canonical form of the subgroup of h generated by the columns."""
    k = gens.cols
    rows = []
    for r in range(h.ngens):
        rows.append(list(gens.row(r)) + list(h.relation_matrix().row(r)))
    m = IntMatrix(rows, cols=k + len(h.torsion))
    # subgroup = image of Z^k -> h; canonical form of Z^k / kernel
    _, d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(m.rows, m.cols)) if d[i, i])
    ker_cols = [list(v.column(j))[:k] for j in range(rank, m.cols)]
    return _presented(k, IntMatrix.from_columns(ker_cols, k))


def test_symmetry_and_additivity():
    rng = random.Random(13)
    for _ in range(25):
        g = FgAbGroup(rng.randrange(0, 2), [rng.choice([2, 3, 8]) for _ in range(rng.randrange(0, 3))])
        h = FgAbGroup(rng.randrange(0, 2), [rng.choice([4, 6]) for _ in range(rng.randrange(0, 2))])
        w = FgAbGroup(rng.randrange(0, 2), [rng.choice([2, 9]) for _ in range(rng.randrange(0, 2))])
        assert tensor(g, h) == tensor(h, g)
        assert tor(g, h) == tor(h, g)
        s = direct_sum_many((g, h))[0]
        left = direct_sum_many((tensor(g, w), tensor(h, w)))[0]
        assert tensor(s, w) == left
        left = direct_sum_many((tor(g, w), tor(h, w)))[0]
        assert tor(s, w) == left


def test_tensor_elem_examples():
    assert tensor_elem(Z.element((2,)), Z.element((3,))).coords == (6,)
    z2, z3 = FgAbGroup(0, (2,)), FgAbGroup(0, (3,))
    assert tensor_elem(z2.element((1,)), z3.element((1,))).group == TRIVIAL
    z4, z6 = FgAbGroup(0, (4,)), FgAbGroup(0, (6,))
    e = tensor_elem(z4.element((1,)), z6.element((1,)))
    assert e.group == FgAbGroup(0, (2,)) and e.coords == (1,)


def test_tensor_elem_bilinear():
    rng = random.Random(17)
    for _ in range(25):
        g = FgAbGroup(rng.randrange(0, 2), [rng.choice([2, 4, 6]) for _ in range(rng.randrange(0, 2))])
        h = FgAbGroup(rng.randrange(0, 2), [rng.choice([3, 8]) for _ in range(rng.randrange(0, 2))])
        x, x2 = random_element(rng, g), random_element(rng, g)
        y, y2 = random_element(rng, h), random_element(rng, h)
        assert tensor_elem(x + x2, y) == tensor_elem(x, y) + tensor_elem(x2, y)
        assert tensor_elem(x, y + y2) == tensor_elem(x, y) + tensor_elem(x, y2)


# ---------------------------------------------------------------------------
# Homs: composition, exact questions, solvers


def test_compose_examples():
    g = FgAbGroup(1, (2,))
    f = GroupHom(g, g, IntMatrix([[1, 0], [0, 1]]))
    assert compose(GroupHom.identity(g), f) == f
    two = GroupHom(Z, Z, IntMatrix([[2]]))
    three = GroupHom(Z, Z, IntMatrix([[3]]))
    assert compose(two, three).matrix[0, 0] == 6
    with pytest.raises(GroupMismatchError):
        compose(two, GroupHom.identity(g))


def test_hom_well_definedness_enforced():
    z2 = FgAbGroup(0, (2,))
    with pytest.raises(ValueError):
        GroupHom(z2, Z, IntMatrix([[1]]))
    GroupHom(z2, Z, IntMatrix([[0]]))  # the zero hom is fine
    with pytest.raises(ValueError):
        GroupHom(z2, FgAbGroup(0, (2,)), IntMatrix([[3], [0]]))  # a wrong shape


def test_hom_with_an_empty_side_is_read_off_the_counts(monkeypatch):
    # no rows or no columns: nothing to reduce or check, so the matrix is
    # stored as it is, and no row is reduced; the shape is still checked
    def refuse(*args):
        raise AssertionError("an empty hom reduced its rows")

    monkeypatch.setattr(fgab, "_orders", refuse)
    zero, z_z6 = FgAbGroup(), FgAbGroup(1, (6,))
    for source, target, m in (
        (zero, z_z6, IntMatrix([[], []], cols=0)),
        (z_z6, zero, IntMatrix([], cols=2)),
        (zero, zero, IntMatrix([])),
    ):
        assert GroupHom(source, target, m).matrix is m
    with pytest.raises(ValueError, match="hom matrix must be 2 x 0, got 1 x 0"):
        GroupHom(zero, z_z6, IntMatrix([[]], cols=0))
    with pytest.raises(ValueError, match="hom matrix must be 0 x 2, got 0 x 1"):
        GroupHom(z_z6, zero, IntMatrix([], cols=1))
    monkeypatch.undo()
    # a hom with generators on both sides is still reduced and checked
    assert GroupHom(z_z6, z_z6, IntMatrix([[1, 0], [7, 5]])).matrix == IntMatrix([[1, 0], [1, 5]])
    with pytest.raises(ValueError, match="not a well-defined hom"):
        GroupHom(FgAbGroup(0, (4,)), z_z6, IntMatrix([[0], [1]]))


def test_surjective_injective_examples():
    mult2 = GroupHom(Z, Z, IntMatrix([[2]]))
    assert not is_surjective(mult2) and injective_by_snf(mult2)

    assert _presented(2, IntMatrix([[2], [-3]])) == Z
    _, proj = quotient_by(FgAbGroup(2), FgAbGroup(2).element((2, -3)))
    assert is_surjective(proj) and not injective_by_snf(proj)
    # the induced form on the quotient is an isomorphism
    iso = GroupHom(Z, Z, IntMatrix([[1]]))
    assert is_surjective(iso) and injective_by_snf(iso)

    z = GroupHom(TRIVIAL, TRIVIAL, IntMatrix([]))
    assert is_surjective(z) and injective_by_snf(z)


def test_right_inverse_examples():
    red = GroupHom(Z, FgAbGroup(0, (2,)), IntMatrix([[1]]))
    assert right_inverse_exists(red) is None

    z2 = FgAbGroup(2)
    proj = GroupHom(z2, Z, IntMatrix([[1, 0]]))
    s = right_inverse_exists(proj)
    assert s is not None and compose(s, proj) == GroupHom.identity(Z)

    q, qproj = quotient_by(z2, z2.element((2, -3)))
    s = right_inverse_exists(GroupHom(q, Z, IntMatrix([[1]])))
    assert s is not None


def test_endomorphism_sections_take_one_system():
    # An onto endomorphism is an automorphism (Hopfian groups), so its
    # one section is its inverse, solved in one system for every column;
    # one that is not onto leaves a column unsolved.  A target with no
    # generators builds no system at all.
    g = FgAbGroup(1, (4,))
    f = GroupHom(g, g, IntMatrix([[-1, 0], [1, 3]]))  # (a, b) |-> (-a, a + 3b)
    with fgab._counting() as counts:
        s = right_inverse_exists(f)
    assert s.matrix == IntMatrix([[-1, 0], [3, 3]]) and counts["smith:v"] == 1
    assert compose(s, f) == compose(f, s) == GroupHom.identity(g)
    assert right_inverse_exists(GroupHom(Z, Z, IntMatrix([[2]]))) is None
    assert right_inverse_exists(GroupHom(g, g, IntMatrix([[2, 0], [0, 2]]))) is None
    zero = FgAbGroup()
    empty = IntMatrix([], cols=0)
    with fgab._counting() as counts:
        assert right_inverse_exists(GroupHom(zero, zero, empty)) == GroupHom(zero, zero, empty)
    assert not counts["smith:v"]


def _reference_section(f):
    """Whether f has a right inverse, by the earlier per-column system,
    solved by ``integer_solution`` on plain lists.

    Column j, of order d, solves [[f, R_h, 0], [d*I, 0, R_g]] (x, y, z) =
    (e_j, 0): the torsion condition d * s(e_j) = 0 written as equations
    in s(e_j), not as the span of the source's d-torsion."""
    g, h = f.source, f.target
    ng, nh = g.rank + len(g.torsion), h.rank + len(h.torsion)
    rel_h = [[d * (i == h.rank + k) for k, d in enumerate(h.torsion)] for i in range(nh)]
    rel_g = [[d * (i == g.rank + k) for k, d in enumerate(g.torsion)] for i in range(ng)]
    for j, d in enumerate([0] * h.rank + list(h.torsion)):
        rows = [list(f.matrix.data[i]) + rel_h[i] + [0] * len(g.torsion) for i in range(nh)]
        rhs = [int(i == j) for i in range(nh)]
        if d:
            rows += [[d * (i == k) for k in range(ng)] + [0] * len(h.torsion) + rel_g[i] for i in range(ng)]
            rhs += [0] * ng
        if integer_solution(rows, rhs) is None:
            return False
    return True


def test_sections_agree_with_the_torsion_equation_reference():
    # The section solver against the system that wrote d * s(e_j) = 0
    # as equations.  The sections themselves may differ where ker f
    # meets the source's d-torsion; existence may not.
    rng = random.Random(37)
    orders = (2, 3, 4, 6, 8, 9, 12, 18)
    found = 0
    for _ in range(300):
        g = FgAbGroup(rng.randint(0, 2), [rng.choice(orders) for _ in range(rng.randint(2, 4))])
        h = FgAbGroup(rng.randint(0, 1), [rng.choice(orders) for _ in range(rng.randint(1, 2))])
        f = random_hom(rng, g, h)
        want = _reference_section(f)
        got = right_inverse_exists(f)
        assert (got is not None) == want, (g, h, f.matrix)
        if got is not None:
            assert compose(got, f) == GroupHom.identity(h), (g, h, f.matrix)
        found += want
    assert found >= 30


def _pin_group(rng):
    """A small group: free, torsion or mixed, sometimes trivial, its
    torsion often of two or more orders."""
    primes = rng.sample((2, 3, 5), rng.randint(1, 2))
    torsion = [rng.choice(primes) ** rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
    return FgAbGroup(rng.choice((0, 0, 1, 1, 2)), torsion)


def _pin_hom(rng):
    """A well-defined hom of one of four kinds: random between two
    groups, an endomorphism, onto the first summand of a sum with a
    section through its injection, or from a free group through a
    unimodular change of basis."""
    kind = rng.randrange(4)
    g, h = _pin_group(rng), _pin_group(rng)
    if kind == 0:
        return random_hom(rng, g, h)
    if kind == 1:
        if rng.random() < 0.3:
            return GroupHom.identity(g)
        return random_hom(rng, g, g)
    if kind == 2:
        proj_h, proj_g = direct_sum_projections((h, g))
        r = random_hom(rng, g, h).matrix @ proj_g.matrix
        rows = [[a + b for a, b in zip(p, q)] for p, q in zip(proj_h.matrix.data, r.data)]
        return GroupHom(proj_h.source, h, IntMatrix(rows, cols=proj_h.source.ngens))
    n = rng.randint(0, 3)
    w = random_unimodular(rng, n)
    free = FgAbGroup(n)
    f = random_hom(rng, free, free)
    return GroupHom(free, free, w if rng.random() < 0.5 else f.matrix @ w)


def test_solver_outputs_pinned():
    # Every exact answer of the solvers on 3,000 seeded homs: sections,
    # cokernels, divisibility for n = 1, 2, 3, 6, the quotient by one
    # element with its projection, and the target's relation matrix.
    # The kinds of hom cover free, torsion and mixed groups, trivial
    # ones, endomorphisms, maps that are not onto and targets with
    # several torsion orders, whose sections solve one system per order.
    rng = random.Random(2029)
    digest = hashlib.sha256()
    sections = 0
    for _ in range(3000):
        f = _pin_hom(rng)
        h = f.target
        s = right_inverse_exists(f)
        sections += s is not None
        x = random_element(rng, h)
        y = f(random_element(rng, f.source))
        out = [s, cokernel(f), quotient_by(h, x), h.relation_matrix()]
        for n in (1, 2, 3, 6):
            target = y * n if rng.random() < 0.5 else x
            out.append(solve_divisibility(h, target, n))
        digest.update(repr(out).encode())
    assert sections >= 1000
    # recorded before the solvers' systems were built by _presentation
    assert digest.hexdigest() == (
        "bd68a1ad2e4a3b3056f52983039d848aaf1a31dd287bc464fd79f338ed122675"
    )


def test_solve_divisibility_examples():
    z2 = FgAbGroup(2)
    q, proj = quotient_by(z2, z2.element((2, -3)))
    x = solve_divisibility(q, proj(z2.element((2, 0))), 6)
    assert x is not None and x == proj(z2.element((1, -1)))

    assert solve_divisibility(Z, Z.element((6,)), 2) == Z.element((3,))
    assert solve_divisibility(Z, Z.element((1,)), 2) is None
    with pytest.raises(ValueError):
        solve_divisibility(Z, Z.element((1,)), 0)


def test_element_order_examples():
    assert Z.element((1,)).order() == inf
    g = FgAbGroup(1, (4,))
    assert g.element((0, 1)).order() == 4
    z2 = FgAbGroup(2)
    q, proj = quotient_by(z2, z2.element((2, -2)))
    assert q == FgAbGroup(1, (2,))
    cls = proj(z2.element((1, 1)))
    assert cls.order() == inf
    torsion_component = q.element((0,) + cls.coords[q.rank :])
    assert torsion_component.order() in (1, 2)
    assert (cls - cls).order() == 1


def test_group_element_arithmetic():
    g = FgAbGroup(1, (3,))
    x = g.element((2, 5))
    assert x.coords == (2, 2)
    assert (x - x).is_zero
    assert (2 * x).coords == (4, 1)
