"""Enumeration oracles for the exact solvers on finite groups.

Every decision the SNF-based solvers make is re-derived here by brute
force over group elements, with no shared code path: elements are
coordinate tuples and homs plain matrices (``elements`` and ``apply``
in ``conftest``).
"""

import itertools
import random
from math import prod

from kobstruct import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    cokernel,
    constrained_section_exists,
    is_injective,
    is_surjective,
    smith_normal_form,
    solve_divisibility,
)
import oracle
from conftest import apply, elements, random_element, random_hom


def _random_finite(rng, max_order=36):
    factors = []
    order = 1
    for _ in range(rng.randrange(0, 3)):
        d = rng.randint(2, 12)
        if order * d > max_order:
            continue
        factors.append(d)
        order *= d
    return FgAbGroup(0, factors)


def test_surjective_injective_match_enumeration():
    rng = random.Random(91)
    for _ in range(60):
        g, h = _random_finite(rng), _random_finite(rng)
        f = random_hom(rng, g, h)
        image = {apply(f.matrix.data, x, h.torsion) for x in elements(g.torsion)}
        assert is_surjective(f) == (len(image) == prod(h.torsion))
        assert is_injective(f) == (len(image) == prod(g.torsion))


def test_solve_divisibility_matches_enumeration():
    rng = random.Random(92)
    for _ in range(60):
        g = _random_finite(rng)
        target = random_element(rng, g)
        n = rng.randint(1, 8)

        def times_n(x):
            return tuple(n * c % d for c, d in zip(x, g.torsion))

        got = solve_divisibility(g, target, n)
        want = any(times_n(x) == target.coords for x in elements(g.torsion))
        if got is None:
            assert not want, (g, target.coords, n)
        else:
            assert times_n(got.coords) == target.coords


def _all_homs(source, target):
    """Every hom between two finite canonical groups, as a tuple of
    rows: each generator of order d goes to any element that d kills."""
    assert not source.rank and not target.rank
    per_gen = [
        [x for x in elements(target.torsion) if all(d * c % e == 0 for c, e in zip(x, target.torsion))]
        for d in source.torsion
    ]
    for images in itertools.product(*per_gen):
        yield tuple(tuple(col[r] for col in images) for r in range(len(target.torsion)))


def _is_section(s, f, h):
    """f(s(e_k)) = e_k for every generator e_k of the finite group h."""
    n = len(h.torsion)
    for k in range(n):
        gen = tuple(int(i == k) for i in range(n))
        image = apply(s, gen, f.source.torsion)
        if apply(f.matrix.data, image, h.torsion) != gen:
            return False
    return True


def test_constrained_sections_match_enumeration():
    # the joint solver against full hom-space search, small groups only
    rng = random.Random(93)
    cases = 0
    while cases < 30:
        g = FgAbGroup(0, [rng.choice((2, 3, 4, 6)) for _ in range(rng.randrange(1, 3))])
        if prod(g.torsion) > 12:
            continue
        h = FgAbGroup(0, [rng.choice((2, 3, 4))])
        f = random_hom(rng, g, h)
        constraints = [
            (random_element(rng, h), random_element(rng, g))
            for _ in range(rng.randrange(0, 3))
        ]

        def meets(s):
            return _is_section(s, f, h) and all(
                apply(s, t.coords, g.torsion) == w.coords for t, w in constraints
            )

        got = constrained_section_exists(f, constraints)
        want = next(filter(meets, _all_homs(h, g)), None)
        if got is None:
            assert want is None, (g, h, f.matrix, constraints)
        else:
            assert want is not None
            assert meets(got.matrix.data)
        cases += 1


def test_snf_handles_entry_growth():
    # dense matrices with larger entries: transforms stay exact
    rng = random.Random(94)
    for _ in range(10):
        n = rng.randint(5, 7)
        m = IntMatrix(
            [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
        )
        u, d, v = smith_normal_form(m)
        coker = cokernel(GroupHom(FgAbGroup(n), FgAbGroup(n), m))
        parts = (x.to_json() for x in (m, u, d, v))
        assert oracle.check_snf(*parts, coker.to_json()) == []
