"""Enumeration oracles for the exact solvers on finite groups.

Every decision the SNF-based solvers make is re-derived here by brute
force over group elements, with no shared code path: elements are
coordinate tuples and homs plain matrices (``elements`` and ``apply``
in ``conftest``).
"""

import random
from math import prod

from kobstruct import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    cokernel,
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
