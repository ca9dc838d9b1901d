"""Tests for the invariant triples and composite K-theory formulas."""

import io
import json
import random
import sys
import threading
import time
from math import gcd, inf

import pytest

from kobstruct import (
    FgAbGroup,
    GroupHom,
    GroupMismatchError,
    IntMatrix,
    KInvariant,
    classify_analysis,
    cokernel,
    compose,
    direct_sum_many,
    free_product_k,
    is_surjective,
    kunneth,
    kunneth_invariant,
    pi_star,
    pi_star_full,
    right_inverse_exists,
    section_exists_analysis,
    tensor_elem,
    tor,
    unital_free_product_k,
)
from kobstruct import cli, fgab, kinv, obstruct
from kobstruct.catalog import evaluate
from kobstruct.kinv import (
    EXTRA_Z,
    K0A,
    K0A_K0B,
    K0A_K1B,
    K0B,
    K1A,
    K1A_K0B,
    K1A_K1B,
    K1B,
    TOR_K0A_K0B,
    TOR_K0A_K1B,
    TOR_K1A_K0B,
    TOR_K1A_K1B,
    PairAnalysis,
)
import oracle
from conftest import assert_quotient_path, direct_sum_projections, integer_solution, unital_quotient_maps

Z = FgAbGroup(1)
TRIVIAL = FgAbGroup()


def _inv(rank, torsion, unit_coords, k1_rank=0, k1_torsion=()):
    k0 = FgAbGroup(rank, torsion)
    return KInvariant(k0, FgAbGroup(k1_rank, k1_torsion), k0.element(unit_coords))


def test_invariant_validation():
    with pytest.raises(GroupMismatchError):
        KInvariant(Z, TRIVIAL, TRIVIAL.zero())


def test_kunneth_o2_pair():
    o2 = evaluate("O_2")
    kp = kunneth(o2, o2)
    assert kp.k0.is_trivial and kp.k1.is_trivial and kp.unit.is_zero


def test_kunneth_absorption():
    oinf, o4 = evaluate("Oinf"), evaluate("O_4")
    kp = kunneth(oinf, o4)
    assert (kp.k0, kp.k1) == (o4.k0, o4.k1)
    assert kp.unit == o4.unit


def test_kunneth_o3_pair():
    o3 = evaluate("O_3")
    kp = kunneth(o3, o3)
    assert kp.k0 == FgAbGroup(0, (2,))
    assert kp.k1 == FgAbGroup(0, (2,))
    assert kp.unit == kp.k0.element((1,))


def test_kunneth_summands_cover():
    deg0_labels = ("K0A(x)K0B", "K1A(x)K1B", "Tor(K0A,K1B)", "Tor(K1A,K0B)")
    deg1_labels = ("K0A(x)K1B", "K1A(x)K0B", "Tor(K0A,K0B)", "Tor(K1A,K1B)")
    for name_a, name_b in (("CT", "O_3"), ("C^2", "M_2"), ("O_3", "O_5")):
        a, b = evaluate(name_a), evaluate(name_b)
        kp = kunneth(a, b)
        for degree_group, labels in ((kp.k0, deg0_labels), (kp.k1, deg1_labels)):
            joint = degree_group.relation_matrix()
            for label in labels:
                joint = joint.hstack(kp.summands[label].matrix)
            cover = cokernel(GroupHom(FgAbGroup(joint.cols), FgAbGroup(degree_group.ngens), joint))
            assert cover.is_trivial


def test_kunneth_symmetry(catalog):
    for _, a in catalog[:10]:
        for _, b in catalog[:10]:
            kab, kba = kunneth(a, b), kunneth(b, a)
            assert (kab.k0, kab.k1) == (kba.k0, kba.k1)


def test_kunneth_unit_order_divides_lcm(catalog):
    from math import lcm

    for _, a in catalog:
        for _, b in catalog:
            kp = kunneth(a, b)
            oa, ob = a.unit.order(), b.unit.order()
            ou = kp.unit.order()
            if oa != inf and ob != inf:
                assert ou != inf and lcm(oa, ob) % ou == 0


def test_free_product_examples():
    c2 = evaluate("C^2")
    kp = free_product_k(c2, c2)
    assert kp.k0 == FgAbGroup(4) and kp.k1.is_trivial
    assert kp.unit is None and not kp.extra_z
    assert set(kp.summands) == {K0A, K0B, K1A, K1B}

    o2 = evaluate("O_2")
    kp = free_product_k(o2, o2)
    assert kp.k0.is_trivial and kp.k1.is_trivial

    ct = evaluate("CT")
    kp = free_product_k(ct, ct)
    assert kp.k0 == FgAbGroup(2) and kp.k1 == FgAbGroup(2)


def test_unital_free_product_m2_m3():
    kp = unital_free_product_k(evaluate("M_2"), evaluate("M_3"))
    assert kp.k0 == Z and kp.k1.is_trivial and not kp.extra_z
    z2 = FgAbGroup(2)
    from kobstruct import quotient_by

    _, proj = quotient_by(z2, z2.element((2, -3)))
    assert kp.unit == proj(z2.element((2, 0))) == proj(z2.element((0, 3)))


def test_unital_free_product_equal_and_non_coprime_matrix_pairs():
    # for unit sizes m, n with d = gcd and p = lcm: K0 is Z + Z/d, the
    # unit class has free coordinate +-p, and the induced degree-0 map
    # has cokernel Z/d
    from math import gcd, lcm

    from kobstruct import cokernel

    for m, n in ((2, 2), (4, 6), (6, 9), (2, 4)):
        a, b = evaluate(f"M_{m}"), evaluate(f"M_{n}")
        d, p = gcd(m, n), lcm(m, n)
        kp = unital_free_product_k(a, b)
        assert kp.k0 == FgAbGroup(1, (d,))
        assert abs(kp.unit.coords[0]) == p
        pi0, _, _ = pi_star(a, b)
        assert cokernel(pi0) == FgAbGroup(0, (d,))


def test_unital_free_product_torsion_units_give_zero_unit_class():
    # with wholly finite coprime K-theory the identity class vanishes
    z4, z9 = FgAbGroup(0, (4,)), FgAbGroup(0, (9,))
    a = KInvariant(z4, TRIVIAL, z4.element((2,)))
    b = KInvariant(z9, TRIVIAL, z9.element((3,)))
    kp = unital_free_product_k(a, b)
    assert kp.k0 == FgAbGroup(0, (6,))
    assert kp.unit.is_zero
    for m, n in ((2, 5), (3, 4), (5, 6), (4, 12)):
        kp = unital_free_product_k(evaluate(f"O_{m}"), evaluate(f"O_{n}"))
        assert kp.unit.is_zero


def test_unital_free_product_o2_pair():
    kp = unital_free_product_k(evaluate("O_2"), evaluate("O_2"))
    assert kp.k0.is_trivial
    assert kp.k1 == Z and kp.extra_z
    assert EXTRA_Z in kp.summands


def test_unital_free_product_c2_pair():
    c2 = evaluate("C^2")
    kp = unital_free_product_k(c2, c2)
    assert kp.k0 == FgAbGroup(3) and kp.k1.is_trivial and not kp.extra_z
    z4 = FgAbGroup(4)
    from kobstruct import quotient_by

    _, proj = quotient_by(z4, z4.element((1, 1, -1, -1)))
    assert kp.unit == proj(z4.element((1, 1, 0, 0)))


def test_extra_z_iff_both_units_torsion(catalog):
    for _, a in catalog:
        for _, b in catalog:
            kp = unital_free_product_k(a, b)
            want = a.unit.order() != inf and b.unit.order() != inf
            assert kp.extra_z == want


def test_pi_star_m2_m3():
    a, b = evaluate("M_2"), evaluate("M_3")
    pi0, pi1, extra_target = pi_star(a, b)
    assert pi0.source == Z and pi0.target == Z
    assert abs(pi0.matrix[0, 0]) == 1
    assert is_surjective(pi0)
    assert pi1.source.is_trivial and pi1.target.is_trivial
    assert extra_target.is_trivial


def test_pi_star_mn_pair_multiplication_by_n():
    from kobstruct import cokernel

    for n in (2, 3, 4, 6):
        mn = evaluate(f"M_{n}")
        pi0, _, _ = pi_star(mn, mn)
        assert not is_surjective(pi0)
        assert cokernel(pi0) == FgAbGroup(0, (n,))
        # the free generator maps by +-n, torsion dies
        assert abs(pi0.matrix[0, 0]) == n
        assert pi0.source == FgAbGroup(1, (n,))
        assert pi0.matrix[0, 1] % n == 0


def test_pi_star_o2_pair_trivial():
    o2 = evaluate("O_2")
    pi0, pi1, extra_target = pi_star(o2, o2)
    assert pi0.source.is_trivial and pi0.target.is_trivial
    assert pi1.source.is_trivial and pi1.target.is_trivial
    assert extra_target == tor(o2.k0, o2.k0) == TRIVIAL


def test_pi_star_kills_unit_relation(catalog):
    # the defining relation ([1_A], -[1_B]) maps to zero, exactly
    for _, a in catalog:
        for _, b in catalog:
            an = PairAnalysis(a, b)
            q, _, _ = an.unital_quotient
            assert an.lifted_pi0(an.unit_relation).is_zero
            pi0, _, _ = pi_star(a, b)
            assert pi0.source == q == unital_free_product_k(a, b).k0


def test_pi_star_full_factorizes(catalog):
    for _, a in catalog[:10]:
        for _, b in catalog[:10]:
            pi0, pi1, _ = pi_star(a, b)
            f0, f1 = pi_star_full(a, b)
            _, proj_q, _ = unital_quotient_maps(PairAnalysis(a, b))
            assert compose(proj_q, pi0) == f0
            assert pi1 == f1


def test_pi_star_full_c2_pair_surjective():
    c2 = evaluate("C^2")
    f0, f1 = pi_star_full(c2, c2)
    assert f0.source == FgAbGroup(4) and f0.target == FgAbGroup(4)
    assert not is_surjective(f0)


def test_pi_star_full_torsion_killed_target():
    # pairing with the zero-K-theory algebra sends everything into 0
    f0, f1 = pi_star_full(evaluate("O_2"), evaluate("M_2"))
    assert f0.source == Z and f0.target.is_trivial
    assert f1.source.is_trivial and f1.target.is_trivial
    assert is_surjective(f0)


def _reference_maps(a, b):
    """lifted_pi0, pi0 and pi1 as (source, target, rows), built generator
    by generator with plain matrix products and sums: (x, y) |-> x (x)
    [1_B] + [1_A] (x) y as the sum of the maps of each summand after its
    projection, and pi0 as lifted_pi0 on a lift of each quotient
    generator.  tensor_elem, direct_sum_many, the sum's projections
    (``direct_sum_projections``), kunneth's summand injections and the
    quotient's lift only fix the coordinates."""
    kun = kunneth(a, b)
    orders = [0] * kun.k0.rank + list(kun.k0.torsion), [0] * kun.k1.rank + list(kun.k1.torsion)

    def reduced(rows, mods):
        return tuple(tuple(e % d if d else e for e in row) for row, d in zip(rows, mods))

    def unit_map(ga, gb, left, right, mods):
        s, _ = direct_sum_many((ga, gb))
        projections = direct_sum_projections((ga, gb))
        total = [[0] * projections[0].matrix.cols for _ in mods]
        for inj, images, proj in (
            (left, [tensor_elem(g, b.unit).coords for g in ga.generators()], projections[0]),
            (right, [tensor_elem(a.unit, g).coords for g in gb.generators()], projections[1]),
        ):
            if images:
                f = oracle.matmul(inj.matrix.data, list(zip(*images)), inj.matrix.cols)
                part = oracle.matmul(f, proj.matrix.data, proj.matrix.rows)
                total = [[x + y for x, y in zip(r, p)] for r, p in zip(total, part)]
        return s, reduced(total, mods)

    inj00 = kun.summands[K0A_K0B]
    s0, lifted = unit_map(a.k0, b.k0, inj00, inj00, orders[0])
    s1, pi1 = unit_map(a.k1, b.k1, kun.summands[K1A_K0B], kun.summands[K0A_K1B], orders[1])
    q, _, lift = unital_quotient_maps(PairAnalysis(a, b))
    pi0 = reduced(oracle.matmul(lifted, lift.data, lift.rows), orders[0])
    return (s0, kun.k0, lifted), (q, kun.k0, pi0), (s1, kun.k1, pi1)


def _torsion_literal(rng):
    def group():
        factors = [rng.choice([2, 3, 4, 5, 7, 9, 25, 49]) for _ in range(rng.randint(0, 3))]
        return FgAbGroup(rng.randint(0, 1), factors)

    k0 = group()
    return KInvariant(k0, group(), k0.element([rng.randint(-60, 60) for _ in range(k0.ngens)]))


def _mixed_literal(rng):
    """A literal whose K1 has both rank and torsion."""

    def factors(least):
        return [rng.choice([2, 3, 4, 5, 7, 9, 25, 49]) for _ in range(rng.randint(least, 3))]

    k0 = FgAbGroup(rng.randint(0, 1), factors(0))
    return KInvariant(k0, FgAbGroup(1, factors(1)), k0.element([rng.randint(-60, 60) for _ in range(k0.ngens)]))


def _mixed_pairs(count, rng):
    """Pairs of ``_mixed_literal``s whose Kunneth sums have at least two
    nonzero parts in each degree."""
    degrees = (
        (K0A_K0B, K1A_K1B, TOR_K0A_K1B, TOR_K1A_K0B),
        (K0A_K1B, K1A_K0B, TOR_K0A_K0B, TOR_K1A_K1B),
    )
    pairs = []
    while len(pairs) < count:
        a, b = _mixed_literal(rng), _mixed_literal(rng)
        kp = kunneth(a, b)
        if all(sum(not kp.summands[label].source.is_trivial for label in labels) >= 2 for labels in degrees):
            pairs.append((a, b))
    return pairs


def test_pi_star_formula_against_hand_lift(catalog):
    # spot check: on (M_2, M_3) the lifted degree-0 map is (x, y) -> 3x + 2y
    a, b = evaluate("M_2"), evaluate("M_3")
    f0, _ = pi_star_full(a, b)
    _, (inj_a, inj_b) = direct_sum_many((a.k0, b.k0))
    x = f0(inj_a(a.k0.element((1,))))
    y = f0(inj_b(b.k0.element((1,))))
    assert abs(x.coords[0]) == 3 and abs(y.coords[0]) == 2
    # every map against the generator-by-generator construction, on the
    # catalog pairs and on seeded torsion literals
    rng = random.Random(8)
    pairs = [(a, b) for _, a in catalog for _, b in catalog]
    pairs += [(_torsion_literal(rng), _torsion_literal(rng)) for _ in range(60)]
    # K1 with rank and torsion on both sides: every sum of Kunneth parts
    # has two or more nonzero parts, so none is just its one part
    pairs += _mixed_pairs(60, random.Random(9))
    for a, b in pairs:
        an = PairAnalysis(a, b)
        maps = (an.lifted_pi0, an.pi0, an.pi1)
        assert tuple((f.source, f.target, f.matrix.data) for f in maps) == _reference_maps(a, b)
        _, proj_q, _ = unital_quotient_maps(an)
        assert compose(proj_q, an.pi0) == an.lifted_pi0


def test_kunneth_invariant_matches_kunneth(catalog):
    # the nesting triple reads its unit off the induced-map rows, not
    # through kunneth's injections; both must give the same coordinates
    rng = random.Random(10)
    pairs = [(a, b) for _, a in catalog for _, b in catalog]
    pairs += [(_torsion_literal(rng), _torsion_literal(rng)) for _ in range(40)]
    pairs += _mixed_pairs(40, rng)
    for a, b in pairs:
        kp = kunneth(a, b)
        unit = kp.summands[K0A_K0B](tensor_elem(a.unit, b.unit))
        assert kp.unit == unit
        assert kunneth_invariant(a, b) == KInvariant(kp.k0, kp.k1, unit)


def _oracle_group(g):
    return oracle.Group.from_factors(g.rank, g.torsion)


def test_kunneth_parts_match_the_oracle(catalog):
    # each summand against bench/oracle.py's prime-power tensor and Tor,
    # labelled here from the Kunneth formula, not from the package's table
    rng = random.Random(12)
    pairs = [(a, b) for _, a in catalog for _, b in catalog]
    pairs += [(_torsion_literal(rng), _torsion_literal(rng)) for _ in range(200)]
    pairs += [(_mixed_literal(rng), _mixed_literal(rng)) for _ in range(200)]
    for a, b in pairs:
        a0, a1, b0, b1 = map(_oracle_group, (a.k0, a.k1, b.k0, b.k1))
        want = [
            (K0A_K0B, oracle.tensor(a0, b0)),
            (K1A_K1B, oracle.tensor(a1, b1)),
            (TOR_K0A_K1B, oracle.tor(a0, b1)),
            (TOR_K1A_K0B, oracle.tor(a1, b0)),
            (K0A_K1B, oracle.tensor(a0, b1)),
            (K1A_K0B, oracle.tensor(a1, b0)),
            (TOR_K0A_K0B, oracle.tor(a0, b0)),
            (TOR_K1A_K1B, oracle.tor(a1, b1)),
        ]
        an = PairAnalysis(a, b)
        got = [(label, g.to_json()) for label, g in an.kunneth_parts.items()]
        assert got == [(label, g.to_json()) for label, g in want], (a, b)
        k0, k1 = oracle.kunneth(oracle.Triple(a0, a1, ()), oracle.Triple(b0, b1, ()))
        assert [g.to_json() for g in an.tensor_groups] == [k0.to_json(), k1.to_json()]


def test_one_analysis_builds_each_kunneth_summand_once(catalog, monkeypatch):
    # the classifier, both section modes and the command line's group
    # reads share one analysis, so each of the eight summands is built
    # at most once per pair.  Only the calls on the pair's own K-groups
    # count: the cokernels tensor the unit quotients Q_A and Q_B too.
    calls, own = [], []

    def counting(fn):
        def counted(g, h):
            if any(g is x for x in own[:2]) and any(h is y for y in own[2:]):
                calls.append(fn)
            return fn(g, h)

        return counted

    for name in ("tensor", "tor"):
        fn = getattr(fgab, name)
        counted = counting(fn)
        for module in (kinv, obstruct, cli):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    rng = random.Random(13)
    pairs = [(a, b) for _, a in catalog for _, b in catalog]
    pairs += [(_torsion_literal(rng), _torsion_literal(rng)) for _ in range(100)]
    pairs += [(_mixed_literal(rng), _mixed_literal(rng)) for _ in range(100)]
    built = 0
    for a, b in pairs:
        calls.clear()
        own[:] = a.k0, a.k1, b.k0, b.k1
        an = PairAnalysis(a, b)
        classify_analysis(an)
        section_exists_analysis(an, "unital")
        section_exists_analysis(an, "full")
        an.tensor_groups, an.unital_free_product
        assert len(calls) <= 8, (a, b, len(calls))
        built += len(calls) == 8
    assert built > len(pairs) // 2


def test_nested_tensor_costs_its_output():
    # Through kunneth, C^40 (x) C^40 built a dense 1600 x 1600 summand
    # injection to place one unit class (about 1.3 s on a 2-vCPU VM),
    # and C^100 (x) C^100 would have needed 10^8 entries.
    start = time.perf_counter()
    inv = evaluate("C^40 (x) C^40")
    assert time.perf_counter() - start < 0.5
    assert (inv.k0, inv.k1, inv.unit.coords) == (FgAbGroup(1600), TRIVIAL, (1,) * 1600)


def test_kinvariant_json_round_trip():
    inv = _inv(1, (4,), (2, 1), k1_rank=1)
    again = KInvariant.from_json(inv.to_json())
    assert again == inv
    kp = unital_free_product_k(inv, inv)
    obj = kp.to_json()
    assert obj["extra_z"] is False
    assert set(obj["summands"]) == {K1A, K1B}


def test_kinvariant_from_json_names_the_bad_field():
    k0 = {"rank": 1}
    for obj, message in (
        ([], "literal must be an object, not list"),
        ("k0 k1", "literal must be an object, not str"),
        ({"k0": k0, "k1": k0}, "missing field unit"),
        ({"k0": k0, "k1": {}, "unit": [1]}, "missing field rank"),
        ({"k0": k0, "k1": 3, "unit": [1]}, "k1 must be an object, not int"),
        ({"k0": k0, "k1": k0, "unit": [1], "finitely_generatd": False}, "unknown field finitely_generatd"),
        ({"k0": {"rank": 1, "torsoin": [2]}, "k1": k0, "unit": [1]}, "unknown field torsoin"),
        (
            {"k0": {"rank": 0, "torsion": [4, 2]}, "k1": k0, "unit": [2, 1]},
            r"k0 torsion \[4, 2\] is not in invariant-factor form \(each factor at least 2 "
            r"and dividing the next\): its invariant factors are \[2, 4\]",
        ),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            KInvariant.from_json(obj)


def test_torsion_heavy_sections_stay_fast():
    # Every map below has fewer source than target generators, so none
    # is onto: its closed-form cokernel is nontrivial, and no system is
    # solved.  Solved as systems, section0 of the first pair took 242 s
    # (a 20x24 Smith normal form whose u reached 7.8 million bits),
    # section0 of the second 2-3 s (18x22) and section1 of the third
    # more than 30 s.
    k0a, k0b = FgAbGroup(1, (7, 490)), FgAbGroup(0, (56, 8232))
    a = KInvariant(k0a, FgAbGroup(0, (343, 343)), k0a.element((-36, 1, 48)))
    b = KInvariant(k0b, FgAbGroup(1, (1029,)), k0b.element((53, 207)))
    heavy = PairAnalysis(a, b)
    analyses = [heavy] + [
        PairAnalysis(KInvariant.from_json(json.loads(x)), KInvariant.from_json(json.loads(y)))
        for x, y in (
            (
                '{"k0":{"rank":1,"torsion":[125,875]},"k1":{"rank":1,"torsion":[5,25]},"unit":[57,27,408]}',
                '{"k0":{"rank":1,"torsion":[5,125]},"k1":{"rank":0,"torsion":[24500]},"unit":[21,0,86]}',
            ),
            (
                '{"k0":{"rank":1,"torsion":[9,231525]},"k1":{"rank":1,"torsion":[5,231525]},"unit":[-41,6,68287]}',
                '{"k0":{"rank":1,"torsion":[2,8,56]},"k1":{"rank":1,"torsion":[49,49,3430]},"unit":[-26,0,1,44]}',
            ),
        )
    ]
    maps = (("section0", "pi0"), ("section1", "pi1"), ("lifted_section0", "lifted_pi0"))
    for an in analyses:
        for name, hom in maps:
            f = getattr(an, hom)  # build the map outside the timed solve
            start = time.perf_counter()
            assert getattr(an, name) is None
            assert time.perf_counter() - start < 1.0, name
            # not is_surjective(f): its SNF takes 15-20 s for pi1 of the
            # third pair
            assert f.source.ngens < f.target.ngens, hom
    assert not any(is_surjective(getattr(heavy, hom)) for _, hom in maps)


def _prime_power_literal(rng, primes):
    """Z^(0 or 1) + up to three Z/p^e in K0 and up to one in K1, with p
    from ``primes`` and e <= 3."""

    def group(most):
        factors = [rng.choice(primes) ** rng.randint(1, 3) for _ in range(rng.randint(0, most))]
        return FgAbGroup(rng.randint(0, 1), factors)

    k0 = group(3)
    unit = [rng.randint(-6, 6) for _ in range(k0.rank)] + [rng.randrange(d) for d in k0.torsion]
    return KInvariant(k0, group(1), k0.element(unit))


def test_early_section_decisions_agree_with_the_solver(catalog):
    # A section is decided by a nontrivial cokernel, or else by the
    # solver; whichever decides, the answer is the solver's on freshly
    # built maps, and nothing the decision does not need is built for it.
    rng = random.Random(12)
    pairs = [(a, b) for _, a in catalog for _, b in catalog]
    for k in range(300):
        primes = list((2, 3, 5, 7))
        rng.shuffle(primes)
        cut = rng.randint(1, 3)
        # shared primes on even k, disjoint ones on odd k
        pa, pb = (primes, primes) if k % 2 == 0 else (primes[:cut], primes[cut:])
        pairs.append((_prime_power_literal(rng, pa), _prime_power_literal(rng, pb)))
    maps = ((0, "section0", "pi0"), (1, "section1", "pi1"), (0, "lifted_section0", "lifted_pi0"))
    decided = set()
    for a, b in pairs:
        fresh = PairAnalysis(a, b)
        for degree, name, hom in maps:
            an = PairAnalysis(a, b)
            section = getattr(an, name)
            built = set(vars(an))
            f = getattr(fresh, hom)
            assert section == right_inverse_exists(f), (str(a), str(b), name)
            if not cokernel(f).is_trivial:
                rule = "cokernel"
                if degree == 0:
                    unbuilt = {"_k0_sum", "_lifted_rows0", "lifted_pi0", "unital_quotient", "pi0"}
                else:
                    unbuilt = {"pi1"}
            else:
                rule, unbuilt = "solved" if section is not None else "no section", set()
            assert not built & unbuilt, (str(a), str(b), name, rule, built & unbuilt)
            decided.add(rule)
        an = PairAnalysis(a, b)
        assert an.cokernel0 == cokernel(fresh.pi0) == cokernel(fresh.lifted_pi0), (str(a), str(b))
        assert an.cokernel1 == cokernel(fresh.pi1), (str(a), str(b))
    assert decided == {"cokernel", "solved", "no section"}


def test_free_pair_maps_cost_their_size():
    # Each induced map is a product of sparse rows, so the lifts of a
    # free pair (one entry per row) cost about the size of the matrix.
    # As a dense product of lifted_pi0 with the quotient lift, pi0 of
    # C^100 against C^100 (10,000 x 200 times 200 x 199) took 15 s.
    an = PairAnalysis(evaluate("C^100"), evaluate("C^100"))
    start = time.perf_counter()
    pi0, lifted, pi1 = an.pi0, an.lifted_pi0, an.pi1
    assert time.perf_counter() - start < 2.0
    assert (pi0.matrix.rows, pi0.matrix.cols, lifted.matrix.cols) == (10000, 199, 200)
    assert pi1.target.is_trivial
    # the sparse products agree with the dense one on smaller pairs
    for a, b in (("C^7", "C^5"), ("M_6 (x) C^2", "O_5 (x) CT"), ("O_4 (x) CT", "O_7 (x) C^2")):
        an = PairAnalysis(evaluate(a), evaluate(b))
        q, _, lift = unital_quotient_maps(an)
        assert an.pi0 == GroupHom(q, an.pi0.target, an.lifted_pi0.matrix @ lift), (a, b)


def _per_order_section(f):
    """The section of f solved generator by generator in the span of its
    order: e_j of order d goes to S_d y_j, with S_d the columns
    (c / gcd(c, d)) e_i of each source generator of order c (the
    identity for d = 0) and [f S_d | R_h] (y_j, z) = e_j solved by
    ``integer_solution``; None when some e_j has no solution."""
    g, h = f.source, f.target
    cols = []
    for j, d in enumerate([0] * h.rank + list(h.torsion)):
        if d:
            span = [[c // gcd(c, d) * (i == k) for k, c in enumerate(g.torsion, g.rank)] for i in range(g.ngens)]
        else:
            span = [[int(i == k) for k in range(g.ngens)] for i in range(g.ngens)]
        image = [[sum(x * y for x, y in zip(row, col)) for col in zip(*span)] for row in f.matrix.data]
        rel = [[e * (i == h.rank + k) for k, e in enumerate(h.torsion)] for i in range(h.ngens)]
        y = integer_solution([r + s for r, s in zip(image, rel)], [int(i == j) for i in range(h.ngens)])
        if y is None:
            return None
        cols.append([sum(x * w for x, w in zip(row, y)) for row in span])
    return GroupHom(h, g, IntMatrix.from_columns(cols, g.ngens))


def _literal_pairs(count, seed):
    """``count`` pairs of ``_prime_power_literal``s, on shared primes for
    even k and on disjoint ones for odd k."""
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        primes = [2, 3, 5, 7]
        rng.shuffle(primes)
        cut = rng.randint(1, 3)
        pa, pb = (primes, primes) if k % 2 == 0 else (primes[:cut], primes[cut:])
        pairs.append((_prime_power_literal(rng, pa), _prime_power_literal(rng, pb)))
    return pairs


def test_automorphism_sections_match_the_per_order_solve(catalog):
    # An onto induced map whose source equals its target is solved in one
    # system; its section is still the one the per-order rule finds, and
    # a two-sided inverse.
    pairs = [(a, b) for _, a in catalog for _, b in catalog] + _literal_pairs(300, 14)
    seen = set()
    for a, b in pairs:
        an = PairAnalysis(a, b)
        for name in ("pi0", "pi1", "lifted_pi0"):
            f = getattr(an, name)
            if f.source != f.target or not is_surjective(f):
                continue
            s = right_inverse_exists(f)
            assert s == _per_order_section(f), (str(a), str(b), name)
            assert compose(s, f) == GroupHom.identity(f.target) == compose(f, s), (str(a), str(b), name)
            seen.add((f.source.rank > 0, bool(f.source.torsion)))
    # free, torsion and mixed groups all occur
    assert {(True, False), (False, True), (True, True)} <= seen, seen


def test_quotient_path_on_the_unit_relations(catalog):
    # The unital quotient of every catalog pair and of seeded literal
    # pairs, against the canonical form and the dense-transform reference.
    pairs = [(a, b) for _, a in catalog for _, b in catalog] + _literal_pairs(300, 15)
    for a, b in pairs:
        an = PairAnalysis(a, b)
        assert_quotient_path(an.unit_relation.group, an.unit_relation)


def test_kunneth_canonicalizes_each_degree_once(monkeypatch):
    # The unit [1_A] (x) [1_B] and the summand injections read one
    # canonical sum per degree.  Here K0A (x) K0B = (Z/2)^6, so two
    # calls see six orders 2: its Kronecker presentation and the sum.
    a, b = evaluate("C^3"), evaluate("O_3 (x) C^2")
    calls = []
    real = fgab._cyclic_canonical

    def counting(orders):
        calls.append(list(orders))
        return real(orders)

    monkeypatch.setattr(fgab, "_cyclic_canonical", counting)
    monkeypatch.setattr(kinv, "_cyclic_canonical", counting)
    kp = kunneth(a, b)
    assert kp.k0 == FgAbGroup(0, (2,) * 6) and kp.unit is not None
    assert calls.count([2] * 6) == 2, calls


def test_unital_free_product_of_zero_k1_sums_no_empty_group(monkeypatch):
    # K1A + K1B = 0 for M_2 against M_3: the sum is read off the counts,
    # with no canonical form of an empty list of orders
    calls = []
    real = fgab._cyclic_canonical

    def counting(orders):
        calls.append(list(orders))
        return real(orders)

    monkeypatch.setattr(fgab, "_cyclic_canonical", counting)
    monkeypatch.setattr(kinv, "_cyclic_canonical", counting)
    code = cli.main(["kgroups", "M_2 (*C) M_3", "--format", "json"], out=io.StringIO(), err=io.StringIO())
    assert code == cli.EXIT_OK and calls
    assert [] not in calls, calls


def test_each_analysis_piece_is_computed_once_and_kept_without_a_lock(monkeypatch):
    # every piece of PairAnalysis runs its function once per analysis and
    # lands in the analysis's __dict__, where later reads find it; class
    # access gives the descriptor with the function's docstring, and the
    # descriptor holds no lock (functools.cached_property took one on
    # each first read before Python 3.12)
    pieces = {
        name: attr for name, attr in vars(PairAnalysis).items() if isinstance(attr, kinv._once)
    }
    assert {"kunneth_parts", "pi0", "pi1", "section0", "unital_free_product"} <= set(pieces)
    runs = []
    for name, piece in pieces.items():
        assert getattr(PairAnalysis, name) is piece
        assert piece.__doc__ == piece.func.__doc__
        assert not hasattr(piece, "lock")

        def counted(self, name=name, func=piece.func):
            runs.append(name)
            return func(self)

        monkeypatch.setattr(piece, "func", counted)
    for a, b in (("M_2", "M_3"), ("CT", "CT"), ("O_2", "O_3")):
        an = PairAnalysis(evaluate(a), evaluate(b))
        runs.clear()
        first = {name: getattr(an, name) for name in pieces}
        assert sorted(runs) == sorted(pieces)
        assert all(an.__dict__[name] is value for name, value in first.items())
        assert all(getattr(an, name) is value for name, value in first.items())
        assert sorted(runs) == sorted(pieces)


def test_threads_racing_on_one_analysis_read_equal_pieces():
    # no lock guards a first read, so threads that race on one analysis
    # may each compute a piece; the pieces are deterministic, so every
    # thread reads values equal to those of an analysis of its own
    pieces = [name for name, attr in vars(PairAnalysis).items() if isinstance(attr, kinv._once)]
    a, b = evaluate("M_2 (x) O_3"), evaluate("M_4")
    want = PairAnalysis(a, b)
    want = {name: getattr(want, name) for name in pieces}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared, seen = PairAnalysis(a, b), []
            threads = [
                threading.Thread(target=lambda: seen.append({n: getattr(shared, n) for n in reversed(pieces)}))
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert seen == [want] * len(threads)
    finally:
        sys.setswitchinterval(interval)
