"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check here is exact integer arithmetic; there are no numeric
tolerances to tune.  Each test prints a PASS line when its criterion
holds (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import io
import itertools
import json
import random

from kobstruct import (
    FgAbGroup,
    GroupHom,
    case_ii_k_check,
    classify,
    compose,
    iso_remark_check,
    right_inverse_exists,
    section_exists_k,
    smith_normal_form,
)
from kobstruct.cli import (
    _EXAMPLES,
    EXIT_ERROR,
    EXIT_NOT_FG,
    EXIT_OBSTRUCTED,
    EXIT_OK,
    main,
)
from kobstruct.obstruct import (
    NO_SECTION_0,
    NO_SECTION_1,
    PI0_NOT_SURJECTIVE,
    PI1_NOT_SURJECTIVE,
    POSSIBLE_CASE_I,
    POSSIBLE_CASE_III,
)
from conftest import (
    exhaustive_section_exists,
    is_unimodular,
    minors_gcd_diagonal,
    random_hom,
    random_matrix,
)


def _ok(label, text):
    print(f"ACCEPTANCE {label} PASS  {text}")


# ---------------------------------------------------------------------------
# Criterion 1: the golden example suite (exact equality everywhere).  The
# checks live in one table, ``cli._EXAMPLES``, which ``kobstruct
# paper-examples`` replays; each test here runs its items from it.

_RUNNERS = {ident: runner for ident, _, runner in _EXAMPLES}


def _golden(*idents):
    for ident in idents:
        passed, detail = _RUNNERS[ident]()
        assert passed, (ident, detail)
        _ok(ident, detail)


def test_1a_two_point_algebras_rank_obstruction():
    _golden("c2-rank")


def test_1b_equal_matrix_algebras_multiplication_by_n():
    _golden("mn-same")


def test_1c_m2_m3_case_iii_with_section():
    _golden("m2-m3")


def test_1d_unit_divisibility_witnesses():
    _golden("m-oinf-unit")


def test_1e_two_projection_scale_example():
    _golden("ex4")


def test_1f_cuntz_gcd_boundary():
    _golden("cuntz-gcd")


def test_1g_torus_pair_k1_tensor():
    _golden("torus-k1")


def test_1h_tensor_absorption():
    _golden("o2-absorb", "oinf-absorb")


# ---------------------------------------------------------------------------
# Criterion 2: the post-classification isomorphism identities


def test_2_isomorphism_remark_and_torsion_identity(catalog):
    checked = 0
    for _, a in catalog:
        for _, b in catalog:
            v = classify(a, b)
            if v.outcome in (POSSIBLE_CASE_I, POSSIBLE_CASE_III):
                assert iso_remark_check(a, b)
                checked += 1
    assert checked >= 100

    rng = random.Random(20240809)
    primes_a, primes_b = (2, 3, 11), (5, 7, 13)

    def finite_group(pool):
        factors = []
        order = 1
        for _ in range(rng.randrange(0, 3)):
            d = rng.choice(pool) ** rng.randint(1, 2)
            if order * d > 24:
                continue
            factors.append(d)
            order *= d
        return FgAbGroup(0, factors)

    def element_of(g):
        return g.element([rng.randrange(d) for d in g.torsion])

    done = 0
    while done < 200:
        g0, g1 = finite_group(primes_a), finite_group(primes_a)
        h0, h1 = finite_group(primes_b), finite_group(primes_b)
        r, s = element_of(g0), element_of(h0)
        assert case_ii_k_check(g0, g1, h0, h1, r, s)
        done += 1
    _ok(
        "2",
        f"iso remark on {checked} catalog pairs; torsion-case K0 identity on 200 random inputs",
    )


# ---------------------------------------------------------------------------
# Criterion 3: oracle equivalence


def test_3a_snf_matches_minor_gcd_oracle():
    rng = random.Random(424242)
    for _ in range(500):
        m = random_matrix(rng, max_dim=6, lo=-20, hi=20)
        u, d, v = smith_normal_form(m)
        assert (u @ m) @ v == d
        assert is_unimodular(u) and is_unimodular(v)
        diag = [d[i, i] for i in range(min(d.rows, d.cols))]
        assert diag == minors_gcd_diagonal(m), m
    _ok("3a", "SNF diagonal = gcd-of-minors sequence on 500 random matrices <= 6x6")


def _groups_order_le(bound, max_factors=2):
    """All finite abelian groups of order <= bound with at most
    max_factors invariant factors."""
    groups = [FgAbGroup()]
    for d in range(2, bound + 1):
        groups.append(FgAbGroup(0, (d,)))
    if max_factors >= 2:
        for d1 in range(2, bound + 1):
            for d2 in range(d1, bound + 1, d1):
                if d1 * d2 > bound:
                    break
                groups.append(FgAbGroup(0, (d1, d2)))
    return groups


def test_3b_right_inverse_agrees_with_exhaustive_search():
    groups = _groups_order_le(64, max_factors=2)
    assert len(groups) == 96
    rng = random.Random(777)
    agreements = 0
    for g, h in itertools.product(groups, groups):
        f = random_hom(rng, g, h)
        got = right_inverse_exists(f)
        want = exhaustive_section_exists(f)
        if got is None:
            assert not want, (g, h, f.matrix)
        else:
            assert want
            assert compose(got, f) == GroupHom.identity(h)
        agreements += 1
    assert agreements == 96 * 96
    _ok(
        "3b",
        "right_inverse_exists = exhaustive search on all 96x96 group pairs "
        "of order <= 64, <= 2 invariant factors",
    )


# ---------------------------------------------------------------------------
# Criterion 4: classifier-solver concordance


def test_4_concordance_both_modes(catalog):
    pairs = 0
    for _, a in catalog:
        for _, b in catalog:
            v = classify(a, b)
            for mode in ("unital", "full"):
                rep = section_exists_k(a, b, mode)
                if v.possible:
                    assert rep.deg0 is not None, (a, b, mode)
                    assert rep.deg1 is not None, (a, b, mode)
                    assert rep.extra_z_ok, (a, b, mode)
                elif v.witness.clause in (PI0_NOT_SURJECTIVE, NO_SECTION_0):
                    assert rep.deg0 is None, (a, b, mode)
                elif v.witness.clause in (PI1_NOT_SURJECTIVE, NO_SECTION_1):
                    assert rep.deg1 is None, (a, b, mode)
            pairs += 1
    assert pairs == len(catalog) ** 2
    _ok("4", f"classifier and section solver agree on {pairs} pairs in both modes")


# ---------------------------------------------------------------------------
# Criterion 5: headless runs, determinism, exit codes


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_5_cli_exit_codes_and_determinism():
    matrix = (
        (("kgroups", "M_2 (x) M_3"), EXIT_OK),
        (("classify", "M_2", "M_3", "--mode", "unital"), EXIT_OK),
        (("classify", "O_2", "O_5"), EXIT_OK),
        (("classify", "M_3", "M_3"), EXIT_OBSTRUCTED),
        (("classify", "C(T)", "C(T)", "--format", "json"), EXIT_OBSTRUCTED),
        (("section", "M_2", "M_2"), EXIT_OBSTRUCTED),
        (("kgroups", "O_x"), EXIT_ERROR),
        (("classify", "O_2 (*) O_2", "O_3"), EXIT_ERROR),
        (("kgroups", "CAR"), EXIT_NOT_FG),
        (("classify", "CAR", "O_2"), EXIT_NOT_FG),
        (("paper-examples",), EXIT_OK),
    )
    for argv, expected in matrix:
        first = _run(*argv)
        second = _run(*argv)
        assert first[0] == expected, (argv, first)
        assert first == second, argv
    # JSON outputs are valid and key-sorted
    _, out, _ = _run("classify", "O_4", "O_7", "--format", "json")
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _ok("5", "exit-code matrix and byte-identical reruns verified end-to-end")
