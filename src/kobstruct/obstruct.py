"""Decision layer: splitting obstructions and the case classifier.

Given L(A) and L(B), this module decides whether the quotient map from
the (unital) free product onto the tensor product can split at the
K-theory level.  A positive verdict names the matching case (``_CASES``);
a negative one carries a re-checkable witness.  The obstructions are the
rows of ``_CLAUSES``, whose order is the reporting order: a nonzero
K1(A) (x) K1(B), a nonzero Tor group, the rank count, a non-surjective
pi0 or pi1, and a missing section in degree 0 or 1.  Every check reads
its groups and maps from one ``PairAnalysis`` of the pair.

Case vocabulary (PossibleCaseI..III):
  I    one side is (Z, 0, 1): tensoring with it changes nothing.
  II   torsion-dominated: both sides have finite K-theory with coprime
       orders (then the tensor K-theory vanishes); this bucket also
       collects the degenerate pairs where one side has wholly finite
       K-theory, including (0, 0, 0), and every map-level check passes.
  III  both K0 of rank one with units of infinite order u and w,
       u and w coprime to each other and to the opposite torsion orders.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .fgab import (
    FgAbGroup,
    GroupElement,
    GroupMismatchError,
    IntMatrix,
    direct_sum_many,
    quotient_by,
    solve_divisibility,
    _Value,
    _quotient_group,
)
from .kinv import (
    K1A_K1B,
    KUNNETH,
    TOR_K0A_K0B,
    KInvariant,
    PairAnalysis,
    unital_free_product_k,
    _sum_group,
)

__all__ = [
    "ObstructionWitness",
    "Verdict",
    "SectionReport",
    "basic_obstructions",
    "classify",
    "classify_analysis",
    "section_exists_k",
    "section_exists_analysis",
    "iso_remark_check",
    "case_ii_k_check",
    "ex4_no_scaled_section",
    "m_oo_unit_divisibility",
    "POSSIBLE_CASE_I",
    "POSSIBLE_CASE_II",
    "POSSIBLE_CASE_III",
    "OBSTRUCTED",
    "K1_TENSOR_NONZERO",
    "RANK_INEQUALITY",
    "TOR_NONZERO",
    "PI0_NOT_SURJECTIVE",
    "PI1_NOT_SURJECTIVE",
    "NO_SECTION_0",
    "NO_SECTION_1",
]

POSSIBLE_CASE_I = "PossibleCaseI"
POSSIBLE_CASE_II = "PossibleCaseII"
POSSIBLE_CASE_III = "PossibleCaseIII"
OBSTRUCTED = "Obstructed"

K1_TENSOR_NONZERO = "K1TensorNonzero"
RANK_INEQUALITY = "RankInequality"
TOR_NONZERO = "TorNonzero"
PI0_NOT_SURJECTIVE = "Pi0NotSurjective"
PI1_NOT_SURJECTIVE = "Pi1NotSurjective"
NO_SECTION_0 = "NoSection0"
NO_SECTION_1 = "NoSection1"

_POSSIBLE = frozenset({POSSIBLE_CASE_I, POSSIBLE_CASE_II, POSSIBLE_CASE_III})


def _json_value(value):
    """A witness detail or case parameter as JSON writes it: a matrix as
    its rows and a tuple as a list.  The fields keep the hashable form."""
    if isinstance(value, IntMatrix):
        return value.to_json()
    return list(value) if isinstance(value, tuple) else value


class ObstructionWitness(_Value):
    """A verifiable reason no K-level splitting exists: its ``clause``,
    a ``detail`` tuple of (name, value) pairs and an ``explanation``.
    A value is a str, an int, a tuple or an ``IntMatrix``, so a witness
    hashes."""

    __slots__ = ("clause", "detail", "explanation")

    def __init__(self, clause: str, detail: tuple, explanation: str):
        object.__setattr__(self, "clause", clause)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "explanation", explanation)

    def to_json(self):
        return {
            "clause": self.clause,
            "detail": {name: _json_value(v) for name, v in self.detail},
            "explanation": self.explanation,
        }


class Verdict(_Value):
    """Outcome of the classifier.

    Exactly one of ``parameters`` (for a Possible* outcome) and
    ``witness`` (for Obstructed) is populated.
    """

    __slots__ = ("outcome", "parameters", "witness")

    def __init__(self, outcome: str, parameters: tuple | None = None, witness: ObstructionWitness | None = None):
        if outcome in _POSSIBLE:
            ok = parameters is not None and witness is None
        elif outcome == OBSTRUCTED:
            ok = witness is not None and parameters is None
        else:
            raise ValueError(f"unknown outcome {outcome!r}")
        if not ok:
            raise ValueError("verdict fields inconsistent with outcome")
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "witness", witness)

    @property
    def possible(self):
        return self.outcome in _POSSIBLE

    def parameters_dict(self):
        if self.parameters is None:
            return None
        return {name: _json_value(v) for name, v in self.parameters}

    def to_json(self):
        case = None
        if self.outcome in _POSSIBLE:
            case = self.outcome.removeprefix("PossibleCase")
        return {
            "outcome": self.outcome,
            "case": case,
            "parameters": self.parameters_dict(),
            "witness": self.witness.to_json() if self.witness else None,
            # kept for the output schema; no outcome carries a reason
            "reason": None,
        }


class SectionReport(namedtuple("SectionReport", ("deg0", "deg1", "extra_z_ok"))):
    """Named triple (deg0, deg1, extra_z_ok) from section_exists_k: the
    section in each degree, a GroupHom or None, and whether the extra Z
    summand is clear."""

    __slots__ = ()

    @property
    def all_clear(self):
        return self.deg0 is not None and self.deg1 is not None and self.extra_z_ok


def _torsion_order(inv: KInvariant):
    """|K0 torsion| * |K1 torsion|: the order of a wholly finite invariant."""
    return inv.k0.torsion_order() * inv.k1.torsion_order()


# The four Tor pairings (degree on A, degree on B, label), in reporting order.
_TORS = sorted((i, j, label) for rows in KUNNETH for label, i, j, is_tor in rows if is_tor)


def _k1_tensor(an: PairAnalysis):
    t = an.kunneth_parts[K1A_K1B]
    if t.is_trivial:
        return None
    return (
        (("k1a", str(an.a.k1)), ("k1b", str(an.b.k1)), ("tensor", str(t))),
        f"K1(A) (x) K1(B) = {t} is nonzero, and the induced maps "
        "never reach that summand of K0 of the tensor product.",
    )


def _tor(an: PairAnalysis):
    parts = an.kunneth_parts
    hits = [(da, db, parts[label]) for da, db, label in _TORS if not parts[label].is_trivial]
    if not hits:
        return None
    da, db, t = hits[0]
    return (
        (("degree_a", da), ("degree_b", db), ("tor", str(t)), ("count", len(hits))),
        f"Tor(K{da}(A), K{db}(B)) = {t} is nonzero, and the induced "
        "maps never reach the Tor summands of the tensor K-theory.",
    )


def _rank_count(an: PairAnalysis):
    ra, rb = an.a.k0.rank, an.b.k0.rank
    # one less when a unit class has infinite order, that is without extra Z
    bound = ra + rb if an.extra_z else ra + rb - 1
    if ra * rb <= bound:
        return None
    return (
        (("rank_a", ra), ("rank_b", rb), ("bound", bound)),
        f"rank K0(A) * rank K0(B) = {ra * rb} exceeds {bound}, so the "
        "free part of K0 of the tensor product cannot be covered.",
    )


def _not_surjective(an: PairAnalysis, degree: int):
    """The cokernel comes from the analysis, as group arithmetic on the
    Kunneth parts and Q_X = K0(X)/<[1_X]>; the map is built only for the
    witness.  The extra Z summand needs no row: it maps into Tor(K0A,
    K0B), and the Tor row fires whenever that group is nonzero."""
    coker = getattr(an, f"cokernel{degree}")
    if coker.is_trivial:
        return None
    return (
        (("cokernel", str(coker)), ("matrix", getattr(an, f"pi{degree}").matrix)),
        f"the induced map on K{degree} has cokernel {coker}, so it is "
        "not surjective and admits no section.",
    )


def _no_section(an: PairAnalysis, degree: int):
    if getattr(an, f"section{degree}") is not None:
        return None
    return (
        (("matrix", getattr(an, f"pi{degree}").matrix),),
        f"the induced map on K{degree} is surjective but has no "
        "group-theoretic right inverse.",
    )


# The paper's obstructions in reporting order: each clause and its test
# over a PairAnalysis, which returns the witness's (detail, explanation)
# or None.  The first _STRUCTURAL rows read only the groups, the others
# the induced maps.  A new obstruction is a row where it is reported.
_CLAUSES = (
    (K1_TENSOR_NONZERO, _k1_tensor),
    (TOR_NONZERO, _tor),
    (RANK_INEQUALITY, _rank_count),
    (PI0_NOT_SURJECTIVE, lambda an: _not_surjective(an, 0)),
    (PI1_NOT_SURJECTIVE, lambda an: _not_surjective(an, 1)),
    (NO_SECTION_0, lambda an: _no_section(an, 0)),
    (NO_SECTION_1, lambda an: _no_section(an, 1)),
)
_STRUCTURAL = 3


def _witnesses(an: PairAnalysis, rows):
    for clause, test in rows:
        found = test(an)
        if found is not None:
            yield ObstructionWitness(clause, *found)


def basic_obstructions(an: PairAnalysis):
    """The witnesses of the structural rows of ``_CLAUSES`` that fire,
    in reporting order."""
    return list(_witnesses(an, _CLAUSES[:_STRUCTURAL]))


def first_witness(an: PairAnalysis):
    """The witness of the first row of ``_CLAUSES`` that fires, or None
    if all checks pass; no later row is evaluated."""
    return next(_witnesses(an, _CLAUSES), None)


def _group_params(a: KInvariant, b: KInvariant):
    groups = (("g0", a.k0), ("g1", a.k1), ("h0", b.k0), ("h1", b.k1))
    return tuple((name, str(g.torsion_part())) for name, g in groups)


def _case_ii(a: KInvariant, b: KInvariant, role_a: str, variant: str):
    units = (("r", a.unit.coords), ("s", b.unit.coords))
    return _group_params(a, b) + units + (("role_a", role_a), ("variant", variant))


def _finite_coprime(x: KInvariant, y: KInvariant, role: str):
    """Both sides wholly finite with coprime orders.  The pattern is
    symmetric, so it matches with A on the left."""
    if x.is_torsion_invariant() and y.is_torsion_invariant() and gcd(_torsion_order(x), _torsion_order(y)) == 1:
        return _case_ii(x, y, role, "both_finite")
    return None


def _z_one(x: KInvariant, y: KInvariant, role: str):
    """L(x) = (Z, 0, 1) up to the sign of the generator."""
    if x.k0.rank == 1 and not x.k0.torsion and x.k1.is_trivial and abs(x.unit.coords[0]) == 1:
        return (("role_a", role), ("u", 1), ("shape", "(Z,0,1)"))
    return None


def _coprime_units(x: KInvariant, y: KInvariant, role: str):
    """Both K0 of rank one, torsion K1 and units u, w of infinite order;
    with g and h the torsion orders of x and y, each of (g, h), (u, w),
    (u, h) and (w, g) is coprime."""
    if x.k0.rank != 1 or y.k0.rank != 1 or not (x.k1.is_finite and y.k1.is_finite):
        return None
    u, w = abs(x.unit.coords[0]), abs(y.unit.coords[0])
    g, h = _torsion_order(x), _torsion_order(y)
    if u == 0 or w == 0 or gcd(g, h) != 1 or gcd(u, w * h) != 1 or gcd(w, g) != 1:
        return None
    return (("u", u), ("w", w)) + _group_params(x, y) + (("role_a", role),)


# The case patterns in the order they are tried, each on (A, B) and then
# on (B, A): the outcome and its match over (x, y, role), which returns
# the parameters or None.  Case II comes first, so that coprime pairs of
# wholly finite invariants such as two Cuntz algebras report it.
_CASES = (
    (POSSIBLE_CASE_II, _finite_coprime),
    (POSSIBLE_CASE_I, _z_one),
    (POSSIBLE_CASE_III, _coprime_units),
)


def classify(a: KInvariant, b: KInvariant) -> Verdict:
    """Decide K-level splittability of the quotient onto the tensor product,
    as :func:`classify_analysis` does on a new analysis of the pair.

    >>> from .fgab import FgAbGroup
    >>> z = FgAbGroup(1)
    >>> m2 = KInvariant(z, FgAbGroup(), z.element((2,)))
    >>> m3 = KInvariant(z, FgAbGroup(), z.element((3,)))
    >>> classify(m2, m3).outcome
    'PossibleCaseIII'
    """
    return classify_analysis(PairAnalysis(a, b))


def classify_analysis(an: PairAnalysis) -> Verdict:
    """:func:`classify` on the pair of ``an``: the first pattern of
    ``_CASES`` that matches, else Obstructed with the first witness of
    ``_CLAUSES``, else, when one side alone has wholly finite K-theory,
    the torsion-side case II.  The induced maps are built only when a
    map-level row runs.

    The closing ``AssertionError`` is the paper's classification
    theorem, checked: every pair matches a case or has a witness.  Its
    evidence is the census of 8,000 pairs in
    ``test_census_possible_iff_no_witness_iff_sections``.
    """
    a, b = an.a, an.b
    sides = ((a, b, "left"), (b, a, "right"))
    for outcome, match in _CASES:
        for x, y, role in sides:
            params = match(x, y, role)
            if params is not None:
                return Verdict(outcome, parameters=params)
    w = first_witness(an)
    if w is not None:
        return Verdict(OBSTRUCTED, witness=w)
    a_fin, b_fin = a.is_torsion_invariant(), b.is_torsion_invariant()
    if a_fin != b_fin:
        # one side alone is wholly finite (possibly 0), which neither case
        # I (K0 = Z) nor case III (rank-one K0 on both sides) can match
        role = "left" if a_fin else "right"
        return Verdict(POSSIBLE_CASE_II, parameters=_case_ii(a, b, role, "torsion_side"))
    raise AssertionError("no case pattern matched and no obstruction witness was found")


def section_exists_k(a: KInvariant, b: KInvariant, mode: str = "unital"):
    """Right inverses of the induced maps, degree by degree.

    mode="unital" uses the quotient of the unital free product,
    mode="full" the un-quotiented free product.  ``extra_z_ok`` is true
    when there is no indeterminate Z summand or when its receiving
    group Tor(K0A, K0B) vanishes, which forces the restriction to be
    zero.
    """
    return section_exists_analysis(PairAnalysis(a, b), mode)


def section_exists_analysis(an: PairAnalysis, mode: str = "unital"):
    """:func:`section_exists_k` on the pair of ``an``, reading the
    sections that :func:`classify_analysis` may already have solved."""
    if mode == "unital":
        extra_ok = (not an.extra_z) or an.kunneth_parts[TOR_K0A_K0B].is_trivial
        return SectionReport(an.section0, an.section1, extra_ok)
    if mode == "full":
        return SectionReport(an.lifted_section0, an.section1, True)
    raise ValueError(f"mode must be 'unital' or 'full', got {mode!r}")


def iso_remark_check(a: KInvariant, b: KInvariant) -> bool:
    """For a pair classified PossibleCaseI/III: are both induced maps
    bijective?  Raises if the precondition fails.

    A finitely generated abelian group is Hopfian: a surjection onto a
    group isomorphic to its source is an isomorphism.  Canonical groups
    are isomorphic exactly when field-equal, so a map is bijective
    exactly when its source equals its target and its cokernel, read
    from the analysis with no Smith normal form, is trivial.
    """
    an = PairAnalysis(a, b)
    v = classify_analysis(an)
    if v.outcome not in (POSSIBLE_CASE_I, POSSIBLE_CASE_III):
        raise ValueError(
            f"isomorphism check applies to case I/III verdicts, got {v.outcome}"
        )
    maps = ((an.pi0, an.cokernel0), (an.pi1, an.cokernel1))
    return all(pi.source == pi.target and coker.is_trivial for pi, coker in maps)


def case_ii_k_check(g0, g1, h0, h1, r: GroupElement, s: GroupElement) -> bool:
    """The displayed degree-0 identity of the torsion case:
    (G0 + H0) / <(r, -s)>  equals  G0/<r> + H0/<s>, exactly.

    Preconditions: all four groups finite, orders coprime degreewise,
    r in G0 and s in H0.  Only the groups are compared, so each quotient
    is read off gcds (``_quotient_group``), without a projection, and the
    right-hand sum is a group only (``_sum_group``).
    """
    for grp in (g0, g1, h0, h1):
        if not grp.is_finite:
            raise ValueError("all groups must be finite")
    if gcd(g0.torsion_order(), h0.torsion_order()) != 1:
        raise ValueError("degree-0 orders must be coprime")
    if gcd(g1.torsion_order(), h1.torsion_order()) != 1:
        raise ValueError("degree-1 orders must be coprime")
    if r.group != g0 or s.group != h0:
        raise GroupMismatchError("r must lie in G0 and s in H0")
    sum0, (inj_g, inj_h) = direct_sum_many((g0, h0))
    lhs = _quotient_group(sum0, inj_g(r) - inj_h(s))
    return lhs == _sum_group((_quotient_group(g0, r), _quotient_group(h0, s)))


def ex4_no_scaled_section() -> ObstructionWitness:
    """The two-projection example: no section of Z^4 -> Z^4/<(1,1,-1,-1)>
    can fix all four coordinate classes.

    The scale data forces a candidate section s to send the class
    proj(e_i) of each standard generator e_i back to e_i.  Those classes
    generate Z^4/<r> with r = (1, 1, -1, -1), so they fix s: s(proj(x))
    = x for every x in Z^4.  Such an s is well defined only if it sends
    proj(r) = 0 to 0, that is only if r = 0.  So none exists, because
    proj(r) is zero while r is not; both facts are checked exactly.
    """
    z4 = FgAbGroup(4)
    relation = z4.element((1, 1, -1, -1))
    _, proj = quotient_by(z4, relation)
    if not (proj(relation).is_zero and not relation.is_zero):
        raise AssertionError("the relation does not contradict the forced images")
    return ObstructionWitness(
        NO_SECTION_0,
        (
            ("relation", relation.coords),
            ("forced_images", IntMatrix.identity(4)),
        ),
        "a section fixing all four coordinate classes would send the zero "
        "class of (1, 1, -1, -1) to the nonzero vector (1, 1, -1, -1); no "
        "such homomorphism exists.",
    )


def m_oo_unit_divisibility(m: int, n: int):
    """In K0 of the unital free product of (Z, 0, m) and (Z, 0, n): an
    element x with (m*n) x = [1], if one exists.

    Exists iff gcd(m, n) = 1 (trivially for m = 1 or n = 1); the witness
    is the K0 shadow of m*n equivalent orthogonal projections summing
    to the identity.

    >>> m_oo_unit_divisibility(2, 3).coords
    (1,)
    >>> m_oo_unit_divisibility(2, 4) is None
    True
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    z = FgAbGroup(1)
    a = KInvariant(z, FgAbGroup(), z.element((m,)))
    b = KInvariant(z, FgAbGroup(), z.element((n,)))
    kp = unital_free_product_k(a, b)
    return solve_divisibility(kp.k0, kp.unit, m * n)
