"""Decision layer: splitting obstructions and the case classifier.

Given L(A) and L(B), this module decides whether the quotient map from
the (unital) free product onto the tensor product can split at the
K-theory level.  A positive verdict names the matching case of the
classification; a negative verdict carries a concrete witness, always
re-checkable: a nonzero K1 tensor or Tor group, a failed rank count, a
non-surjective induced map, or a missing section.  Every check reads
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
    direct_sum_many,
    is_surjective,
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


class ObstructionWitness(_Value):
    """A verifiable reason no K-level splitting exists: its ``clause``,
    a ``detail`` tuple of (name, value) pairs and an ``explanation``."""

    __slots__ = ("clause", "detail", "explanation")

    def __init__(self, clause: str, detail: tuple, explanation: str):
        object.__setattr__(self, "clause", clause)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "explanation", explanation)

    def to_json(self):
        return {
            "clause": self.clause,
            "detail": dict(self.detail),
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
        return dict(self.parameters) if self.parameters is not None else None

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


def _finite_order(inv: KInvariant):
    """(|K0 torsion| * |K1 torsion|) of a wholly finite invariant."""
    return inv.k0.torsion_order() * inv.k1.torsion_order()


# The four Tor pairings (degree on A, degree on B, label), in reporting order.
_TORS = sorted((i, j, label) for rows in KUNNETH for label, i, j, is_tor in rows if is_tor)


def basic_obstructions(an: PairAnalysis):
    """Structural splitting obstructions, cheapest first.

    Checks, in reporting order: the K1 tensor clause, the four Tor
    pairings of K_*(A) against K_*(B), and the rank inequality (whose
    bound drops by one when either unit class has infinite order).
    """
    a, b, parts = an.a, an.b, an.kunneth_parts
    found = []

    t11 = parts[K1A_K1B]
    if not t11.is_trivial:
        found.append(
            ObstructionWitness(
                K1_TENSOR_NONZERO,
                (("k1a", str(a.k1)), ("k1b", str(b.k1)), ("tensor", str(t11))),
                f"K1(A) (x) K1(B) = {t11} is nonzero, and the induced maps "
                "never reach that summand of K0 of the tensor product.",
            )
        )

    tor_hits = [(da, db, parts[label]) for da, db, label in _TORS if not parts[label].is_trivial]
    if tor_hits:
        da, db, t = tor_hits[0]
        found.append(
            ObstructionWitness(
                TOR_NONZERO,
                (("degree_a", da), ("degree_b", db), ("tor", str(t)), ("count", len(tor_hits))),
                f"Tor(K{da}(A), K{db}(B)) = {t} is nonzero, and the induced "
                "maps never reach the Tor summands of the tensor K-theory.",
            )
        )

    ra, rb = a.k0.rank, b.k0.rank
    # one less when a unit class has infinite order, that is without extra Z
    bound = ra + rb if an.extra_z else ra + rb - 1
    if ra * rb > bound:
        found.append(
            ObstructionWitness(
                RANK_INEQUALITY,
                (("rank_a", ra), ("rank_b", rb), ("bound", bound)),
                f"rank K0(A) * rank K0(B) = {ra * rb} exceeds {bound}, so the "
                "free part of K0 of the tensor product cannot be covered.",
            )
        )
    return found


def _map_level_witness(an: PairAnalysis):
    """Surjectivity and section failures of the induced maps, or None.

    The cokernels come from the analysis, as group arithmetic on the
    Kunneth parts and Q_X = K0(X)/<[1_X]>: a map cannot be onto when
    [1_A] and [1_B] leave quotients whose tensor product is nonzero, or
    when a Kunneth summand it never reaches is nonzero.  A degree's map
    is built only when one of its clauses fires or its section is
    solved.  The extra Z summand needs no check here: it maps into
    Tor(K0A, K0B), and the Tor clause of ``basic_obstructions`` has
    already fired whenever that group is nonzero.
    """
    for degree, clause in ((0, PI0_NOT_SURJECTIVE), (1, PI1_NOT_SURJECTIVE)):
        coker = getattr(an, f"cokernel{degree}")
        if not coker.is_trivial:
            pi = getattr(an, f"pi{degree}")
            return ObstructionWitness(
                clause,
                (("cokernel", str(coker)), ("matrix", pi.matrix.to_json())),
                f"the induced map on K{degree} has cokernel {coker}, so it is "
                "not surjective and admits no section.",
            )
    for degree, clause in ((0, NO_SECTION_0), (1, NO_SECTION_1)):
        if getattr(an, f"section{degree}") is None:
            pi = getattr(an, f"pi{degree}")
            return ObstructionWitness(
                clause,
                (("matrix", pi.matrix.to_json()),),
                f"the induced map on K{degree} is surjective but has no "
                "group-theoretic right inverse.",
            )
    return None


def first_witness(an: PairAnalysis):
    """The first obstruction in reporting order, or None if all checks pass."""
    ws = basic_obstructions(an)
    return ws[0] if ws else _map_level_witness(an)


def _group_params(a: KInvariant, b: KInvariant):
    return (
        ("g0", str(a.k0.torsion_part())),
        ("g1", str(a.k1.torsion_part())),
        ("h0", str(b.k0.torsion_part())),
        ("h1", str(b.k1.torsion_part())),
    )


def _is_z_one(inv: KInvariant):
    """L = (Z, 0, 1) up to the sign of the generator."""
    return (
        inv.k0 == FgAbGroup(1)
        and inv.k1.is_trivial
        and abs(inv.unit.coords[0]) == 1
    )


def _match_case_iii(x: KInvariant, y: KInvariant):
    """Both K0 of rank one, torsion K1, units of infinite order, and the
    coprimality pattern; returns parameter pairs or None."""
    if x.k0.rank != 1 or y.k0.rank != 1:
        return None
    if not (x.k1.is_finite and y.k1.is_finite):
        return None
    u = abs(x.unit.coords[0])
    w = abs(y.unit.coords[0])
    if u == 0 or w == 0:
        return None
    g0o, g1o = x.k0.torsion_order(), x.k1.torsion_order()
    h0o, h1o = y.k0.torsion_order(), y.k1.torsion_order()
    if gcd(g0o * g1o, h0o * h1o) != 1:
        return None
    if gcd(u, w) != 1:
        return None
    if gcd(u, h0o) != 1 or gcd(u, h1o) != 1:
        return None
    if gcd(w, g0o) != 1 or gcd(w, g1o) != 1:
        return None
    return (("u", u), ("w", w))


def _case_ii(a: KInvariant, b: KInvariant, role_a: str, variant: str) -> Verdict:
    params = _group_params(a, b) + (
        ("r", list(a.unit.coords)),
        ("s", list(b.unit.coords)),
        ("role_a", role_a),
        ("variant", variant),
    )
    return Verdict(POSSIBLE_CASE_II, parameters=params)


def classify(a: KInvariant, b: KInvariant) -> Verdict:
    """Decide K-level splittability of the quotient onto the tensor product.

    Tries the case patterns (II first, so that coprime pairs of wholly
    finite invariants such as two Cuntz algebras report the torsion
    case, then I and III).  Anything else is Obstructed with the first
    discovered witness, structural clauses before map-level ones, or,
    when one side alone has wholly finite K-theory and every check
    passes, the torsion-side case II.

    >>> from .fgab import FgAbGroup
    >>> z = FgAbGroup(1)
    >>> m2 = KInvariant(z, FgAbGroup(), z.element((2,)))
    >>> m3 = KInvariant(z, FgAbGroup(), z.element((3,)))
    >>> classify(m2, m3).outcome
    'PossibleCaseIII'
    """
    return classify_analysis(PairAnalysis(a, b))


def classify_analysis(an: PairAnalysis) -> Verdict:
    """:func:`classify` on the pair of ``an``, reading the induced maps
    from it; the maps are built only when a map-level check runs.  Case
    I needs K0 = Z and case III rank-one K0 on both sides, so neither
    pattern matches a side with finite K-theory."""
    a, b = an.a, an.b
    a_fin = a.is_torsion_invariant()
    b_fin = b.is_torsion_invariant()
    if a_fin and b_fin and gcd(_finite_order(a), _finite_order(b)) == 1:
        return _case_ii(a, b, "left", "both_finite")

    for x, role in ((a, "left"), (b, "right")):
        if _is_z_one(x):
            return Verdict(
                POSSIBLE_CASE_I,
                parameters=(("role_a", role), ("u", 1), ("shape", "(Z,0,1)")),
            )

    for x, y, role in ((a, b, "left"), (b, a, "right")):
        m = _match_case_iii(x, y)
        if m is not None:
            params = m + _group_params(x, y) + (("role_a", role),)
            return Verdict(POSSIBLE_CASE_III, parameters=params)

    w = first_witness(an)
    if w is not None:
        return Verdict(OBSTRUCTED, witness=w)
    if a_fin != b_fin:
        # One side has wholly finite K-theory (possibly trivial) while
        # the other does not.  The coarse case patterns do not separate
        # these, so the verdict follows the full obstruction battery.
        return _case_ii(a, b, "left" if a_fin else "right", "torsion_side")
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
    exactly when its source equals its target and it is onto.
    """
    an = PairAnalysis(a, b)
    v = classify_analysis(an)
    if v.outcome not in (POSSIBLE_CASE_I, POSSIBLE_CASE_III):
        raise ValueError(
            f"isomorphism check applies to case I/III verdicts, got {v.outcome}"
        )
    return all(pi.source == pi.target and is_surjective(pi) for pi in (an.pi0, an.pi1))


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
            ("relation", [1, 1, -1, -1]),
            ("forced_images", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
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
