"""K-theory invariant triples and the K-groups of composite algebras.

A unital algebra enters as the triple L(A) = (K0, K1, [1_A]).  From two
triples this module computes the K-theory of the tensor product (the
Kunneth formula), of the free product (plain direct sums), and of the
unital free product (a quotient in degree 0 and, when both unit classes
are torsion, an extra indeterminate Z summand in degree 1).  It also
constructs the maps induced on K-theory by the quotient onto the tensor
product.

In both degrees an induced map is (x, y) |-> x (x) [1_B] + [1_A] (x) y,
built by one rule, ``PairAnalysis._unit_map``: the images of the
generators of both summands, as columns, times the stacked projections
of their direct sum, one matrix product checked once as a ``GroupHom``.
The map on the unital quotient is that matrix times the lift of each
quotient generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf

from .fgab import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    GroupMismatchError,
    IntMatrix,
    direct_sum_many,
    right_inverse_exists,
    tensor,
    tensor_elem,
    tor,
    _json_ints,
    _quotient_full,
)

__all__ = [
    "KInvariant",
    "KPair",
    "kunneth",
    "kunneth_invariant",
    "free_product_k",
    "unital_free_product_k",
    "pi_star",
    "pi_star_full",
    "PairAnalysis",
    "K0A_K0B",
    "K1A_K1B",
    "TOR_K0A_K1B",
    "TOR_K1A_K0B",
    "K0A_K1B",
    "K1A_K0B",
    "TOR_K0A_K0B",
    "TOR_K1A_K1B",
    "K0A",
    "K0B",
    "K1A",
    "K1B",
    "EXTRA_Z",
]

# Labels for the summand decompositions of composite K-groups.
K0A_K0B = "K0A(x)K0B"
K1A_K1B = "K1A(x)K1B"
TOR_K0A_K1B = "Tor(K0A,K1B)"
TOR_K1A_K0B = "Tor(K1A,K0B)"
K0A_K1B = "K0A(x)K1B"
K1A_K0B = "K1A(x)K0B"
TOR_K0A_K0B = "Tor(K0A,K0B)"
TOR_K1A_K1B = "Tor(K1A,K1B)"
K0A = "K0A"
K0B = "K0B"
K1A = "K1A"
K1B = "K1B"
EXTRA_Z = "ExtraZ"


@dataclass(frozen=True)
class KInvariant:
    """The triple (K0, K1, unit class) of a unital algebra.

    ``finitely_generated`` is an extension hook: every invariant built
    here is finitely generated by construction, but callers may flag an
    input so the decision layer refuses it cleanly.
    """

    k0: FgAbGroup
    k1: FgAbGroup
    unit: GroupElement
    finitely_generated: bool = True

    def __post_init__(self):
        if self.unit.group != self.k0:
            raise GroupMismatchError("unit class must lie in k0")

    def is_torsion_invariant(self):
        """True when both K-groups are finite."""
        return self.k0.is_finite and self.k1.is_finite

    def __str__(self):
        return f"({self.k0}, {self.k1}, {list(self.unit.coords)})"

    def to_json(self):
        obj = {
            "k0": self.k0.to_json(),
            "k1": self.k1.to_json(),
            "unit": list(self.unit.coords),
        }
        if not self.finitely_generated:
            obj["finitely_generated"] = False
        return obj

    @classmethod
    def from_json(cls, obj):
        k0 = FgAbGroup.from_json(obj["k0"])
        k1 = FgAbGroup.from_json(obj["k1"])
        flag = obj.get("finitely_generated", True)
        if type(flag) is not bool:
            raise ValueError(f"finitely_generated must be a boolean, not {type(flag).__name__}")
        return cls(k0, k1, k0.element(_json_ints(obj["unit"], "unit")), finitely_generated=flag)


@dataclass(eq=True)
class KPair:
    """K0/K1 of a composite algebra with labeled summand injections.

    ``summands`` maps a label to the injection of that summand into k0
    or k1.  ``extra_z`` marks the indeterminate Z summand of K1 of a
    unital free product of two algebras with torsion unit classes; its
    injection is recorded like the others, but no induced map is ever
    attached to it because none is determined.
    """

    k0: FgAbGroup
    k1: FgAbGroup
    summands: dict[str, GroupHom] = field(default_factory=dict)
    unit: GroupElement | None = None
    extra_z: bool = False

    def to_json(self):
        return {
            "k0": self.k0.to_json(),
            "k1": self.k1.to_json(),
            "unit": list(self.unit.coords) if self.unit is not None else None,
            "summands": {
                name: hom.matrix.to_json() for name, hom in self.summands.items()
            },
            "extra_z": self.extra_z,
        }


def kunneth(a: KInvariant, b: KInvariant) -> KPair:
    """K-theory of the (maximal) tensor product, with unit class.

    Degree 0 is (K0A (x) K0B) + (K1A (x) K1B) + Tor(K0A, K1B)
    + Tor(K1A, K0B); degree 1 swaps the tensor pairings and collects
    Tor(K0A, K0B) + Tor(K1A, K1B).  The unit is [1_A] (x) [1_B] inside
    the first summand.

    >>> from .fgab import FgAbGroup
    >>> z2 = FgAbGroup(0, (2,))
    >>> o3 = KInvariant(z2, FgAbGroup(), z2.element((1,)))
    >>> kp = kunneth(o3, o3)
    >>> (kp.k0, kp.k1)
    (FgAbGroup(0, (2,)), FgAbGroup(0, (2,)))
    """
    parts0 = (
        tensor(a.k0, b.k0),
        tensor(a.k1, b.k1),
        tor(a.k0, b.k1),
        tor(a.k1, b.k0),
    )
    k0, injs0, _ = direct_sum_many(parts0)
    parts1 = (
        tensor(a.k0, b.k1),
        tensor(a.k1, b.k0),
        tor(a.k0, b.k0),
        tor(a.k1, b.k1),
    )
    k1, injs1, _ = direct_sum_many(parts1)
    unit = injs0[0](tensor_elem(a.unit, b.unit))
    summands = {
        K0A_K0B: injs0[0],
        K1A_K1B: injs0[1],
        TOR_K0A_K1B: injs0[2],
        TOR_K1A_K0B: injs0[3],
        K0A_K1B: injs1[0],
        K1A_K0B: injs1[1],
        TOR_K0A_K0B: injs1[2],
        TOR_K1A_K1B: injs1[3],
    }
    return KPair(k0=k0, k1=k1, summands=summands, unit=unit, extra_z=False)


def kunneth_invariant(a: KInvariant, b: KInvariant) -> KInvariant:
    """The tensor product as a plain invariant triple (for nesting)."""
    kp = kunneth(a, b)
    return KInvariant(kp.k0, kp.k1, kp.unit)


def free_product_k(a: KInvariant, b: KInvariant) -> KPair:
    """K-theory of the full free product: plain direct sums, no unit.

    >>> from .fgab import FgAbGroup
    >>> z2g = FgAbGroup(2)
    >>> c2 = KInvariant(z2g, FgAbGroup(), z2g.element((1, 1)))
    >>> free_product_k(c2, c2).k0
    FgAbGroup(4, ())
    """
    k0, injs0, _ = direct_sum_many((a.k0, b.k0))
    k1, injs1, _ = direct_sum_many((a.k1, b.k1))
    summands = {K0A: injs0[0], K0B: injs0[1], K1A: injs1[0], K1B: injs1[1]}
    return KPair(k0=k0, k1=k1, summands=summands, unit=None, extra_z=False)


def unital_free_product_k(a: KInvariant, b: KInvariant) -> KPair:
    """K-theory of the unital free product.

    Degree 0 is (K0A + K0B) / <([1_A], -[1_B])> with unit the common
    class of ([1_A], 0) and (0, [1_B]).  Degree 1 is K1A + K1B, gaining
    an extra Z summand exactly when both unit classes have finite
    order; that summand is flagged indeterminate.
    """
    return PairAnalysis(a, b).unital_free_product


def pi_star(a: KInvariant, b: KInvariant):
    """Maps induced by the quotient of the unital free product onto the
    tensor product.

    Returns (pi0, pi1, extra_z_target).  pi0 goes from the quotient K0
    of the unital free product to the tensor K0; pi1 goes from the
    K1A + K1B part of K1.  The extra Z summand, when present, carries
    no matrix: only its receiving group Tor(K0A, K0B) is returned.
    """
    an = PairAnalysis(a, b)
    return an.pi0, an.pi1, an.tor00


def pi_star_full(a: KInvariant, b: KInvariant):
    """Maps induced by the quotient of the full free product onto the
    tensor product: same formulas, but degree 0 acts on the un-quotiented
    sum K0A + K0B."""
    an = PairAnalysis(a, b)
    return an.lifted_pi0, an.pi1


class PairAnalysis:
    """The K-theory of one pair (A, B), each piece computed on first use.

    Callers that need more than one answer about a pair (groups, maps,
    verdict, sections) build one analysis and read them all from it;
    nothing is computed that no caller reads.

    >>> from .fgab import FgAbGroup
    >>> z = FgAbGroup(1)
    >>> an = PairAnalysis(KInvariant(z, FgAbGroup(), z.element((2,))),
    ...                   KInvariant(z, FgAbGroup(), z.element((3,))))
    >>> an.pi0.matrix.to_json(), an.unital_free_product.k0
    ([[1]], FgAbGroup(1, ()))
    """

    def __init__(self, a: KInvariant, b: KInvariant):
        self.a = a
        self.b = b

    @cached_property
    def tensor(self) -> KPair:
        """The tensor K-pair, by the Kunneth formula."""
        return kunneth(self.a, self.b)

    @cached_property
    def k0_sum(self):
        """(K0A + K0B, (inj_a, inj_b), (proj_a, proj_b))."""
        return direct_sum_many((self.a.k0, self.b.k0))

    @cached_property
    def unit_relation(self) -> GroupElement:
        """([1_A], -[1_B]) in K0A + K0B."""
        _, (inj_a, inj_b), _ = self.k0_sum
        return inj_a(self.a.unit) - inj_b(self.b.unit)

    @cached_property
    def unital_quotient(self):
        """(q, proj_q, lift): K0 of the unital free product as the
        quotient of K0A + K0B by the unit relation, its projection, and
        a lift of each generator of q back to K0A + K0B."""
        return _quotient_full(self.k0_sum[0], self.unit_relation)

    @cached_property
    def extra_z(self) -> bool:
        """Both unit classes have finite order."""
        return self.a.unit.order() != inf and self.b.unit.order() != inf

    @cached_property
    def unital_free_product(self) -> KPair:
        a, b = self.a, self.b
        _, (inj_a, _), _ = self.k0_sum
        q, proj_q, _ = self.unital_quotient
        unit = proj_q(inj_a(a.unit))
        parts = {K1A: a.k1, K1B: b.k1}
        if self.extra_z:
            parts[EXTRA_Z] = FgAbGroup(1)
        k1, injs1, _ = direct_sum_many(parts.values())
        summands = dict(zip(parts, injs1))
        return KPair(k0=q, k1=k1, summands=summands, unit=unit, extra_z=self.extra_z)

    def _unit_map(self, ga, gb, left, right) -> GroupHom:
        """The hom (x, y) |-> left(x (x) [1_B]) + right([1_A] (x) y) on
        the canonical sum ga + gb: the images of the generators of ga,
        then of gb, times the stacked projections of the sum."""
        s, _, (proj_a, proj_b) = direct_sum_many((ga, gb))
        cols = [left(tensor_elem(g, self.b.unit)).coords for g in ga.generators()]
        cols += [right(tensor_elem(self.a.unit, g)).coords for g in gb.generators()]
        images = IntMatrix.from_columns(cols, left.target.ngens)
        stacked = IntMatrix._trusted(proj_a.matrix.data + proj_b.matrix.data, s.ngens)
        return GroupHom(s, left.target, images @ stacked)

    @cached_property
    def lifted_pi0(self) -> GroupHom:
        """The degree-0 induced map before the quotient: on K0A + K0B it
        is (x, y) |-> x (x) [1_B] + [1_A] (x) y, landing in the
        K0A (x) K0B summand of the tensor K0."""
        inj00 = self.tensor.summands[K0A_K0B]
        return self._unit_map(self.a.k0, self.b.k0, inj00, inj00)

    @cached_property
    def pi0(self) -> GroupHom:
        """The degree-0 induced map on the unital quotient: lifted_pi0
        after the lift of each quotient generator."""
        lifted = self.lifted_pi0
        if not lifted(self.unit_relation).is_zero:
            raise AssertionError("induced map does not kill the unit relation")
        q, _, lift = self.unital_quotient
        return GroupHom(q, lifted.target, lifted.matrix @ lift)

    @cached_property
    def pi1(self) -> GroupHom:
        """Degree-1 induced map on the well-defined part K1A + K1B:
        (x, y) |-> (x (x) [1_B]) + ([1_A] (x) y), landing in the
        K1A (x) K0B and K0A (x) K1B summands of the tensor K1."""
        kun = self.tensor
        return self._unit_map(
            self.a.k1, self.b.k1, kun.summands[K1A_K0B], kun.summands[K0A_K1B]
        )

    @cached_property
    def section0(self):
        """A section (right inverse) of pi0, or None if it has none."""
        return right_inverse_exists(self.pi0)

    @cached_property
    def section1(self):
        """A section of pi1, or None if it has none."""
        return right_inverse_exists(self.pi1)

    @cached_property
    def lifted_section0(self):
        """A section of lifted_pi0, or None if it has none."""
        return right_inverse_exists(self.lifted_pi0)

    @cached_property
    def tor00(self) -> FgAbGroup:
        """Tor(K0A, K0B), the receiving group of the extra Z summand."""
        return tor(self.a.k0, self.b.k0)
