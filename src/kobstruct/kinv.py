"""K-theory invariant triples and the K-groups of composite algebras.

A unital algebra enters as the triple L(A) = (K0, K1, [1_A]).  From two
triples this module computes the K-theory of the tensor product (the
Kunneth formula), of the free product (plain direct sums), and of the
unital free product (a quotient in degree 0 and, when both unit classes
are torsion, an extra indeterminate Z summand in degree 1).  It also
constructs the maps induced on K-theory by the quotient onto the tensor
product.

The Kunneth formula is one table, ``KUNNETH``, and
``PairAnalysis.kunneth_parts`` builds each of its summands of a pair
once; everything else that needs a summand or its size reads them.

In both degrees an induced map is (x, y) |-> x (x) [1_B] + [1_A] (x) y,
built by one rule, ``PairAnalysis._images``, straight from Kronecker
coordinates.  The image of generator e_i of the A side is
e_i (x) [1_B], block i of the Kronecker presentation filled with the
coordinates of [1_B]; so only the canonical rows of that presentation
are read, then only the columns of the canonical sum of the Kunneth
parts that fall in that tensor pairing, and likewise for
[1_A] (x) e_j.  The rows that result are dict rows (dicts from column
to nonzero entry, the one sparse format of ``fgab``); they are
multiplied once by the lifts of the source sum, K0A + K0B or K1A + K1B
as ``_cyclic_canonical`` gives it, and checked once as a ``GroupHom``
(the map on the unital quotient is that of K0A + K0B times the lift of
each quotient generator): no Kunneth K-pair, ``tensor_elem`` element,
injection or projection is built, so a map costs about the size of its
matrix; the same rows give the unit [1_A] (x) [1_B] of the tensor
product (``tensor_unit``).  Zero is read off generator counts: a map
whose source has no generators (pi1 whenever K1A + K1B = 0, as for
every pair of algebras with K1 = 0; pi0 and lifted_pi0 when their
source is 0, as for O_2 against O_2) is the matrix with no columns
onto the tensor K-group, and no row is built for it.

The cokernels of the induced maps need no map.  With
Q_A = K0A/<[1_A]> and Q_B = K0B/<[1_B]> (``unit_quotients``, read off
gcds by ``_quotient_group``):

    coker pi0 = Q_A (x) Q_B + K1A (x) K1B + Tor(K0A, K1B) + Tor(K1A, K0B)
    coker pi1 = K1A (x) Q_B + Q_A (x) K1B + Tor(K0A, K0B) + Tor(K1A, K1B)

The maps reach only the tensor pairings a unit class enters, through
x (x) [1_B] and [1_A] (x) y; by right exactness of the tensor product,
(M/M') (x) (N/N') = M (x) N / (M' (x) N + M (x) N'), so such a pairing
leaves the tensor of the quotients, and every other summand is left
whole.  A section onto a tensor K-group with no generators is the hom
from it, with no columns, and no map is built for it.  Any other
section is settled by the cokernel first: only a map that is onto is
built and has its section solved, so one that is not never builds the
unital quotient for it.  No state is kept from one call to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from .fgab import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    GroupMismatchError,
    direct_sum_many,
    right_inverse_exists,
    tensor,
    tor,
    _cyclic_canonical,
    _dense,
    _injections,
    _json_field,
    _json_ints,
    _json_known,
    _orders,
    _quotient_full,
    _quotient_group,
    _tensor_structure,
    _transpose,
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
    "KUNNETH",
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
    """The triple (K0, K1, unit class) of a unital algebra."""

    k0: FgAbGroup
    k1: FgAbGroup
    unit: GroupElement

    def __post_init__(self):
        if self.unit.group != self.k0:
            raise GroupMismatchError("unit class must lie in k0")

    def is_torsion_invariant(self):
        """True when both K-groups are finite."""
        return self.k0.is_finite and self.k1.is_finite

    def __str__(self):
        return f"({self.k0}, {self.k1}, {list(self.unit.coords)})"

    def to_json(self):
        return {
            "k0": self.k0.to_json(),
            "k1": self.k1.to_json(),
            "unit": list(self.unit.coords),
        }

    @classmethod
    def from_json(cls, obj):
        """The triple of a JSON literal.  The unit's coordinates are read
        against K0's torsion as written, so that list must already be
        the invariant factors (each at least 2 and dividing the next);
        K1 carries no coordinates and is normalized as ``FgAbGroup`` does."""
        k0 = FgAbGroup.from_json(_json_field(obj, "k0", "literal"), "k0")
        k1 = FgAbGroup.from_json(_json_field(obj, "k1", "literal"), "k1")
        _json_known(obj, ("k0", "k1", "unit"))
        torsion = list(obj["k0"].get("torsion", ()))
        if torsion != list(k0.torsion):
            raise ValueError(
                f"k0 torsion {torsion} is not in invariant-factor form (each factor at least 2 "
                f"and dividing the next): its invariant factors are {list(k0.torsion)}"
            )
        unit = _json_ints(_json_field(obj, "unit", "literal"), "unit")
        return cls(k0, k1, k0.element(unit))


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


# The Kunneth formula, one row per summand: its label, the degrees of
# the K-groups of A and of B it pairs, and whether it is their Tor
# rather than their tensor product.  Row k of ``KUNNETH[d]`` is summand
# k of the degree-d K-group of the tensor product.
KUNNETH = (
    ((K0A_K0B, 0, 0, False), (K1A_K1B, 1, 1, False), (TOR_K0A_K1B, 0, 1, True), (TOR_K1A_K0B, 1, 0, True)),
    ((K0A_K1B, 0, 1, False), (K1A_K0B, 1, 0, False), (TOR_K0A_K0B, 0, 0, True), (TOR_K1A_K1B, 1, 1, True)),
)


def _group(inv: KInvariant, degree: int) -> FgAbGroup:
    return inv.k1 if degree else inv.k0


def _sum_group(parts) -> FgAbGroup:
    """The direct sum of the groups ``parts``, as a group only."""
    return FgAbGroup(sum(p.rank for p in parts), [d for p in parts for d in p.torsion])


def _kronecker_gens(a: KInvariant, b: KInvariant):
    """The generators of the Kronecker presentations of the tensor
    pairings of each degree of a (x) b: the sizes ``kunneth_invariant``
    and the induced maps build, counted before anything is built."""
    return tuple(
        sum(_group(a, i).ngens * _group(b, j).ngens for _, i, j, is_tor in rows if not is_tor)
        for rows in KUNNETH
    )


def kunneth(a: KInvariant, b: KInvariant) -> KPair:
    """K-theory of the (maximal) tensor product, with unit class.

    Degree 0 is (K0A (x) K0B) + (K1A (x) K1B) + Tor(K0A, K1B)
    + Tor(K1A, K0B); degree 1 swaps the tensor pairings and collects
    Tor(K0A, K0B) + Tor(K1A, K1B) (the table ``KUNNETH``).  The unit is
    [1_A] (x) [1_B] inside the first summand.

    >>> from .fgab import FgAbGroup
    >>> z2 = FgAbGroup(0, (2,))
    >>> o3 = KInvariant(z2, FgAbGroup(), z2.element((1,)))
    >>> kp = kunneth(o3, o3)
    >>> (kp.k0, kp.k1)
    (FgAbGroup(0, (2,)), FgAbGroup(0, (2,)))
    """
    an = PairAnalysis(a, b)
    groups, summands = [], {}
    for degree, rows in enumerate(KUNNETH):
        k, to_canon, _ = an._tensor_sum(degree)
        groups.append(k)
        summands.update(zip([row[0] for row in rows], _injections(an._parts(degree), k, to_canon)))
    return KPair(k0=groups[0], k1=groups[1], summands=summands, unit=an.tensor_unit, extra_z=False)


def kunneth_invariant(a: KInvariant, b: KInvariant) -> KInvariant:
    """The tensor product as a plain invariant triple (for nesting): the
    groups and unit of :func:`kunneth`, without its summand injections."""
    an = PairAnalysis(a, b)
    return KInvariant(*an.tensor_groups, an.tensor_unit)


def free_product_k(a: KInvariant, b: KInvariant) -> KPair:
    """K-theory of the full free product: plain direct sums, no unit.

    >>> from .fgab import FgAbGroup
    >>> z2g = FgAbGroup(2)
    >>> c2 = KInvariant(z2g, FgAbGroup(), z2g.element((1, 1)))
    >>> free_product_k(c2, c2).k0
    FgAbGroup(4, ())
    """
    k0, injs0 = direct_sum_many((a.k0, b.k0))
    k1, injs1 = direct_sum_many((a.k1, b.k1))
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
    return an.pi0, an.pi1, an.kunneth_parts[TOR_K0A_K0B]


def pi_star_full(a: KInvariant, b: KInvariant):
    """Maps induced by the quotient of the full free product onto the
    tensor product: same formulas, but degree 0 acts on the un-quotiented
    sum K0A + K0B."""
    an = PairAnalysis(a, b)
    return an.lifted_pi0, an.pi1


def _from_zero(source: FgAbGroup, target: FgAbGroup) -> GroupHom:
    """The one hom from ``source``, a group with no generators, to
    ``target``: the matrix with ``target.ngens`` rows and no columns."""
    return GroupHom(source, target, _dense([{}] * target.ngens, 0))


def _sparse_sum(g: FgAbGroup, h: FgAbGroup):
    """(g + h, to_canon, lifts) in dict rows: to_canon as
    ``_cyclic_canonical`` gives it, and row k of lifts coordinate k of
    each generator's lift (``_transpose`` of the lift columns)."""
    s, to_canon, lift = _cyclic_canonical(_orders(g) + _orders(h))
    return s, to_canon, _transpose(lift, g.ngens + h.ngens)


def _times(rows, other):
    """The product of the dict rows ``rows`` with the matrix of the dict
    rows ``other``, as dict rows again: one step per pair of nonzero
    entries that meet."""
    out = []
    for row in rows:
        acc = {}
        for k, c in row.items():
            for j, y in other[k].items():
                acc[j] = acc.get(j, 0) + c * y
        out.append(acc)
    return out


def _apply(rows, v):
    """The product of the dict rows ``rows`` with the vector ``v``."""
    return [sum([e * v[p] for p, e in row.items()]) for row in rows]


class _once:
    """A property computed on its first read and stored in the
    instance ``__dict__``, where every later read finds it first: what
    ``functools.cached_property`` does from Python 3.12, without the
    lock it takes on each first read before that.  The values are
    deterministic, so two threads that race on one instance store
    equal values."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class PairAnalysis:
    """The K-theory of one pair (A, B), each piece computed on first use.

    Callers that need more than one answer about a pair (groups, maps,
    cokernels, verdict, sections) build one analysis and read them all
    from it; each piece is computed once per analysis, when first read,
    and kept in the analysis with no lock (``_once``).  Nothing is kept
    from one analysis to the next, so no state outlives a call.
    ``kunneth_parts`` builds all eight Kunneth summands even for a
    caller that reads one: building them on demand measured no gain
    once groups were built in one pass.  The classifier and the sections
    read the same cokernels, so a pair pays for each degree's cokernel
    once; each is a sum of Kunneth parts and tensor products of
    ``unit_quotients``, with no map or Smith normal form.

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
        self._sums = [None, None]

    @_once
    def kunneth_parts(self) -> dict[str, FgAbGroup]:
        """Each summand of the Kunneth formula by its label, as a group,
        in the order of ``KUNNETH``."""
        a, b = self.a, self.b
        return {
            label: (tor if is_tor else tensor)(_group(a, i), _group(b, j))
            for rows in KUNNETH
            for label, i, j, is_tor in rows
        }

    def _parts(self, degree):
        """The Kunneth parts of ``degree``, in summand order."""
        return [self.kunneth_parts[row[0]] for row in KUNNETH[degree]]

    def _tensor_sum(self, degree):
        """The tensor K-group of ``degree`` as the canonical sum of its
        Kunneth parts, (group, to_canon, lift) as ``_cyclic_canonical``
        gives them, built once: the induced maps, the tensor unit and
        the summand injections of ``kunneth`` read it."""
        if self._sums[degree] is None:
            self._sums[degree] = _cyclic_canonical([c for p in self._parts(degree) for c in _orders(p)])
        return self._sums[degree]

    @_once
    def tensor_groups(self):
        """(K0, K1) of the tensor product, by the Kunneth formula: every
        tensor and Tor factor of a degree in one group."""
        return tuple(_sum_group(self._parts(degree)) for degree in (0, 1))

    @_once
    def unit_quotients(self):
        """(Q_A, Q_B) = (K0A/<[1_A]>, K0B/<[1_B]>), from gcds
        (``_quotient_group``), without a Smith normal form."""
        return tuple(_quotient_group(x.k0, x.unit) for x in (self.a, self.b))

    @_once
    def tensor_unit(self) -> GroupElement:
        """[1_A] (x) [1_B] in the tensor K0: the image of [1_A] under
        x |-> x (x) [1_B], read off the dict rows of the induced maps."""
        target, rows = self._images(0)
        ua = self.a.unit.coords
        return target.element([sum([c * ua[i] for i, c in row.items() if i < len(ua)]) for row in rows])

    @_once
    def _k0_sum(self):
        """K0A + K0B as ``_sparse_sum`` gives it."""
        return _sparse_sum(self.a.k0, self.b.k0)

    def _in_k0_sum(self, v):
        """The element of K0A + K0B with coordinates ``v`` on the summands."""
        s, to_canon, _ = self._k0_sum
        return s.element(_apply(to_canon, v))

    @_once
    def unit_relation(self) -> GroupElement:
        """([1_A], -[1_B]) in K0A + K0B."""
        return self._in_k0_sum(self.a.unit.coords + tuple(-c for c in self.b.unit.coords))

    @_once
    def unital_quotient(self):
        """(q, to_canon, lift): K0 of the unital free product as the
        quotient of K0A + K0B by the unit relation, the rows of its
        projection and a lift of each generator of q back to K0A + K0B,
        both dict rows (``_quotient_full``): no projection hom is built."""
        return _quotient_full(self._k0_sum[0], self.unit_relation)

    @_once
    def extra_z(self) -> bool:
        """Both unit classes have finite order."""
        return self.a.unit.order() != inf and self.b.unit.order() != inf

    @_once
    def unital_free_product(self) -> KPair:
        a, b = self.a, self.b
        q, to_canon, _ = self.unital_quotient
        unit = q.element(_apply(to_canon, self._in_k0_sum(a.unit.coords + (0,) * b.k0.ngens).coords))
        parts = {K1A: a.k1, K1B: b.k1}
        if self.extra_z:
            parts[EXTRA_Z] = FgAbGroup(1)
        k1, injs1 = direct_sum_many(parts.values())
        summands = dict(zip(parts, injs1))
        return KPair(k0=q, k1=k1, summands=summands, unit=unit, extra_z=self.extra_z)

    def _images(self, degree):
        """(target, rows): the tensor K-group of ``degree`` and, per
        canonical generator of it, a dict row from each generator of
        the source (those of the A side, then those of the B side) to
        that coordinate of its image under x |-> x (x) [1_B] on the A
        side and y |-> [1_A] (x) y on the B side.

        x (x) [1_B] lies in the tensor pairing (A side, K0B) and
        [1_A] (x) y in (K0A, B side); in degree 0 both are K0A (x) K0B.
        A Kronecker coordinate (i, j) of a pairing is a product of
        coordinates i and j, so its canonical row
        (``_tensor_structure``) gives generator i of the A side the
        weight of [1_B]_j and generator j of the B side the weight of
        [1_A]_i.  The sum of the Kunneth parts then maps those
        coordinates onto the tensor K-group: only the columns of its
        canonical rows that fall in these pairings are read.
        """
        a, b = self.a, self.b
        parts = self._parts(degree)
        target, to_canon, _ = self._tensor_sum(degree)
        na = _group(a, degree).ngens
        ua, ub = a.unit.coords, b.unit.coords
        coords = {}  # sum position -> its dict row over the source
        offset = 0
        for (_, da, db, is_tor), part in zip(KUNNETH[degree], parts):
            if not is_tor and 0 in (da, db):  # a pairing a unit class enters
                g, h = _group(a, da), _group(b, db)
                n = h.ngens
                for k, row in enumerate(_tensor_structure(g, h)[1]):
                    acc = coords[offset + k] = {}
                    for q, c in row.items():
                        i, j = divmod(q, n)
                        if db == 0 and ub[j]:
                            acc[i] = acc.get(i, 0) + c * ub[j]
                        if da == 0 and ua[i]:
                            acc[na + j] = acc.get(na + j, 0) + c * ua[i]
            offset += part.ngens
        rows = []
        for row in to_canon:
            acc = {}
            for p, c in row.items():
                for k, e in coords.get(p, {}).items():
                    acc[k] = acc.get(k, 0) + c * e
            rows.append(acc)
        return target, rows

    @_once
    def _lifted_rows0(self):
        """(target, rows): the images of the generators of K0A + K0B as
        dict rows, one per generator of the tensor K0, before
        reduction; lifted_pi0 and pi0 both read them."""
        target, rows = self._images(0)
        return target, _times(rows, self._k0_sum[2])

    @_once
    def lifted_pi0(self) -> GroupHom:
        """The degree-0 induced map before the quotient: on K0A + K0B it
        is (x, y) |-> x (x) [1_B] + [1_A] (x) y, landing in the
        K0A (x) K0B summand of the tensor K0.  From a K0A + K0B with no
        generators it is the matrix with no columns, built from no rows."""
        s = _sum_group((self.a.k0, self.b.k0))
        if not s.ngens:
            return _from_zero(s, self.tensor_groups[0])
        target, rows = self._lifted_rows0
        return GroupHom(s, target, _dense(rows, s.ngens))

    @_once
    def pi0(self) -> GroupHom:
        """The degree-0 induced map on the unital quotient: the rows of
        lifted_pi0 times the lift of each quotient generator to
        K0A + K0B, one sparse product.  From a quotient with no
        generators it is the matrix with no columns, built from no rows."""
        q, _, lift = self.unital_quotient
        if not q.ngens:
            return _from_zero(q, self.tensor_groups[0])
        target, rows = self._lifted_rows0
        u = self.unit_relation.coords
        if any(target.reduce([sum([c * u[k] for k, c in row.items()]) for row in rows])):
            raise AssertionError("induced map does not kill the unit relation")
        return GroupHom(q, target, _dense(_times(rows, _transpose(lift, len(u))), q.ngens))

    @_once
    def pi1(self) -> GroupHom:
        """Degree-1 induced map on the well-defined part K1A + K1B:
        (x, y) |-> (x (x) [1_B]) + ([1_A] (x) y), landing in the
        K1A (x) K0B and K0A (x) K1B summands of the tensor K1.  When
        K1A + K1B has no generators, as for every pair of algebras with
        K1 = 0, it is the matrix with no columns, built from no rows."""
        s = _sum_group((self.a.k1, self.b.k1))
        if not s.ngens:
            return _from_zero(s, self.tensor_groups[1])
        target, rows = self._images(1)
        lifts = _sparse_sum(self.a.k1, self.b.k1)[2]
        return GroupHom(s, target, _dense(_times(rows, lifts), s.ngens))

    def _cokernel(self, degree):
        """The cokernel of the induced map of ``degree``, summand by
        summand of ``KUNNETH``: a pairing a unit class enters leaves
        Q_A in place of K0A and Q_B in place of K0B, and every other
        summand is left whole."""
        (qa, qb), k1a, k1b = self.unit_quotients, self.a.k1, self.b.k1
        return _sum_group([
            tensor((qa, k1a)[i], (qb, k1b)[j]) if not is_tor and 0 in (i, j) else self.kunneth_parts[label]
            for label, i, j, is_tor in KUNNETH[degree]
        ])

    @_once
    def cokernel0(self) -> FgAbGroup:
        """The cokernel of pi0 (and of lifted_pi0, which has the same
        image): Q_A (x) Q_B + K1A (x) K1B + Tor(K0A, K1B) + Tor(K1A, K0B)."""
        return self._cokernel(0)

    @_once
    def cokernel1(self) -> FgAbGroup:
        """The cokernel of pi1:
        K1A (x) Q_B + Q_A (x) K1B + Tor(K0A, K0B) + Tor(K1A, K1B)."""
        return self._cokernel(1)

    def _section(self, degree, name, source):
        """A section of the induced map ``name`` of ``degree``, whose
        source is the group ``source()``, or None.  Onto a tensor
        K-group with no generators the one section is the hom from it
        to ``source()``, with no columns: no map is built or solved.
        Otherwise a nontrivial cokernel, read off the groups
        (``_cokernel``), leaves none; only a map that is onto is built
        and has its section solved."""
        target = self.tensor_groups[degree]
        if not target.ngens:
            return _from_zero(target, source())
        if not getattr(self, f"cokernel{degree}").is_trivial:
            return None
        return right_inverse_exists(getattr(self, name))

    @_once
    def section0(self):
        """A section (right inverse) of pi0, or None if it has none.  The
        unital quotient is built only for an onto pi0, or as the source
        of the section onto a tensor K0 of 0."""
        return self._section(0, "pi0", lambda: self.unital_quotient[0])

    @_once
    def section1(self):
        """A section of pi1, or None if it has none."""
        return self._section(1, "pi1", lambda: _sum_group((self.a.k1, self.b.k1)))

    @_once
    def lifted_section0(self):
        """A section of lifted_pi0, or None if it has none."""
        return self._section(0, "lifted_pi0", lambda: _sum_group((self.a.k0, self.b.k0)))
