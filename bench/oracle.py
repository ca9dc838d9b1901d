"""Reference computations that share no code with kobstruct.

Groups are handled here as a rank plus a sorted tuple of prime powers
(p, e), which makes the Kunneth formula a matter of matching primes.
Canonical invariant factors are rebuilt from the prime powers, so a
group computed here compares directly with kobstruct's JSON
``{"rank": r, "torsion": [d1, ...]}``.

Every ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Groups from prime powers


def prime_powers(n):
    """Factor n > 1 by trial division into a list of (p, e)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


class Group:
    """Z^rank plus the cyclic groups Z/p^e of a multiset of prime powers."""

    __slots__ = ("rank", "pp")

    def __init__(self, rank, pp=()):
        self.rank = rank
        self.pp = tuple(sorted(pp))

    @classmethod
    def from_factors(cls, rank, factors):
        pp = []
        for d in factors:
            d = abs(d)
            if d == 0:
                rank += 1
            elif d > 1:
                pp.extend(prime_powers(d))
        return cls(rank, pp)

    @classmethod
    def from_json(cls, obj):
        return cls.from_factors(obj["rank"], obj["torsion"])

    def __add__(self, other):
        return Group(self.rank + other.rank, self.pp + other.pp)

    def __eq__(self, other):
        return self.rank == other.rank and self.pp == other.pp

    def __repr__(self):
        return f"Group({self.rank}, {self.invariant_factors()})"

    def invariant_factors(self):
        """The divisibility chain d1 | d2 | ...: the largest power of each
        prime goes into the last factor, the next largest into the one
        before it, and so on."""
        by_prime = {}
        for p, e in self.pp:
            by_prime.setdefault(p, []).append(e)
        length = max((len(es) for es in by_prime.values()), default=0)
        chain = [1] * length
        for p, es in by_prime.items():
            for i, e in enumerate(sorted(es, reverse=True)):
                chain[length - 1 - i] *= p**e
        return chain

    def to_json(self):
        return {"rank": self.rank, "torsion": self.invariant_factors()}

    @property
    def ngens(self):
        return self.rank + len(self.invariant_factors())

    @property
    def is_trivial(self):
        return self.rank == 0 and not self.pp


def tensor(g, h):
    """Z (x) X = X and Z/p^a (x) Z/p^b = Z/p^min(a, b); distinct primes
    give nothing."""
    pp = [x for x in g.pp for _ in range(h.rank)]
    pp += [y for y in h.pp for _ in range(g.rank)]
    pp += [(p, min(a, b)) for p, a in g.pp for q, b in h.pp if p == q]
    return Group(g.rank * h.rank, pp)


def tor(g, h):
    return Group(0, [(p, min(a, b)) for p, a in g.pp for q, b in h.pp if p == q])


class Triple:
    """An invariant (K0, K1, unit class), unit in canonical coordinates."""

    __slots__ = ("k0", "k1", "unit")

    def __init__(self, k0, k1, unit):
        self.k0, self.k1, self.unit = k0, k1, tuple(unit)

    @property
    def unit_infinite(self):
        return any(self.unit[: self.k0.rank])

    def to_json(self):
        return {"k0": self.k0.to_json(), "k1": self.k1.to_json(), "unit": list(self.unit)}


def kunneth(a, b):
    """(K0, K1) of the tensor product."""
    k0 = tensor(a.k0, b.k0) + tensor(a.k1, b.k1) + tor(a.k0, b.k1) + tor(a.k1, b.k0)
    k1 = tensor(a.k0, b.k1) + tensor(a.k1, b.k0) + tor(a.k0, b.k0) + tor(a.k1, b.k1)
    return k0, k1


def unital_free_product(a, b):
    """(rank of K0, K1, extra_z) of the unital free product: K0 is
    (K0A + K0B) / <([1_A], -[1_B])>, which loses one rank exactly when
    a unit class has infinite order; K1 is K1A + K1B, plus Z when both
    unit classes have finite order."""
    extra = not (a.unit_infinite or b.unit_infinite)
    rank0 = a.k0.rank + b.k0.rank - (0 if extra else 1)
    return rank0, a.k1 + b.k1 + Group(int(extra)), extra


def _catalog():
    """The 20 named algebras, from their K-theory as the paper gives it:
    O_n is (Z/(n-1), 0, 1); Oinf, C and C([0,1]) are (Z, 0, 1); M_n and
    M_n(Oinf) are (Z, 0, n); C^k is (Z^k, 0, (1, ..., 1)); C(T) is
    (Z, Z, 1)."""
    zero, z = Group(0), Group(1)
    out = {}
    for n in (2, 3, 4, 5, 6, 7, 12):
        g = Group.from_factors(0, [n - 1])
        out[f"O_{n}"] = Triple(g, zero, [1] * g.ngens)
    for name in ("Oinf", "C", "C01"):
        out[name] = Triple(z, zero, [1])
    for n in (2, 3, 4, 6):
        out[f"M_{n}"] = Triple(z, zero, [n])
    for n in (2, 3, 6):
        out[f"M_{n}(Oinf)"] = Triple(z, zero, [n])
    for k in (2, 3):
        out[f"C^{k}"] = Triple(Group(k), zero, [1] * k)
    out["CT"] = Triple(z, z, [1])
    return out


CATALOG = _catalog()


def cuntz_index(name):
    return int(name[2:]) if name.startswith("O_") else None


# ---------------------------------------------------------------------------
# Integer matrices


def matmul(x, y, inner):
    """x (r x inner) times y (inner x c); ``inner`` is explicit so that
    empty matrices keep their shape."""
    cols = len(y[0]) if y else 0
    yt = list(zip(*y)) if inner else [()] * cols
    return [[sum(p * q for p, q in zip(row, col)) for col in yt] for row in x]


def determinant(m):
    """Fraction-free (Bareiss) elimination; exact over the integers."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def max_bits(*matrices):
    return max(
        (abs(e).bit_length() for m in matrices for row in m for e in row), default=0
    )


# ---------------------------------------------------------------------------
# Checks


def check_group(label, got_json, want):
    if Group.from_json(got_json) != want or got_json["torsion"] != want.invariant_factors():
        return [f"{label}: got {got_json}, expected {want.to_json()}"]
    return []


def check_section(label, pi, s, source, target):
    """pi: source -> target and s: target -> source, as row lists.

    pi . s must be the identity on target (torsion rows modulo their
    invariant factors), and d_j * s(e_j) must vanish in source for each
    torsion generator e_j of order d_j.
    """
    gs, gt = source.invariant_factors(), target.invariant_factors()
    ns, nt = source.rank + len(gs), target.rank + len(gt)
    if len(pi) != nt or any(len(r) != ns for r in pi):
        return [f"{label}: map is not {nt} x {ns}"]
    if len(s) != ns or any(len(r) != nt for r in s):
        return [f"{label}: section is not {ns} x {nt}"]
    mods_t = [0] * target.rank + gt
    mods_s = [0] * source.rank + gs
    prod = matmul(pi, s, ns)
    for i in range(nt):
        for j in range(nt):
            diff = prod[i][j] - (i == j)
            if (diff % mods_t[i]) if mods_t[i] else diff:
                return [f"{label}: (pi s)[{i}][{j}] = {prod[i][j]} is not the identity"]
    for j in range(target.rank, nt):
        dj = mods_t[j]
        for i in range(ns):
            x = dj * s[i][j]
            if (x % mods_s[i]) if mods_s[i] else x:
                return [f"{label}: {dj} * s(e_{j}) is nonzero in the source"]
    return []


def check_snf(m, u, d, v, cokernel_json):
    """u m v = d, d a nonnegative divisibility chain on its diagonal,
    u and v unimodular, det m recovered from d, and the cokernel read
    off d."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    problems = []
    if matmul(matmul(u, m, rows), v, cols) != d:
        problems.append("u m v != d")
    diag = []
    for i in range(rows):
        for j in range(cols):
            if i != j and d[i][j]:
                problems.append(f"d[{i}][{j}] = {d[i][j]} off the diagonal")
                return problems
            if i == j:
                diag.append(d[i][i])
    if any(x < 0 for x in diag) or any((y % x) if x else y for x, y in zip(diag, diag[1:])):
        problems.append(f"diagonal {diag} is not a nonnegative divisibility chain")
    for name, t in (("u", u), ("v", v)):
        if abs(determinant(t)) != 1:
            problems.append(f"{name} is not unimodular")
    if rows == cols:
        prod = 1
        for x in diag:
            prod *= x
        if prod != abs(determinant(m)):
            problems.append(f"product of the diagonal {prod} != |det m|")
    want = {"rank": rows - sum(1 for x in diag if x), "torsion": [x for x in diag if x > 1]}
    if cokernel_json != want:
        problems.append(f"cokernel {cokernel_json} != {want} read off d")
    return problems
