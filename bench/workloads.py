"""The three workloads: seeded inputs, one operation, and its checks.

A workload builds its whole operation list up front from the seed, as
a number of rounds; every round holds the same kinds of operations, so
counts repeat exactly for a given length.  ``run`` performs one
operation through the module attributes a user would call, and
``check`` verifies its output against ``oracle`` and returns the
problems found plus the largest bit length of the matrices it returned.
"""

from __future__ import annotations

import io
import json
import random
from math import gcd

import oracle
from oracle import Group, Triple


class CatalogCli:
    """Every ordered pair of the 20 catalog names through the CLI, plus
    ``paper-examples`` once per round, shuffled by the seed."""

    round_seconds = 2.4
    min_rounds = 1

    def __init__(self, kob, seed, rounds):
        self.kob = kob
        rng = random.Random(seed)
        names = list(oracle.CATALOG)
        base = [(cmd, a, b) for a in names for b in names for cmd in ("classify", "section", "kgroups")]
        base.append(("paper-examples", None, None))
        self.rounds = []
        for _ in range(rounds):
            ops = list(base)
            rng.shuffle(ops)
            self.rounds.append(ops)
        self._pi_full = {}

    @staticmethod
    def argv(op):
        cmd, a, b = op
        if cmd == "classify":
            return ["classify", a, b, "--mode", "unital", "--format", "json"]
        if cmd == "section":
            return ["section", a, b, "--mode", "full", "--format", "json"]
        if cmd == "kgroups":
            return ["kgroups", f"{a} (*C) {b}", "--format", "json"]
        return ["paper-examples", "--format", "json"]

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        code = self.kob.cli.main(self.argv(op), out=out, err=err)
        return code, out.getvalue()

    def check(self, op, result):
        cmd, a, b = op
        code, text = result
        payload = json.loads(text)
        if cmd == "paper-examples":
            ok = payload["passed"] and all(r["passed"] for r in payload["results"])
            problems = [] if ok and code == 0 else [f"paper-examples failed (exit {code})"]
            return problems, 0
        ta, tb = oracle.CATALOG[a], oracle.CATALOG[b]
        if cmd == "kgroups":
            return check_unital_free_product(payload["result"], ta, tb) + (
                [] if code == 0 else [f"exit {code}"]
            ), 0
        if cmd == "classify":
            return self._check_classify(payload, code, a, b, ta, tb)
        return self._check_section_full(payload, code, a, b, ta, tb)

    def _check_classify(self, payload, code, a, b, ta, tb):
        problems = []
        for key, t in (("invariant_a", ta), ("invariant_b", tb)):
            if payload[key] != t.to_json():
                problems.append(f"{key} {payload[key]} != {t.to_json()}")
        k0, k1 = oracle.kunneth(ta, tb)
        tensor = payload["groups"]["tensor"]
        problems += oracle.check_group("tensor K0", tensor["k0"], k0)
        problems += oracle.check_group("tensor K1", tensor["k1"], k1)
        ufp = payload["groups"]["unital_free_product"]
        problems += check_unital_free_product(ufp, ta, tb)
        verdict = payload["verdict"]
        sections = payload["sections"]
        maps = payload["maps"]
        pi0, pi1 = maps["pi0"]["matrix"], maps["pi1"]["matrix"]
        problems += check_sections(
            sections,
            (pi0, Group.from_json(ufp["k0"]), k0),
            (pi1, ta.k1 + tb.k1, k1),
        )
        problems += check_verdict(verdict, sections)
        possible = verdict["outcome"].startswith("Possible")
        if code != (0 if possible else 1):
            problems.append(f"exit {code} for verdict {verdict['outcome']}")
        m, n = oracle.cuntz_index(a), oracle.cuntz_index(b)
        if m and n and possible != (gcd(m - 1, n - 1) == 1):
            problems.append(f"O_{m}/O_{n}: {verdict['outcome']} contradicts gcd(m-1, n-1)")
        if a == b in ("O_2", "Oinf") and not possible:
            problems.append(f"{a}/{b} must be Possible, got {verdict['outcome']}")
        bits = oracle.max_bits(pi0, pi1, *section_matrices(sections))
        return problems, bits

    def _check_section_full(self, payload, code, a, b, ta, tb):
        sections = payload["sections"]
        if (a, b) not in self._pi_full:
            pi0, pi1 = self.kob.pi_star_full(self.kob.evaluate(a), self.kob.evaluate(b))
            self._pi_full[a, b] = (pi0.matrix.to_json(), pi1.matrix.to_json())
        pi0, pi1 = self._pi_full[a, b]
        k0, k1 = oracle.kunneth(ta, tb)
        problems = check_sections(sections, (pi0, ta.k0 + tb.k0, k0), (pi1, ta.k1 + tb.k1, k1))
        clear = sections["deg0"] is not None and sections["deg1"] is not None and sections["extra_z_ok"]
        if code != (0 if clear else 1):
            problems.append(f"exit {code} with sections all clear = {clear}")
        return problems, oracle.max_bits(*section_matrices(sections))


def check_unital_free_product(kp, ta, tb):
    rank0, k1, extra = oracle.unital_free_product(ta, tb)
    problems = oracle.check_group("unital free product K1", kp["k1"], k1)
    if kp["k0"]["rank"] != rank0:
        problems.append(f"unital free product K0 rank {kp['k0']['rank']} != {rank0}")
    if kp["extra_z"] != extra:
        problems.append(f"extra_z {kp['extra_z']} != {extra}")
    return problems


def section_matrices(sections):
    return [sections[d]["matrix"] for d in ("deg0", "deg1") if sections[d] is not None]


def _rows(matrix, nrows):
    """JSON matrices with no rows lose their width; restore the rows."""
    return matrix if matrix else [[] for _ in range(nrows)]


def check_sections(sections, deg0, deg1):
    """deg0 and deg1 are (pi matrix, source group, target group)."""
    problems = []
    for key, (pi, source, target) in (("deg0", deg0), ("deg1", deg1)):
        s = sections[key]
        if s is not None:
            problems += oracle.check_section(
                f"section {key}",
                _rows(pi, target.ngens),
                _rows(s["matrix"], source.ngens),
                source,
                target,
            )
    return problems


_MAP_CLAUSES = {
    "Pi0NotSurjective": "deg0",
    "NoSection0": "deg0",
    "Pi1NotSurjective": "deg1",
    "NoSection1": "deg1",
}


def check_verdict(verdict, sections):
    """A Possible verdict needs every section; a map-level witness says
    that degree has none."""
    if verdict["outcome"].startswith("Possible"):
        if sections["deg0"] is None or sections["deg1"] is None or not sections["extra_z_ok"]:
            return [f"{verdict['outcome']} but a section is missing"]
        return []
    witness = verdict["witness"]
    deg = _MAP_CLAUSES.get(witness["clause"]) if witness else None
    if deg is not None and sections[deg] is not None:
        return [f"witness {witness['clause']} but a {deg} section exists"]
    return []


class TorsionLiterals:
    """Literal pairs Z + (+)Z/a_i against Z + (+)Z/b_j with random units.

    Each round holds one pair per shape: the number of factors on each
    side, and whether the two sides draw from shared or disjoint primes.
    Shared primes put Tor and Z/a (x) Z/b summands into the tensor
    K-theory; disjoint ones reach the case-III checks and real sections.
    No pair of groups repeats within a run, so no operation reuses the
    tensor structure memoised for an earlier pair; memo hits come from
    the same structure being asked for again within one operation.

    Sizes stop at four factors with exponents up to 2.  With cubes such
    as 343, or a fifth factor, the section systems get large enough
    coefficients that the generic SNF now and then runs for seconds
    (once 30 s); at these sizes 67 000 sampled operations stayed under
    0.1 s.
    """

    round_seconds = 0.05
    min_rounds = 9
    PRIMES = (2, 3, 5, 7)
    MAX_EXP = 2
    # (2, 2) on disjoint primes is left out: it has only 492 group pairs
    SHAPES = [("shared", ka, kb) for ka in (2, 3) for kb in (2, 3)] + [
        ("disjoint", ka, kb) for ka in (2, 3, 4) for kb in (2, 3, 4) if ka + kb > 4
    ]

    def __init__(self, kob, seed, rounds):
        self.kob = kob
        rng = random.Random(seed)
        seen = set()
        self.rounds = []
        for _ in range(rounds):
            ops = []
            for shape in self.SHAPES:
                for _attempt in range(10000):
                    op = self._draw(rng, shape)
                    key = (op[2].k0.pp, op[3].k0.pp)
                    if key not in seen:
                        break
                else:
                    raise RuntimeError(f"no unused group pair left for shape {shape}")
                seen.add(key)
                ops.append(op)
            self.rounds.append(ops)

    def _draw(self, rng, shape):
        kind, ka, kb = shape
        primes = list(self.PRIMES)
        if kind == "shared":
            pa = pb = primes
        else:
            rng.shuffle(primes)
            cut = rng.randint(1, len(primes) - 1)
            pa, pb = primes[:cut], primes[cut:]
        ta, tb = self._triple(rng, ka, pa), self._triple(rng, kb, pb)
        return json.dumps(ta.to_json()), json.dumps(tb.to_json()), ta, tb

    def _triple(self, rng, k, primes):
        k0 = Group(1, [(rng.choice(primes), rng.randint(1, self.MAX_EXP)) for _ in range(k)])
        unit = [rng.randint(-6, 6)] + [rng.randrange(d) for d in k0.invariant_factors()]
        return Triple(k0, Group(0), unit)

    def run(self, op):
        kob = self.kob
        a = kob.catalog.evaluate(op[0])
        b = kob.catalog.evaluate(op[1])
        return a, b, kob.obstruct.classify(a, b), kob.obstruct.section_exists_k(a, b, "unital")

    def check(self, op, result):
        _, _, ta, tb = op
        a, b, verdict, report = result
        kob = self.kob
        problems = []
        for got, t in ((a, ta), (b, tb)):
            if got.to_json() != t.to_json():
                problems.append(f"evaluate gave {got.to_json()}, expected {t.to_json()}")
        k0, k1 = oracle.kunneth(ta, tb)
        kun = kob.kunneth(a, b)
        problems += oracle.check_group("tensor K0", kun.k0.to_json(), k0)
        problems += oracle.check_group("tensor K1", kun.k1.to_json(), k1)
        pi0, pi1, _ = kob.pi_star(a, b)
        rank0, _, _ = oracle.unital_free_product(ta, tb)
        if pi0.source.rank != rank0:
            problems.append(f"unital free product K0 rank {pi0.source.rank} != {rank0}")
        sections = {
            "deg0": report.deg0.to_json() if report.deg0 is not None else None,
            "deg1": report.deg1.to_json() if report.deg1 is not None else None,
            "extra_z_ok": report.extra_z_ok,
        }
        problems += check_sections(
            sections,
            (pi0.matrix.to_json(), Group.from_json(pi0.source.to_json()), k0),
            (pi1.matrix.to_json(), ta.k1 + tb.k1, k1),
        )
        vj = verdict.to_json()
        problems += check_verdict(vj, sections)
        clause = vj["witness"]["clause"] if vj["witness"] else None
        if (clause == "TorNonzero") != (not oracle.tor(ta.k0, tb.k0).is_trivial):
            problems.append(f"verdict {clause} disagrees with Tor(K0A, K0B)")
        matrices = section_matrices(sections)
        if vj["witness"] and "matrix" in vj["witness"]["detail"]:
            matrices.append(vj["witness"]["detail"]["matrix"])
        return problems, oracle.max_bits(*matrices)


class DenseSnf:
    """Dense integer matrices with entries in [-20, 20], one per shape in
    each round, through smith_normal_form and cokernel."""

    round_seconds = 0.05
    min_rounds = 10
    SHAPES = [(8, 8), (10, 10), (12, 12), (14, 14), (16, 16), (10, 14), (14, 10), (12, 16), (16, 12), (6, 16)]
    ENTRY = 20

    def __init__(self, kob, seed, rounds):
        self.kob = kob
        rng = random.Random(seed)
        e = self.ENTRY
        self.rounds = [
            [[[rng.randint(-e, e) for _ in range(c)] for _ in range(r)] for r, c in self.SHAPES]
            for _ in range(rounds)
        ]

    def run(self, m):
        fgab = self.kob.fgab
        mat = fgab.IntMatrix(m)
        u, d, v = fgab.smith_normal_form(mat)
        hom = fgab.GroupHom(fgab.FgAbGroup(mat.cols), fgab.FgAbGroup(mat.rows), mat)
        return u, d, v, fgab.cokernel(hom)

    def check(self, m, result):
        u, d, v, coker = result
        u, d, v = ([list(row) for row in x.data] for x in (u, d, v))
        return oracle.check_snf(m, u, d, v, coker.to_json()), oracle.max_bits(u, v)


WORKLOADS = {"catalog-cli": CatalogCli, "torsion-literals": TorsionLiterals, "dense-snf": DenseSnf}
