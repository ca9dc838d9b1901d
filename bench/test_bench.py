"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench

Every workload runs one round with no failed operation, the checks in
``oracle`` reject deliberately corrupted outputs, and the command prints
the result line that ``BENCHMARK.json`` describes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import kobstruct  # noqa: E402
import kobstruct.cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
from oracle import Group, Triple  # noqa: E402
from workloads import WORKLOADS, check_verdict  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_has_no_failures(name):
    wl = WORKLOADS[name](kobstruct, seed=3, rounds=1)
    res = run.run_ops(wl)
    assert res["failed"] == 0
    assert res["correct"]
    assert len(res["times_ms"]) == len(wl.rounds[0])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_operation_list_depends_only_on_seed(name):
    def ops(seed):
        return json.dumps(WORKLOADS[name](kobstruct, seed, rounds=2).rounds, default=lambda x: x.to_json())

    a, b, c = (json.loads(ops(seed)) for seed in (11, 11, 12))
    assert a == b != c
    assert len(a[0]) == len(a[1]) == len(c[0])


# -- the checks reject corrupted outputs -------------------------------------


def test_section_check_rejects_an_entry_off_by_one():
    # pi: Z + Z/2 + Z/4 -> Z/4 sends the generators to 0, 2, 1, and
    # s(1) = (0, 0, 1) is a section.
    source = Group.from_factors(1, [2, 4])
    target = Group.from_factors(0, [4])
    pi = [[0, 2, 1]]
    s = [[0], [0], [1]]
    assert oracle.check_section("s", pi, s, source, target) == []
    for i in range(3):
        bad = [row[:] for row in s]
        bad[i][0] += 1
        assert oracle.check_section("s", pi, bad, source, target), f"entry {i} off by one passed"


def test_section_check_rejects_an_image_of_the_wrong_order():
    # Z -> Z/2 and back: s(1) = 1 satisfies pi s = id mod 2, but 2 * s(1) != 0 in Z.
    assert oracle.check_section("s", [[1]], [[1]], Group(1), Group.from_factors(0, [2]))


def _snf(m):
    mat = kobstruct.IntMatrix(m)
    u, d, v = kobstruct.smith_normal_form(mat)
    coker = kobstruct.cokernel(kobstruct.GroupHom(kobstruct.FgAbGroup(mat.cols), kobstruct.FgAbGroup(mat.rows), mat))
    return [[list(r) for r in x.data] for x in (u, d, v)], coker.to_json()


@pytest.mark.parametrize("m", [[[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]])
def test_snf_check_rejects_a_wrong_diagonal_entry(m):
    (u, d, v), coker = _snf(m)
    assert oracle.check_snf(m, u, d, v, coker) == []
    for i in range(min(len(d), len(d[0]))):
        bad = [row[:] for row in d]
        bad[i][i] += 1
        assert oracle.check_snf(m, u, bad, v, coker), f"d[{i}][{i}] + 1 passed"


def test_snf_check_rejects_a_negative_or_non_dividing_diagonal():
    # m = d = diag(-1) and diag(2, 3): u = v = identity, so only the chain is wrong
    assert oracle.check_snf([[-1]], [[1]], [[-1]], [[1]], {"rank": 0, "torsion": []})
    assert oracle.check_snf([[2, 0], [0, 3]], [[1, 0], [0, 1]], [[2, 0], [0, 3]], [[1, 0], [0, 1]], {"rank": 0, "torsion": [2, 3]})


def test_snf_check_rejects_a_transform_that_is_not_unimodular():
    # u m v = d holds with u = (2), but det u = 2
    problems = oracle.check_snf([[1]], [[2]], [[2]], [[1]], {"rank": 0, "torsion": [2]})
    assert "u is not unimodular" in problems


def test_determinant_matches_cofactor_expansion():
    def cofactor(m):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j] * cofactor([row[:j] + row[j + 1 :] for row in m[1:]]) for j in range(len(m)))

    m = [[0, 2, -1, 3], [4, 0, 5, 1], [-2, 7, 0, 0], [1, 1, 1, 0]]
    assert oracle.determinant(m) == cofactor(m) != 0
    assert oracle.determinant([[1, 2], [2, 4]]) == 0


def test_kunneth_check_rejects_a_changed_factor():
    o4, o7 = oracle.CATALOG["O_4"], oracle.CATALOG["O_7"]
    k0, k1 = oracle.kunneth(o4, o7)
    assert k0.to_json() == {"rank": 0, "torsion": [3]}
    assert k1.to_json() == {"rank": 0, "torsion": [3]}
    got = kobstruct.kunneth(kobstruct.evaluate("O_4"), kobstruct.evaluate("O_7"))
    assert oracle.check_group("K0", got.k0.to_json(), k0) == []
    assert oracle.check_group("K0", {"rank": 0, "torsion": [9]}, k0)
    assert oracle.check_group("K0", {"rank": 1, "torsion": [3]}, k0)


def test_kunneth_closed_form_on_mixed_torsion():
    # A = (Z + Z/4 + Z/12, Z/5, e_0), B = (Z/2 + Z/25 = Z/50, Z, 1), worked by hand:
    # K0 = Z/2 + Z/25 + Z/2 + Z/2 (K0 (x) K0) + Z/5 (K1 (x) K1) + Z/5 (Tor(K1A, K0B))
    # K1 = Z + Z/4 + Z/12 (K0A (x) K1B) + Z/5 (K1A (x) K0B) + Z/2 + Z/2 (Tor(K0A, K0B))
    a = Triple(Group.from_factors(1, [4, 12]), Group.from_factors(0, [5]), [1, 0, 0])
    b = Triple(Group.from_factors(0, [2, 25]), Group(1), [1])
    k0, k1 = oracle.kunneth(a, b)
    assert k0.to_json() == {"rank": 0, "torsion": [10, 10, 50]}
    assert k1.to_json() == {"rank": 1, "torsion": [2, 2, 4, 60]}
    got = kobstruct.kunneth(*(kobstruct.evaluate(json.dumps(t.to_json())) for t in (a, b)))
    assert oracle.check_group("K0", got.k0.to_json(), k0) == []
    assert oracle.check_group("K1", got.k1.to_json(), k1) == []


def test_verdict_check_rejects_a_possible_verdict_without_sections():
    sections = {"deg0": None, "deg1": {"matrix": []}, "extra_z_ok": True}
    assert check_verdict({"outcome": "PossibleCaseI", "witness": None}, sections)
    witness = {"clause": "NoSection1", "detail": {}}
    assert check_verdict({"outcome": "Obstructed", "witness": witness}, sections)


# -- the command -------------------------------------------------------------


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace):
    proc = _command(["--workload", "dense-snf", "--seed", "5", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-snf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
