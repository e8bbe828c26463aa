"""Self-test of the benchmark's oracles: each accepts a right answer from
ybt and rejects a deliberately corrupted one.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as O  # noqa: E402
import ybt  # noqa: E402
import workloads  # noqa: E402


def corrupt(mat: dict, key=None) -> dict:
    """Change one entry of a sparse operator by one."""
    out = dict(mat)
    key = key if key is not None else min(out)
    out[key] = out.get(key, 0) + 1
    return {k: v for k, v in out.items() if v}


class CommutantOracles(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.r = ybt.catalog.get("six_vertex").r
        cls.space = ybt.r_symmetric_space(cls.r, 3)
        cls.basis = [O.sparse(z.rows) for z in cls.space.basis]
        cls.braids = O.braids(O.sparse(cls.r.rows), 2, 3)

    def test_dimension(self):
        expected = O.commutant_dimension("six_vertex", 2, 3)
        self.assertEqual(O.check_dimension("rsym", len(self.basis), expected), [])
        self.assertTrue(O.check_dimension("rsym", len(self.basis) + 1, expected))
        self.assertTrue(O.check_dimension("rsym", len(self.basis) - 1, expected))

    def test_closed_forms_match_the_solver(self):
        for kind, r, d, n in (("identity", ybt.identity(2, 2), 2, 3),
                              ("swap", ybt.swap(2), 2, 2)):
            got = ybt.r_symmetric_space(r, n).dimension
            self.assertEqual(got, O.commutant_dimension(kind, d, n))

    def test_commutation(self):
        self.assertEqual(O.check_commutation("rsym", self.basis, self.braids, self.braids), [])
        bad = list(self.basis)
        bad[5] = corrupt(bad[5])
        self.assertTrue(O.check_commutation("rsym", bad, self.braids, self.braids))

    def test_braids_match_the_program(self):
        b = ybt.braid_matrix(self.r)
        program = [O.sparse(ybt.embed(b, [i, i + 1], 3).rows) for i in (1, 2)]
        self.assertEqual(program, self.braids)

    def test_independence(self):
        self.assertEqual(O.check_independent("rsym", self.basis), [])
        dependent = self.basis[:-1] + [O.add(self.basis[0], self.basis[1])]
        self.assertTrue(O.check_independent("rsym", dependent))

    def test_membership(self):
        coeffs = [Fraction(k % 5 - 2) for k in range(len(self.basis))]
        target = O.combination(coeffs, self.basis)
        self.assertEqual(O.check_membership("m", coeffs, self.basis, target), [])
        wrong = list(coeffs)
        wrong[3] += 1
        self.assertTrue(O.check_membership("m", wrong, self.basis, target))
        self.assertTrue(O.check_membership("m", None, self.basis, target))

    def test_non_member(self):
        member = O.combination([Fraction(1)] * len(self.basis), self.basis)
        outside = corrupt(member, (1, 2))
        self.assertEqual(O.check_non_member("n", None, outside, self.braids), [])
        self.assertTrue(O.check_non_member("n", None, member, self.braids))
        self.assertTrue(O.check_non_member("n", (Fraction(1),), outside, self.braids))

    def test_certificate(self):
        coeffs = [Fraction(k + 1) for k in range(len(self.basis))]
        combo = O.combination(coeffs, self.basis)
        self.assertNotEqual(O.det_mod_p(combo, 8), 0)
        self.assertEqual(O.check_certificate("c", coeffs, combo, 8, self.basis), [])
        self.assertTrue(O.check_certificate("c", coeffs, corrupt(combo), 8, self.basis))
        zeros = [Fraction(0)] * len(self.basis)
        self.assertTrue(O.check_certificate("c", zeros, {}, 8, self.basis))

    def test_modular_determinant_matches_the_program(self):
        f = ybt.Operator.from_rows(3, 2, workloads.random_invertible(random.Random(4), 9))
        self.assertEqual(O.det_mod_p(O.sparse(f.rows), 9), O.mod_p(ybt.determinant(f)))


class FusionOracles(unittest.TestCase):
    def test_fused_swap(self):
        fused = O.sparse(ybt.fuse_r(ybt.swap(2), 3, 3).rows)
        expected = O.block_swap(2, 3, 3)
        self.assertEqual(O.check_equal("swap", fused, expected), [])
        # exchange two columns of the fused swap
        a, b = 1, 2
        swapped = {(i, {a: b, b: a}.get(j, j)): v for (i, j), v in fused.items()}
        self.assertTrue(O.check_equal("swap", swapped, expected))

    def test_block_swap_orientation(self):
        for m, n in ((1, 2), (2, 1), (1, 3)):
            fused = O.sparse(ybt.fuse_r(ybt.swap(2), m, n).rows)
            self.assertEqual(fused, O.block_swap(2, m, n))

    def test_fuse(self):
        r = ybt.catalog.get("six_vertex").r
        for m, n in ((1, 1), (2, 1), (2, 2)):
            self.assertEqual(O.sparse(ybt.fuse_r(r, m, n).rows), O.fuse(O.sparse(r.rows), 2, m, n))
        self.assertTrue(O.check_equal(
            "fuse", corrupt(O.sparse(ybt.fuse_r(r, 2, 1).rows)), O.fuse(O.sparse(r.rows), 2, 2, 1)))

    def test_zero_and_nonzero(self):
        self.assertEqual(O.check_zero("x", Fraction(0)), [])
        self.assertTrue(O.check_zero("x", Fraction(1, 3)))
        self.assertEqual(O.check_nonzero("x", Fraction(1, 3)), [])
        self.assertTrue(O.check_nonzero("x", Fraction(0)))


class TwistOracles(unittest.TestCase):
    def test_twist(self):
        entry = ybt.catalog.get("diag_twist")
        expected = O.twist(entry.r.rows, entry.twist.f.rows, 2)
        self.assertEqual(ybt.apply_twist(entry.r, entry.twist.f).rows, expected)
        self.assertTrue(workloads.ybe_holds(expected, 2))
        bad = [list(row) for row in expected]
        bad[0][1] += 1
        self.assertFalse(workloads.ybe_holds(bad, 2))


class ReportSchema(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        path = HERE.parent / "src" / "ybt" / "data" / "report.schema.json"
        cls.schema = json.loads(path.read_text())
        cls.report = {"command": "verify-ybe", "inputs": {"r": "x"},
                      "residuals": {"ybe": "0"}, "verdict": True}

    def test_valid(self):
        self.assertEqual(O.schema_problems(self.report, self.schema), [])

    def test_rejects(self):
        for bad in ({**self.report, "extra": 1},
                    {k: v for k, v in self.report.items() if k != "verdict"},
                    {**self.report, "verdict": "yes"},
                    {**self.report, "residuals": {"ybe": True}},
                    {**self.report, "notes": ["ok", 3]}):
            self.assertTrue(O.schema_problems(bad, self.schema), bad)


if __name__ == "__main__":
    unittest.main()
