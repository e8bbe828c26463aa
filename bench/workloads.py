"""The four benchmark workloads.

Each workload builds its seeded inputs in ``__init__`` (the set-up that
``setup_s`` times), lists one round of timed tasks in ``tasks()``, and
checks a round's outputs against the oracles in ``check()``.  A task is
``(label, fn)``; ``fn(out)`` may read the outputs of earlier tasks of the
same round from ``out``.  Rounds repeat the same tasks on the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracles as O

# Small rationals for seeded parameters: generic for six_vertex (q != +-1)
# and of similar height, so the seed moves the inputs but not the cost.
Q_VALUES = ("3/2", "5/3", "4/3", "5/2", "7/4", "7/5", "2", "3", "2/3", "3/5")
TWIST_VALUES = ("2", "3", "5", "1/2", "1/3", "2/3", "3/2", "5/2", "3/4", "4/5")
XI_VALUES = ("1", "2", "-1", "1/2", "-3/2", "5/7", "3", "-2/3")


def six_vertex_rows(q: Fraction) -> tuple:
    """The catalog's documented six-vertex R, built here from its formula."""
    z, one = Fraction(0), Fraction(1)
    return ((q, z, z, z), (z, one, q - 1 / q, z), (z, z, one, z), (z, z, z, q))


def jordanian_f_rows(xi: Fraction) -> tuple:
    """F = I + xi (E x H), H = diag(1, -1), E the elementary nilpotent."""
    z, one = Fraction(0), Fraction(1)
    return ((one, z, xi, z), (z, one, z, -xi), (z, z, one, z), (z, z, z, one))


def random_invertible(rng: random.Random, side: int, lo: int = -3, hi: int = 3) -> tuple:
    while True:
        rows = tuple(tuple(Fraction(rng.randint(lo, hi)) for _ in range(side))
                     for _ in range(side))
        if O.det_mod_p(O.sparse(rows), side):
            return rows


def sparse_invertible(rng: random.Random, side: int, extra: int) -> tuple:
    """Identity plus `extra` seeded off-diagonal entries, invertible."""
    while True:
        rows = [[Fraction(int(i == j)) for j in range(side)] for i in range(side)]
        for _ in range(extra):
            rows[rng.randrange(side)][rng.randrange(side)] += rng.randint(-3, 3)
        rows = tuple(tuple(r) for r in rows)
        if O.det_mod_p(O.sparse(rows), side):
            return rows


def ybe_holds(rows, d: int) -> bool:
    r = O.sparse(rows)
    r12, r13, r23 = (O.embed(r, d, s, 3) for s in ((1, 2), (1, 3), (2, 3)))
    return O.matmul(O.matmul(r12, r13), r23) == O.matmul(O.matmul(r23, r13), r12)


def summary(value):
    """What later rounds must reproduce: large operators by shape and support."""
    if hasattr(value, "basis"):
        return ("basis", value.site_dim, value.legs, value.dimension)
    if hasattr(value, "rows"):
        if value.side <= 64:
            return value.rows
        return ("operator", value.side, sum(1 for row in value.rows for v in row if v))
    if hasattr(value, "verdict"):
        return (value.residuals, value.verdict)
    if isinstance(value, (tuple, list)):
        return tuple(summary(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, summary(v)) for k, v in sorted(value.items()))
    return value


class Commutant:
    """Exact null spaces at the documented scale edge."""

    name = "commutant"

    def __init__(self, ybt, seed: int, root: Path, in_process: bool = False):
        rng = random.Random(seed)
        self.ybt = ybt
        self.six = ybt.catalog.get("six_vertex").r
        s, t = rng.sample(TWIST_VALUES, 2)
        entry = ybt.catalog.get("diag_twist", {"s": s, "t": t})
        self.base, self.f = entry.r, entry.twist.f
        self.twisted = ybt.apply_twist(self.base, self.f)
        self.id3 = ybt.identity(3, 2)
        self.swap2 = ybt.swap(2)
        member, non_member = self._targets(rng, 3, 4)
        self.member = ybt.Operator.from_rows(3, 4, member)
        self.non_member = ybt.Operator.from_rows(3, 4, non_member)
        self.cert_seed = seed

    @staticmethod
    def _targets(rng, d: int, n: int):
        """A seeded member of the identity(d) commutant and a non-member.

        The commutant of all leg permutations holds exactly the operators
        constant on orbits of (row, column) digit pairs; the non-member adds
        one unit entry on an orbit with more than one element.
        """
        side = d**n

        def key(a, b):
            return tuple(sorted(zip(O.digits(a, d, n), O.digits(b, d, n))))

        keys = sorted({key(a, b) for a in range(side) for b in range(side)})
        value = {k: rng.randint(-5, 5) for k in keys}
        rows = [[value[key(a, b)] for b in range(side)] for a in range(side)]
        while True:
            a, b = rng.randrange(side), rng.randrange(side)
            if len(set(key(a, b))) > 1:
                break
        bad = [row[:] for row in rows]
        bad[a][b] += 1
        return rows, bad

    def tasks(self):
        y = self.ybt
        return [
            ("rsym_six_vertex_n6", lambda out: y.r_symmetric_space(self.six, 6)),
            ("rsym_identity3_n4", lambda out: y.r_symmetric_space(self.id3, 4, size_cap=81)),
            ("rsym_swap2_n3", lambda out: y.r_symmetric_space(self.swap2, 3)),
            ("intertwine_n5", lambda out: y.intertwiner_space(self.base, self.twisted, 5)),
            ("certificate_n5", lambda out: y.invertible_certificate(
                out["intertwine_n5"], seed=self.cert_seed)),
            ("member", lambda out: y.membership_coefficients(
                out["rsym_identity3_n4"], self.member)),
            ("non_member", lambda out: y.membership_coefficients(
                out["rsym_identity3_n4"], self.non_member)),
        ]

    def check(self, out) -> list:
        problems = []
        six = O.sparse(self.six.rows)
        if not ybe_holds(self.six.rows, 2):
            problems.append("six_vertex input fails the Yang-Baxter equation")
        id_braids = O.braids(O.sparse(self.id3.rows), 3, 4)
        solves = {
            "rsym_six_vertex_n6": (O.commutant_dimension("six_vertex", 2, 6),
                                   O.braids(six, 2, 6), None),
            "rsym_identity3_n4": (O.commutant_dimension("identity", 3, 4), id_braids, None),
            "rsym_swap2_n3": (O.commutant_dimension("swap", 2, 3),
                              O.braids(O.sparse(self.swap2.rows), 2, 3), None),
        }
        twisted = O.twist(self.base.rows, self.f.rows, 2)
        if self.twisted.rows != twisted:
            problems.append("apply_twist differs from F21^-1 R F")
        # the intertwiner space is the commutant moved by an invertible Omega
        solves["intertwine_n5"] = (
            O.commutant_dimension("six_vertex", 2, 5),
            O.braids(O.sparse(self.base.rows), 2, 5),
            O.braids(O.sparse(twisted), 2, 5),
        )
        basis = {}
        for label, (dim, left, right) in solves.items():
            if label not in out:
                continue
            basis[label] = [O.sparse(z.rows) for z in out[label].basis]
            problems += O.check_dimension(label, len(basis[label]), dim)
            problems += O.check_commutation(label, basis[label], left, right or left)
            problems += O.check_independent(label, basis[label])
        if "certificate_n5" in out:
            found = out["certificate_n5"] or (None, None)
            problems += O.check_certificate(
                "certificate_n5", found[0], found[1] and O.sparse(found[1].rows), 32,
                basis["intertwine_n5"])
        if "member" in out:
            problems += O.check_membership("member", out["member"], basis["rsym_identity3_n4"],
                                           O.sparse(self.member.rows))
        if "non_member" in out:
            problems += O.check_non_member(
                "non_member", out["non_member"], O.sparse(self.non_member.rows), id_braids)
        return problems


class Fusion:
    """A few large dense products: fused blocks, 8-leg mixed YBE, te1."""

    name = "fusion"
    TE1 = tuple((m, n, k) for m in range(7) for n in range(7) for k in range(7)
                if m + n + k <= 6)
    MIXED = ((3, 3, 2), (3, 2, 3), (2, 3, 3))

    def __init__(self, ybt, seed: int, root: Path, in_process: bool = False):
        rng = random.Random(seed)
        self.ybt = ybt
        self.q = Fraction(rng.choice(Q_VALUES))
        self.six = ybt.catalog.get("six_vertex", {"q": str(self.q)}).r
        xi, xi_other = rng.sample(XI_VALUES, 2)
        self.xi = Fraction(xi)
        self.f = ybt.catalog.get("jordanian", {"xi": xi}).twist.f
        self.f_other = ybt.catalog.get("jordanian", {"xi": xi_other}).twist.f
        self.swap3 = ybt.swap(3)
        bad = [list(row) for row in self.six.rows]
        bad[0][1] += 1
        self.bad_r = ybt.Operator.from_rows(2, 2, bad)

    def components(self, f):
        y = self.ybt
        omegas = {j: y.omega_split_B(f, j) for j in range(2, 7)}
        return {(m, n): y.f_components_from_omega(omegas, m, n)
                for m in range(1, 6) for n in range(1, 7 - m)}

    def tasks(self):
        y = self.ybt
        tasks = []
        for m in range(1, 4):
            for n in range(1, 4):
                tasks.append((f"fuse_{m}{n}", lambda out, m=m, n=n: y.fuse_r(self.six, m, n)))
        for m, n, k in self.MIXED:
            tasks.append((f"mixed_{m}{n}{k}", lambda out, m=m, n=n, k=k: y.mixed_ybe_residual(
                out[f"fuse_{m}{n}"], out[f"fuse_{m}{k}"], out[f"fuse_{n}{k}"], m, n, k)))
        tasks.append(("fuse_swap3_33", lambda out: y.fuse_r(self.swap3, 3, 3)))
        tasks.append(("te1_components", lambda out: self.components(self.f)))
        for m, n, k in self.TE1:
            tasks.append((f"te1_{m}{n}{k}", lambda out, m=m, n=n, k=k: y.te1_residual(
                out["te1_components"], m, n, k)))
        return tasks

    def check(self, out) -> list:
        y = self.ybt
        problems = []
        six = O.sparse(six_vertex_rows(self.q))
        if O.sparse(self.six.rows) != six:
            problems.append("six_vertex entry differs from its formula")
        for m in range(1, 4):
            for n in range(1, 4):
                label = f"fuse_{m}{n}"
                if label in out:
                    problems += O.check_equal(
                        label, O.sparse(out[label].rows), O.fuse(six, 2, m, n))
        for m, n, k in self.MIXED:
            label = f"mixed_{m}{n}{k}"
            if label in out:
                problems += O.check_zero(label, out[label])
        bad21 = y.fuse_r(self.bad_r, 2, 1)
        problems += O.check_nonzero("mixed_221 with a corrupted R", y.mixed_ybe_residual(
            y.fuse_r(self.bad_r, 2, 2), bad21, bad21, 2, 2, 1))
        if "fuse_swap3_33" in out:
            problems += O.check_equal(
                "fuse_swap3_33", O.sparse(out["fuse_swap3_33"].rows), O.block_swap(3, 3, 3))
        if "te1_components" in out:
            comps = out["te1_components"]
            problems += O.check_equal(
                "te1_components F^{1,1}", O.sparse(comps[(1, 1)].rows),
                O.sparse(jordanian_f_rows(self.xi)))
            for m, n, k in self.TE1:
                label = f"te1_{m}{n}{k}"
                if label in out:
                    problems += O.check_zero(label, out[label])
            corrupted = dict(comps)
            corrupted[(1, 1)] = self.f_other
            problems += O.check_nonzero(
                "te1_111 with a foreign F^{1,1}", y.te1_residual(corrupted, 1, 1, 1))
        return problems


class Twist:
    """Many small 3-leg certifications, each a timed task."""

    name = "twist"
    # 160 site_dim-3 cases put both the median and the 90th percentile of a
    # round's 206 task times well inside that cluster, not at its edge
    N2, N3, ENTRIES, NEGATIVES = 20, 160, 2, 2

    def __init__(self, ybt, seed: int, root: Path, in_process: bool = False):
        rng = random.Random(seed)
        y = self.ybt = ybt
        # every case has its own R and F, so no single draw sets the cost
        # of a whole cluster; site_dim 2 cycles through all of Q_VALUES
        qs = [Fraction(Q_VALUES[i % len(Q_VALUES)]) for i in range(self.N2)]
        rng.shuffle(qs)
        self.cases = [
            (y.catalog.six_vertex_r(q), y.Operator.from_rows(2, 2, random_invertible(rng, 4)))
            for q in qs
        ] + [
            (y.Operator.from_rows(3, 2, random_invertible(rng, 9, -2, 2)),
             y.Operator.from_rows(3, 2, random_invertible(rng, 9)))
            for _ in range(self.N3)
        ]
        self.entries = []
        for _ in range(self.ENTRIES):
            q, s, t = rng.sample(Q_VALUES, 3)
            self.entries += [
                ("six_vertex", {"q": q}, "A"),
                ("diag_twist", {"q": q, "s": s, "t": t}, "A"),
                ("jordanian", {"xi": rng.choice(XI_VALUES)}, "B"),
            ]
        self.id3 = y.identity(3, 2)
        self.negatives = [
            (y.Operator.from_rows(3, 2, random_invertible(rng, 9)),
             y.Operator.from_rows(3, 3, sparse_invertible(rng, 27, 27)))
            for _ in range(self.NEGATIVES)
        ]

    def certify(self, r, f):
        """Twist r by f, check B F = F Bt, and twist the swap by f."""
        y = self.ybt
        rt = y.apply_twist(r, f)
        conj = y.residual(y.braid_matrix(r) @ f, f @ y.braid_matrix(rt))
        return rt, conj, y.apply_twist(y.swap(r.site_dim), f)

    def tasks(self):
        y = self.ybt
        tasks = []
        for i, (r, f) in enumerate(self.cases):
            tasks.append((f"twist{r.site_dim}_{i}", lambda out, r=r, f=f: self.certify(r, f)))
        for j, (name, params, variant) in enumerate(self.entries):
            get = f"get_{j}"
            split = y.check_split_A if variant == "A" else y.check_split_B
            tasks += [
                (get, lambda out, n=name, p=params: y.catalog.get(n, p)),
                (f"pair_{j}", lambda out, g=get: y.check_pair(out[g].r, out[g].twist)),
                (f"aux_{j}", lambda out, g=get: y.aux_identity_residual(out[g].r, out[g].twist)),
                (f"split_{j}", lambda out, g=get, s=split: s(out[g].r, out[g].twist.f)),
            ]
        for k, (f, g) in enumerate(self.negatives):
            tasks.append((f"negative_{k}", lambda out, f=f, g=g: y.check_pair(
                self.id3, y.TwistPair(f, g))))
        return tasks

    def check(self, out) -> list:
        y = self.ybt
        problems = []
        for i, (r, f) in enumerate(self.cases):
            d = r.site_dim
            label = f"twist{d}_{i}"
            if label not in out:
                continue
            rt, conj, sw = out[label]
            problems += O.check_equal(
                label, O.sparse(rt.rows), O.sparse(O.twist(r.rows, f.rows, d)))
            problems += O.check_zero(label + " B F - F Bt", conj)
            problems += O.check_equal(
                label + " twisted swap", O.sparse(sw.rows), O.block_swap(d, 1, 1))
        # negative controls: a foreign twisted matrix, and the identity R,
        # which a twist does not fix unless F21 = F
        for d, start in ((2, 0), (3, self.N2)):
            (r, f), (_, other) = self.cases[start], self.cases[start + 1]
            rt_other = y.apply_twist(r, other)
            problems += O.check_nonzero(f"twist{d} braid conjugation, foreign F", y.residual(
                y.braid_matrix(r) @ f, f @ y.braid_matrix(rt_other)))
            ident = y.identity(d, 2)
            problems += O.check_nonzero(
                f"twist{d} of the identity", y.residual(y.apply_twist(ident, f), ident))
        for j, (name, params, variant) in enumerate(self.entries):
            get = f"get_{j}"
            if get not in out:
                continue
            entry = out[get]
            if not ybe_holds(entry.r.rows, 2):
                problems.append(f"{get}: {name} fails the Yang-Baxter equation")
            twisted = O.twist(entry.r.rows, entry.twist.f.rows, 2)
            if not ybe_holds(twisted, 2):
                problems.append(f"{get}: twisted {name} fails the Yang-Baxter equation")
            pair = out.get(f"pair_{j}")
            if pair is not None and not (pair.verdict and all(
                    pair.residuals[c] == 0 for c in ("cond1", "cond2", "cond3"))):
                problems.append(f"pair_{j}: check_pair rejects {name} {params}")
            if f"aux_{j}" in out:
                problems += O.check_zero(f"aux_{j}", out[f"aux_{j}"])
            split = out.get(f"split_{j}")
            if split is not None and not split.verdict:
                problems.append(f"split_{j}: split {variant} rejects {name} {params}")
        for k in range(self.NEGATIVES):
            report = out.get(f"negative_{k}")
            if report is not None and report.verdict:
                problems.append(f"negative_{k}: a random pair passed check_pair")
        # negative controls for the catalog families
        name, params, _ = self.entries[0]
        six = y.catalog.get(name, params)
        name, params, _ = self.entries[2]
        jord = y.catalog.get(name, params)
        if y.check_pair(six.r, jord.twist).verdict:
            problems.append("check_pair accepts a jordanian pair on six_vertex")
        problems += O.check_nonzero(
            "aux identity of a jordanian pair on six_vertex",
            y.aux_identity_residual(six.r, jord.twist))
        if y.check_split_A(six.r, jord.twist.f).verdict:
            problems.append("split A accepts a jordanian F on six_vertex")
        return problems


CATALOG_NAMES = ["diag_twist", "identity", "jordanian", "perm", "six_vertex"]


class Cli:
    """The ybt command as users run it: one subprocess per invocation."""

    name = "cli"

    def __init__(self, ybt, seed: int, root: Path, in_process: bool = False):
        rng = random.Random(seed)
        self.ybt, self.root, self.in_process = ybt, root, in_process
        work = root / "bench" / "out" / "cli"
        work.mkdir(parents=True, exist_ok=True)
        rel = work.relative_to(root)
        self.schema = json.loads((root / "src/ybt/data/report.schema.json").read_text())
        q, s, t = rng.sample(Q_VALUES, 3)
        self.q, self.xi = Fraction(q), Fraction(rng.choice(XI_VALUES))
        fmt = ybt.formats
        entry = ybt.catalog.get("diag_twist", {"q": q, "s": s, "t": t})
        self.r_six, self.f = entry.r.rows, entry.twist.f.rows
        self.six_default = ybt.catalog.get("six_vertex").r.rows
        while True:
            bad = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(4))
            if not ybe_holds(bad, 2):
                break
        files = {
            "r_six": entry.r,
            "f": entry.twist.f,
            "g": entry.twist.g,
            "rt": ybt.apply_twist(entry.r, entry.twist.f),
            "r_bad": ybt.Operator.from_rows(2, 2, bad),
        }
        p = {name: str(rel / f"{name}.json") for name in (*files, "components", "twisted", "inter")}
        for name, op in files.items():
            fmt.save_operator(op, root / p[name])
        jord = ybt.catalog.get("jordanian", {"xi": str(self.xi)}).twist.f
        omegas = {j: ybt.omega_split_B(jord, j) for j in range(2, 5)}
        comps = {(m, n): ybt.f_components_from_omega(omegas, m, n)
                 for m in range(1, 4) for n in range(1, 5 - m)}
        (root / p["components"]).write_text(fmt.pretty_dumps(fmt.components_to_obj(comps)))
        xi, seed_s = str(self.xi), str(seed)
        # (label, argv, expected exit code, output file or None)
        self.script = [
            ("verify_ybe", ["verify-ybe", f"catalog:six_vertex?q={q}"], 0, None),
            ("verify_ybe_bad", ["verify-ybe", p["r_bad"]], 1, None),
            ("twist", ["twist", p["r_six"], p["f"], "-o", p["twisted"]], 0, p["twisted"]),
            ("check_pair_files",
             ["check-pair", p["r_six"], "--pair", f"{p['f']},{p['g']}"], 0, None),
            ("check_pair_catalog",
             ["check-pair", "catalog:identity", "--pair", f"catalog:jordanian?xi={xi}"], 0, None),
            ("check_split_A",
             ["check-split", "catalog:six_vertex", "catalog:six_vertex", "--variant", "A"],
             0, None),
            ("check_split_B",
             ["check-split", "catalog:identity", f"catalog:jordanian?xi={xi}", "--variant", "B"],
             0, None),
            ("fuse", ["fuse", f"catalog:six_vertex?q={q}", "-m", "2", "-n", "2"], 0, None),
            ("fuse_over_cap", ["fuse", "catalog:six_vertex", "-m", "4", "-n", "3"], 2, None),
            ("rsym_six_vertex_n5", ["rsym", "catalog:six_vertex", "-n", "5"], 0, None),
            ("rsym_six_vertex_q_n5", ["rsym", f"catalog:six_vertex?q={q}", "-n", "5"], 0, None),
            ("rsym_perm_n3", ["rsym", "catalog:perm", "-n", "3"], 0, None),
            ("intertwine", ["intertwine", p["r_six"], p["rt"], "-n", "3", "--seed", seed_s,
                            "-o", p["inter"]], 0, p["inter"]),
            ("omega", ["omega", f"catalog:jordanian?xi={xi}", "-n", "4", "--variant", "B"],
             0, None),
            ("te1_catalog", ["te1", "catalog:jordanian", "-m", "2", "-n", "2", "-k", "2"], 0, None),
            ("te1_file", ["te1", p["components"], "-m", "1", "-n", "1", "-k", "2"], 0, None),
            ("catalog_list", ["catalog", "list"], 0, None),
            ("catalog_get", ["catalog", "get", f"six_vertex?q={q}"], 0, None),
        ]
        self.env = child_env(root)

    def run(self, argv, out_file):
        if self.in_process:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.ybt.cli.dispatch(argv)
            text = stdout.getvalue().encode()
        else:
            done = subprocess.run(
                [sys.executable, "-m", "ybt.cli", *argv], cwd=self.root, env=self.env,
                capture_output=True, timeout=120)
            code, text = done.returncode, done.stdout
        written = (self.root / out_file).read_bytes() if out_file else None
        return code, text, written

    def tasks(self):
        return [(label, lambda out, a=argv, f=out_file: self.run(a, f))
                for label, argv, _, out_file in self.script]

    def check(self, out) -> list:
        problems = []
        reports = {}
        for label, argv, expected, _ in self.script:
            if label not in out:
                continue
            code, text, _ = out[label]
            if code != expected:
                problems.append(f"{label}: exit code {code}, expected {expected}")
                continue
            if expected == 2:
                if text:
                    problems.append(f"{label}: a usage error printed a report")
                continue
            report = json.loads(text)
            problems += [f"{label}: {p}" for p in O.schema_problems(report, self.schema)]
            reports[label] = report
        q_six = O.sparse(six_vertex_rows(self.q))

        def residuals_zero(label, verdict=True):
            rep = reports.get(label)
            if rep is None:
                return []
            nonzero = [k for k, v in rep["residuals"].items() if v != "0"]
            if rep["verdict"] is not verdict or (verdict and nonzero):
                return [f"{label}: verdict {rep['verdict']}, residuals {rep['residuals']}"]
            return []

        for label in ("verify_ybe", "check_pair_files", "check_pair_catalog",
                      "check_split_A", "check_split_B", "te1_catalog", "te1_file"):
            problems += residuals_zero(label)
        rep = reports.get("verify_ybe_bad")
        if rep is not None and (rep["verdict"] or rep["residuals"]["ybe"] == "0"):
            problems.append("verify_ybe_bad: a non-solution passed")
        if "twist" in reports:
            twisted = O.twist(self.r_six, self.f, 2)
            if reports["twist"]["residuals"]["ybe_r_twisted"] != "0":
                problems.append("twist: twisted matrix fails the Yang-Baxter equation")
            problems += O.check_equal(
                "twist -o", O.sparse_from_obj(json.loads(out["twist"][2])), O.sparse(twisted))
        if "fuse" in reports:
            problems += O.check_equal(
                "fuse", O.sparse_from_obj(reports["fuse"]["outputs"]["operator"]),
                O.fuse(q_six, 2, 2, 2))
        six = O.sparse(self.six_default)
        for label, kind, r, d, n in (("rsym_six_vertex_n5", "six_vertex", six, 2, 5),
                                     ("rsym_six_vertex_q_n5", "six_vertex", q_six, 2, 5),
                                     ("rsym_perm_n3", "swap", O.block_swap(2, 1, 1), 2, 3)):
            if label not in reports:
                continue
            sub = reports[label]["outputs"]["subspace"]
            rows = [O.sparse_from_obj(o) for o in sub["basis"]]
            expected = O.commutant_dimension(kind, d, n)
            problems += O.check_dimension(label, reports[label]["outputs"]["dimension"], expected)
            problems += O.check_dimension(label + " basis", len(rows), expected)
            b = O.braids(r, d, n)
            problems += O.check_commutation(label, rows, b, b)
            problems += O.check_independent(label, rows)
        if "intertwine" in reports:
            rep = reports["intertwine"]
            rows = [O.sparse_from_obj(o) for o in json.loads(out["intertwine"][2])["basis"]]
            left = O.braids(O.sparse(self.r_six), 2, 3)
            right = O.braids(O.sparse(O.twist(self.r_six, self.f, 2)), 2, 3)
            problems += O.check_dimension(
                "intertwine", rep["outputs"]["dimension"],
                O.commutant_dimension("six_vertex", 2, 3))
            problems += O.check_commutation("intertwine", rows, left, right)
            problems += O.check_independent("intertwine", rows)
            coeffs = [Fraction(c) for c in rep["outputs"].get("certificate", {}).get(
                "coefficients", [])]
            if not rep["verdict"] or not coeffs or O.det_mod_p(O.combination(coeffs, rows), 8) == 0:
                problems.append("intertwine: no valid invertible certificate")
        if "omega" in reports:
            f = O.sparse(jordanian_f_rows(self.xi))
            omega = O.identity(16)
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    omega = O.matmul(omega, O.embed(f, 2, (i, j), 4))
            problems += O.check_equal(
                "omega", O.sparse_from_obj(reports["omega"]["outputs"]["operator"]), omega)
        names = reports.get("catalog_list", {}).get("outputs", {}).get("names", CATALOG_NAMES)
        if names != CATALOG_NAMES:
            problems.append("catalog_list: unexpected names")
        if "catalog_get" in reports:
            problems += O.check_equal(
                "catalog_get", O.sparse_from_obj(reports["catalog_get"]["outputs"]["entry"]["r"]),
                q_six)
        return problems


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (Commutant, Fusion, Twist, Cli)}
