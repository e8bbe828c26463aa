"""Correctness oracles for the benchmark, written apart from the program.

Every check here works on plain data: an operator is its tuple of rows
(``Fraction`` entries), turned into a sparse ``{(row, col): value}`` dict.
Nothing in this module calls ``ybt``; the products, inverses, ranks and
determinants are computed with the module's own code so that a fault in
the program cannot hide itself by agreeing with its own helpers.

Each ``check_*`` function returns a list of problems; an empty list means
the answer passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

#: Prime for modular rank and determinant checks.  A non-zero residue
#: proves the rational value is non-zero.
PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# sparse exact operators
# ---------------------------------------------------------------------------


def sparse(rows) -> dict:
    """Nonzero entries of a dense row tuple as {(row, col): Fraction}."""
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}


def dense(mat: dict, side: int) -> tuple:
    out = [[Fraction(0)] * side for _ in range(side)]
    for (i, j), v in mat.items():
        out[i][j] = v
    return tuple(tuple(r) for r in out)


def matmul(a: dict, b: dict) -> dict:
    by_row: dict = {}
    for (k, j), v in b.items():
        by_row.setdefault(k, []).append((j, v))
    out: dict = {}
    for (i, k), v in a.items():
        for j, w in by_row.get(k, ()):
            key = (i, j)
            out[key] = out.get(key, 0) + v * w
    return {k: v for k, v in out.items() if v}


def add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
    return {k: v for k, v in out.items() if v}


def identity(side: int) -> dict:
    return {(i, i): Fraction(1) for i in range(side)}


def digits(idx: int, d: int, n: int) -> tuple:
    return tuple((idx // d ** (n - 1 - k)) % d for k in range(n))


def _number(digits, d: int) -> int:
    out = 0
    for x in digits:
        out = out * d + x
    return out


def embed(mat: dict, d: int, slots, n: int) -> dict:
    """Place a k-leg operator on legs `slots` (1-based) of n legs, identity elsewhere."""
    k = len(slots)
    rest = [s for s in range(1, n + 1) if s not in slots]
    out = {}
    for (a, b), v in mat.items():
        da, db = digits(a, d, k), digits(b, d, k)
        for fill in product(range(d), repeat=len(rest)):
            row, col = [0] * n, [0] * n
            for s, x, y in zip(slots, da, db):
                row[s - 1], col[s - 1] = x, y
            for s, x in zip(rest, fill):
                row[s - 1] = col[s - 1] = x
            out[(_number(row, d), _number(col, d))] = v
    return out


def braid(r: dict, d: int) -> dict:
    """P R for a two-leg R: row (a, b) of the product is row (b, a) of R."""
    return {((i % d) * d + i // d, j): v for (i, j), v in r.items()}


def braids(r: dict, d: int, n: int) -> list:
    b = braid(r, d)
    return [embed(b, d, (i, i + 1), n) for i in range(1, n)]


def fuse(r: dict, d: int, m: int, n: int) -> dict:
    """R^{m,n} = prod_i prod_{j = n..1} R_{i, m+j}, the fused block."""
    total = m + n
    out = identity(d**total)
    for i in range(1, m + 1):
        for j in range(n, 0, -1):
            out = matmul(out, embed(r, d, (i, m + j), total))
    return out


def block_swap(d: int, m: int, n: int) -> dict:
    """The permutation sending y (n legs) (x) x (m legs) to x (x) y.

    This is the fused block of the swap P: on m = 1, n = 2 the product
    P_13 P_12 sends v1 (x) v2 (x) v3 to v3 (x) v1 (x) v2.  For m = n the
    matrix is symmetric.
    """
    out = {}
    for a in range(d**m):
        for b in range(d**n):
            out[(a * d**n + b, b * d**m + a)] = Fraction(1)
    return out


def invert(rows) -> tuple:
    """Exact inverse by plain Gauss-Jordan over Fractions; None if singular."""
    side = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(side)]
         for i, row in enumerate(rows)]
    for c in range(side):
        piv = next((r for r in range(c, side) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [v / p for v in m[c]]
        for r in range(side):
            if r != c and m[r][c]:
                a = m[r][c]
                m[r] = [x - a * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[side:]) for row in m)


def twist(r_rows, f_rows, d: int) -> tuple:
    """F21^-1 R F, with F21[(a,b),(c,e)] = F[(b,a),(e,c)]."""
    side = d * d
    sw = [(i % d) * d + i // d for i in range(side)]
    f21 = [[f_rows[sw[i]][sw[j]] for j in range(side)] for i in range(side)]
    inv = invert(f21)
    prod_ = matmul(matmul(sparse(inv), sparse(r_rows)), sparse(f_rows))
    return dense(prod_, side)


# ---------------------------------------------------------------------------
# arithmetic modulo a prime
# ---------------------------------------------------------------------------


def mod_p(v: Fraction) -> int:
    if v.denominator % PRIME == 0:
        raise ValueError(f"denominator of {v} vanishes mod p")
    return v.numerator * pow(v.denominator, -1, PRIME) % PRIME


def rank_mod_p(vectors) -> int:
    """Rank over GF(p) of sparse {key: Fraction} vectors."""
    pivots: dict = {}
    rank = 0
    for vec in vectors:
        row = {k: mod_p(v) for k, v in vec.items()}
        row = {k: v for k, v in row.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, PRIME)
                pivots[c] = {k: v * inv % PRIME for k, v in row.items()}
                rank += 1
                break
            a = row[c]
            for k, v in piv.items():
                w = (row.get(k, 0) - a * v) % PRIME
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    return rank


def det_mod_p(mat: dict, side: int) -> int:
    m = [[0] * side for _ in range(side)]
    for (i, j), v in mat.items():
        m[i][j] = mod_p(v)
    det = 1
    for c in range(side):
        piv = next((r for r in range(c, side) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        p = m[c][c]
        det = det * p % PRIME
        inv = pow(p, -1, PRIME)
        for r in range(c + 1, side):
            a = m[r][c] * inv % PRIME
            if a:
                m[r] = [(x - a * y) % PRIME for x, y in zip(m[r], m[c])]
    return det % PRIME


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def commutant_dimension(kind: str, d: int, n: int) -> int:
    """Closed forms: C(n + d^2 - 1, n) for identity(d) and generic-q six_vertex
    (d = 2), d^(2n) for swap(d), whose braid matrix is the identity."""
    if kind in ("identity", "six_vertex"):
        return math.comb(n + d * d - 1, n)
    if kind == "swap":
        return d ** (2 * n)
    raise ValueError(kind)


def check_dimension(label: str, got: int, expected: int) -> list:
    if got != expected:
        return [f"{label}: dimension {got}, closed form gives {expected}"]
    return []


def check_commutation(label: str, basis: list, left: list, right: list) -> list:
    """Every sparse basis element Z must satisfy B_i Z = Z Bt_i for each braid pair."""
    for k, z in enumerate(basis):
        for i, (bl, br) in enumerate(zip(left, right)):
            if matmul(bl, z) != matmul(z, br):
                return [f"{label}: basis element {k} fails braid {i + 1}"]
    return []


def check_independent(label: str, basis: list) -> list:
    rank = rank_mod_p(basis)
    if rank != len(basis):
        return [f"{label}: rank {rank} mod p below the dimension {len(basis)}"]
    return []


def combination(coefficients, basis: list) -> dict:
    out: dict = {}
    for c, z in zip(coefficients, basis):
        if c:
            out = add(out, z, c)
    return out


def check_membership(label: str, coefficients, basis: list, target: dict) -> list:
    if coefficients is None:
        return [f"{label}: a member was reported outside the span"]
    if len(coefficients) != len(basis):
        return [f"{label}: {len(coefficients)} coefficients for {len(basis)} elements"]
    if combination(coefficients, basis) != target:
        return [f"{label}: coefficients do not reconstruct the target"]
    return []


def check_non_member(label: str, answer, target: dict, braid_list) -> list:
    if answer is not None:
        return [f"{label}: a non-member was given coefficients"]
    if all(matmul(b, target) == matmul(target, b) for b in braid_list):
        return [f"{label}: the non-member commutes with every braid"]
    return []


def check_certificate(label: str, coefficients, combo: dict, side: int, basis: list) -> list:
    """The stated combination of the basis, with a determinant non-zero mod p."""
    if coefficients is None:
        return [f"{label}: no certificate found"]
    if combination(coefficients, basis) != combo:
        return [f"{label}: certificate is not the stated combination"]
    if det_mod_p(combo, side) == 0:
        return [f"{label}: certificate determinant vanishes mod p"]
    return []


def check_equal(label: str, got: dict, expected: dict) -> list:
    if got != expected:
        return [f"{label}: operator differs from the independent computation"]
    return []


def check_zero(label: str, value) -> list:
    return [] if value == 0 else [f"{label}: residual {value} should be exactly zero"]


def check_nonzero(label: str, value) -> list:
    return [f"{label}: negative control gave a zero residual"] if value == 0 else []


# ---------------------------------------------------------------------------
# the subset of JSON Schema that report.schema.json uses
# ---------------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "number": (int, float),
}


def _type_ok(value, name: str) -> bool:
    if name == "number" and isinstance(value, bool):
        return False
    return isinstance(value, _TYPES[name])


def schema_problems(value, schema: dict, where: str = "$") -> list:
    """Validate type, required, properties, additionalProperties and items."""
    kinds = schema.get("type")
    if kinds is not None:
        names = [kinds] if isinstance(kinds, str) else kinds
        if not any(_type_ok(value, k) for k in names):
            return [f"{where}: expected {kinds}, got {type(value).__name__}"]
    out = []
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                out.append(f"{where}: missing {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                out += schema_problems(item, props[key], f"{where}.{key}")
            elif extra is False:
                out.append(f"{where}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                out += schema_problems(item, extra, f"{where}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            out += schema_problems(item, schema["items"], f"{where}[{i}]")
    return out


def sparse_from_obj(obj: dict) -> dict:
    """Nonzero entries of a rational operator object as written by the CLI."""
    return {(i, j): Fraction(v) for i, row in enumerate(obj["rows"])
            for j, v in enumerate(row) if v != "0"}
