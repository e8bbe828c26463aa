"""Exact elimination over plain integer rows: every pass the package runs.

A sparse row is a dict column -> nonzero int; a stored row is a tuple of
(column, value) pairs, columns ascending, as ``Operator.entries`` holds
them.  Nothing here knows of operators, so any layer can eliminate rows
without importing one.

* ``_eliminate``: online fraction-free forward elimination of sparse
  rows, content-stripped, pivoting at each row's lowest column.  Ranks,
  sparse solves and inverses, and every null space start here.
* ``_back_substitute``: one reduced echelon pass over its pivots, still
  in content-free integers.  ``_echelon_kernel`` reads the null space of
  sparse rows off that form, one vector per free column.
* ``_tagged``: the same passes on rows that each carry an identity tag
  column, so every pivot row comes with the combination of input rows
  behind it, and every row spanned by earlier ones with its relation.
* ``_bareiss``: one dense forward Bareiss pass (Bareiss 1968) on stored
  rows packed one per int, column j in an s-bit slot, s = the bit length
  of Hadamard's bound on the rows plus a sign bit, which every value kept
  fits.  Dense solves, inverses and every determinant take it.
* ``_full_rank_mod_p``: dense forward elimination modulo ``_PRIME``, with
  an exact witness for each verdict it gives.
"""

from __future__ import annotations

import math


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer row by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _normalised(row: dict[int, int]) -> dict[int, int]:
    """`_primitive` of a nonzero sparse integer row, signed so its lowest column is positive."""
    row = _primitive(row)
    return {j: -v for j, v in row.items()} if row[min(row)] < 0 else row


#: Bits of row scaling that `_eliminate` lets a row gather before it strips
#: the row's content; measured on inverses and on dense certificate ranks.
_STRIP_BITS = 256


def _eliminate(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Online fraction-free forward elimination of sparse integer rows.

    Returns pivot column -> content-free row whose lowest column is the
    pivot.  Every row operation is p*row - a*pivot_row with p and a divided
    by their gcd, so no inexact division can occur.  A row's content is
    stripped when it becomes a pivot row, and before that only once the
    factors |p| it was scaled by pass ``_STRIP_BITS`` bits: stripping
    divides by a positive factor, so the pivot rows do not depend on when
    it happens, only the size of the integers on the way does.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        grown = 0
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = _primitive(row)
                break
            p, a = piv[c], row[c]
            g = math.gcd(p, a)
            if g > 1:
                p, a = p // g, a // g
            new: dict[int, int] = {}
            for j, v in row.items():
                w = p * v - a * piv.get(j, 0)
                if w:
                    new[j] = w
            for j, v in piv.items():
                if j not in row:
                    new[j] = -a * v
            grown += abs(p).bit_length() - 1
            if grown > _STRIP_BITS and new:
                new, grown = _primitive(new), 0
            row = new
    return pivots


def _back_substitute(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reduced echelon form of `_eliminate` output, still content-free integers.

    Each returned row keeps its pivot and has a zero in every other pivot
    column; its remaining entries lie in non-pivot columns.
    """
    reduced: dict[int, dict[int, int]] = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        hits = [j for j in row if j != c and j in pivots]
        if hits:
            lcm = math.lcm(*(reduced[j][j] for j in hits))
            new = {j: v * lcm for j, v in row.items() if j == c or j not in pivots}
            for j in hits:
                red = reduced[j]
                f = row[j] * (lcm // red[j])
                for k, w in red.items():
                    if k != j:
                        new[k] = new.get(k, 0) - f * w
            row = _primitive({k: v for k, v in new.items() if v})
        reduced[c] = row
    return reduced


def _echelon_kernel(rows: list[dict[int, int]], columns) -> list[dict[int, int]]:
    """Kernel of integer rows over `columns` (ascending): one vector per free column.

    Each vector has its last nonzero at its free column and a zero in
    every other free column; entries are integers, not yet content-free.
    """
    reduced = _back_substitute(_eliminate(sorted(rows, key=len)))
    # a reduced row reads p x_c + sum(v x_f) = 0 over free columns f
    free_cols: dict[int, list[tuple[int, int, int]]] = {}
    for c, row in reduced.items():
        p = row[c]
        for f, v in row.items():
            if f != c:
                free_cols.setdefault(f, []).append((c, v, p))
    vectors = []
    for f in columns:
        if f in reduced:
            continue
        terms = free_cols.get(f, ())
        scale = math.lcm(*(p // math.gcd(p, v) for _, v, p in terms))
        vec = {f: scale}
        for c, v, p in terms:
            vec[c] = -v * scale // p
        vectors.append(vec)
    return vectors


def _tagged(rows: list[dict[int, int]], width: int, reduce: bool = False):
    """`_eliminate` of rows over columns 0..width-1, each tagged to record its combination.

    Row i, fed in the given order, carries a 1 in tag column width + n - i
    (n rows): the tags sit past every column and count down in feed order,
    so a row's own tag is the lowest one it carries.  With `reduce` the
    pivots then take `_back_substitute`.  Returns ``(pivots, relations)``:
    ``pivots`` maps a pivot column c < width to ``(r, w)``, r the pivot
    row's entries in the columns and ``r == sum(w[i] * rows[i])``; a row
    that reduces to tags alone is spanned by the rows before it, and
    ``relations`` maps it to ``w`` with ``w[i] != 0`` and ``sum(w[j] *
    rows[j]) == 0`` over itself and earlier rows.
    """
    top = width + len(rows)
    eliminated = _eliminate([row | {top - i: 1} for i, row in enumerate(rows)])
    if reduce:
        eliminated = _back_substitute(eliminated)
    pivots, relations = {}, {}
    for c, row in eliminated.items():
        w = {top - j: x for j, x in row.items() if j >= width}
        if c < width:
            pivots[c] = ({j: x for j, x in row.items() if j < width}, w)
        else:
            relations[top - c] = w
    return pivots, relations


def _bareiss(rows) -> tuple[int, list[int], list[int], int]:
    """Fraction-free forward elimination of integer rows packed one per int.

    Row i ((column, value) pairs) becomes sum_j v_ij 2^(s j), s = `slot`
    the bit length of Hadamard's bound on the rows (a zero row counting 1)
    plus a sign bit.  Step k sets each row x below row k to (p_k x - f
    row_k) // p_{k-1}, p_k and f read off slot 0, which is then shifted
    off: exact, as every slot divides, and every slot a minor, within the
    bound.  Rows swap on a zero slot 0; row k keeps its entries from the
    diagonal on.  Returns the sign of the swaps (0 once a column has no
    pivot), the divisors [1, p_0, ...], the rows and `slot`.
    """
    slot = math.isqrt(math.prod([sum([v * v for _, v in row]) or 1 for row in rows]))
    slot = slot.bit_length() + 1
    mask, half, side, sign, pivots = (1 << slot) - 1, 1 << (slot - 1), len(rows), 1, [1]
    rows = [sum([v << slot * j for j, v in row]) for row in rows]
    for k in range(side):
        if not rows[k] & mask:
            i = next((i for i in range(k + 1, side) if rows[i] & mask), None)
            if i is None:
                return 0, pivots, rows, slot
            rows[k], rows[i], sign = rows[i], rows[k], -sign
        top, prev = rows[k], pivots[-1]
        p = ((top + half) & mask) - half
        for i, x in enumerate(rows[k + 1:], k + 1):
            f = ((x + half) & mask) - half
            rows[i] = ((p * x - f * top) >> slot) // prev
        pivots.append(p)
    return sign, pivots, rows, slot


#: The prime of `_full_rank_mod_p`.  It lies below 2**30, so a product of
#: two residues stays under 2**60: two 30-bit digits of a CPython int.
_PRIME = 1_000_000_007


def _full_rank_mod_p(rows) -> bool | None:
    """Whether square stored integer rows are independent, decided mod `_PRIME`.

    Forward elimination modulo p reduces each row on its tail only (the
    columns from the pivot on).  Rows independent mod p are independent
    over Q, so a pivot in every column proves True.  At the first column c
    without a pivot, the echelon rows give a kernel vector mod p that is 1
    at c and 0 past it; lifted to symmetric residues, it proves False when
    the exact rows annihilate it.  Otherwise the answer is None, and only
    an exact rank decides.
    """
    p, side = _PRIME, len(rows)
    rest = [[0] * side for _ in rows]
    for row, nonzero in zip(rest, rows):
        for j, v in nonzero:
            row[j] = v % p
    tails = []  # tails[c]: the pivot row of column c from c on, pivot 1
    for c in range(side):
        k = next((i for i, row in enumerate(rest) if row[c]), None)
        if k is None:
            break
        row = rest.pop(k)
        inv = pow(row[c], -1, p)
        tail = [v * inv % p for v in row[c:]]
        tails.append(tail)
        for row in rest:
            f = row[c]
            if f:
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
    else:
        return True
    # every column before c has a pivot, and no remaining row is nonzero
    # at c or before: back substitution from v[c] = 1 solves all rows mod p
    v = [0] * c + [1]
    for i in range(c - 1, -1, -1):
        v[i] = -sum(a * b for a, b in zip(tails[i][1:], v[i + 1 :])) % p
    half = p // 2
    v = [a - p if a > half else a for a in v]
    annihilated = all(sum(val * v[j] for j, val in nonzero if j <= c) == 0 for nonzero in rows)
    return False if annihilated else None
