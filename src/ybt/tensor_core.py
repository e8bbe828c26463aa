"""Exact sparse operators on tensor powers of one site space.

An :class:`Operator` is a square matrix acting on V x ... x V (``legs``
factors, each of dimension ``site_dim``), indexed row-major over the
lexicographic multi-index basis (i1..in), leftmost index slowest.  Only
nonzero entries are stored: each row is a tuple of (column, value) pairs
in column order, and entry (i, j) is value / ``den`` for one common
denominator ``den``.

Two scalar backends exist.  ``rational`` is the reference semantics: the
values are ints over one positive denominator that shares no factor with
all of them, so the stored form of a matrix is unique, and residuals of
identities that hold are exactly zero.  ``complex64`` keeps
double-precision complex values over ``den = 1`` for user-supplied numeric
matrices and is judged against a tolerance (default 1e-9).  Both backends
run through the same sparse kernels, and they never mix silently.
``Operator.rows`` is the dense view (``Fraction`` or ``complex`` entries),
built on first access and cached.

An identity made by ``identity`` stores no rows: ``entries`` builds them
on first read, so equality, hashing, ``rows`` and the file form see the
same tuple as for any other operator.  A rational identity is marked
where it is made, by ``identity``, by the constructor or by the file
reader, and the kernels pass it through unread after their usual checks.
Products and solves with it return the other operand; ``embed`` of it is
the identity on the target legs; ``kron`` with it returns ``embed`` of
the other factor (or the factor itself, for a 0-leg unit); and
``residual`` of two units, or of an operator with itself, is an exact
zero.

One function, ``_times``, holds the row rule of ``@``.  ``residual``
also takes a tuple of operators on either side, read as their product:
on the rational backend it multiplies each side out by that rule and
compares the unsorted rows in the loop that compares two operators, so a
check pays for the arithmetic of the products but not for their stored
form.

Exact linear algebra on the rational backend runs the integer passes of
``exact`` on the stored rows.  Ranks take ``_eliminate``.  Solves ``a^-1
b`` and inverses take ``_eliminate`` and ``_back_substitute`` on the rows
of [A | B], or, when `a` is at least a quarter full (the row rule of
``@``, applied to the whole matrix), the packed ``_bareiss`` pass and back
substitution on its packed rows.  Both routes give the same stored form.
Determinants take ``_bareiss``, signed by its swaps.

Subscript convention, pinned once for the whole package: the operator
X_{s1 s2 ...} places tensor factor k on leg s_k; as a matrix this is
P_sigma X P_sigma^-1 with P_sigma the leg-permutation matrix.  One
helper, ``_placement``, turns legs into row-major indices, once per
process for each placement: ``embed`` reads it, ``leg_permute`` is
``embed`` onto all legs, and the solver's shifted rows read the same maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import attrgetter, is_, matmul, mul

from .errors import BackendMismatchError, ShapeMismatchError, SingularOperatorError
from .exact import _back_substitute, _bareiss, _eliminate

RATIONAL = "rational"
COMPLEX64 = "complex64"
BACKENDS = (RATIONAL, COMPLEX64)

#: Verdict tolerance for the complex backend; rational verdicts are exact.
DEFAULT_TOLERANCE = 1e-9

Scalar = Fraction | complex
#: A stored row: (column, value) pairs of the nonzero entries, columns ascending.
Row = tuple[tuple[int, int | complex], ...]

# stored values: int numerators (rational) or complex numbers
_VALUE_ZERO = {RATIONAL: 0, COMPLEX64: 0j}
_VALUE_ONE = {RATIONAL: 1, COMPLEX64: 1 + 0j}


@cache
def _zero_row(backend: str, side: int) -> tuple[Scalar, ...]:
    """The dense all-zero row, shared by every dense view of that side."""
    return (Fraction(0) if backend == RATIONAL else complex(0),) * side


def as_scalar(value, backend: str) -> Scalar:
    """Coerce a plain number to the given backend, rejecting cross-backend mixes."""
    if backend == RATIONAL:
        if isinstance(value, (Fraction, int)):
            return Fraction(value)
        raise BackendMismatchError(
            f"rational backend cannot absorb {type(value).__name__} values"
        )
    if backend == COMPLEX64:
        if isinstance(value, Fraction):
            raise BackendMismatchError("complex64 backend cannot absorb Fraction values")
        if isinstance(value, (int, float, complex)):
            return complex(value)
        raise BackendMismatchError(
            f"complex64 backend cannot absorb {type(value).__name__} values"
        )
    raise BackendMismatchError(f"unknown backend {backend!r}")


def _check_space(site_dim: int, legs: int, backend: str):
    if site_dim < 1:
        raise ShapeMismatchError(f"site_dim must be positive, got {site_dim}")
    if legs < 0:
        raise ShapeMismatchError(f"legs must be non-negative, got {legs}")
    if backend not in BACKENDS:
        raise BackendMismatchError(f"unknown backend {backend!r}")


class Record:
    """Immutable value whose fields are its class annotations, in order.

    Fields are passed positionally or by keyword; a field with a class-level
    value has that value as its default.  A ``cached_property`` named after
    a field is not a default: the constructor still requires the field, and
    the property computes it, once, for an instance made without the
    constructor from other state (as the solvers make a ``SubspaceBasis``
    from its kernel vectors).  After the fields are set,
    ``__post_init__`` runs.  Equality and hashing compare the fields as one
    tuple, between instances of the same class, and ``repr`` shows them as
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    ``AttributeError``; ``functools.cached_property`` still caches, since it
    writes the instance dict directly.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        given = cls.__dict__
        cls._defaults = {
            name: given[name] for name in cls._fields
            if name in given and not isinstance(given[name], cached_property)
        }
        # not a method: called as self._values(self), it returns the field values
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = vars(self)
        values.update(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated field {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name}() missing field {key!r}")
                values[key] = self._defaults[key]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Operator(Record):
    """Square matrix on ``legs`` tensor factors of dimension ``site_dim``.

    ``entries[i]`` holds the nonzero entries of row i as (column, value)
    pairs in column order, and entry (i, j) equals value / ``den``.  On the
    rational backend the values are ints and ``den`` is the smallest
    positive common denominator; on the complex backend the values are
    complex and ``den`` is 1.  The stored form is unique, so equality and
    hashing compare it field by field.  The constructor takes dense rows,
    which ``rows`` gives back.

    ``legs = 0`` denotes a pure scalar (a 1x1 matrix); the unit of the
    0-leg space is ``identity(site_dim, 0)``.  Instances are immutable and
    safe to share between threads; all operations are pure functions.
    """

    site_dim: int
    legs: int
    backend: str
    den: int
    entries: tuple[Row, ...]

    # not a field: true for a rational identity made by ``identity``, the
    # constructor or the file reader, which the kernels pass through unread
    _unit = False

    def __init__(self, site_dim: int, legs: int, backend: str, rows):
        """Build from dense rows, coercing every entry to the backend's scalar type."""
        _check_space(site_dim, legs, backend)
        side = site_dim**legs
        rows = [tuple(row) for row in rows]
        if len(rows) != side or any(len(r) != side for r in rows):
            raise ShapeMismatchError(
                f"entries must form a {side}x{side} matrix for "
                f"site_dim={site_dim}, legs={legs}"
            )
        if backend == RATIONAL:
            nonzero = []
            for row in rows:
                nz = []
                for j, v in enumerate(row):
                    if type(v) is not Fraction and type(v) is not int:
                        v = as_scalar(v, backend)  # coerces, or rejects
                    n = v.numerator
                    if n:
                        nz.append((j, n, v.denominator))
                nonzero.append(nz)
            # over the lcm of reduced denominators no factor is common to all
            den = math.lcm(*(d for row in nonzero for _, _, d in row))
            entries = tuple(tuple((j, n * (den // d)) for j, n, d in row) for row in nonzero)
            _mark_unit(_fill(self, site_dim, legs, backend, den, entries))
        else:
            _fill(self, site_dim, legs, backend, 1, tuple(
                tuple((j, v) for j, v in enumerate(as_scalar(v, backend) for v in row) if v)
                for row in rows
            ))

    @cached_property
    def entries(self) -> tuple[Row, ...]:
        """The stored rows of an identity made by ``identity``, built on first read.

        Every other operator is made with its entries, which shadow this.
        """
        one = _VALUE_ONE[self.backend]
        return tuple(((i, one),) for i in range(self.side))

    @property
    def side(self) -> int:
        return self.site_dim**self.legs

    @cached_property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense rows of ``Fraction`` (or ``complex``) entries, built once.

        Zero rows of one side share one tuple, and equal rational entries
        of one operator share one ``Fraction``.
        """
        side, den = self.side, self.den
        exact = self.backend == RATIONAL
        zero_row = _zero_row(self.backend, side)
        zero = zero_row[0]
        fractions: dict[int, Fraction] = {}
        dense = []
        for row in self.entries:
            if not row:
                dense.append(zero_row)
                continue
            out = [zero] * side
            for j, v in row:
                if exact:
                    f = fractions.get(v)
                    if f is None:
                        f = fractions[v] = Fraction(v, den)
                    v = f
                out[j] = v
            dense.append(tuple(out))
        return tuple(dense)

    @classmethod
    def from_rows(cls, site_dim: int, legs: int, rows, backend: str = RATIONAL) -> Operator:
        """Build an operator from dense rows, coercing every entry to the backend."""
        return cls(site_dim, legs, backend, rows)

    def __repr__(self):  # full rows are huge; keep the repr scannable
        return (
            f"Operator(site_dim={self.site_dim}, legs={self.legs}, "
            f"backend={self.backend!r}, side={self.side})"
        )

    def __matmul__(self, other: Operator) -> Operator:
        _check_same_space(self, other)
        if self._unit:
            return other
        if other._unit:
            return self
        out = _times(self.entries, other.entries, _VALUE_ZERO[self.backend], stored=True)
        return _finish(self.site_dim, self.legs, self.backend, self.den * other.den, out)

    def __add__(self, other: Operator) -> Operator:
        return _combine(self, other, 1)

    def __sub__(self, other: Operator) -> Operator:
        return _combine(self, other, -1)

    def __rmul__(self, scalar) -> Operator:
        c = as_scalar(scalar, self.backend)
        if self.backend == RATIONAL:
            num, den = c.numerator, self.den * c.denominator
        else:
            num, den = c, 1
        if not num:
            return _make(self.site_dim, self.legs, self.backend, 1, ((),) * self.side)
        rows = [tuple([(j, num * v) for j, v in row]) for row in self.entries]
        return _finish(self.site_dim, self.legs, self.backend, den, rows)

    def __neg__(self) -> Operator:
        return (-1) * self


def _fill(op: Operator, site_dim: int, legs: int, backend: str, den: int, entries) -> Operator:
    # the fields of a frozen instance, set once at construction
    vars(op).update(site_dim=site_dim, legs=legs, backend=backend, den=den, entries=entries)
    return op


def _mark_unit(op: Operator) -> Operator:
    """Mark a rational `op` whose stored form is the identity's as a unit; returns `op`."""
    if op.den == 1 and all(row == ((i, 1),) for i, row in enumerate(op.entries)):
        vars(op)["_unit"] = True
    return op


def _make(site_dim: int, legs: int, backend: str, den: int, entries) -> Operator:
    """Wrap stored entries that are already in their unique form, unchecked."""
    return _fill(object.__new__(Operator), site_dim, legs, backend, den, entries)


def _finish(site_dim: int, legs: int, backend: str, den: int, rows) -> Operator:
    """Bring kernel output to the unique stored form and wrap it.

    Rational: divide ``den`` and every value by their common factor.
    Complex: drop values that rounded to zero and add ``0j`` to the rest,
    which turns a signed zero part into +0.0 exactly as a dense sum that
    starts from ``0j`` would.
    """
    if backend == RATIONAL:
        g = den
        for row in rows:
            if g == 1:
                break
            if row:
                g = math.gcd(g, *[v for _, v in row])
        if g != 1:
            den //= g
            rows = [tuple([(j, v // g) for j, v in row]) for row in rows]
        return _make(site_dim, legs, backend, den, tuple(rows))
    return _make(site_dim, legs, backend, 1, tuple(
        tuple([(j, v + 0j) for j, v in row if v]) for row in rows
    ))


def _check_same_space(a: Operator, b: Operator):
    if a.backend != b.backend:
        raise BackendMismatchError(f"backend mismatch: {a.backend} vs {b.backend}")
    if a.site_dim != b.site_dim or a.legs != b.legs:
        raise ShapeMismatchError(
            f"operator spaces differ: (site_dim={a.site_dim}, legs={a.legs}) vs "
            f"(site_dim={b.site_dim}, legs={b.legs})"
        )


def _combine(a: Operator, b: Operator, sign: int) -> Operator:
    """a + sign * b, merged row by row over the common denominator."""
    _check_same_space(a, b)
    den = math.lcm(a.den, b.den)
    sa, sb = den // a.den, sign * (den // b.den)
    zero = _VALUE_ZERO[a.backend]
    rows = []
    for ra, rb in zip(a.entries, b.entries):
        acc = dict(ra) if sa == 1 else {j: sa * v for j, v in ra}
        for j, v in rb:
            acc[j] = acc.get(j, zero) + sb * v
        rows.append(tuple(sorted(kv for kv in acc.items() if kv[1])))
    return _finish(a.site_dim, a.legs, a.backend, den, rows)


def _to_flat(op: Operator) -> dict[int, int | complex]:
    """Stored values of `op` by row-major index: entry (i, j) is flat[i * side + j] / den."""
    side = op.side
    return {i * side + j: v for i, row in enumerate(op.entries) for j, v in row}


def _from_flat(site_dim: int, legs: int, den: int, flat: dict[int, int]) -> Operator:
    """Rational operator with entry flat[i * side + j] / den at (i, j)."""
    side = site_dim**legs
    rows: list[list] = [[] for _ in range(side)]
    for idx in sorted(flat):
        v = flat[idx]
        if v:
            i, j = divmod(idx, side)
            rows[i].append((j, v))
    return _finish(site_dim, legs, RATIONAL, den, [tuple(row) for row in rows])


def identity(site_dim: int, legs: int, backend: str = RATIONAL) -> Operator:
    """Identity on ``legs`` factors; ``legs = 0`` gives the scalar unit.

    Costs O(1): its stored rows are built the first time ``entries`` is
    read, and a rational identity is marked as a unit, which the kernels
    pass through without reading them.
    """
    _check_space(site_dim, legs, backend)
    op = object.__new__(Operator)
    vars(op).update(site_dim=site_dim, legs=legs, backend=backend, den=1)
    if backend == RATIONAL:  # complex products keep their signed-zero normalisation
        vars(op)["_unit"] = True
    return op


def swap(site_dim: int, backend: str = RATIONAL) -> Operator:
    """The two-leg permutation operator P: P(v x w) = w x v."""
    _check_space(site_dim, 2, backend)
    one = _VALUE_ONE[backend]
    return _make(site_dim, 2, backend, 1, tuple(
        ((j * site_dim + i, one),) for i in range(site_dim) for j in range(site_dim)
    ))


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product in leg order: `a` occupies the leading legs.

    With one rational unit factor this is ``embed`` of the other factor,
    ``a ⊗ I_n = embed(a, 1..m, m+n)`` and ``I_m ⊗ b = embed(b, m+1..m+n,
    m+n)``, so the unit's rows are not read; a 0-leg unit gives the other
    factor back, and two units give the identity.
    """
    if a.backend != b.backend:
        raise BackendMismatchError(f"backend mismatch: {a.backend} vs {b.backend}")
    if a.site_dim != b.site_dim:
        raise ShapeMismatchError(f"site_dim mismatch: {a.site_dim} vs {b.site_dim}")
    m, n = a.legs, b.legs
    if a._unit and not m:
        return b
    if b._unit and not n:
        return a
    if a._unit and b._unit:
        return identity(a.site_dim, m + n)
    if a._unit:
        return embed(b, range(m + 1, m + n + 1), m + n)
    if b._unit:
        return embed(a, range(1, m + 1), m + n)
    db = b.side
    rows = [
        tuple([(j * db + l, v * w) for j, v in arow for l, w in brow])
        for arow in a.entries
        for brow in b.entries
    ]
    return _finish(a.site_dim, m + n, a.backend, a.den * b.den, rows)


_PLACEMENTS: dict = {}  # (site_dim, slots, total_legs) -> the maps of `_placement`


def _placement(site_dim: int, slots, total_legs: int) -> tuple[list[int], list[int]]:
    """The row-major index maps behind every leg placement, built in one place.

    Leg s has place value ``site_dim**(total_legs - s)``.  ``pos[a]`` is
    where index a of the slotted legs lands (factor t on ``slots[t]``) with
    every other leg at 0, and ``rest`` lists the offsets of every setting
    of the other legs, first leg slowest.  Both grow one leg at a time,
    once per process for each (site_dim, slots, total_legs): the maps are
    memoized and shared by every caller, so treat them as read-only.
    """
    slots = tuple(slots)
    key = (site_dim, slots, total_legs)
    if key not in _PLACEMENTS:
        maps = []
        for legs in (slots, [s for s in range(1, total_legs + 1) if s not in slots]):
            offsets = [0]
            for s in legs:
                step = site_dim ** (total_legs - s)
                offsets = [o + k for o in offsets for k in range(0, site_dim * step, step)]
            maps.append(offsets)
        _PLACEMENTS[key] = maps[0], maps[1]
    return _PLACEMENTS[key]


def leg_permute(x: Operator, sigma) -> Operator:
    """Move tensor factor k of `x` to leg sigma[k] (1-based images).

    On a simple tensor a1 ⊗ ... ⊗ an the result carries a_k on leg
    sigma(k); as a matrix it is P_sigma x P_sigma^-1.  This is ``embed``
    onto all of x's legs, so a `sigma` that is not a permutation of
    1..legs raises embed's :class:`ShapeMismatchError`.
    """
    return embed(x, sigma, x.legs)


def embed(x: Operator, slots, total_legs: int) -> Operator:
    """Let `x` act on the named legs (factor t on slots[t]), identity elsewhere.

    Equals P_sigma (x ⊗ 1) P_sigma^-1 for the sigma sending the leading
    legs to `slots` and filling the rest monotonically; with `slots` a
    permutation of all legs it is ``leg_permute``.  Costs one copy per
    stored entry of the result.  The first copy of each row of `x` is put
    in column order by a sort, which ascending `slots` skip: they place
    the columns of a row in the order they are stored.
    """
    slots = list(slots)
    if len(set(slots)) != len(slots):
        raise ShapeMismatchError(f"repeated slot in {slots}")
    if len(slots) != x.legs:
        raise ShapeMismatchError(f"{len(slots)} slots given for a {x.legs}-leg operator")
    if any(s < 1 or s > total_legs for s in slots):
        raise ShapeMismatchError(f"slot out of range 1..{total_legs} in {slots}")
    if x._unit:
        return identity(x.site_dim, total_legs)
    N = x.site_dim
    pos, rest = _placement(N, slots, total_legs)
    others = rest[1:]  # rest[0] is the offset 0
    ascending = slots == sorted(slots)  # then `pos` is increasing
    rows: list[Row] = [()] * N**total_legs
    for a, row in enumerate(x.entries):
        moved = [(pos[b], v) for b, v in row]
        if not ascending:
            moved.sort()
        moved = tuple(moved)
        base = pos[a]
        rows[base] = moved
        for off in others:
            rows[base + off] = tuple([(c + off, v) for c, v in moved])
    return _make(N, total_legs, x.backend, x.den, tuple(rows))


def _times(rows, right, zero, stored: bool = False) -> list:
    """The rows of ``rows @ right``: the row rule of ``@``, over all rows at once.

    `rows` are (column, value) pairs in any order, `right` the stored rows
    of the right factor, and `zero` the zero of their values.  A row with
    one entry gives a scaled copy of a row of `right` (that stored tuple
    itself when the coefficient is 1), a row at least a quarter full sums
    into a list read off in column order, and any other row sums into a
    dict.  With `stored` the dict is read off sorted, so stored `rows` give
    stored rows up to a common factor; else it comes as its ``items()``,
    unsorted.  Rows given with zero values may give zero values.
    """
    side = len(right)
    out = []
    for row in rows:
        n = len(row)
        if n == 1:
            (k, a), = row
            out.append(right[k] if a == 1 else tuple([(j, a * b) for j, b in right[k]]))
        elif not n:
            out.append(())
        elif n * 4 >= side:
            sums = [zero] * side
            for k, a in row:
                for j, b in right[k]:
                    sums[j] += a * b
            out.append(tuple([kv for kv in enumerate(sums) if kv[1]]))
        else:
            acc: dict = {}
            get = acc.get
            for k, a in row:
                for j, b in right[k]:
                    acc[j] = get(j, zero) + a * b
            out.append(tuple([kv for kv in sorted(acc.items()) if kv[1]]) if stored
                       else acc.items())
    return out


def residual(x, y):
    """Max absolute entry of x - y; exact Fraction on the rational backend.

    Rows are compared over the common denominator; a row stored equally in
    both (same denominator) is skipped.  When `x` is `y`, or both are
    rational units, the result is the zero of the backend, read from no row.

    Either side may be a tuple of operators, read as their product
    ``x[0] @ x[1] @ ...``; a mismatched factor raises what ``@`` raises.
    On the rational backend no product is stored: rational units are
    dropped, two chains of the same objects give zero at once, and
    otherwise each side is multiplied out by ``@``'s row rule over the
    product of its factors' ``den``, and its unsorted, unreduced rows go
    through the same comparison.  The value is the exact one of the built
    products.  On the complex backend each chain is multiplied out with
    ``@``, so the rounding is that of the products.
    """
    if type(x) is tuple or type(y) is tuple:
        xs, ys = (x if type(x) is tuple else (x,)), (y if type(y) is tuple else (y,))
        if not xs or not ys:
            raise ShapeMismatchError("an empty tuple names no operator product")
        for chain in (xs, ys):  # the checks, in the order `x0 @ x1 @ ...` makes them
            for op in chain[1:]:
                _check_same_space(chain[0], op)
        _check_same_space(xs[0], ys[0])
        if xs[0].backend != RATIONAL:
            return residual(reduce(matmul, xs), reduce(matmul, ys))
        unit = [identity(xs[0].site_dim, xs[0].legs)]
        xs = [op for op in xs if not op._unit] or unit
        ys = [op for op in ys if not op._unit] or unit
        if len(xs) == len(ys) and all(map(is_, xs, ys)):
            return Fraction(0)
        sides = []
        for chain in (xs, ys):
            rows = chain[0].entries
            for op in chain[1:]:
                rows = _times(rows, op.entries, 0)
            sides += [rows, math.prod([op.den for op in chain])]
        return _max_diff(*sides, RATIONAL)
    _check_same_space(x, y)
    if x is y or (x._unit and y._unit):
        return Fraction(0) if x.backend == RATIONAL else 0.0
    return _max_diff(x.entries, x.den, y.entries, y.den, x.backend)


def _max_diff(rows_x, den_x: int, rows_y, den_y: int, backend: str):
    """Max |x - y| for x = rows_x / den_x and y = rows_y / den_y, as ``residual`` returns it."""
    den = math.lcm(den_x, den_y)
    sx, sy = den // den_x, den // den_y
    zero = _VALUE_ZERO[backend]
    worst = 0
    for rx, ry in zip(rows_x, rows_y):
        if sx == sy and rx == ry:
            continue
        diff = dict(rx) if sx == 1 else {j: sx * v for j, v in rx}
        get = diff.get
        for j, w in ry:
            diff[j] = get(j, zero) - (w if sy == 1 else sy * w)
        worst = max(worst, max(map(abs, diff.values()), default=0))
    return Fraction(worst, den) if backend == RATIONAL else float(worst)


# ---------------------------------------------------------------------------
# ranks, solves, inverses and determinants over the passes of ``exact``
# ---------------------------------------------------------------------------


def _rank(x: Operator) -> int:
    """Exact rank of a rational operator: the pivots of its integer rows, sparsest first."""
    return len(_eliminate(sorted(map(dict, x.entries), key=len)))


def _is_dense(x: Operator) -> bool:
    """At least a quarter full: the row rule of ``@``, over the whole matrix.

    Measured on random invertible matrices (inverses), the packed dense
    solve overtakes the sparse one at 25-30% fill for side 8, 10-15% for
    16 and 27 and 5-10% for 64; a quarter is the crossover near side 8.
    """
    return sum(map(len, x.entries)) * 4 >= x.side**2


def _solve_dense(a: Operator, b: Operator) -> Operator:
    """a^-1 b by one packed Bareiss pass over [A | B] and packed back substitution.

    Row i of the pass is [U_i | C_i].  With d the last pivot, row i of X =
    d A^-1 B is (d C_i - sum_{j>i} U_ij X_j) // U_ii, solved bottom up; its
    slots are minors of [A | B], and only they and U are decoded.  Then
    a^-1 b = a.den X / (d b.den).
    """
    side = a.side
    sign, pivots, rows, slot = _bareiss([arow + tuple([(side + j, v) for j, v in brow])
                                         for arow, brow in zip(a.entries, b.entries)])
    if not sign:
        raise SingularOperatorError(side, _rank(a))
    mask, half, d = (1 << slot) - 1, 1 << (slot - 1), pivots[-1]
    bias = ((1 << slot * side) - 1) // mask * half  # no slot of x + bias borrows from the next
    solved = []  # packed rows of X, bottom up
    for i in reversed(range(side)):
        x, low = rows[i] + (bias >> slot * i), slot * (side - i)
        u = [((x >> t) & mask) - half for t in range(slot, low, slot)]
        solved.append((d * (x >> low) - sum(map(mul, u, reversed(solved)))) // pivots[i + 1])
    num, shifts = (a.den if d > 0 else -a.den), range(0, slot * side, slot)
    rows = [tuple([(j, num * v) for j, t in enumerate(shifts) if (v := ((x >> t) & mask) - half)])
            for x in map(bias.__add__, reversed(solved))]
    return _finish(a.site_dim, a.legs, RATIONAL, abs(d) * b.den, rows)


def _solve_sparse(a: Operator, b: Operator) -> Operator:
    """a^-1 b by `_eliminate` and `_back_substitute` of the sparse integer rows of [A | B]."""
    side = a.side
    pivots = _eliminate([dict(arow + tuple([(side + j, v) for j, v in brow]))
                         for arow, brow in zip(a.entries, b.entries)])
    rank = sum(1 for c in pivots if c < side)
    if rank < side:
        raise SingularOperatorError(side, rank)
    # reduced row i is [p_i e_i | C_i] with C_i / p_i row i of A^-1 B, and
    # a^-1 b = (a.den / b.den) A^-1 B: over b.den lcm(p), row i is
    # a.den (lcm(p) / p_i) C_i, and `_finish` strips the common factor
    reduced = _back_substitute(pivots)
    lcm = math.lcm(*(reduced[i][i] for i in range(side)))
    rows = []
    for i in range(side):
        f = a.den * (lcm // reduced[i][i])
        rows.append(tuple(sorted(
            (j - side, v * f) for j, v in reduced[i].items() if j >= side
        )))
    return _finish(a.site_dim, a.legs, RATIONAL, b.den * lcm, rows)


def _invert_complex(x: Operator) -> Operator:
    side = x.side
    m = [list(row) + [complex(int(i == j)) for j in range(side)]
         for i, row in enumerate(x.rows)]
    scale = max((abs(v) for row in x.rows for v in row), default=0.0)
    cutoff = scale * 1e-13
    for k in range(side):
        piv = max(range(k, side), key=lambda r: abs(m[r][k]))
        if abs(m[piv][k]) <= cutoff:
            raise SingularOperatorError(side, k)
        m[piv], m[k] = m[k], m[piv]
        p = m[k][k]
        m[k] = [v / p for v in m[k]]
        mk = m[k]
        for i in range(side):
            if i == k:
                continue
            a = m[i][k]
            if a:
                m[i] = [v - a * w for v, w in zip(m[i], mk)]
    rows = tuple(tuple(m[i][side:]) for i in range(side))
    return Operator(x.site_dim, x.legs, COMPLEX64, rows)


def solve(a: Operator, b: Operator) -> Operator:
    """a^-1 b, from one elimination of [A | B] without forming the inverse.

    On the rational backend the result is exact, and equal to
    ``invert(a) @ b``; on the complex backend it is that product.  A
    rational `a` at least a quarter full (the density rule of ``@``) takes
    the packed ``_bareiss`` pass of ``exact`` on the rows of [A | B]; a
    sparser one takes ``_eliminate`` and ``_back_substitute``.  Both give
    the same stored form.  Raises
    :class:`SingularOperatorError` carrying the rank of `a`.
    """
    _check_same_space(a, b)
    if a._unit:
        return b
    if a.backend == RATIONAL:
        return (_solve_dense if _is_dense(a) else _solve_sparse)(a, b)
    return _invert_complex(a) @ b


def invert(x: Operator) -> Operator:
    """Exact inverse (rational backend) or partial-pivot inverse (complex).

    On the rational backend this is ``solve(x, identity)``, and the product
    with `x` is exactly the identity.  Raises
    :class:`SingularOperatorError` carrying the rank found.
    """
    if x.backend == RATIONAL:
        return solve(x, identity(x.site_dim, x.legs))
    return _invert_complex(x)


def determinant(x: Operator):
    """Exact determinant (rational) or partial-pivot LU determinant (complex).

    On the rational backend the integer rows X = x.den * x take the packed
    ``_bareiss`` pass of ``exact``: det x = sign * last pivot / den^side.
    """
    side = x.side
    if x.backend == COMPLEX64:
        m = [list(row) for row in x.rows]
        det = complex(1)
        for k in range(side):
            piv = max(range(k, side), key=lambda r: abs(m[r][k]))
            if m[piv][k] == 0:
                return complex(0)
            if piv != k:
                m[piv], m[k] = m[k], m[piv]
                det = -det
            p = m[k][k]
            det *= p
            for i in range(k + 1, side):
                a = m[i][k] / p
                if a:
                    m[i] = [v - a * w for v, w in zip(m[i], m[k])]
        return det
    sign, pivots, _, _ = _bareiss(x.entries)
    return Fraction(sign * pivots[-1], x.den**side)
