"""Generalized quaternion algebras H(a,b) and octonion algebras O(a,b,c).

Elements carry their algebra and their coordinates in the field's lifted
form (see ``kpotent.fields``): a tuple of integers, or integer pairs over
Q(sqrt d), over one canonical denominator ``den``.  Equality and hashing
compare that storage; ``coords``, the coordinates as ``FieldElement``
values, is a read-only view built from it.  Multiplication is the bilinear
extension of the basis table stored as structure constants, so the same
kernel drives both dimensions: the unreduced left map of x, read off the
lifted table, is dotted with y row by row, and the product is reduced
once.  A Cayley-Dickson doubling product is provided as an independent
cross-check of the transcribed octonion table.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .fields import Field, FieldElement, ParseError


class AlgebraMismatchError(ValueError):
    """Elements of two different algebras were combined."""


def _quat_table(a: FieldElement, b: FieldElement):
    one = a.field.one
    ab = a * b
    # row i, column j holds (k, coeff) with  f_i * f_j = coeff * f_k
    return (
        ((0, one), (1, one), (2, one), (3, one)),
        ((1, one), (0, a), (3, one), (2, a)),          # f1*f1 = a,  f1*f3 = a f2
        ((2, one), (3, -one), (0, b), (1, -b)),        # f2*f1 = -f3, f2*f3 = -b f1
        ((3, one), (2, -a), (1, b), (0, -ab)),         # f3*f3 = -ab
    )


def _oct_table(a: FieldElement, b: FieldElement, c: FieldElement):
    one = a.field.one
    ab, ac, bc = a * b, a * c, b * c
    abc = ab * c
    return (
        ((0, one), (1, one), (2, one), (3, one), (4, one), (5, one), (6, one), (7, one)),
        # f1 row: f1*f1 = a, f1*f2 = f3, f1*f3 = a f2, f1*f4 = f5,
        #         f1*f5 = a f4, f1*f6 = -f7, f1*f7 = -a f6
        ((1, one), (0, a), (3, one), (2, a), (5, one), (4, a), (7, -one), (6, -a)),
        # f2 row: f2*f1 = -f3, f2*f2 = b, f2*f3 = -b f1, f2*f4 = f6,
        #         f2*f5 = f7, f2*f6 = b f4, f2*f7 = b f5
        ((2, one), (3, -one), (0, b), (1, -b), (6, one), (7, one), (4, b), (5, b)),
        # f3 row: f3*f1 = -a f2, f3*f2 = b f1, f3*f3 = -ab, f3*f4 = f7,
        #         f3*f5 = a f6, f3*f6 = -b f5, f3*f7 = -ab f4
        ((3, one), (2, -a), (1, b), (0, -ab), (7, one), (6, a), (5, -b), (4, -ab)),
        # f4 row: f4*f1 = -f5, f4*f2 = -f6, f4*f3 = -f7, f4*f4 = c,
        #         f4*f5 = -c f1, f4*f6 = -c f2, f4*f7 = -c f3
        ((4, one), (5, -one), (6, -one), (7, -one), (0, c), (1, -c), (2, -c), (3, -c)),
        # f5 row: f5*f1 = -a f4, f5*f2 = -f7, f5*f3 = -a f6, f5*f4 = c f1,
        #         f5*f5 = -ac, f5*f6 = c f3, f5*f7 = ac f2
        ((5, one), (4, -a), (7, -one), (6, -a), (1, c), (0, -ac), (3, c), (2, ac)),
        # f6 row: f6*f1 = f7, f6*f2 = -b f4, f6*f3 = b f5, f6*f4 = c f2,
        #         f6*f5 = -c f3, f6*f6 = -bc, f6*f7 = -bc f1
        ((6, one), (7, one), (4, -b), (5, b), (2, c), (3, -c), (0, -bc), (1, -bc)),
        # f7 row: f7*f1 = a f6, f7*f2 = -b f5, f7*f3 = ab f4, f7*f4 = c f3,
        #         f7*f5 = -ac f2, f7*f6 = bc f1, f7*f7 = abc
        ((7, one), (6, a), (5, -b), (4, ab), (3, c), (2, -ac), (1, bc), (0, abc)),
    )


@lru_cache(maxsize=None)
def _map_layout(targets):
    """Gathers that lay out the left and right maps of x, flat row by row.

    targets[i][j] is the k with f_i f_j = c_ij f_k.  The left map has
    x_i c_ij at (k, j) and the right map x_j c_ij at (k, i); for each map
    this returns one itemgetter of the x coordinates and one of the table
    entries (flat index i*n + j) behind its n^2 positions.  It depends only
    on the shape of the basis table, so it is built once per dimension.
    """
    n = len(targets)
    left, right = [None] * (n * n), [None] * (n * n)
    for i, row in enumerate(targets):
        for j, k in enumerate(row):
            left[k * n + j] = (i, i * n + j)
            right[k * n + i] = (j, i * n + j)
    return tuple(
        (itemgetter(*[src for src, _ in plan]), itemgetter(*[entry for _, entry in plan]))
        for plan in (left, right)
    )


class _TableAlgebra:
    """Shared machinery for the two quadratic algebras."""

    dim = 0
    _element_cls = None

    def _finish_init(self, table):
        field = self.field
        # (k, c_ij) with f_i f_j = c_ij f_k
        self._table_raw = tuple(tuple((k, c.raw) for (k, c) in row) for row in table)
        # with the c_ij lifted over one shared denominator, the left or right
        # map of x is one gather of x's lifted coordinates times the c_ij laid
        # out the same way: a plan (gather, coefficients)
        coeffs, self._coeff_den = field._lift(
            [coeff for row in self._table_raw for _, coeff in row]
        )
        targets = tuple(tuple(k for k, _ in row) for row in self._table_raw)
        self._left_plan, self._right_plan = (
            (gather, pick(coeffs)) for gather, pick in _map_layout(targets)
        )
        # norm form n(x) = sum w_i x_i^2: w_0 = 1, w_i = -c_ii for f_i f_i = c_ii
        diagonal = [row[i][1] for i, row in enumerate(self._table_raw)]
        self._norm_raw = (field.one.raw,) + tuple(field._neg(c) for c in diagonal[1:])
        self._norm_lifted, self._norm_den = field._lift(self._norm_raw)
        self.zero = self.element((0,) * self.dim)
        self.one = self.element((1,) + (0,) * (self.dim - 1))

    def _from_lifted(self, vec, den):
        """The element with lifted coordinates vec over den, reduced."""
        return self._element_cls(self, *self.field._reduce(vec, den))

    @property
    def params(self):
        raise NotImplementedError

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(
                f"{type(self).__name__} elements have {self.dim} coordinates, "
                f"got {len(coords)}"
            )
        field = self.field
        coords = tuple([field.element(c) for c in coords])
        # the lift of canonical values is canonical; the validated values
        # are the coords view
        ents, den = field._lift([c.raw for c in coords])
        return self._element_cls(self, tuple(ents), den, coords)

    def basis_element(self, i: int):
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range")
        coords = [0] * self.dim
        coords[i] = 1
        return self.element(coords)

    def basis(self):
        return tuple(self.basis_element(i) for i in range(self.dim))

    def parse_element(self, text: str):
        parts = text.split(",")
        if len(parts) != self.dim:
            raise ParseError(
                f"expected {self.dim} comma-separated coordinates, got {len(parts)}"
            )
        coords = []
        for i, part in enumerate(parts):
            try:
                coords.append(self.field.parse(part))
            except ParseError as exc:
                raise ParseError(f"coordinate {i}: {exc}") from None
        return self.element(coords)

    def random_element(self, rng):
        return self.element(
            tuple(self.field.random_element(rng) for _ in range(self.dim))
        )

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.field == self.field
            and other.params == self.params
        )

    def __hash__(self):
        return hash((type(self).__name__, self.field, self.params))


class QuatAlgebra(_TableAlgebra):
    """H(a,b): basis 1, f1, f2, f3 with f1^2 = a, f2^2 = b, f3 = f1 f2."""

    dim = 4

    def __init__(self, field: Field, a, b):
        self.field = field
        self.a = field.element(a)
        self.b = field.element(b)
        if self.a.is_zero or self.b.is_zero:
            raise ValueError("algebra parameters must be nonzero")
        self._finish_init(_quat_table(self.a, self.b))

    @property
    def params(self):
        return (self.a, self.b)

    def __str__(self):
        return f"H({self.a},{self.b}) over {self.field}"

    __repr__ = __str__


class OctAlgebra(_TableAlgebra):
    """O(a,b,c): the doubling of H(a,b) by a third nonzero parameter c."""

    dim = 8

    def __init__(self, field: Field, a, b, c):
        self.field = field
        self.a = field.element(a)
        self.b = field.element(b)
        self.c = field.element(c)
        if self.a.is_zero or self.b.is_zero or self.c.is_zero:
            raise ValueError("algebra parameters must be nonzero")
        self._finish_init(_oct_table(self.a, self.b, self.c))
        self._quaternions = None

    @property
    def params(self):
        return (self.a, self.b, self.c)

    def quaternion_subalgebra(self) -> QuatAlgebra:
        # built on first use and kept: split_pair asks for it on every call
        if self._quaternions is None:
            self._quaternions = QuatAlgebra(self.field, self.a, self.b)
        return self._quaternions

    def __str__(self):
        return f"O({self.a},{self.b},{self.c}) over {self.field}"

    __repr__ = __str__


class AlgebraElement:
    """An element of its algebra; immutable and hashable.

    ``ents`` and ``den`` hold the coordinates in canonical lifted form;
    ``coords`` is their view as FieldElements.
    """

    __slots__ = ("algebra", "ents", "den", "_coords")

    def __init__(self, algebra, ents, den, coords=None):
        self.algebra = algebra
        self.ents = ents
        self.den = den
        self._coords = coords

    @property
    def coords(self) -> tuple:
        """The coordinates as FieldElements, built from the lifted storage
        on first use and kept.  The storage never changes, so threads that
        race here build and write equal tuples."""
        coords = self._coords
        if coords is None:
            coords = self._coords = self.algebra.field._view(self.ents, self.den)
        return coords

    def _check_same(self, other):
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatchError(
                f"cannot combine an element of {other.algebra} with one of {self.algebra}"
            )

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        field = self.algebra.field
        return self.algebra._from_lifted(
            *field._sum(self.ents, self.den, other.ents, other.den)
        )

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        field = self.algebra.field
        return self.algebra._from_lifted(
            *field._sum(self.ents, self.den, field._times(other.ents, -1), other.den)
        )

    def __neg__(self):
        return self.algebra._from_lifted(self.algebra.field._times(self.ents, -1), self.den)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_same(other)
            return self._table_mul(other)
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def _table_mul(self, other):
        alg = self.algebra
        field = alg.field
        dot = field._dot
        gather, coeffs = alg._left_plan
        n = alg.dim
        # coordinate k of x*y is row k of the (unreduced) left map of x
        # dotted with y; the whole product is reduced once
        lx = field._scale(gather(self.ents), coeffs)
        ys = other.ents
        return alg._from_lifted(
            [dot(lx[k:k + n], ys) for k in range(0, n * n, n)],
            self.den * alg._coeff_den * other.den,
        )

    def scale(self, factor):
        field = self.algebra.field
        (c,), cden = field._lift([field.element(factor).raw])
        return self.algebra._from_lifted(field._times(self.ents, c), self.den * cden)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers are not defined here; use inverse()")
        # square-and-multiply; valid in octonions too, which are alternative
        # and hence power-associative (Artin's theorem)
        out, base = self.algebra.one, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- the quadratic-algebra structure ---------------------------------

    def conjugate(self):
        """Negate every coordinate but the scalar one."""
        field = self.algebra.field
        return self.algebra._from_lifted(
            [self.ents[0]] + field._times(self.ents[1:], -1), self.den
        )

    def trace(self) -> FieldElement:
        field = self.algebra.field
        x0 = self.ents[0]
        return FieldElement(field, field._drop(field._add(x0, x0), self.den))

    def norm(self) -> FieldElement:
        alg = self.algebra
        field = alg.field
        xs = self.ents
        total = field._dot(field._scale(xs, xs), alg._norm_lifted)
        return FieldElement(field, field._drop(total, self.den * self.den * alg._norm_den))

    def inverse(self):
        """conj(x)/n(x); raises ZeroDivisionError on norm-zero elements."""
        return self.conjugate().scale(self.norm().inv())

    def satisfies_quadratic_identity(self) -> bool:
        lhs = self * self - self.scale(self.trace()) + self.algebra.one.scale(self.norm())
        return lhs.is_zero

    # -- plumbing ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.ents.count(self.algebra.field._nil) == len(self.ents)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.den == other.den
            and self.ents == other.ents
            and (self.algebra is other.algebra or self.algebra == other.algebra)
        )

    def __hash__(self):
        return hash((self.algebra, self.den, self.ents))

    def __str__(self):
        return ",".join(str(x) for x in self.coords)

    def __repr__(self):
        return f"<{self.algebra}: {self}>"


class Quaternion(AlgebraElement):
    __slots__ = ()


class Octonion(AlgebraElement):
    __slots__ = ()

    def split_pair(self):
        """The two quaternions of the doubled form x = x' + x'' f4."""
        h = self.algebra.quaternion_subalgebra()
        return (
            h._from_lifted(self.ents[:4], self.den),
            h._from_lifted(self.ents[4:], self.den),
        )


QuatAlgebra._element_cls = Quaternion
OctAlgebra._element_cls = Octonion


def cd_double_mul(x: Octonion, y: Octonion) -> Octonion:
    """Multiply octonions through quaternion pairs.

    With x = (x', x'') and y = (y', y'') this computes
    (x'y' + c conj(y'') x'',  y'' x' + x'' conj(y')), the doubling rule that
    reproduces the basis table entry for entry.  It is kept as a second,
    structurally different multiplication path for cross-checking.
    """
    if not isinstance(x, Octonion) or not isinstance(y, Octonion):
        raise TypeError("cd_double_mul expects two octonions")
    x._check_same(y)
    alg = x.algebra
    xp, xpp = x.split_pair()
    yp, ypp = y.split_pair()
    first = xp * yp + (ypp.conjugate() * xpp).scale(alg.c)
    second = ypp * xp + xpp * yp.conjugate()
    (u, v), den = alg.field._common((first.ents, first.den), (second.ents, second.den))
    return alg._from_lifted([*u, *v], den)


def quadratic_identity_holds(x: AlgebraElement) -> bool:
    """Self-test hook: x^2 - t(x) x + n(x) = 0 must hold for every element."""
    return x.satisfies_quadratic_identity()
