"""Generalized quaternion algebras H(a,b) and octonion algebras O(a,b,c).

Elements carry their algebra and a coordinate tuple over one of the exact
coefficient fields.  Multiplication is the bilinear extension of the basis
table stored as structure constants, so the same kernel drives both
dimensions; each product coordinate is one unreduced dot product through
the field's lazy-reduction kernel, reduced once.  A Cayley-Dickson doubling
product is provided as an independent cross-check of the transcribed
octonion table.
"""

from __future__ import annotations

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


class _TableAlgebra:
    """Shared machinery for the two quadratic algebras."""

    dim = 0
    _element_cls = None

    def _finish_init(self, table):
        field = self.field
        dim = self.dim
        one = field.one.raw
        minus_one = field._neg(one)
        # (k, c_ij, unit) with f_i f_j = c_ij f_k; unit is 1 or -1 when c_ij
        # is, else 0, so products by the sign need no multiplication
        self._table_raw = tuple(
            tuple(
                (k, c.raw, 1 if c.raw == one else -1 if c.raw == minus_one else 0)
                for (k, c) in row
            )
            for row in table
        )
        # coordinate k of x*y is the sum over j of x_i c_ij y_j, where i is
        # the one row with f_i f_j = c_ij f_k; the c_ij are lifted once,
        # over one shared denominator, and grouped by k
        rows_of = [[None] * dim for _ in range(dim)]
        for i, row in enumerate(self._table_raw):
            for j, (k, _, _) in enumerate(row):
                rows_of[k][j] = i
        coeffs, self._coeff_den = field._lift(
            [coeff for row in self._table_raw for _, coeff, _ in row]
        )
        self._mul_rows = tuple(
            (itemgetter(*rows), tuple(coeffs[i * dim + j] for j, i in enumerate(rows)))
            for rows in rows_of
        )
        # norm form n(x) = sum w_i x_i^2: w_0 = 1, w_i = -c_ii for f_i f_i = c_ii
        diagonal = [row[i][1] for i, row in enumerate(self._table_raw)]
        self._norm_raw = (one,) + tuple(field._neg(c) for c in diagonal[1:])
        self.zero = self.element((0,) * self.dim)
        self.one = self.element((1,) + (0,) * (self.dim - 1))

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
        return self._element_cls(self, tuple(self.field.element(c) for c in coords))

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
    """A coordinate vector over its algebra; immutable and hashable."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

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
        return type(self)(
            self.algebra,
            tuple(x + y for x, y in zip(self.coords, other.coords)),
        )

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        return type(self)(
            self.algebra,
            tuple(x - y for x, y in zip(self.coords, other.coords)),
        )

    def __neg__(self):
        return type(self)(self.algebra, tuple(-x for x in self.coords))

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
        lift, dot, scale, drop = field._lift, field._dot, field._scale, field._drop
        xs, dx = lift([e.raw for e in self.coords])
        ys, dy = lift([e.raw for e in other.coords])
        den = dx * alg._coeff_den * dy
        # row k of the left map of x, dotted with y, reduced once
        return type(self)(alg, tuple([
            FieldElement(field, drop(dot(scale(gather(xs), coeffs), ys), den))
            for gather, coeffs in alg._mul_rows
        ]))

    def scale(self, factor):
        lam = self.algebra.field.element(factor)
        return type(self)(self.algebra, tuple(lam * x for x in self.coords))

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
        return type(self)(
            self.algebra,
            (self.coords[0],) + tuple(-x for x in self.coords[1:]),
        )

    def trace(self) -> FieldElement:
        return self.coords[0] + self.coords[0]

    def norm(self) -> FieldElement:
        field = self.algebra.field
        fadd, fmul = field._add, field._mul
        total = field.zero.raw
        for w, x in zip(self.algebra._norm_raw, self.coords):
            total = fadd(total, fmul(w, fmul(x.raw, x.raw)))
        return FieldElement(field, total)

    def inverse(self):
        """conj(x)/n(x); raises ZeroDivisionError on norm-zero elements."""
        return self.conjugate().scale(self.norm().inv())

    def satisfies_quadratic_identity(self) -> bool:
        lhs = self * self - self.scale(self.trace()) + self.algebra.one.scale(self.norm())
        return lhs.is_zero

    # -- plumbing ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for x in self.coords)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((self.algebra, self.coords))

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
        return h.element(self.coords[:4]), h.element(self.coords[4:])


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
    return alg.element(first.coords + second.coords)


def quadratic_identity_holds(x: AlgebraElement) -> bool:
    """Self-test hook: x^2 - t(x) x + n(x) = 0 must hold for every element."""
    return x.satisfies_quadratic_identity()
