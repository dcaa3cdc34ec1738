"""Generalized quaternion algebras H(a,b) and octonion algebras O(a,b,c).

Elements carry their algebra and their coordinates in the field's lifted
form; ``kpotent.fields`` describes the format and, in ``Lifted``, the
operations that need only the format (sums, scaling, equality, hashing,
the ``*`` dispatch and ``**``).  ``coords``, the coordinates as
``FieldElement`` values, is a read-only view built from that storage on
each access.  Multiplication is the bilinear extension of the basis table
stored as structure constants, so the same kernel drives both dimensions:
the unreduced left map of x, read off the lifted table, is dotted with y
row by row, and the product is reduced once.  Both tables are derived,
once per dimension, by Cayley-Dickson doubling of the field
(``_doubling``); no table is written out by hand.
``cd_double_mul`` applies the same rule recursively, through quaternion
products, as a second multiplication path that checks the flattened table.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .fields import Field, FieldElement, Lifted, ParseError


class AlgebraMismatchError(ValueError):
    """Elements of two different algebras were combined."""


@lru_cache(maxsize=None)
def _doubling(dim):
    """The basis table of the algebra of dimension dim, parameters left
    symbolic, and the gathers that lay out its left and right maps.

    The field is doubled log2(dim) times, by the parameters in order:
    (x', x'')(y', y'') = (x'y' + c conj(y'')x'', y''x' + x''conj(y')) for
    the parameter c of that step, and f_{m+j} = (0, f_j) over the previous
    dimension m.  Entry [i][j] is (k, sign, mask) with f_i f_j = sign *
    (the product of the parameters whose bits are set in mask) * f_k.  The
    left map has x_i c_ij at (k, j) and the right map x_j c_ij at (k, i);
    each map gets one itemgetter of the x coordinates and one of the table
    entries (flat index i*dim + j) behind its dim^2 positions.  Nothing
    here depends on the parameter values, so it is built once per dimension.
    """
    table = (((0, 1, 0),),)
    for bit in range(dim.bit_length() - 1):  # one doubling per parameter
        m = len(table)
        conj = [1] + [-1] * (m - 1)
        rows = [[None] * (2 * m) for _ in range(2 * m)]
        for i in range(m):
            for j in range(m):
                rows[i][j] = table[i][j]                            # x'y'
                k, s, mask = table[i][j]
                rows[m + i][j] = (m + k, s * conj[j], mask)         # x''conj(y')
                k, s, mask = table[j][i]
                rows[i][m + j] = (m + k, s, mask)                   # y''x'
                rows[m + i][m + j] = (k, s * conj[j], mask | 1 << bit)  # c conj(y'')x''
        table = tuple(tuple(row) for row in rows)
    left, right = [None] * (dim * dim), [None] * (dim * dim)
    for i, row in enumerate(table):
        for j, (k, _, _) in enumerate(row):
            left[k * dim + j] = (i, i * dim + j)
            right[k * dim + i] = (j, i * dim + j)
    return table, tuple(
        (itemgetter(*[src for src, _ in plan]), itemgetter(*[entry for _, entry in plan]))
        for plan in (left, right)
    )


class _TableAlgebra:
    """Shared machinery for the two quadratic algebras: the doubling of the
    field by ``params``, in order."""

    dim = 0
    _symbol = ""
    _element_cls = None

    def __init__(self, field: Field, *params):
        self.field = field
        self.params = tuple(field.element(v) for v in params)
        if any(v.is_zero for v in self.params):
            raise ValueError("algebra parameters must be nonzero")
        table, layouts = _doubling(self.dim)
        # the product of each subset of the parameters, indexed by its mask,
        # and its negation
        prods = [field.one.raw]
        for v in self.params:
            prods += [field._mul(u, v.raw) for u in prods]
        signed = {1: prods, -1: [field._neg(u) for u in prods]}
        # (k, c_ij) with f_i f_j = c_ij f_k
        self._table_raw = tuple(
            tuple((k, signed[s][mask]) for k, s, mask in row) for row in table
        )
        # with the c_ij lifted over one shared denominator, the left or right
        # map of x is one gather of x's lifted coordinates times the c_ij laid
        # out the same way: a plan (gather, coefficients)
        coeffs, self._coeff_den = field._lift(
            [coeff for row in self._table_raw for _, coeff in row]
        )
        self._left_plan, self._right_plan = (
            (gather, pick(coeffs)) for gather, pick in layouts
        )
        # norm form n(x) = sum w_i x_i^2: w_0 = 1, w_i = -c_ii for f_i f_i = c_ii
        diagonal = [table[i][i] for i in range(1, self.dim)]
        self._norm_raw = (field.one.raw,) + tuple(
            signed[-s][mask] for _, s, mask in diagonal
        )
        self._norm_lifted, self._norm_den = field._lift(self._norm_raw)
        self.zero = self.element((0,) * self.dim)
        self.one = self.element((1,) + (0,) * (self.dim - 1))

    def _from_lifted(self, vec, den):
        """The element with lifted coordinates vec over den, reduced."""
        return self._element_cls(self, *self.field._reduce(vec, den))

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(
                f"{type(self).__name__} elements have {self.dim} coordinates, "
                f"got {len(coords)}"
            )
        field = self.field
        # the lift of canonical values is canonical
        ents, den = field._lift([field.element(c).raw for c in coords])
        return self._element_cls(self, tuple(ents), den)

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

    def __str__(self):
        return f"{self._symbol}({','.join(map(str, self.params))}) over {self.field}"

    __repr__ = __str__


class QuatAlgebra(_TableAlgebra):
    """H(a,b): basis 1, f1, f2, f3 with f1^2 = a, f2^2 = b, f3 = f1 f2."""

    dim = 4
    _symbol = "H"

    def __init__(self, field: Field, a, b):
        super().__init__(field, a, b)
        self.a, self.b = self.params


class OctAlgebra(_TableAlgebra):
    """O(a,b,c): the doubling of H(a,b) by a third nonzero parameter c."""

    dim = 8
    _symbol = "O"

    def __init__(self, field: Field, a, b, c):
        super().__init__(field, a, b, c)
        self.a, self.b, self.c = self.params
        self._quaternions = None

    def quaternion_subalgebra(self) -> QuatAlgebra:
        # built on first use and kept: split_pair asks for it on every call
        if self._quaternions is None:
            self._quaternions = QuatAlgebra(self.field, self.a, self.b)
        return self._quaternions


class AlgebraElement(Lifted):
    """An element of its algebra; immutable and hashable.

    ``ents`` and ``den`` hold the coordinates in canonical lifted form;
    ``coords`` is their view as FieldElements.
    """

    __slots__ = ("algebra",)
    _negative_power = "negative powers are not defined here; use inverse()"

    def __init__(self, algebra, ents, den):
        self.algebra = algebra
        self.ents = ents
        self.den = den

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def coords(self) -> tuple:
        """The coordinates as FieldElements: a view built on each access,
        for the API edge only."""
        return self.algebra.field._view(self.ents, self.den)

    def _like(self, vec, den):
        return self.algebra._from_lifted(vec, den)

    def _space(self):
        return self.algebra

    def _check_same(self, other):
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatchError(
                f"cannot combine an element of {other.algebra} with one of {self.algebra}"
            )

    def _one(self):
        return self.algebra.one

    # -- ring operations -----------------------------------------------

    def _product(self, other):
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
        """x^2 - t(x) x + n(x) = 0, which every element must satisfy."""
        lhs = self * self - self.scale(self.trace()) + self.algebra.one.scale(self.norm())
        return lhs.is_zero

    # -- plumbing ---------------------------------------------------------

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


AlgebraElement._kind = AlgebraElement
QuatAlgebra._element_cls = Quaternion
OctAlgebra._element_cls = Octonion


def cd_double_mul(x: Octonion, y: Octonion) -> Octonion:
    """Multiply octonions through quaternion pairs.

    With x = (x', x'') and y = (y', y'') this computes
    (x'y' + c conj(y'') x'',  y'' x' + x'' conj(y')), the doubling rule that
    ``_doubling`` flattens into the basis table.  Applied here through
    quaternion products, it is a second, structurally different
    multiplication path that cross-checks the table kernel; the tests check
    the derived tables themselves against hand-written maps.
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
