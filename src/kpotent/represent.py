"""Left and right multiplication matrices of quaternions and octonions,
with exact dense 4x4/8x8 matrix arithmetic.

``left_rep(x)`` is the matrix L with L . coords(y) = coords(x y); likewise
``right_rep(x)`` represents y -> y x.  Both are read off the algebra's
structure constants: wherever f_i f_j = c_ij f_k, L[k][j] = x_i c_ij and
R[k][i] = x_j c_ij, so no matrix is transcribed by hand.  ``block_check``
compares the 8x8 maps read off the octonion table against their assembly
from 4x4 blocks read off the quaternion table of the two halves, in both
the classical fixed-sign form (valid for c = -1) and the parametric form
that carries the doubling parameter; since the two tables are transcribed
independently, the comparison stays a cross-check of both.

A matrix is stored in the field's lifted form, as a flat row-major vector
of n^2 entries; ``kpotent.fields`` describes the format and, in
``Lifted``, the operations that need only the format (sums, scaling,
equality, hashing, differing entries).  Rows are slices of the vector and
columns ``ents[j::n]``; every operation works on these integers and reduces
its result once.  ``rows``, the entries as ``FieldElement`` values, is a
read-only view for the API edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import mul

from .algebra import AlgebraElement, Octonion, Quaternion
from .fields import Field, FieldElement, Lifted, ParseError, _power


def _check_order(order: int) -> None:
    if order not in (4, 8):
        raise ValueError("matrices are square of order 4 or 8")


class SquareMatrix(Lifted):
    """Dense n x n matrix over a field, n in {4, 8}, in lifted form."""

    __slots__ = ("field", "order")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(field.element(e) for e in row) for row in rows)
        order = len(rows)
        _check_order(order)
        if any(len(row) != order for row in rows):
            raise ValueError("matrices are square of order 4 or 8")
        # the lift of canonical values is canonical
        ents, den = field._lift([e.raw for row in rows for e in row])
        self.field = field
        self.order = order
        self.ents = tuple(ents)
        self.den = den

    @classmethod
    def _from_lifted(cls, field: Field, order: int, vec, den) -> "SquareMatrix":
        # a flat row-major lifted vector over den, reduced here
        m = object.__new__(cls)
        m.field = field
        m.order = order
        m.ents, m.den = field._reduce(vec, den)
        return m

    @property
    def rows(self) -> tuple:
        """The entries as FieldElements, row by row: a view built on each
        access, for the API edge only."""
        n = self.order
        flat = self.field._view(self.ents, self.den)
        return tuple(flat[i:i + n] for i in range(0, n * n, n))

    @classmethod
    def identity(cls, order: int, field: Field) -> "SquareMatrix":
        _check_order(order)
        one, nil = field._unit, field._nil
        vec = [one if i == j else nil for i in range(order) for j in range(order)]
        return cls._from_lifted(field, order, vec, 1)

    @classmethod
    def zeros(cls, order: int, field: Field) -> "SquareMatrix":
        _check_order(order)
        return cls._from_lifted(field, order, [field._nil] * (order * order), 1)

    @classmethod
    def from_blocks(cls, tl, tr, bl, br) -> "SquareMatrix":
        if any(m.field != tl.field or m.order != 4 for m in (tl, tr, bl, br)):
            raise ValueError("blocks are 4x4 matrices over one field")
        field = tl.field
        (a, b, c, d), den = field._common(*((m.ents, m.den) for m in (tl, tr, bl, br)))
        vec = []
        for left, right in ((a, b), (c, d)):
            for i in range(0, 16, 4):
                vec += left[i:i + 4]
                vec += right[i:i + 4]
        return cls._from_lifted(field, 8, vec, den)

    def _like(self, vec, den):
        return SquareMatrix._from_lifted(self.field, self.order, vec, den)

    def _space(self):
        return (self.field, self.order)

    def _check_same(self, other):
        if other.field != self.field or other.order != self.order:
            raise ValueError("matrix operands must share order and field")

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            self._check_same(other)
            return self._mat_mul(other)
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    __matmul__ = __mul__

    def _mat_mul(self, other):
        # every entry is one unreduced dot product of a row slice and a
        # column slice; the product is reduced once
        field = self.field
        dot = field._dot
        n = self.order
        a, b = self.ents, other.ents
        rows = [a[i:i + n] for i in range(0, n * n, n)]
        cols = [b[j::n] for j in range(n)]
        vec = [dot(row, col) for row in rows for col in cols]
        return SquareMatrix._from_lifted(field, n, vec, self.den * other.den)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        return _power(SquareMatrix.identity(self.order, self.field), self, n, mul)

    def transpose(self) -> "SquareMatrix":
        n, ents = self.order, self.ents
        vec = [e for j in range(n) for e in ents[j::n]]
        return SquareMatrix._from_lifted(self.field, n, vec, self.den)

    # -- emitters: one row per CSV line, JSON as array-of-arrays ---------

    def to_csv(self) -> str:
        return "\n".join(",".join(str(e) for e in row) for row in self.rows)

    def to_json(self) -> str:
        return json.dumps(self.to_lists())

    def to_lists(self):
        return [[str(e) for e in row] for row in self.rows]

    @classmethod
    def from_csv(cls, field: Field, text: str) -> "SquareMatrix":
        lines = [line for line in text.strip().splitlines() if line.strip()]
        rows = []
        for i, line in enumerate(lines):
            try:
                rows.append(tuple(field.parse(tok) for tok in line.split(",")))
            except ParseError as exc:
                raise ParseError(f"row {i}: {exc}") from None
        return cls(field, rows)

    @classmethod
    def from_json(cls, field: Field, text: str) -> "SquareMatrix":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad matrix JSON: {exc}") from None
        if not isinstance(data, list) or not all(
            isinstance(row, list) and all(isinstance(tok, str) for tok in row)
            for row in data
        ):
            raise ParseError("matrix JSON must be a list of lists of strings")
        rows = []
        for i, row in enumerate(data):
            try:
                rows.append(tuple(field.parse(tok) for tok in row))
            except ParseError as exc:
                raise ParseError(f"row {i}: {exc}") from None
        return cls(field, rows)

    def __str__(self):
        return self.to_csv()

    def __repr__(self):
        return f"<{self.order}x{self.order} over {self.field}>\n{self.to_csv()}"


SquareMatrix._kind = SquareMatrix


def _rep(x: AlgebraElement, left: bool) -> SquareMatrix:
    # wherever f_i f_j = c_ij f_k, y -> x y sends coordinate j to k with
    # weight x_i c_ij and y -> y x sends coordinate i to k with weight x_j c_ij;
    # every entry is one such product, so nothing is summed: the algebra's
    # left or right plan gathers the x factors and their lifted c_ij.
    if not isinstance(x, (Quaternion, Octonion)):
        raise TypeError(f"no representation for {type(x).__name__}")
    alg = x.algebra
    field = alg.field
    gather, coeffs = alg._left_plan if left else alg._right_plan
    return SquareMatrix._from_lifted(
        field, alg.dim, field._scale(gather(x.ents), coeffs), x.den * alg._coeff_den
    )


def left_rep(x: AlgebraElement) -> SquareMatrix:
    """Matrix of y -> x y in the standard basis (4x4 or 8x8)."""
    return _rep(x, left=True)


def right_rep(x: AlgebraElement) -> SquareMatrix:
    """Matrix of y -> y x in the standard basis (4x4 or 8x8)."""
    return _rep(x, left=False)


def _conjugation_signs(field: Field) -> SquareMatrix:
    # the 4x4 matrix of quaternion conjugation: diag(1, -1, -1, -1)
    one, zero = field.one, field.zero
    return SquareMatrix(field, (
        (one, zero, zero, zero),
        (zero, -one, zero, zero),
        (zero, zero, -one, zero),
        (zero, zero, zero, -one),
    ))


@dataclass(frozen=True)
class BlockCheckReport:
    """Entrywise comparison of block assemblies against the 8x8 maps.

    The 8x8 maps are read off the octonion structure constants, the 4x4
    blocks off the quaternion structure constants of the two halves.

    "classical" uses the fixed-sign block formulas that are only valid when
    the doubling parameter is -1 (and, for the right map, with the mixed-up
    lower-left block as classically quoted); "parametric" carries the
    doubling parameter and the corrected blocks.  Disagreement is data, not
    an error.
    """

    left_classical_mismatches: tuple
    right_classical_mismatches: tuple
    left_parametric_mismatches: tuple
    right_parametric_mismatches: tuple

    @property
    def left_classical_agrees(self) -> bool:
        return not self.left_classical_mismatches

    @property
    def right_classical_agrees(self) -> bool:
        return not self.right_classical_mismatches

    @property
    def left_parametric_agrees(self) -> bool:
        return not self.left_parametric_mismatches

    @property
    def right_parametric_agrees(self) -> bool:
        return not self.right_parametric_mismatches


def _mismatches(m1: SquareMatrix, m2: SquareMatrix) -> tuple:
    # (i, j) where the entries differ
    if m1 == m2:
        return ()
    return tuple(divmod(k, m1.order) for k in m1._differing(m2))


def block_check(x: Octonion) -> BlockCheckReport:
    """Compare 8x8 representations assembled from the 4x4 maps of the two
    quaternion halves with the 8x8 maps of x, entry by entry."""
    alg = x.algebra
    field = alg.field
    sign = _conjugation_signs(field)
    xp, xpp = x.split_pair()
    c = alg.c

    lp, rp = left_rep(xp), right_rep(xp)
    lpp, rpp = left_rep(xpp), right_rep(xpp)
    lpp_conj = left_rep(xpp.conjugate())
    rp_conj = right_rep(xp.conjugate())

    left_classical = SquareMatrix.from_blocks(lp, -(rpp * sign), lpp * sign, rp)
    left_parametric = SquareMatrix.from_blocks(lp, (rpp * sign).scale(c), lpp * sign, rp)
    right_classical = SquareMatrix.from_blocks(rp, -lpp_conj, lp, rp_conj)
    right_parametric = SquareMatrix.from_blocks(rp, lpp_conj.scale(c), lpp, rp_conj)

    explicit_left = left_rep(x)
    explicit_right = right_rep(x)
    return BlockCheckReport(
        left_classical_mismatches=_mismatches(left_classical, explicit_left),
        right_classical_mismatches=_mismatches(right_classical, explicit_right),
        left_parametric_mismatches=_mismatches(left_parametric, explicit_left),
        right_parametric_mismatches=_mismatches(right_parametric, explicit_right),
    )
