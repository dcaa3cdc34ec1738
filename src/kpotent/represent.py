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

Matrix products reduce each output entry once, through the field's
lazy-reduction kernel (see ``kpotent.fields``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import AlgebraElement, Octonion, Quaternion
from .fields import Field, FieldElement, ParseError


class SquareMatrix:
    """Dense n x n matrix of field elements, n in {4, 8}."""

    __slots__ = ("field", "order", "rows")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(field.element(e) for e in row) for row in rows)
        order = len(rows)
        if order not in (4, 8) or any(len(row) != order for row in rows):
            raise ValueError("matrices are square of order 4 or 8")
        self.field = field
        self.order = order
        self.rows = rows

    @classmethod
    def _of_elements(cls, field: Field, rows) -> "SquareMatrix":
        # square tuples of elements of `field`: nothing is re-validated
        m = object.__new__(cls)
        m.field = field
        m.order = len(rows)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, order: int, field: Field) -> "SquareMatrix":
        one, zero = field.one, field.zero
        return cls(field, tuple(
            tuple(one if i == j else zero for j in range(order))
            for i in range(order)
        ))

    @classmethod
    def zeros(cls, order: int, field: Field) -> "SquareMatrix":
        zero = field.zero
        return cls(field, tuple(tuple(zero for _ in range(order)) for _ in range(order)))

    @classmethod
    def from_blocks(cls, tl, tr, bl, br) -> "SquareMatrix":
        if any(m.field != tl.field or m.order != 4 for m in (tl, tr, bl, br)):
            raise ValueError("blocks are 4x4 matrices over one field")
        rows = [row_a + row_b for row_a, row_b in zip(tl.rows, tr.rows)]
        rows += [row_a + row_b for row_a, row_b in zip(bl.rows, br.rows)]
        return cls._of_elements(tl.field, tuple(rows))

    def _check_compatible(self, other):
        if other.field != self.field or other.order != self.order:
            raise ValueError("matrix operands must share order and field")

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check_compatible(other)
        return SquareMatrix._of_elements(self.field, tuple(
            tuple(x + y for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        ))

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check_compatible(other)
        return SquareMatrix._of_elements(self.field, tuple(
            tuple(x - y for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        ))

    def __neg__(self):
        return SquareMatrix._of_elements(
            self.field, tuple(tuple(-x for x in row) for row in self.rows)
        )

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            self._check_compatible(other)
            return self._mat_mul(other)
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        return NotImplemented

    __matmul__ = __mul__

    def _mat_mul(self, other):
        # each row of self and column of other is lifted once; each entry is
        # then one unreduced dot product and one reduction
        field = self.field
        lift, dot, drop = field._lift, field._dot, field._drop
        zero = field.zero
        zero_raw = zero.raw
        cols = [lift([e.raw for e in col]) for col in zip(*other.rows)]
        out = []
        for row, rden in (lift([e.raw for e in row]) for row in self.rows):
            # drop gives back the field's own zero value for zero entries
            entries = [drop(dot(row, col), rden * cden) for col, cden in cols]
            out.append(tuple([
                zero if v is zero_raw else FieldElement(field, v) for v in entries
            ]))
        return SquareMatrix._of_elements(field, tuple(out))

    def scale(self, factor):
        lam = self.field.element(factor)
        return SquareMatrix._of_elements(self.field, tuple(
            tuple(lam * x for x in row) for row in self.rows
        ))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        result = SquareMatrix.identity(self.order, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix._of_elements(self.field, tuple(zip(*self.rows)))

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.order == other.order
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

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


def _rep(x: AlgebraElement, left: bool) -> SquareMatrix:
    # wherever f_i f_j = c_ij f_k, y -> x y sends coordinate j to k with
    # weight x_i c_ij and y -> y x sends coordinate i to k with weight x_j c_ij;
    # every entry is one such product, so nothing is summed.  Walking the
    # table by rows (left) or columns (right) fixes the factor of x.
    if not isinstance(x, (Quaternion, Octonion)):
        raise TypeError(f"no representation for {type(x).__name__}")
    alg = x.algebra
    field = alg.field
    fmul, zero = field._mul, field.zero
    rows = [[zero] * alg.dim for _ in range(alg.dim)]
    lines = alg._table_raw if left else zip(*alg._table_raw)
    for xe, line in zip(x.coords, lines):
        if xe.is_zero:
            continue
        xv, neg = xe, -xe
        for pos, (k, coeff, unit) in enumerate(line):
            rows[k][pos] = (
                xv if unit == 1 else neg if unit == -1
                else FieldElement(field, fmul(xv.raw, coeff))
            )
    return SquareMatrix._of_elements(field, tuple(map(tuple, rows)))


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
    return tuple(
        (i, j)
        for i in range(m1.order)
        for j in range(m1.order)
        if m1.rows[i][j] != m2.rows[i][j]
    )


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
