"""Differential tests of the lazy-reduction kernel and the table-derived
representation maps against the literal-definition oracles in helpers.

Every product computed with one reduction per output entry must equal, entry
for entry, the product reduced after every step, and every raw value must be
canonical (structural equality depends on it).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpotent import (
    OctAlgebra,
    PrimeField,
    QuadraticField,
    QuatAlgebra,
    RationalField,
    SquareMatrix,
    left_rep,
    right_rep,
)

from helpers import (
    is_canonical,
    schoolbook_matmul,
    schoolbook_mul,
    transcribed_left_rep,
    transcribed_right_rep,
)

FIELDS = (
    PrimeField(5),
    PrimeField(13),
    PrimeField(1048573),
    RationalField(),
    QuadraticField(2),
    QuadraticField(6),
)


def _rationals():
    return st.builds(Fraction, st.integers(-40, 40), st.integers(1, 24))


def scalars(field):
    """Raw-ish values for field.element, zero drawn often so sparse operands
    (basis elements, rep matrices of basis elements) are covered."""
    if isinstance(field, PrimeField):
        values = st.integers(0, field.p - 1)
    elif isinstance(field, RationalField):
        values = _rationals()
    else:
        values = st.tuples(_rationals(), _rationals())
    return st.one_of(st.just(0), values).map(field.element)


def nonzero_scalars(field):
    return scalars(field).filter(lambda v: not v.is_zero)


@st.composite
def algebra_elements(draw, n=1):
    field = draw(st.sampled_from(FIELDS))
    kind, n_params = draw(st.sampled_from(((QuatAlgebra, 2), (OctAlgebra, 3))))
    alg = kind(field, *(draw(nonzero_scalars(field)) for _ in range(n_params)))
    coords = st.lists(scalars(field), min_size=alg.dim, max_size=alg.dim)
    return tuple(alg.element(draw(coords)) for _ in range(n))


@st.composite
def matrix_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from((4, 8)))
    entries = st.lists(
        st.lists(scalars(field), min_size=order, max_size=order),
        min_size=order,
        max_size=order,
    )
    return SquareMatrix(field, draw(entries)), SquareMatrix(field, draw(entries))


def assert_canonical_matrix(m):
    assert all(is_canonical(m.field, e.raw) for row in m.rows for e in row)


def assert_canonical_element(x):
    assert all(is_canonical(x.algebra.field, e.raw) for e in x.coords)


@settings(max_examples=200, deadline=None)
@given(xy=algebra_elements(n=2))
def test_products_and_maps_match_oracles(xy):
    x, y = xy
    product = x * y
    assert product == schoolbook_mul(x, y)
    assert_canonical_element(product)
    for rep, oracle in ((left_rep, transcribed_left_rep), (right_rep, transcribed_right_rep)):
        m = rep(x)
        assert m.rows == oracle(x).rows
        assert_canonical_matrix(m)
    composed = left_rep(x) * right_rep(y)
    assert composed == schoolbook_matmul(left_rep(x), right_rep(y))
    assert_canonical_matrix(composed)


@settings(max_examples=150, deadline=None)
@given(ab=matrix_pairs())
def test_matrix_products_match_schoolbook(ab):
    a, b = ab
    product = a * b
    assert product.rows == schoolbook_matmul(a, b).rows
    assert_canonical_matrix(product)


def _fractional_algebras():
    q, q2, q6 = RationalField(), QuadraticField(2), QuadraticField(6)
    half_plus = (Fraction(1, 2), Fraction(3, 4))   # 1/2 + 3/4 s
    return [
        QuatAlgebra(q, Fraction(3, 4), Fraction(-5, 6)),
        OctAlgebra(q, Fraction(3, 4), Fraction(-2, 9), Fraction(7, 10)),
        QuatAlgebra(q2, half_plus, (Fraction(-1, 3), Fraction(2, 5))),
        OctAlgebra(q2, half_plus, Fraction(3, 4), (0, Fraction(-1, 7))),
        OctAlgebra(q6, (Fraction(-5, 2), Fraction(1, 3)), half_plus, 3),
    ]


@pytest.mark.parametrize("alg", _fractional_algebras(), ids=str)
def test_fractional_parameters_match_oracles(alg):
    # the lcm of the lifted table spans both components of every parameter
    basis = alg.basis()
    x = alg.element([(k + 1, 1) if isinstance(alg.field, QuadraticField) else k + 1
                     for k in range(alg.dim)]).scale(alg.a)
    for y in basis + (x, x * x):
        assert x * y == schoolbook_mul(x, y)
        assert y * x == schoolbook_mul(y, x)
    assert left_rep(x).rows == transcribed_left_rep(x).rows
    assert right_rep(x).rows == transcribed_right_rep(x).rows
    assert left_rep(x) * left_rep(x) == schoolbook_matmul(left_rep(x), left_rep(x))
    assert_canonical_element(x * x)
    assert_canonical_matrix(left_rep(x) * right_rep(x))


_KERNEL_VECTORS = {
    PrimeField: ([3, -2, 5], [7, 0, -4]),
    RationalField: ([Fraction(3, 4), Fraction(-2, 9), 5], [Fraction(7, 6), 0, -4]),
    QuadraticField: (
        [(Fraction(3, 4), Fraction(1, 5)), (-2, Fraction(-5, 9)), 5],
        [(Fraction(7, 6), 1), 0, (0, Fraction(-4, 7))],
    ),
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_contract(field):
    # lift writes each vector as integers over one denominator; drop makes
    # the one reduction, to the canonical per-term sum of products
    u, v = (
        [field.element(c).raw for c in vec] for vec in _KERNEL_VECTORS[type(field)]
    )
    lu, du = field._lift(u)
    lv, dv = field._lift(v)
    ints = [c for x in lu for c in (x if isinstance(x, tuple) else (x,))]
    assert all(type(c) is int for c in ints)
    got = field._drop(field._dot(lu, lv), du * dv)
    want = field.zero.raw
    for a, b in zip(u, v):
        want = field._add(want, field._mul(a, b))
    assert got == want and is_canonical(field, got)
    entrywise = field._scale(lu, lv)
    assert [field._drop(e, du * dv) for e in entrywise] == [
        field._mul(a, b) for a, b in zip(u, v)
    ]
