"""Differential tests of the lifted storage, its kernel and the
table-derived representation maps against the literal-definition oracles
in helpers.

Every result computed on lifted integers and reduced once must equal, entry
for entry, the result computed on FieldElements and reduced after every
step; its storage must be in canonical lifted form and every raw value of
its views canonical (structural equality and hashing depend on both).
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpotent import (
    OctAlgebra,
    Octonion,
    PrimeField,
    QuadraticField,
    QuatAlgebra,
    RationalField,
    SquareMatrix,
    cd_double_mul,
    classify,
    discrepancy_report,
    left_rep,
    right_rep,
)
from kpotent.algebra import AlgebraElement
from kpotent.represent import _mismatches

from helpers import (
    is_canonical,
    is_canonical_lifted,
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
    assert is_canonical_lifted(m.field, m.ents, m.den)
    assert len(m.ents) == m.order * m.order
    assert all(is_canonical(m.field, e.raw) for row in m.rows for e in row)


def assert_canonical_element(x):
    assert is_canonical_lifted(x.algebra.field, x.ents, x.den)
    assert len(x.ents) == x.algebra.dim
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
        QuatAlgebra(PrimeField(1048573), 2, -3),
        OctAlgebra(PrimeField(13), 2, 3, 5),
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
    # the maps of the basis elements fix every entry of the derived table
    for y in basis + (x,):
        assert left_rep(y).rows == transcribed_left_rep(y).rows
        assert right_rep(y).rows == transcribed_right_rep(y).rows
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
    # reduce brings a vector over its denominator to canonical lifted form
    ents, den = field._reduce(field._times(lu, 6), du)
    assert is_canonical_lifted(field, ents, den)
    assert (ents, den) == field._reduce(*field._lift([field._mul(a, field._canon(6)) for a in u]))
    assert [field._drop(e, den) for e in ents] == [field._mul(a, field._canon(6)) for a in u]


# -- every operation on the lifted storage ------------------------------------


@settings(max_examples=150, deadline=None)
@given(xy=algebra_elements(n=2), data=st.data())
def test_element_operations_are_canonical(xy, data):
    x, y = xy
    field = x.algebra.field
    lam = data.draw(scalars(field))
    cx, cy = x.coords, y.coords
    expected = (
        (x * y, schoolbook_mul(x, y).coords),
        (x + y, tuple(a + b for a, b in zip(cx, cy))),
        (x - y, tuple(a - b for a, b in zip(cx, cy))),
        (-x, tuple(-a for a in cx)),
        (x.scale(lam), tuple(lam * a for a in cx)),
        (x * lam, tuple(lam * a for a in cx)),
        (x.conjugate(), cx[:1] + tuple(-a for a in cx[1:])),
    )
    for got, want in expected:
        assert got.coords == want
        assert_canonical_element(got)
    if isinstance(x, Octonion):
        for half, want in zip(x.split_pair(), (cx[:4], cx[4:])):
            assert half.coords == want
            assert_canonical_element(half)
        doubled = cd_double_mul(x, y)
        assert doubled.coords == schoolbook_mul(x, y).coords
        assert_canonical_element(doubled)
    for rep, oracle in ((left_rep, transcribed_left_rep), (right_rep, transcribed_right_rep)):
        m = rep(x)
        assert m.rows == oracle(x).rows
        assert_canonical_matrix(m)
    # the left map is linear, and equal values hash alike
    lx, ly = left_rep(x), left_rep(y)
    for got, want in (
        (left_rep(x + y), lx + ly),
        (left_rep(x - y), lx - ly),
        (left_rep(-x), -lx),
        (left_rep(x.scale(lam)), lx.scale(lam)),
        (x + y, y + x),
    ):
        assert got == want and hash(got) == hash(want)
    # elements and matrices do not mix, elements have no @, and exponents
    # are non-negative ints
    for mixed in (
        lambda: x + lx, lambda: lx - x, lambda: x * lx, lambda: lx * x,
        lambda: x @ y, lambda: x @ lx, lambda: lx @ x, lambda: x ** 1.5, lambda: lx ** 1.5,
    ):
        with pytest.raises(TypeError):
            mixed()
    assert x.__pow__(1.5) is NotImplemented and lx.__pow__(1.5) is NotImplemented
    for value, message in (
        (x, "negative powers are not defined here; use inverse()"),
        (lx, "negative matrix powers are not supported"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            value ** -1
    assert x != lx and not (x == lx)


@st.composite
def matrix_quads(draw):
    field = draw(st.sampled_from(FIELDS))
    entries = st.lists(st.lists(scalars(field), min_size=4, max_size=4),
                       min_size=4, max_size=4)
    return tuple(SquareMatrix(field, draw(entries)) for _ in range(4))


@settings(max_examples=100, deadline=None)
@given(blocks=matrix_quads(), data=st.data())
def test_matrix_operations_are_canonical(blocks, data):
    a, b, _, _ = blocks
    lam = data.draw(scalars(a.field))
    ra, rb = a.rows, b.rows

    def entrywise(op, *ms):
        return tuple(tuple(map(op, *rows)) for rows in zip(*(m.rows for m in ms)))

    expected = (
        (a * b, schoolbook_matmul(a, b).rows),
        (a @ b, schoolbook_matmul(a, b).rows),
        (a + b, entrywise(lambda u, v: u + v, a, b)),
        (a - b, entrywise(lambda u, v: u - v, a, b)),
        (-a, entrywise(lambda u: -u, a)),
        (a.scale(lam), entrywise(lambda u: lam * u, a)),
        (a.transpose(), tuple(zip(*ra))),
        (SquareMatrix.from_blocks(*blocks), tuple(
            l + r for left, right in ((0, 1), (2, 3))
            for l, r in zip(blocks[left].rows, blocks[right].rows)
        )),
    )
    for got, want in expected:
        assert got.rows == want
        assert_canonical_matrix(got)
    assert (a == b) == (ra == rb)


def _routes(field):
    """Pairs of equal values built by different routes: parsed or computed."""
    alg = QuatAlgebra(field, -1, -1) if isinstance(field, PrimeField) else QuatAlgebra(
        field, Fraction(3, 4), Fraction(-5, 6))
    x = alg.element([field.element(2), 0, 3, 1]).scale(alg.a)
    y = alg.element([1, field.element(5), 0, 7])
    xy = x * y
    yield xy, alg.parse_element(str(xy))
    yield x + x, x.scale(2)
    yield x - x, alg.zero
    yield (x * y) * x, x * (y * x)
    lx = left_rep(x)
    yield SquareMatrix.from_csv(field, lx.to_csv()), lx
    yield left_rep(xy), lx * left_rep(y)
    yield right_rep(xy), right_rep(y) * right_rep(x)
    yield lx.transpose().transpose(), lx
    yield lx - lx, SquareMatrix.zeros(4, field)
    yield lx ** 0, SquareMatrix.identity(4, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_equal_values_by_different_routes(field):
    for u, v in _routes(field):
        assert u == v and hash(u) == hash(v)
        assert (u.ents, u.den) == (v.ents, v.den)
    # halving keeps the integers of integer data and doubles den over Q
    half = field.one / field.element(2)
    one = SquareMatrix.identity(8, field)
    assert one.scale(half) != one and one.scale(half) + one.scale(half) == one
    x = QuatAlgebra(field, -1, -1).element([1, 0, 3, 1])
    assert x.scale(half) != x and x.scale(half) + x.scale(half) == x


@st.composite
def overlapping_matrices(draw):
    # the second matrix shares a random subset of the first one's entries
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from((4, 8)))
    first = draw(st.lists(scalars(field), min_size=order * order, max_size=order * order))
    changed = st.one_of(st.none(), scalars(field))   # None keeps the entry
    other = draw(st.lists(changed, min_size=order * order, max_size=order * order))
    second = [u if v is None else v for u, v in zip(first, other)]
    scale = draw(nonzero_scalars(field))
    m1 = SquareMatrix(field, [first[i:i + order] for i in range(0, order * order, order)])
    m2 = SquareMatrix(field, [second[i:i + order] for i in range(0, order * order, order)])
    return m1.scale(scale), m2.scale(scale)


@settings(max_examples=80, deadline=None)
@given(pair=overlapping_matrices())
def test_mismatches_agree_with_entrywise_comparison(pair):
    m1, m2 = pair
    r1, r2 = m1.rows, m2.rows
    n = m1.order
    want = tuple((i, j) for i in range(n) for j in range(n) if r1[i][j] != r2[i][j])
    assert _mismatches(m1, m2) == want
    assert _mismatches(m2, m1) == want
    assert _mismatches(m1, m1) == ()


def test_report_builds_no_row_views(monkeypatch):
    # the report's hot paths must stay on the lifted storage
    built = []
    view = SquareMatrix.rows

    def counted(m):
        built.append(m.order)
        return view.fget(m)

    monkeypatch.setattr(SquareMatrix, "rows", property(counted))
    assert len(discrepancy_report()["findings"]) == 85
    assert built == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_classify_builds_no_coord_views(field, monkeypatch):
    # classify reads x0 and the zero tail off the lifted storage
    alg = OctAlgebra(field, -1, 2, 3)
    elements = (alg.zero, alg.one, alg.one.scale(2), -alg.one) + alg.basis() + (
        alg.element(range(1, 9)),)
    want = [classify(x) for x in elements]
    built = []
    view = AlgebraElement.coords

    def counted(x):
        built.append(x.algebra.dim)
        return view.fget(x)

    monkeypatch.setattr(AlgebraElement, "coords", property(counted))
    assert [classify(x) for x in elements] == want
    assert built == []


@pytest.mark.parametrize("kind", ["matrix", "octonion"])
def test_power_multiplies_only_real_factors(kind, monkeypatch):
    # x**n costs bitlen(n) - 1 squarings and popcount(n) - 1 further
    # products: no product with the identity, and x**0 none at all
    field = PrimeField(13)
    alg = OctAlgebra(field, -1, 2, 3)
    x = alg.element(range(1, 9))
    if kind == "matrix":
        x = left_rep(x)
    cls = type(x)
    product = cls._product
    calls = []

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(cls, "_product", counted)
    for n in (0, 1, 2, 5, 64):
        calls.clear()
        want = x._one() if n == 0 else x
        for _ in range(n - 1):
            want = product(want, x)
        assert x ** n == want
        assert len(calls) == max(n.bit_length() - 1, 0) + max(bin(n).count("1") - 1, 0)
