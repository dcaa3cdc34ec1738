import random
import time
from fractions import Fraction

import pytest

from kpotent import (
    AlgebraMismatchError,
    OctAlgebra,
    ParseError,
    QuatAlgebra,
    cd_double_mul,
)

from helpers import (
    ALL_FIELD_TOKENS,
    element_pairs,
    element_triples,
    elements,
    field_by_token,
    octo,
)


@pytest.fixture(params=ALL_FIELD_TOKENS)
def field(request):
    return field_by_token(request.param)


def H(field, a=-1, b=-1):
    return QuatAlgebra(field, a, b)


def O(field, a=-1, b=-1, c=-1):
    return OctAlgebra(field, a, b, c)


# -- construction --------------------------------------------------------------


def test_degenerate_parameters_rejected(f5):
    with pytest.raises(ValueError):
        QuatAlgebra(f5, 0, 1)
    with pytest.raises(ValueError):
        OctAlgebra(f5, 1, 1, 5)  # 5 = 0 mod 5


def test_wrong_coordinate_count(f5):
    with pytest.raises(ValueError):
        H(f5).element((1, 2, 3))
    with pytest.raises(ParseError):
        H(f5).parse_element("1,2,3,4,5")


def test_algebra_equality(f5, f13):
    assert H(f5) == H(f5)
    assert H(f5) != H(f5, -1, 1)
    assert H(f5) != H(f13)
    assert O(f5) == O(f5)


# -- basis products against the table ------------------------------------------


def test_quaternion_basis_products(field):
    alg = H(field, 2, 3)
    one, f1, f2, f3 = alg.basis()
    a, b = alg.a, alg.b
    assert f1 * f2 == f3
    assert f2 * f1 == -f3
    assert f1 * f1 == one.scale(a)
    assert f2 * f2 == one.scale(b)
    assert f3 * f3 == one.scale(-(a * b))
    assert f1 * f3 == f2.scale(a)
    assert f3 * f1 == f2.scale(-a)
    assert f2 * f3 == f1.scale(-b)
    assert f3 * f2 == f1.scale(b)


def test_octonion_basis_products(field):
    alg = O(field, 2, 3, 6)
    e = alg.basis()
    a, b, c = alg.a, alg.b, alg.c
    assert e[1] * e[4] == e[5]
    assert e[4] * e[7] == e[3].scale(-c)
    assert e[2] * e[2] == e[0].scale(b)
    assert e[1] * e[1] == e[0].scale(a)
    assert e[6] * e[7] == e[1].scale(-(b * c))
    assert e[7] * e[7] == e[0].scale(a * b * c)


def test_identity_row(field):
    rng = random.Random(1)
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        for _ in range(20):
            x = alg.random_element(rng)
            assert alg.one * x == x
            assert x * alg.one == x


# -- conjugate, trace, norm ------------------------------------------------------


def test_conjugate_fixture(f5):
    x = H(f5).element((2, 3, 1, 3))
    assert x.conjugate().coords == H(f5).element((2, 2, 4, 2)).coords


def test_conjugate_involution_and_one(field):
    rng = random.Random(2)
    alg = O(field, 2, 3, 6)
    for _ in range(25):
        x = alg.random_element(rng)
        assert x.conjugate().conjugate() == x
    assert alg.one.conjugate() == alg.one


def test_trace_fixtures(f5, rationals):
    assert H(f5).element((2, 3, 1, 3)).trace() == f5.element(4)
    assert H(f5).basis_element(1).trace() == f5.zero
    half = Fraction(1, 2)
    q = QuatAlgebra(rationals, 1, 1).element((half,) * 4)
    assert q.trace() == rationals.one


def test_norm_fixtures(f5, rationals):
    # the printed quadratic form gives 3 here (2^2+3^2+1^2+3^2 = 23 = 3 mod 5)
    assert H(f5).element((2, 3, 1, 3)).norm() == f5.element(3)
    half = Fraction(1, 2)
    q = QuatAlgebra(rationals, 1, 1).element((half,) * 4)
    assert q.norm() == rationals.zero
    assert H(f5).one.norm() == f5.one


def test_norm_matches_x_times_conjugate(field):
    rng = random.Random(3)
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        for _ in range(40):
            x = alg.random_element(rng)
            assert x * x.conjugate() == alg.one.scale(x.norm())


# -- powers -----------------------------------------------------------------------


def test_power_fixtures(f5, rationals):
    x = H(f5).element((2, 3, 1, 3))
    assert x ** 4 == H(f5).one
    half = Fraction(1, 2)
    y = H(rationals).element((half,) * 4)
    assert y ** 6 == H(rationals).one
    assert y ** 1 == y
    assert y ** 0 == H(rationals).one
    with pytest.raises(ValueError):
        y ** -1


def test_power_associativity(field):
    rng = random.Random(4)
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        for _ in range(30):
            x = alg.random_element(rng)
            powers = [x ** n for n in range(9)]
            for m in range(9):
                for n in range(9 - m):
                    assert powers[m] * powers[n] == powers[m + n]


def test_power_matches_repeated_multiplication(field):
    rng = random.Random(5)
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        for x in (alg.random_element(rng), alg.basis_element(3)):
            power = alg.one
            for n in range(21):
                assert x ** n == power, n
                power = power * x


def test_large_power_is_fast(f13):
    alg = H(f13, 2, 3)
    x = alg.element((1, 2, 3, 4))
    assert x ** 6 == alg.one   # so x ** 10**7 = x ** (10**7 % 6) = x ** 4
    start = time.perf_counter()
    big = x ** 10**7
    assert time.perf_counter() - start < 0.5
    assert big == x ** 4


# -- algebraic laws (smoke scale; the 1000-case sweeps are in acceptance) --------


def test_quadratic_identity(field):
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        assert alg.zero.satisfies_quadratic_identity()
        for x in elements(alg, 5, 50):
            assert x.satisfies_quadratic_identity()


def test_quaternion_associativity(field):
    alg = H(field, 2, 3)
    for x, y, z in element_triples(alg, 6, 100):
        assert (x * y) * z == x * (y * z)


def test_octonion_alternative_flexible(field):
    alg = O(field, 2, 3, 6)
    for x, y in element_pairs(alg, 7, 60):
        assert (x * x) * y == x * (x * y)
        assert (y * x) * x == y * (x * x)
        assert x * (y * x) == (x * y) * x


def test_octonion_moufang(field):
    alg = O(field, 2, 3, 6)
    for x, y, z in element_triples(alg, 8, 40):
        assert ((x * y) * x) * z == x * (y * (x * z))


def test_norm_multiplicative(field):
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        for x, y in element_pairs(alg, 9, 50):
            assert (x * y).norm() == x.norm() * y.norm()


def test_conjugation_antiautomorphism(field):
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        for x, y in element_pairs(alg, 10, 50):
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_inverse(field):
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        for x in elements(alg, 11, 40):
            if x.norm().is_zero:
                continue
            assert x * x.inverse() == alg.one
            assert x.inverse() * x == alg.one


# -- doubling oracle ---------------------------------------------------------------


@pytest.mark.parametrize("params", [("-1", "-1", "-1"), ("2", "3", "6"), ("1", "1", "1")])
def test_doubling_matches_table_on_basis(field, params):
    alg = octo(field, *params)
    for i in range(8):
        for j in range(8):
            ei, ej = alg.basis_element(i), alg.basis_element(j)
            assert cd_double_mul(ei, ej) == ei * ej, (i, j)


def test_doubling_matches_table_on_random_pairs(field):
    alg = O(field, 2, 3, 6)
    for x, y in element_pairs(alg, 12, 80):
        assert cd_double_mul(x, y) == x * y
    assert cd_double_mul(alg.one, alg.basis_element(5)) == alg.basis_element(5)
    assert cd_double_mul(alg.basis_element(1), alg.basis_element(2)) == alg.basis_element(3)


# -- mixing and parsing ---------------------------------------------------------------


def test_algebra_mismatch_errors(f5, f13):
    with pytest.raises(AlgebraMismatchError):
        H(f5).one * H(f13).one
    with pytest.raises(AlgebraMismatchError):
        H(f5).one + H(f5, -1, 1).one
    with pytest.raises(AlgebraMismatchError):
        cd_double_mul(O(f5).one, O(f5, 2, 3, 6).one)
    with pytest.raises(TypeError):
        cd_double_mul(H(f5).one, H(f5).one)


def test_element_literals_round_trip(field):
    for alg in (H(field, 2, 3), O(field, 2, 3, 6)):
        for x in elements(alg, 13, 40):
            assert alg.parse_element(str(x)) == x


def test_parse_element_reports_coordinate(f5):
    with pytest.raises(ParseError, match="coordinate 2"):
        H(f5).parse_element("1,2,x,4")


def test_scaling(f5):
    alg = H(f5)
    x = alg.element((1, 2, 3, 4))
    assert x.scale(2) == alg.element((2, 4, 1, 3))
    assert 2 * x == x.scale(2)
    assert x * f5.element(2) == x.scale(2)
    assert x - x == alg.zero
    assert -x == x.scale(-1)
