import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpotent import (
    FieldElement,
    MixedFieldError,
    NotASquareError,
    ParseError,
    PrimeField,
    QuadraticField,
    RationalField,
    parse_field,
)
from kpotent.fields import _quadratic_character

from helpers import ALL_FIELD_TOKENS, field_by_token, least_roots


@pytest.fixture(params=ALL_FIELD_TOKENS)
def field(request):
    return field_by_token(request.param)


# -- construction and validation ------------------------------------------


def test_char_two_rejected():
    with pytest.raises(ValueError):
        PrimeField(2)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15, 2**64 + 13])
def test_bad_primes_rejected(p):
    with pytest.raises(ValueError):
        PrimeField(p)


@pytest.mark.parametrize("d", [0, 1, 4, 8, 12, 18])
def test_bad_quadratic_d_rejected(d):
    with pytest.raises(ValueError):
        QuadraticField(d)


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QuadraticField(2) == QuadraticField(2)
    assert QuadraticField(2) != QuadraticField(3)
    assert RationalField() == RationalField()
    assert len({PrimeField(5), PrimeField(5), QuadraticField(2)}) == 2
    # one identity, the grammar token, across the three kinds of field
    fields = [parse_field(t) for t in ("f5", "f7", "q", "q[sqrt2]", "q[sqrt3]")]
    for i, f in enumerate(fields):
        for j, g in enumerate(fields):
            assert (f == g) == (i == j) and (f != g) == (i != j)
        assert f == parse_field(f.grammar_token())
        assert hash(f) == hash(parse_field(f.grammar_token()))
        assert f != f.grammar_token()
    assert PrimeField(5).zero == 0 and PrimeField(5).one == 1


def test_parse_field_grammar():
    assert parse_field("f5") == PrimeField(5)
    assert parse_field("q") == RationalField()
    assert parse_field("q[sqrt2]") == QuadraticField(2)
    for bad in ("f", "f4", "q[sqrt4]", "r5", "q[2]", ""):
        with pytest.raises((ParseError, ValueError)):
            parse_field(bad)
    for token in ("f5", "f13", "q", "q[sqrt2]", "q[sqrt6]"):
        assert parse_field(token).grammar_token() == token


# -- arithmetic fixtures ----------------------------------------------------


def test_modular_addition(f5):
    assert f5.element(3) + f5.element(4) == f5.element(2)


def test_conjugate_product_in_quadratic(qsqrt2):
    x = qsqrt2.element((1, 1))
    y = qsqrt2.element((1, -1))
    assert x * y == qsqrt2.element(-1)


def test_inverse_in_f5(f5):
    # 3 * 2 = 6 = 1 mod 5, the only inverse by exhaustive check
    assert f5.element(3).inv() == f5.element(2)
    assert [y for y in range(5) if 3 * y % 5 == 1] == [2]


def test_division_by_zero(field):
    with pytest.raises(ZeroDivisionError):
        field.zero.inv()


def test_mixed_field_operands_rejected(f5, f13):
    with pytest.raises(MixedFieldError):
        f5.element(1) + f13.element(1)
    with pytest.raises(MixedFieldError):
        f5.element(1) * f13.element(1)


def test_floats_rejected(rationals, qsqrt2, f5):
    for f in (rationals, qsqrt2):
        with pytest.raises(TypeError):
            f.element(0.5)
    with pytest.raises(TypeError):
        f5.element(Fraction(1, 2))


# -- square roots ------------------------------------------------------------


def test_sqrt_fixtures(f5):
    assert f5.element(4).sqrt() == f5.element(2)  # canonical: min(2, 3)
    f7 = PrimeField(7)
    # squares mod 7: 3*3 = 2 and 4*4 = 2; canonical root is 3
    assert f7.element(2).sqrt() == f7.element(3)
    # squares mod 5 are {0, 1, 4}
    with pytest.raises(NotASquareError):
        f5.element(2).sqrt()


def test_sqrt_rationals(rationals):
    assert rationals.element(Fraction(9, 4)).sqrt() == Fraction(3, 2)
    assert rationals.zero.sqrt() == 0
    for bad in (2, Fraction(-1), Fraction(1, 3)):
        with pytest.raises(NotASquareError):
            rationals.element(bad).sqrt()


def test_sqrt_quadratic(qsqrt2):
    assert qsqrt2.element(Fraction(1, 4)).sqrt() == qsqrt2.element(Fraction(1, 2))
    # sqrt(2) = s itself, sqrt(8) = 2s
    assert qsqrt2.element(2).sqrt() == qsqrt2.element((0, 1))
    assert qsqrt2.element(8).sqrt() == qsqrt2.element((0, 2))
    for bad in ((3, 0), (0, 1), (1, 1), (-1, 0)):
        with pytest.raises(NotASquareError):
            qsqrt2.element(bad).sqrt()


_GRID = tuple(Fraction(v) for v in ("0", "1", "-1", "2", "-3", "1/2", "-3/4", "5/3", "-7/2"))


def _is_positive(a, b, d):
    """a + b sqrt(d) > 0, decided exactly."""
    if a >= 0 and b >= 0:
        return a > 0 or b > 0
    if a <= 0 and b <= 0:
        return False
    return (a * a > d * b * b) == (a > 0)


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_sqrt_quadratic_of_squares(d):
    # the root of (a + b s)^2 is whichever of +-(a + b s) is positive
    field = QuadraticField(d)
    for a in _GRID:
        for b in _GRID:
            x = field.element((a, b))
            root = (x * x).sqrt()
            assert root == (x if _is_positive(a, b, d) else -x), (a, b)
            assert root.is_zero or _is_positive(*root.raw, d)


def test_sqrt_quadratic_keeps_rational_part_roots(qsqrt2):
    # s = 0: rational roots first, then d-times-rational ones, as before
    assert qsqrt2.element(Fraction(9, 4)).sqrt().raw == (Fraction(3, 2), Fraction(0))
    assert qsqrt2.element(Fraction(9, 2)).sqrt().raw == (Fraction(0), Fraction(3, 2))
    assert qsqrt2.element((3, 2)).sqrt() == qsqrt2.element((1, 1))
    assert qsqrt2.element((3, -2)).sqrt() == qsqrt2.element((-1, 1))


# primes with p - 1 divisible by 2, 4, 8, 16, 256 and 2^16, so
# Tonelli-Shanks runs from zero to sixteen folding rounds
@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 193, 257, 769, 7681, 65537])
def test_sqrt_matches_scan_on_every_residue(p):
    field = PrimeField(p)
    roots = least_roots(p)
    for x in range(p):
        expected = roots.get(x)
        if expected is None:
            with pytest.raises(NotASquareError):
                field.element(x).sqrt()
        else:
            assert field.element(x).sqrt().raw == expected


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97])
def test_quadratic_character_matches_squares(p):
    squares = {x * x % p for x in range(1, p)}
    assert [_quadratic_character(x, p) for x in range(-p, 2 * p)] == [
        0 if x % p == 0 else (1 if x % p in squares else -1) for x in range(-p, 2 * p)
    ]


@pytest.mark.parametrize("p", [1048573, 1048571, 1048559, 786433])
def test_sqrt_matches_scan_near_the_limit(p):
    # 786433 = 3 * 2^18 + 1 takes the most folding rounds below 2^20
    field = PrimeField(p)
    roots = least_roots(p)
    rng = random.Random(p)
    for _ in range(200):
        y = rng.randrange(p)
        x = y * y % p
        assert field.element(x).sqrt().raw == roots[x]
    non_residue = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) != 1)
    with pytest.raises(NotASquareError):
        field.element(non_residue).sqrt()


def test_sqrt_matches_sympy():
    residue_ntheory = pytest.importorskip("sympy.ntheory.residue_ntheory")
    rng = random.Random(2024)
    for p in (1048573, 786433, 65537, 7681, 40961):
        field = PrimeField(p)
        for _ in range(50):
            x = rng.randrange(1, p)
            # sympy's root, when there is one, is the one in [0, p/2]
            expected = residue_ntheory.sqrt_mod(x, p)
            if expected is None:
                with pytest.raises(NotASquareError):
                    field.element(x).sqrt()
            else:
                assert field.element(x).sqrt().raw == expected


def test_large_prime_sqrt_is_fast():
    # least roots just below p/2, where a scan of [0, p/2] is slowest
    p = 786433
    field = PrimeField(p)
    start = time.perf_counter()
    for y in range(p // 2 - 200, p // 2):
        assert field.element(y * y).sqrt().raw == y
    assert time.perf_counter() - start < 0.5


def test_sqrt_over_large_primes():
    # no size cap: 2^20 + 7, the Mersenne prime 2^61 - 1 (p = 3 mod 4, one
    # modular power) and 2^64 - 2^32 + 1 = 1 mod 2^32 (32 folding rounds)
    rng = random.Random(20)
    for p in ((1 << 20) + 7, (1 << 61) - 1, (1 << 64) - (1 << 32) + 1):
        field = PrimeField(p)
        for _ in range(20):
            y = rng.randrange(1, p)
            x = y * y % p
            root = field.element(x).sqrt().raw
            assert root * root % p == x and root in (y, p - y)
            assert root <= p - root


def test_sqrt_of_square_is_plus_minus(field):
    # over Q(sqrt d) only rational and pure-radical squares have supported
    # roots, so sample y from those two lines there
    rng = random.Random(11)
    for i in range(200):
        if isinstance(field, QuadraticField):
            component = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            y = field.element((component, 0) if i % 2 else (0, component))
        else:
            y = field.random_element(rng)
        root = (y * y).sqrt()
        assert root == y or root == -y


# -- field axioms over 1000 random triples per field -------------------------


def test_field_axioms(field):
    rng = random.Random(5)
    one = field.one
    for _ in range(1000):
        x = field.random_element(rng)
        y = field.random_element(rng)
        z = field.random_element(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero:
            assert x * x.inv() == one


def test_canonicalization_idempotent_and_congruent(field):
    rng = random.Random(6)
    for _ in range(300):
        x = field.random_element(rng)
        assert field.element(x.raw) == x
        assert field.parse(str(x)) == x
        y = field.random_element(rng)
        # equality of canonical forms is a congruence for + and *
        assert field.parse(str(x)) + field.parse(str(y)) == x + y
        assert field.parse(str(x)) * field.parse(str(y)) == x * y


# -- grammar ------------------------------------------------------------------


def test_prime_field_accepts_negative_literals(f5):
    assert f5.parse("-3") == f5.element(2)
    assert f5.parse("12") == f5.element(2)


@pytest.mark.parametrize(
    "text,pair",
    [
        ("1/2+1/2s", (Fraction(1, 2), Fraction(1, 2))),
        ("1/2-1/2s", (Fraction(1, 2), Fraction(-1, 2))),
        ("-1/2s", (0, Fraction(-1, 2))),
        ("2s", (0, 2)),
        ("s", (0, 1)),
        ("-s", (0, -1)),
        ("1+s", (1, 1)),
        ("1-s", (1, -1)),
        ("3", (3, 0)),
        ("-7/3", (Fraction(-7, 3), 0)),
    ],
)
def test_quadratic_literals(qsqrt2, text, pair):
    assert qsqrt2.parse(text) == qsqrt2.element(pair)


@pytest.mark.parametrize("bad", ["", "x", "1.5", "1/2+", "s+1", "1//2", "2 s", "1+2"])
def test_bad_quadratic_literals(qsqrt2, bad):
    with pytest.raises(ParseError):
        qsqrt2.parse(bad)


@pytest.mark.parametrize("bad", ["", "1/2", "0x3", "2.0"])
def test_bad_residue_literals(f5, bad):
    with pytest.raises(ParseError):
        f5.parse(bad)


@settings(max_examples=150, deadline=None)
@given(num=st.integers(-10**9, 10**9), den=st.integers(1, 10**6))
def test_rational_round_trip(num, den):
    field = RationalField()
    x = field.element(Fraction(num, den))
    assert field.parse(str(x)) == x


@settings(max_examples=150, deadline=None)
@given(
    rn=st.integers(-1000, 1000),
    rd=st.integers(1, 60),
    sn=st.integers(-1000, 1000),
    sd=st.integers(1, 60),
)
def test_quadratic_round_trip(rn, rd, sn, sd):
    field = QuadraticField(3)
    x = field.element((Fraction(rn, rd), Fraction(sn, sd)))
    assert field.parse(str(x)) == x


@settings(max_examples=150, deadline=None)
@given(v=st.integers(-10**9, 10**9))
def test_prime_round_trip(v):
    field = PrimeField(13)
    x = field.element(v)
    assert field.parse(str(x)) == x


def test_element_repr_and_hash(f5):
    x = f5.element(3)
    assert isinstance(repr(x), str)
    assert hash(x) == hash(f5.element(-2))
    assert x == 3 and x != 4
    assert isinstance(x, FieldElement)


# -- powers ----------------------------------------------------------------


def test_power_matches_repeated_multiplication(field):
    rng = random.Random(6)
    for x in (field.random_element(rng), field.random_element(rng), field.one):
        if x.is_zero:
            continue
        power = field.one
        for n in range(21):
            assert x ** n == power, n
            assert x ** -n == power.inv(), n
            power = power * x


def test_large_power_is_fast(f13):
    start = time.perf_counter()
    big = f13.element(2) ** 10**9
    assert time.perf_counter() - start < 0.5
    assert big == pow(2, 10**9, 13)


# -- zero denominators are parse errors ---------------------------------------


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_zero_denominator_literals(rationals, qsqrt2, text):
    for field in (rationals, qsqrt2):
        with pytest.raises(ParseError, match=f"'{re.escape(text)}': zero denominator"):
            field.parse(text)


@pytest.mark.parametrize("text", ["1+1/0s", "1/0+s", "-2/0s"])
def test_zero_denominator_quadratic_parts(qsqrt2, text):
    with pytest.raises(ParseError, match="zero denominator"):
        qsqrt2.parse(text)
