import json
import random
import time
from fractions import Fraction

import pytest

from kpotent import (
    GenerationError,
    OctAlgebra,
    QuadraticField,
    QuatAlgebra,
    RationalField,
    SUPPORTED_ROTOR_KS,
    classify,
    left_rep,
    right_rep,
    rotor_generate,
    split_generate,
)
from kpotent.algebra import AlgebraElement

from helpers import demoivre_power_check, naive_potency

HALF = Fraction(1, 2)


@pytest.fixture
def hq(rationals):
    return QuatAlgebra(rationals, -1, -1)


@pytest.fixture
def hq2(qsqrt2):
    return QuatAlgebra(qsqrt2, -1, -1)


# -- classification ----------------------------------------------------------------


def test_classify_f5_showcase(f5):
    x = QuatAlgebra(f5, -1, -1).element((2, 3, 1, 3))
    rep = classify(x, 16)
    assert (rep.kind, rep.index) == ("k-potent", 5)
    assert rep.trace == f5.element(4)
    assert rep.norm == f5.element(3)


def test_classify_f13_showcase(f13):
    x = OctAlgebra(f13, -1, -1, -1).element((3, 2, 1, 1, 1, 1, 1, 1))
    rep = classify(x, 16)
    assert (rep.kind, rep.index) == ("k-potent", 13)


def test_classify_nilpotent(qsqrt2):
    alg = QuatAlgebra(qsqrt2, 1, 1)
    z = alg.element((0, HALF, HALF, (0, HALF)))
    rep = classify(z, 16)
    assert (rep.kind, rep.index) == ("nilpotent", 2)
    assert rep.norm.is_zero and rep.trace.is_zero


def test_classify_zero_and_one(f5):
    alg = QuatAlgebra(f5, -1, -1)
    assert (classify(alg.zero).kind, classify(alg.zero).index) == ("k-potent", 2)
    assert (classify(alg.one).kind, classify(alg.one).index) == ("k-potent", 2)


def test_classify_respects_bound(f5):
    x = QuatAlgebra(f5, -1, -1).element((2, 3, 1, 3))  # index 5
    rep = classify(x, 4)
    assert (rep.kind, rep.index) == ("none", 4)
    with pytest.raises(ValueError):
        classify(x, 1)


def test_classify_early_exit_over_ordered_fields(hq):
    # norm 5 can never satisfy n^(k-1) = 1 over Q, so the answer is none
    x = hq.element((2, 1, 0, 0))
    rep = classify(x, 64)
    assert rep.kind == "none" and rep.index == 64
    assert rep.norm == 5


def test_classify_agrees_with_naive_oracle(f5, f13):
    rng = random.Random(41)
    for alg in (QuatAlgebra(f5, -1, -1), QuatAlgebra(f13, 2, 3),
                OctAlgebra(f5, -1, -1, -1)):
        for _ in range(60):
            x = alg.random_element(rng)
            rep = classify(x, 40)
            assert (rep.kind, rep.index) == naive_potency(x, 40)


def test_report_serialization(f5):
    rep = classify(QuatAlgebra(f5, -1, -1).element((2, 3, 1, 3)), 16)
    data = rep.as_dict()
    assert data == {"kind": "k-potent", "index": 5, "trace": "4", "norm": "3"}
    json.dumps(data)


def test_nonzero_nilpotents_have_index_two(f5):
    # in a quadratic algebra x^2 = t x - n, so a nonzero nilpotent dies at 2
    alg = QuatAlgebra(f5, -1, -1)
    for coords in [(0, 1, 2, 0), (0, 2, 4, 0), (0, 1, 3, 1)]:
        rep = classify(alg.element(coords), 32)
        if rep.kind == "nilpotent":
            assert rep.index == 2
    rng = random.Random(42)
    for _ in range(400):
        rep = classify(alg.random_element(rng), 32)
        if rep.kind == "nilpotent":
            assert rep.index == 2


# -- the characteristic-0 bound ------------------------------------------------------
# Over Q and Q(sqrt d) a k-potent x has k - 1 = the order of a root of unity of
# degree <= 4 over Q, so k - 1 is 1, 2, 3, 4, 5, 6, 8, 10 or 12.  x0 + f1 with
# f1^2 = x0^2 - 1 has norm 1, so it has index k when x0 = cos(2 pi j / (k - 1))
# with j prime to k - 1.

QUARTER = Fraction(1, 4)
UNIT_ROTORS = [
    # (d, 0 for Q; x0; index)
    (0, Fraction(-1, 2), 4),
    (0, 0, 5),
    (0, HALF, 7),
    (5, (-QUARTER, QUARTER), 6),
    (5, (-QUARTER, -QUARTER), 6),
    (5, (QUARTER, QUARTER), 11),
    (5, (QUARTER, -QUARTER), 11),
    (2, (0, HALF), 9),
    (2, (0, -HALF), 9),
    (3, (0, HALF), 13),
    (3, (0, -HALF), 13),
]


def _field(d):
    return RationalField() if d == 0 else QuadraticField(d)


def _unit_rotor(d, x0, octonion=False):
    field = _field(d)
    x0 = field.element(x0)
    a = x0 * x0 - 1
    if octonion:
        return OctAlgebra(field, a, -1, -1).element((x0, 1) + (0,) * 6)
    return QuatAlgebra(field, a, -1).element((x0, 1, 0, 0))


@pytest.mark.parametrize("octonion", [False, True])
@pytest.mark.parametrize(
    "d,x0,index", UNIT_ROTORS,
    ids=[f"sqrt{d}-{k}" if d else f"q-{k}" for d, _, k in UNIT_ROTORS],
)
def test_classify_reaches_every_characteristic_zero_index(d, x0, index, octonion):
    x = _unit_rotor(d, x0, octonion)
    for max_k in (16, 10 ** 6):
        rep = classify(x, max_k)
        assert (rep.kind, rep.index) == ("k-potent", index)
    assert naive_potency(x, 16) == ("k-potent", index)
    assert classify(x, index - 1).kind == "none"


def test_classify_characteristic_zero_fixtures(rationals, hq):
    h11 = QuatAlgebra(rationals, 1, 1)
    h21 = QuatAlgebra(rationals, 2, 1)
    cases = [
        (hq.zero, ("k-potent", 2)),
        (hq.one, ("k-potent", 2)),
        (-hq.one, ("k-potent", 3)),
        (h11.element((0, 1, 0, 0)), ("k-potent", 3)),           # f1^2 = 1, norm -1
        (h11.element((HALF, HALF, 0, 0)), ("k-potent", 2)),     # idempotent
        (h11.element((0, 1, 0, 1)), ("nilpotent", 2)),
        (h11.element((-1, 1, 0, 0)), ("none", 16)),             # x^2 = -2x
        (h11.element((1, 1, 1, 1)), ("none", 16)),              # x^2 = 2x
        (h11.element((2, 2, 0, 1)), ("none", 16)),              # norm 1, trace 4
        (h21.element((1, 1, 0, 0)), ("none", 16)),              # norm -1, trace 2
    ]
    for k in SUPPORTED_ROTOR_KS:
        direction = (1, 2, 2) if k == 5 else (1, 1, 1)
        cases.append((rotor_generate(k, direction, hq), ("k-potent", k)))
    for x, expected in cases:
        rep = classify(x, 16)
        assert (rep.kind, rep.index) == naive_potency(x, 16) == expected


def test_classify_random_characteristic_zero_elements():
    rng = random.Random(17)
    params = (1, -1, 2, -2, 3, HALF, -HALF)
    for d in (0, 2, 3, 5):
        field = _field(d)
        for _ in range(12):
            alg = (QuatAlgebra(field, rng.choice(params), rng.choice(params))
                   if rng.random() < 0.6 else
                   OctAlgebra(field, *(rng.choice(params) for _ in range(3))))
            x = alg.random_element(rng)
            rep = classify(x, 14)
            assert (rep.kind, rep.index) == naive_potency(x, 14)


def test_classify_random_unit_norm_elements():
    # solve for a so that x0 + y f1 + z f2 + w f3 has norm n in {0, 1, -1}:
    # n = x0^2 - a y^2 - b z^2 + a b w^2
    rng = random.Random(23)
    small = [Fraction(i, j) for i in range(-3, 4) for j in (1, 2, 3)]
    seen = set()
    for d in (0, 2, 3, 5):
        field = _field(d)
        for _ in range(40):
            x0 = field.element(rng.choice(UNIT_ROTORS)[1] if d and rng.random() < 0.5
                               else rng.choice(small))
            y, z, w = (rng.choice(small) for _ in range(3))
            b, n = field.element(rng.choice((1, -1, 2, HALF))), rng.choice((0, 1, -1))
            den = b * w * w - y * y
            if den.is_zero:
                continue
            a = (n - x0 * x0 + b * z * z) / den
            if a.is_zero:
                continue
            x = QuatAlgebra(field, a, b).element((x0, y, z, w))
            assert x.norm() == n
            rep = classify(x, 14)
            assert (rep.kind, rep.index) == naive_potency(x, 14)
            seen.add(rep.kind)
    assert seen == {"k-potent", "nilpotent", "none"}


def test_classify_huge_bound_returns_at_once(rationals, qsqrt2):
    h11 = QuatAlgebra(rationals, 1, 1)
    elements = [
        h11.element((1, 1, 1, 1)),
        h11.element((2, 2, 0, 1)),
        h11.element((HALF, HALF, 0, 0)),
        QuatAlgebra(qsqrt2, 1, 1).element(((1, 1), 1, 1, (0, 1))),
        _unit_rotor(3, (0, HALF)),
    ]
    for x in elements:
        start = time.perf_counter()
        rep = classify(x, 10 ** 6)
        assert time.perf_counter() - start < 0.1
        small = classify(x, 64)
        assert rep.kind == small.kind
        assert rep.index == (10 ** 6 if rep.kind == "none" else small.index)


def test_classify_multiplies_no_elements(monkeypatch, f5, hq):
    def refuse(self, other):
        raise AssertionError("classify multiplied elements")

    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    assert classify(QuatAlgebra(f5, -1, -1).element((2, 3, 1, 3))).index == 5
    assert classify(hq.element((HALF,) * 4)).index == 7
    assert classify(_unit_rotor(3, (0, HALF), octonion=True)).index == 13


# -- rotor generation ---------------------------------------------------------------


def test_rotor_fixtures(hq, hq2):
    assert rotor_generate(7, (1, 1, 1), hq) == hq.element((HALF,) * 4)
    assert rotor_generate(4, (1, -1, 1), hq) == hq.element((-HALF, HALF, -HALF, HALF))
    x5 = rotor_generate(5, (1, -1, (0, 1)), hq2)
    assert x5 == hq2.element((0, HALF, -HALF, (0, HALF)))
    assert rotor_generate(3, (7, -2, 9), hq) == hq.element((-1, 0, 0, 0))


def test_rotor_guarantee(hq, hq2):
    # k = 5 needs |direction|^2 to be a square, so it gets its own axis
    directions = {3: (1, 1, 1), 4: (1, 1, 1), 5: (1, 2, 2), 7: (1, 1, 1)}
    for k in SUPPORTED_ROTOR_KS:
        x = rotor_generate(k, directions[k], hq)
        rep = classify(x, k)
        assert (rep.kind, rep.index) == ("k-potent", k)
        assert x ** (k - 1) == hq.one
        assert x.norm().is_one
    x = rotor_generate(5, (1, -1, (0, 1)), hq2)
    assert x ** 4 == hq2.one


def test_rotor_unsupported_k(hq):
    with pytest.raises(GenerationError, match="unsupported k"):
        rotor_generate(6, (1, 1, 1), hq)
    with pytest.raises(GenerationError):
        rotor_generate(2, (1, 1, 1), hq)


def test_rotor_rejects_bad_algebras(f5, rationals):
    with pytest.raises(GenerationError):
        rotor_generate(7, (1, 1, 1), QuatAlgebra(f5, -1, -1))
    with pytest.raises(GenerationError):
        rotor_generate(7, (1, 1, 1), QuatAlgebra(rationals, 1, 1))


def test_rotor_direction_errors(hq):
    with pytest.raises(GenerationError, match="not normalizable"):
        rotor_generate(5, (1, 1, 1), hq)  # 1/3 is not a rational square
    with pytest.raises(GenerationError, match="nonzero"):
        rotor_generate(7, (0, 0, 0), hq)
    with pytest.raises(GenerationError):
        rotor_generate(7, (1, 1), hq)


def test_rotor_direction_scaling_invariance(hq):
    # scalar multiples of a valid direction give the same rotor
    x = rotor_generate(7, (1, 1, 1), hq)
    assert rotor_generate(7, (3, 3, 3), hq) == x
    assert rotor_generate(7, (Fraction(1, 2),) * 3, hq) == x


# -- the angle-addition check ----------------------------------------------------------


def test_demoivre_fixtures(hq, hq2):
    assert demoivre_power_check(hq, HALF, (HALF, HALF, HALF), 6)
    assert demoivre_power_check(hq, HALF, (HALF, HALF, HALF), 1)
    assert demoivre_power_check(hq2, 0, (HALF, -HALF, (0, HALF)), 4)
    x = rotor_generate(7, (1, 1, 1), hq)
    assert x ** 6 == hq.one


def test_demoivre_rejects_non_unit_elements(hq):
    # 1 + f1 has norm 2, so its powers leave the angle-addition pattern
    assert not demoivre_power_check(hq, 1, (1, 0, 0), 3)


def test_demoivre_validates_input(hq):
    with pytest.raises(ValueError):
        demoivre_power_check(hq, 1, (1, 0), 3)
    with pytest.raises(ValueError):
        demoivre_power_check(hq, 1, (1, 0, 0), 0)


# -- split generation --------------------------------------------------------------------


def test_split_fixtures_h11(rationals, qsqrt2):
    alg = QuatAlgebra(rationals, 1, 1)
    q = split_generate("idempotent", alg, (1, 1, 1))
    w = split_generate("tripotent", alg, (1, 1, 1))
    assert q == alg.element((HALF, HALF, HALF, HALF))
    assert w == alg.element((-HALF, HALF, HALF, HALF))
    alg2 = QuatAlgebra(qsqrt2, 1, 1)
    z = split_generate("nilpotent", alg2, (HALF, HALF, (0, HALF)))
    assert z == alg2.element((0, HALF, HALF, (0, HALF)))
    assert q * q == q
    assert w * w * w == w and w * w != w
    assert (z * z).is_zero


def test_split_fixtures_h23(qsqrt6, qsqrt2):
    alg = QuatAlgebra(qsqrt6, 2, 3)
    sixth = (0, Fraction(1, 3))
    q1 = split_generate("idempotent", alg, (1, 1, sixth))
    q2 = split_generate("tripotent", alg, (1, 1, sixth))
    assert q1 == alg.element((HALF, HALF, HALF, (0, Fraction(1, 6))))
    assert q2 == alg.element((-HALF, HALF, HALF, (0, Fraction(1, 6))))
    alg2 = QuatAlgebra(qsqrt2, 2, 3)
    root2 = (0, 1)
    q3 = split_generate("idempotent", alg2, (root2, 1, 1))
    q4 = split_generate("tripotent", alg2, (root2, 1, 1))
    assert q3 == alg2.element((HALF, (0, HALF), HALF, HALF))
    assert q4 == alg2.element((-HALF, (0, HALF), HALF, HALF))
    for e in (q1, q3):
        assert e * e == e
    for e in (q2, q4):
        assert e * e * e == e and e * e != e


def test_split_invariants(rationals):
    alg = QuatAlgebra(rationals, 1, 1)
    # direction (2,3,3): pure norm -4, so the scaling is sqrt(1/16) = 1/4
    q = split_generate("idempotent", alg, (2, 3, 3))
    w = split_generate("tripotent", alg, (2, 3, 3))
    assert q == alg.element((HALF, HALF, Fraction(3, 4), Fraction(3, 4)))
    for e, t in ((q, 1), (w, -1)):
        assert e.norm().is_zero
        assert e.trace() == t


def test_split_classifications(rationals, qsqrt2):
    alg = QuatAlgebra(rationals, 1, 1)
    assert classify(split_generate("idempotent", alg, (1, 1, 1))).index == 2
    assert classify(split_generate("tripotent", alg, (1, 1, 1))).index == 3
    nil = split_generate("nilpotent", QuatAlgebra(qsqrt2, 1, 1), (HALF, HALF, (0, HALF)))
    rep = classify(nil)
    assert (rep.kind, rep.index) == ("nilpotent", 2)


def test_split_octonion(rationals):
    alg = OctAlgebra(rationals, 1, 1, 1)
    q = split_generate("idempotent", alg, (1, 1, 1, 0, 0, 0, 0))
    assert q * q == q
    nil = split_generate("nilpotent", alg, (1, 0, 1, 0, 0, 0, 0))
    assert not nil.is_zero and (nil * nil).is_zero


def test_split_over_prime_field(f13):
    alg = QuatAlgebra(f13, -1, -1)
    # direction (1,3,0): pure norm 10, -1/(4*10) = 12 = 5^2 mod 13
    q = split_generate("idempotent", alg, (1, 3, 0))
    assert q == alg.element((7, 5, 2, 0))
    assert q * q == q and q.norm().is_zero


def test_split_errors(rationals, hq):
    alg = QuatAlgebra(rationals, 1, 1)
    with pytest.raises(GenerationError, match="norm-zero"):
        split_generate("nilpotent", alg, (1, 1, 1))
    with pytest.raises(GenerationError, match="nonzero"):
        split_generate("nilpotent", alg, (0, 0, 0))
    with pytest.raises(GenerationError):
        split_generate("idempotent", alg, (3, 4, 5))  # pure norm 0
    with pytest.raises(GenerationError):
        split_generate("idempotent", hq, (1, 1, 1))  # division algebra
    with pytest.raises(GenerationError):
        split_generate("septempotent", alg, (1, 1, 1))
    with pytest.raises(GenerationError):
        split_generate("idempotent", alg, (1, 1))


# -- transport to matrices ----------------------------------------------------------------


def test_generated_elements_transport_to_matrices(rationals, hq):
    x = rotor_generate(7, (1, 1, 1), hq)
    for rep_fn in (left_rep, right_rep):
        m = rep_fn(x)
        assert (m ** 6) * m == m
    alg = QuatAlgebra(rationals, 1, 1)
    q = split_generate("idempotent", alg, (1, 1, 1))
    w = split_generate("tripotent", alg, (1, 1, 1))
    for rep_fn in (left_rep, right_rep):
        assert rep_fn(q) ** 2 == rep_fn(q)
        assert rep_fn(w) ** 3 == rep_fn(w)
        assert rep_fn(w) ** 2 != rep_fn(w)


def test_division_parameter_kpotents_have_unit_norm(hq, hq2):
    # over Q / Q(sqrt d) with a = b = -1 any nonzero k-potent has norm 1
    directions = {3: (1, 1, 1), 4: (1, 1, 1), 5: (1, 2, 2), 7: (1, 1, 1)}
    for alg in (hq, hq2):
        for k in SUPPORTED_ROTOR_KS:
            x = rotor_generate(k, directions[k], alg)
            assert x.norm().is_one
