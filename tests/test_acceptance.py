"""Acceptance suite: every exit criterion, one test each, at its stated
tolerance.  Each test prints one PASS/FAIL line (run with -s to see them).

Timing-bounded criteria measure the best of three runs of the exact
operations under test, with fixture parsing kept outside the clock.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from kpotent import (
    GenerationError,
    OctAlgebra,
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
    rotor_generate,
    search_exhaustive,
    split_generate,
)

from helpers import matrix_from, naive_census, replay_random_tail

HALF = Fraction(1, 2)

LAW_FIELDS = (
    ("f5", lambda: PrimeField(5)),
    ("f13", lambda: PrimeField(13)),
    ("q", RationalField),
    ("q[sqrt2]", lambda: QuadraticField(2)),
)

QUAT_PARAM_SETS = ((-1, -1), (1, 1), (2, 3))


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def seeded_elements(algebra, seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        yield algebra.random_element(rng)


def seeded_pairs(algebra, seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        yield algebra.random_element(rng), algebra.random_element(rng)


def seeded_triples(algebra, seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        yield (
            algebra.random_element(rng),
            algebra.random_element(rng),
            algebra.random_element(rng),
        )


# -- criterion 1: the F5 quaternion showcase --------------------------------------


def test_criterion_1_f5_quaternion_showcase():
    field = PrimeField(5)
    alg = QuatAlgebra(field, -1, -1)
    x = alg.element((2, 3, 1, 3))
    expected_left = matrix_from(field, ["2,-3,-1,-3", "3,2,-3,1", "1,3,2,-3", "3,-1,3,2"])
    expected_right = matrix_from(field, ["2,-3,-1,-3", "3,2,3,-1", "1,-3,2,3", "3,1,-3,2"])
    identity = SquareMatrix.identity(4, field)
    outcome = {}

    def workload():
        rep = classify(x, 16)
        outcome["classification"] = (rep.kind, rep.index)
        lm, rm = left_rep(x), right_rep(x)
        outcome["matrices"] = (lm == expected_left and rm == expected_right)
        outcome["pows"] = (lm ** 4 == identity and rm ** 4 == identity)

    with criterion("ACCEPTANCE 1 (F5 quaternion showcase, exact, <1ms)"):
        runtime = best_of(workload)
        assert outcome["classification"] == ("k-potent", 5)
        assert outcome["matrices"]
        assert outcome["pows"]
        assert runtime < 1e-3, f"took {runtime * 1e3:.3f} ms"


# -- criterion 2: the F13 octonion showcase ----------------------------------------


def test_criterion_2_f13_octonion_showcase():
    field = PrimeField(13)
    alg = OctAlgebra(field, -1, -1, -1)
    x = alg.element((3, 2, 1, 1, 1, 1, 1, 1))
    expected_left = matrix_from(field, [
        "3,-2,-1,-1,-1,-1,-1,-1",
        "2,3,-1,1,-1,1,1,-1",
        "1,1,3,-2,-1,-1,1,1",
        "1,-1,2,3,-1,1,-1,1",
        "1,1,1,1,3,-2,-1,-1",
        "1,-1,1,-1,2,3,1,-1",
        "1,-1,-1,1,1,-1,3,2",
        "1,1,-1,-1,1,1,-2,3",
    ])
    expected_right = matrix_from(field, [
        "3,-2,-1,-1,-1,-1,-1,-1",
        "2,3,1,-1,1,-1,-1,1",
        "1,-1,3,2,1,1,-1,-1",
        "1,1,-2,3,1,-1,1,-1",
        "1,-1,-1,-1,3,2,1,1",
        "1,1,-1,1,-2,3,-1,1",
        "1,1,1,-1,-1,1,3,-2",
        "1,-1,1,1,-1,-1,2,3",
    ])
    identity = SquareMatrix.identity(8, field)
    outcome = {}

    def workload():
        rep = classify(x, 16)
        outcome["classification"] = (rep.kind, rep.index)
        lm, rm = left_rep(x), right_rep(x)
        outcome["matrices"] = (lm == expected_left and rm == expected_right)
        outcome["pows"] = (lm ** 12 == identity and rm ** 12 == identity)

    with criterion("ACCEPTANCE 2 (F13 octonion showcase, exact, <10ms)"):
        runtime = best_of(workload)
        assert outcome["classification"] == ("k-potent", 13)
        assert outcome["matrices"]
        assert outcome["pows"]
        assert runtime < 1e-2, f"took {runtime * 1e3:.3f} ms"


# -- criterion 3: rotor constructions ------------------------------------------------


def test_criterion_3_rotor_constructions():
    rationals = RationalField()
    qsqrt2 = QuadraticField(2)
    hq = QuatAlgebra(rationals, -1, -1)
    hq2 = QuatAlgebra(qsqrt2, -1, -1)
    root2 = (0, 1)
    cases = [
        # (algebra, k, direction, element, left rows, right rows)
        (
            hq, 7, (1, 1, 1), (HALF, HALF, HALF, HALF),
            ["1/2,-1/2,-1/2,-1/2", "1/2,1/2,-1/2,1/2",
             "1/2,1/2,1/2,-1/2", "1/2,-1/2,1/2,1/2"],
            ["1/2,-1/2,-1/2,-1/2", "1/2,1/2,1/2,-1/2",
             "1/2,-1/2,1/2,1/2", "1/2,1/2,-1/2,1/2"],
        ),
        (
            hq, 4, (1, -1, 1), (-HALF, HALF, -HALF, HALF),
            ["-1/2,-1/2,1/2,-1/2", "1/2,-1/2,-1/2,-1/2",
             "-1/2,1/2,-1/2,-1/2", "1/2,1/2,1/2,-1/2"],
            ["-1/2,-1/2,1/2,-1/2", "1/2,-1/2,1/2,1/2",
             "-1/2,-1/2,-1/2,1/2", "1/2,-1/2,-1/2,-1/2"],
        ),
        (
            hq2, 5, (1, -1, root2), (0, HALF, -HALF, (0, HALF)),
            ["0,-1/2,1/2,-1/2s", "1/2,0,-1/2s,-1/2",
             "-1/2,1/2s,0,-1/2", "1/2s,1/2,1/2,0"],
            ["0,-1/2,1/2,-1/2s", "1/2,0,1/2s,1/2",
             "-1/2,-1/2s,0,1/2", "1/2s,-1/2,-1/2,0"],
        ),
    ]
    with criterion("ACCEPTANCE 3 (rotor constructions, exact)"):
        for alg, k, direction, coords, left_rows, right_rows in cases:
            x = rotor_generate(k, direction, alg)
            assert x == alg.element(coords)
            rep = classify(x, k + 1)
            assert (rep.kind, rep.index) == ("k-potent", k)
            assert left_rep(x) == matrix_from(alg.field, left_rows)
            assert right_rep(x) == matrix_from(alg.field, right_rows)


# -- criterion 4: split constructions --------------------------------------------------


def test_criterion_4_split_constructions():
    rationals = RationalField()
    qsqrt2 = QuadraticField(2)
    qsqrt6 = QuadraticField(6)
    h11 = QuatAlgebra(rationals, 1, 1)
    h11_r2 = QuatAlgebra(qsqrt2, 1, 1)
    h23_r6 = QuatAlgebra(qsqrt6, 2, 3)
    h23_r2 = QuatAlgebra(qsqrt2, 2, 3)
    root2 = (0, 1)
    sixth_root6 = (0, Fraction(1, 3))
    cases = [
        # (algebra, kind, direction, element, left rows, right rows)
        (
            h11, "idempotent", (1, 1, 1), (HALF, HALF, HALF, HALF),
            ["1/2,1/2,1/2,-1/2", "1/2,1/2,1/2,-1/2",
             "1/2,-1/2,1/2,1/2", "1/2,-1/2,1/2,1/2"],
            ["1/2,1/2,1/2,-1/2", "1/2,1/2,-1/2,1/2",
             "1/2,1/2,1/2,-1/2", "1/2,1/2,-1/2,1/2"],
        ),
        (
            h11, "tripotent", (1, 1, 1), (-HALF, HALF, HALF, HALF),
            ["-1/2,1/2,1/2,-1/2", "1/2,-1/2,1/2,-1/2",
             "1/2,-1/2,-1/2,1/2", "1/2,-1/2,1/2,-1/2"],
            ["-1/2,1/2,1/2,-1/2", "1/2,-1/2,-1/2,1/2",
             "1/2,1/2,-1/2,-1/2", "1/2,1/2,-1/2,-1/2"],
        ),
        (
            h11_r2, "nilpotent", (HALF, HALF, (0, HALF)),
            (0, HALF, HALF, (0, HALF)),
            ["0,1/2,1/2,-1/2s", "1/2,0,1/2s,-1/2",
             "1/2,-1/2s,0,1/2", "1/2s,-1/2,1/2,0"],
            ["0,1/2,1/2,-1/2s", "1/2,0,-1/2s,1/2",
             "1/2,1/2s,0,-1/2", "1/2s,1/2,-1/2,0"],
        ),
        (
            h23_r6, "idempotent", (1, 1, sixth_root6),
            (HALF, HALF, HALF, (0, Fraction(1, 6))),
            ["1/2,1,3/2,-1s", "1/2,1/2,1/2s,-3/2",
             "1/2,-1/3s,1/2,1", "1/6s,-1/2,1/2,1/2"],
            ["1/2,1,3/2,-1s", "1/2,1/2,-1/2s,3/2",
             "1/2,1/3s,1/2,-1", "1/6s,1/2,-1/2,1/2"],
        ),
        (
            h23_r6, "tripotent", (1, 1, sixth_root6),
            (-HALF, HALF, HALF, (0, Fraction(1, 6))),
            ["-1/2,1,3/2,-1s", "1/2,-1/2,1/2s,-3/2",
             "1/2,-1/3s,-1/2,1", "1/6s,-1/2,1/2,-1/2"],
            ["-1/2,1,3/2,-1s", "1/2,-1/2,-1/2s,3/2",
             "1/2,1/3s,-1/2,-1", "1/6s,1/2,-1/2,-1/2"],
        ),
        (
            h23_r2, "idempotent", (root2, 1, 1),
            (HALF, (0, HALF), HALF, HALF),
            ["1/2,1s,3/2,-3", "1/2s,1/2,3/2,-3/2",
             "1/2,-1,1/2,1s", "1/2,-1/2,1/2s,1/2"],
            ["1/2,1s,3/2,-3", "1/2s,1/2,-3/2,3/2",
             "1/2,1,1/2,-1s", "1/2,1/2,-1/2s,1/2"],
        ),
        (
            h23_r2, "tripotent", (root2, 1, 1),
            (-HALF, (0, HALF), HALF, HALF),
            ["-1/2,1s,3/2,-3", "1/2s,-1/2,3/2,-3/2",
             "1/2,-1,-1/2,1s", "1/2,-1/2,1/2s,-1/2"],
            ["-1/2,1s,3/2,-3", "1/2s,-1/2,-3/2,3/2",
             "1/2,1,-1/2,-1s", "1/2,1/2,-1/2s,-1/2"],
        ),
    ]
    with criterion("ACCEPTANCE 4 (split constructions, exact)"):
        for alg, kind, direction, coords, left_rows, right_rows in cases:
            x = split_generate(kind, alg, direction)
            assert x == alg.element(coords), kind
            lm, rm = left_rep(x), right_rep(x)
            assert lm == matrix_from(alg.field, left_rows)
            assert rm == matrix_from(alg.field, right_rows)
            for m in (lm, rm):
                if kind == "idempotent":
                    assert m ** 2 == m
                elif kind == "tripotent":
                    assert m ** 3 == m and m ** 2 != m
                else:
                    assert (m ** 2).is_zero


# -- criterion 5: algebraic law sweeps, 1000 cases per field per law --------------------


N_CASES = 1000


@pytest.mark.parametrize("token,make_field", LAW_FIELDS, ids=[t for t, _ in LAW_FIELDS])
def test_criterion_5_quaternion_laws(token, make_field):
    field = make_field()
    alg = QuatAlgebra(field, -1, -1)
    with criterion(f"ACCEPTANCE 5 (quaternion laws, 1000 cases, {token})"):
        for x in seeded_elements(alg, 50, N_CASES):
            assert x.satisfies_quadratic_identity()
        for x, y in seeded_pairs(alg, 51, N_CASES):
            assert (x * y).norm() == x.norm() * y.norm()
        for x, y in seeded_pairs(alg, 52, N_CASES):
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        rng = random.Random(53)
        for _ in range(N_CASES):
            x = alg.random_element(rng)
            m = rng.randint(0, 8)
            n = rng.randint(0, 8 - m)
            assert (x ** m) * (x ** n) == x ** (m + n)


@pytest.mark.parametrize("token,make_field", LAW_FIELDS, ids=[t for t, _ in LAW_FIELDS])
def test_criterion_5_octonion_laws(token, make_field):
    field = make_field()
    alg = OctAlgebra(field, -1, -1, -1)
    with criterion(f"ACCEPTANCE 5 (octonion laws, 1000 cases, {token})"):
        for x in seeded_elements(alg, 54, N_CASES):
            assert x.satisfies_quadratic_identity()
        for x, y in seeded_pairs(alg, 55, N_CASES):
            assert (x * y).norm() == x.norm() * y.norm()
        for x, y in seeded_pairs(alg, 56, N_CASES):
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        for x, y in seeded_pairs(alg, 57, N_CASES):
            assert (x * x) * y == x * (x * y)
            assert (y * x) * x == y * (x * x)
        for x, y in seeded_pairs(alg, 58, N_CASES):
            assert x * (y * x) == (x * y) * x
        for x, y, z in seeded_triples(alg, 59, N_CASES):
            assert ((x * y) * x) * z == x * (y * (x * z))
        rng = random.Random(60)
        for _ in range(N_CASES):
            x = alg.random_element(rng)
            m = rng.randint(0, 8)
            n = rng.randint(0, 8 - m)
            assert (x ** m) * (x ** n) == x ** (m + n)


# -- criterion 6: representation laws and report stability -------------------------------


@pytest.mark.parametrize("token,make_field", LAW_FIELDS, ids=[t for t, _ in LAW_FIELDS])
def test_criterion_6_left_map_multiplicative(token, make_field):
    field = make_field()
    with criterion(f"ACCEPTANCE 6a (left map multiplicative, 1000 pairs, {token})"):
        for params in QUAT_PARAM_SETS:
            alg = QuatAlgebra(field, *params)
            for x, y in seeded_pairs(alg, 61, N_CASES):
                assert left_rep(x * y) == left_rep(x) * left_rep(y)


@pytest.mark.parametrize("token,make_field", LAW_FIELDS, ids=[t for t, _ in LAW_FIELDS])
def test_criterion_6_power_law_all_maps(token, make_field):
    field = make_field()
    with criterion(f"ACCEPTANCE 6b (power law n<=12, four maps, {token})"):
        for alg in (QuatAlgebra(field, -1, -1), OctAlgebra(field, -1, -1, -1)):
            for x in seeded_elements(alg, 62, 25):
                lm, rm = left_rep(x), right_rep(x)
                lpow = SquareMatrix.identity(alg.dim, field)
                rpow = SquareMatrix.identity(alg.dim, field)
                xpow = alg.one
                for _ in range(12):
                    lpow, rpow, xpow = lpow * lm, rpow * rm, xpow * x
                    assert left_rep(xpow) == lpow
                    assert right_rep(xpow) == rpow


@pytest.mark.parametrize("token,make_field", LAW_FIELDS, ids=[t for t, _ in LAW_FIELDS])
def test_criterion_6_octonion_sandwich_laws(token, make_field):
    field = make_field()
    alg = OctAlgebra(field, -1, -1, -1)
    with criterion(f"ACCEPTANCE 6c (octonion sandwich laws, {token})"):
        for x, y in seeded_pairs(alg, 63, 100):
            sandwiched = x * (y * x)
            for rep in (left_rep, right_rep):
                assert rep(sandwiched) == rep(x) * rep(y) * rep(x)
                assert rep(x * x) == rep(x) ** 2


def test_criterion_6_report_stability(monkeypatch):
    with criterion("ACCEPTANCE 6d (identity report stable, route-independent)"):
        first = discrepancy_report()
        second = discrepancy_report()
        assert first == second
        # seeded random tuples after the basis tuples change nothing
        replay_random_tail(monkeypatch)
        assert discrepancy_report() == first


# -- criterion 7: multiplication-table oracle equivalence ---------------------------------


@pytest.mark.parametrize("token,make_field", LAW_FIELDS, ids=[t for t, _ in LAW_FIELDS])
def test_criterion_7_doubling_oracle_equivalence(token, make_field):
    field = make_field()
    with criterion(f"ACCEPTANCE 7 (table vs doubling, 64 basis + 1000 random, {token})"):
        for params in ((-1, -1, -1), (2, 3, 6)):
            alg = OctAlgebra(field, *params)
            for i in range(8):
                for j in range(8):
                    ei, ej = alg.basis_element(i), alg.basis_element(j)
                    assert cd_double_mul(ei, ej) == ei * ej
        alg = OctAlgebra(field, -1, -1, -1)
        for x, y in seeded_pairs(alg, 64, N_CASES):
            assert cd_double_mul(x, y) == x * y


# -- criterion 8: exhaustive censuses against the naive oracle -----------------------------


@pytest.mark.parametrize(
    "maker,label,total",
    [
        (lambda: QuatAlgebra(PrimeField(3), -1, -1), "H(-1,-1)/f3", 81),
        (lambda: QuatAlgebra(PrimeField(5), -1, -1), "H(-1,-1)/f5", 625),
        (lambda: OctAlgebra(PrimeField(3), -1, -1, -1), "O(-1,-1,-1)/f3", 6561),
    ],
    ids=["quat-f3", "quat-f5", "oct-f3"],
)
def test_criterion_8_census_matches_oracle(maker, label, total):
    alg = maker()
    with criterion(f"ACCEPTANCE 8 (census vs oracle, {label}, <1s)"):
        runtime = best_of(lambda: search_exhaustive(alg), repeats=2)
        rows = search_exhaustive(alg)
        assert sum(r.count for r in rows) == total
        oracle = naive_census(alg)
        assert [(r.kind, r.index, r.count, r.sample) for r in rows] == oracle
        assert runtime < 1.0, f"took {runtime:.3f} s"


# -- criterion 9: round trips ----------------------------------------------------------------


def _valid_rotor_directions(k, field, want=20):
    """Seeded random directions accepted by the generator, `want` of them."""
    rng = random.Random(90 + k)
    alg = QuatAlgebra(field, -1, -1)
    found = []
    attempts = 0
    while len(found) < want and attempts < 20000:
        attempts += 1
        if k in (4, 7):
            # |d|^2 must be 3 * square: random multiples/permutations of (1,1,1)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            sign = rng.choice((-1, 1))
            d = [sign * t, t, rng.choice((-1, 1)) * t]
            rng.shuffle(d)
        elif k == 5:
            base = rng.choice([(1, 2, 2), (2, 3, 6), (1, 4, 8), (6, 6, 3)])
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            d = [rng.choice((-1, 1)) * t * c for c in base]
            rng.shuffle(d)
        else:
            d = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
            if all(c == 0 for c in d):
                continue
        try:
            rotor_generate(k, tuple(d), alg)
        except GenerationError:
            continue
        found.append(tuple(d))
    return found


def test_criterion_9_rotor_round_trips():
    with criterion("ACCEPTANCE 9a (classify . rotor = k, 20 directions per field)"):
        for field in (RationalField(), QuadraticField(2), QuadraticField(3)):
            for k in (3, 4, 5, 7):
                alg = QuatAlgebra(field, -1, -1)
                directions = _valid_rotor_directions(k, field)
                assert len(directions) == 20, (field, k)
                for d in directions:
                    x = rotor_generate(k, d, alg)
                    rep = classify(x, k + 1)
                    assert (rep.kind, rep.index) == ("k-potent", k)


def test_criterion_9_split_round_trips():
    rationals = RationalField()
    alg = QuatAlgebra(rationals, 1, 1)
    rng = random.Random(91)
    with criterion("ACCEPTANCE 9b (classify . split matches requested kind)"):
        done = {"idempotent": 0, "tripotent": 0}
        attempts = 0
        while min(done.values()) < 20 and attempts < 20000:
            attempts += 1
            d = tuple(rng.randint(-9, 9) for _ in range(3))
            for kind, expect in (("idempotent", 2), ("tripotent", 3)):
                if done[kind] >= 20:
                    continue
                try:
                    x = split_generate(kind, alg, d)
                except GenerationError:
                    continue
                rep = classify(x, 8)
                assert (rep.kind, rep.index) == ("k-potent", expect)
                done[kind] += 1
        assert done == {"idempotent": 20, "tripotent": 20}
        for _ in range(20):
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            triple = rng.choice([(3, 4, 5), (5, 12, 13), (8, 15, 17)])
            d = tuple(t * c for c in triple)
            x = split_generate("nilpotent", alg, d)
            rep = classify(x, 8)
            assert (rep.kind, rep.index) == ("nilpotent", 2)


def test_criterion_9_parse_print_round_trips():
    with criterion("ACCEPTANCE 9c (parse . print identity, elements and matrices)"):
        for _, make_field in LAW_FIELDS:
            field = make_field()
            for alg in (QuatAlgebra(field, 2, 3), OctAlgebra(field, 2, 3, 6)):
                for x in seeded_elements(alg, 92, 50):
                    assert alg.parse_element(str(x)) == x
                    assert field.parse(str(x.norm())) == x.norm()
                for x in seeded_elements(alg, 93, 10):
                    m = left_rep(x)
                    assert SquareMatrix.from_csv(field, m.to_csv()) == m
                    assert SquareMatrix.from_json(field, m.to_json()) == m
                    assert json.loads(m.to_json()) == m.to_lists()
