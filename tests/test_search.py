import csv
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from kpotent import (
    OctAlgebra,
    PrimeField,
    QuatAlgebra,
    RationalField,
    SearchBudgetError,
    SplitMix64,
    census_to_csv,
    census_to_json,
    classify,
    search_exhaustive,
    search_sample,
    split_witness,
)
from kpotent.search import _suffix_counts

from helpers import brute_census, brute_witness, naive_census, replayed_sample_census

# Frozen exhaustive censuses, computed with the naive repeated-multiplication
# oracle before the search module existed and cross-checked against the
# conjugacy-class counts of 2x2 matrix algebras over F3 and F5.
F3_QUAT_ROWS = [
    ("k-potent", 2, 14, (0, 0, 0, 0)),
    ("k-potent", 3, 25, (0, 0, 1, 1)),
    ("k-potent", 4, 8, (1, 1, 1, 1)),
    ("k-potent", 5, 6, (0, 0, 0, 1)),
    ("k-potent", 7, 8, (2, 1, 1, 1)),
    ("k-potent", 9, 12, (1, 0, 0, 1)),
    ("nilpotent", 2, 8, (0, 1, 1, 1)),
]

F5_QUAT_COUNTS = {
    ("k-potent", 2): 32,
    ("k-potent", 3): 61,
    ("k-potent", 4): 20,
    ("k-potent", 5): 212,
    ("k-potent", 6): 24,
    ("k-potent", 7): 20,
    ("k-potent", 9): 40,
    ("k-potent", 11): 24,
    ("k-potent", 13): 40,
    ("k-potent", 21): 48,
    ("k-potent", 25): 80,
    ("nilpotent", 2): 24,
}

F3_OCT_COUNTS = {
    ("k-potent", 2): 758,
    ("k-potent", 3): 1513,
    ("k-potent", 4): 728,
    ("k-potent", 5): 702,
    ("k-potent", 7): 728,
    ("k-potent", 9): 1404,
    ("nilpotent", 2): 728,
}


@pytest.fixture
def h3():
    return QuatAlgebra(PrimeField(3), -1, -1)


@pytest.fixture
def h5():
    return QuatAlgebra(PrimeField(5), -1, -1)


@pytest.fixture
def o3():
    return OctAlgebra(PrimeField(3), -1, -1, -1)


def test_f3_census_frozen_rows(h3):
    rows = search_exhaustive(h3)
    assert [(r.kind, r.index, r.count, r.sample) for r in rows] == F3_QUAT_ROWS
    assert sum(r.count for r in rows) == 81


def test_f3_census_nilpotent_and_idempotent_counts(h3):
    rows = {(r.kind, r.index): r.count for r in search_exhaustive(h3)}
    # nonzero elements with square zero
    assert rows[("nilpotent", 2)] == 8
    # idempotents besides 0 and 1 (both classify as k-potent of index 2)
    assert rows[("k-potent", 2)] - 2 == 12


def test_f3_census_matches_naive_oracle(h3):
    rows = search_exhaustive(h3)
    assert [(r.kind, r.index, r.count, r.sample) for r in rows] == naive_census(h3)


def test_f5_census_counts(h5):
    rows = search_exhaustive(h5)
    assert {(r.kind, r.index): r.count for r in rows} == F5_QUAT_COUNTS
    assert sum(r.count for r in rows) == 625


def test_f5_showcase_lands_in_its_row(h5):
    rows = {(r.kind, r.index): r for r in search_exhaustive(h5)}
    row = rows[("k-potent", 5)]
    x = h5.element((2, 3, 1, 3))
    rep = classify(x, 64)
    assert (rep.kind, rep.index) == ("k-potent", 5)
    assert row.count == 212


def test_f3_octonion_census_counts(o3):
    rows = search_exhaustive(o3)
    assert {(r.kind, r.index): r.count for r in rows} == F3_OCT_COUNTS
    assert sum(r.count for r in rows) == 3 ** 8


def test_samples_reclassify_to_their_rows(h5, o3):
    for alg in (h5, o3):
        for row in search_exhaustive(alg):
            rep = classify(alg.element(row.sample), 64)
            assert (rep.kind, rep.index) == (row.kind, row.index)


def test_census_is_traversal_order_independent(h3):
    default = search_exhaustive(h3)
    for order in ([2, 0, 1], [1, 2, 0]):
        assert brute_census(h3, heads=order) == default


@pytest.mark.parametrize(
    "kind,p,params",
    [
        ("quat", 5, (-1, -1)),
        ("quat", 7, (2, 3)),
        ("oct", 3, (-1, -1, -1)),
        ("oct", 5, (2, 3, 1)),
        ("quat", 31, (-1, -1)),
    ],
    ids=["h-f5", "h23-f7", "o-f3", "o231-f5", "h-f31"],
)
def test_census_matches_brute_force(kind, p, params):
    cls = QuatAlgebra if kind == "quat" else OctAlgebra
    alg = cls(PrimeField(p), *params)
    assert search_exhaustive(alg) == brute_census(alg)


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 11, 13]),
    a=st.integers(1, 12),
    b=st.integers(1, 12),
    max_k=st.sampled_from([8, 64]),
)
def test_quaternion_census_sweep_matches_brute_force(p, a, b, max_k):
    alg = QuatAlgebra(PrimeField(p), a % p or 1, b % p or 1)
    assert search_exhaustive(alg, max_k) == brute_census(alg, max_k)


def _eta(a, p):
    """Quadratic character of a mod p (0 on 0)."""
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def _closed_form_count(weights, b, p):
    """Solutions of sum w_i x_i^2 = b over F_p (Lidl-Niederreiter 6.26/6.27)."""
    n = len(weights)
    det = 1
    for w in weights:
        det = det * w % p
    if n % 2:
        return p ** (n - 1) + p ** ((n - 1) // 2) * _eta((-1) ** ((n - 1) // 2) * b * det, p)
    v = p - 1 if b % p == 0 else -1
    return p ** (n - 1) + v * p ** ((n - 2) // 2) * _eta((-1) ** (n // 2) * det, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_suffix_counts_match_closed_forms(p):
    for cls, params in ((QuatAlgebra, (-1, 2)), (OctAlgebra, (2, -1, -2))):
        weights = cls(PrimeField(p), *params)._norm_raw
        suffix = _suffix_counts(p, weights)
        # the tail (3 or 7 variables, Thm 6.27) and the whole norm form
        # (4 or 8 variables, Thm 6.26)
        for start in (1, 0):
            expected = [_closed_form_count(weights[start:], m, p) for m in range(p)]
            assert suffix[start] == expected


def test_octonion_f97_census_is_fast():
    alg = OctAlgebra(PrimeField(97), -1, -1, -1)
    start = time.perf_counter()
    rows = search_exhaustive(alg)
    assert time.perf_counter() - start < 1.0
    assert sum(r.count for r in rows) == 97 ** 8


def test_exhaustive_budget(h5):
    big = OctAlgebra(PrimeField(1259), -1, -1, -1)
    with pytest.raises(SearchBudgetError, match="search_sample"):
        search_exhaustive(big)


@pytest.mark.parametrize("max_k", [1, 0, -5])
def test_search_rejects_max_k_below_two(h3, max_k):
    with pytest.raises(ValueError, match="max_k must be at least 2"):
        search_exhaustive(h3, max_k)
    with pytest.raises(ValueError, match="max_k must be at least 2"):
        search_sample(h3, 10, seed=1, max_k=max_k)


def test_search_requires_prime_field():
    halg = QuatAlgebra(RationalField(), 1, 1)
    with pytest.raises(ValueError):
        search_exhaustive(halg)
    with pytest.raises(ValueError):
        split_witness(halg)


# -- sampling ---------------------------------------------------------------------


def test_sampler_deterministic(o3):
    a = search_sample(o3, 2000, seed=99)
    b = search_sample(o3, 2000, seed=99)
    assert a == b
    assert sum(r.count for r in a) == 2000
    assert a != search_sample(o3, 2000, seed=100)


def test_sampler_budget_one_zero_draw(h3):
    # seed 33 opens with four below-3 draws of zero, i.e. the zero element
    gen = SplitMix64(33)
    assert [gen.below(3) for _ in range(4)] == [0, 0, 0, 0]
    rows = search_sample(h3, 1, seed=33)
    assert [(r.kind, r.index, r.count, r.sample) for r in rows] == [
        ("k-potent", 2, 1, (0, 0, 0, 0))
    ]


def test_sampler_validates_budget(h3):
    with pytest.raises(ValueError):
        search_sample(h3, 0, seed=1)


def test_sampler_finds_kpotents_over_f13():
    alg = OctAlgebra(PrimeField(13), -1, -1, -1)
    rows = search_sample(alg, 100000, seed=20240601)
    assert sum(r.count for r in rows) == 100000
    assert any(r.kind == "k-potent" for r in rows)
    # the showcase class is reachable: its index-13 row exists in the draw
    assert ("k-potent", 13) in {(r.kind, r.index) for r in rows}


@pytest.mark.parametrize(
    "alg,budget",
    [
        (OctAlgebra(PrimeField(7), -1, -1, -1), 3000),   # pairs repeat: memo hits
        (QuatAlgebra(PrimeField(1000003), 2, 5), 300),   # pairs rarely repeat
        (QuatAlgebra(PrimeField(3), -1, -1), 5),
    ],
    ids=["o-f7", "h25-f1000003", "h-f3"],
)
def test_sampler_matches_replayed_stream(alg, budget):
    for seed in (1, 2):
        assert search_sample(alg, budget, seed) == replayed_sample_census(alg, budget, seed)


def test_sampler_sample_is_lexicographic_minimum(h3):
    rows = search_sample(h3, 3000, seed=5)
    gen = SplitMix64(5)
    draws = [tuple(gen.below(3) for _ in range(4)) for _ in range(3000)]
    for row in rows:
        members = [
            d for d in draws
            if (lambda rep: (rep.kind, rep.index))(classify(h3.element(d), 64))
            == (row.kind, row.index)
        ]
        assert row.sample == min(members)
        assert row.count == len(members)


# -- split witnesses -----------------------------------------------------------------


def test_split_witness_h5(h5):
    w = split_witness(h5)
    assert w is not None
    assert w.norm().is_zero and not w.is_zero
    assert w == h5.element((0, 0, 1, 2))  # lexicographically first


def test_split_witness_octonion_f3(o3):
    w = split_witness(o3)
    assert w == o3.element((0, 0, 0, 0, 0, 1, 1, 1))
    assert w.norm().is_zero


def test_split_witness_matches_brute_force():
    algebras = [
        QuatAlgebra(PrimeField(p), a, b)
        for p in (3, 5, 7, 11, 13)
        for a in range(1, p)
        for b in range(1, p)
    ]
    algebras += [OctAlgebra(PrimeField(3), -1, -1, -1),
                 OctAlgebra(PrimeField(5), 2, 3, 1)]
    for alg in algebras:
        assert split_witness(alg) == alg.element(brute_witness(alg))


def test_split_witness_beyond_old_scan_budget():
    for alg in (QuatAlgebra(PrimeField(101), -1, -1),
                OctAlgebra(PrimeField(11), -1, -1, -1)):
        w = split_witness(alg)
        assert w.norm().is_zero and not w.is_zero


def test_split_witness_budget():
    with pytest.raises(SearchBudgetError):
        split_witness(OctAlgebra(PrimeField(3547), -1, -1, -1))


def test_split_witness_every_odd_prime_quaternion():
    # quaternion algebras over finite fields are always split
    for p in (3, 5, 7, 13):
        alg = QuatAlgebra(PrimeField(p), -1, -1)
        w = split_witness(alg)
        assert w is not None and w.norm().is_zero and not w.is_zero


# -- emitters ---------------------------------------------------------------------------


def test_census_csv_shape(h3):
    rows = search_exhaustive(h3)
    text = census_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["kind", "index", "count", "sample"]
    assert len(parsed) == len(rows) + 1
    assert parsed[1] == ["k-potent", "2", "14", "0,0,0,0"]


def test_census_json_shape(h3):
    rows = search_exhaustive(h3)
    data = json.loads(census_to_json(rows))
    assert data[0] == {"kind": "k-potent", "index": 2, "count": 14, "sample": "0,0,0,0"}
    assert len(data) == len(rows)


def test_splitmix_reference_stream():
    # SplitMix64 from seed 0; reference values pin the generator contract
    gen = SplitMix64(0)
    assert [gen.next64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
