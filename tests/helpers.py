"""Shared test utilities, including the naive classification oracle.

The oracle classifies by literal repeated element multiplication and is the
slow, independent route that census results are checked against.  The
brute-force census and witness scans below walk every coordinate tuple and
are the oracles for the norm-distribution routes in kpotent.search.
"""

import random
from itertools import product

from kpotent import (
    OctAlgebra,
    PrimeField,
    QuadraticField,
    QuatAlgebra,
    RationalField,
    SplitMix64,
    SquareMatrix,
)
from kpotent.search import _merge, _rows


def naive_potency(x, max_k=64):
    """(kind, index) from the literal definition, by repeated multiplication."""
    power = x
    for k in range(2, max_k + 1):
        power = power * x
        if power == x:
            return ("k-potent", k)
        if power.is_zero:
            return ("nilpotent", k)
    return ("none", max_k)


def naive_census(algebra, max_k=64):
    """Enumerate every element; rows shaped like the search module's output."""
    p = algebra.field.p
    census = {}
    for coords in product(range(p), repeat=algebra.dim):
        key = naive_potency(algebra.element(coords), max_k)
        entry = census.setdefault(key, [0, coords])
        entry[0] += 1
    return [
        (kind, index, count, sample)
        for (kind, index), (count, sample) in sorted(census.items())
    ]


def raw_classifier(algebra, max_k=64):
    """Classify raw residue tuples via the quadratic-plane power recursion."""
    p = algebra.field.p
    norm_coeffs = algebra._norm_raw

    def classify_raw(coords):
        scalar = coords[0]
        if all(c == 0 for c in coords[1:]):
            if scalar == 0:
                return ("k-potent", 2)
            pw = scalar
            for k in range(2, max_k + 1):
                pw = pw * scalar % p
                if pw == scalar:
                    return ("k-potent", k)
            return ("none", max_k)
        t = 2 * scalar % p
        n = 0
        for w, c in zip(norm_coeffs, coords):
            n = (n + w * c * c) % p
        u, v = 0, 1   # x^1 = 0 + 1*x
        for k in range(2, max_k + 1):
            u, v = -n * v % p, (u + t * v) % p
            if u == 0:
                if v == 1:
                    return ("k-potent", k)
                if v == 0:
                    return ("nilpotent", k)
        return ("none", max_k)

    return classify_raw


def prefix_census(census, algebra, head, max_k=64):
    """Merge the census of every tuple with leading coordinate `head`."""
    classify_raw = raw_classifier(algebra, max_k)
    p, dim = algebra.field.p, algebra.dim
    for tail in product(range(p), repeat=dim - 1):
        coords = (head,) + tail
        _merge(census, classify_raw(coords), 1, coords)


def brute_census(algebra, max_k=64, heads=None):
    """CensusRows from visiting every coordinate tuple, heads in the given order."""
    census = {}
    for head in range(algebra.field.p) if heads is None else heads:
        prefix_census(census, algebra, head, max_k)
    return _rows(census)


def replayed_sample_census(algebra, budget, seed, max_k=64):
    """CensusRows from replaying the SplitMix64 draws of search_sample."""
    classify_raw = raw_classifier(algebra, max_k)
    p, dim = algebra.field.p, algebra.dim
    gen = SplitMix64(seed)
    census = {}
    for _ in range(budget):
        coords = tuple(gen.below(p) for _ in range(dim))
        _merge(census, classify_raw(coords), 1, coords)
    return _rows(census)


def brute_witness(algebra):
    """Coordinates of the first nonzero norm-zero tuple in lexicographic order."""
    p = algebra.field.p
    for coords in product(range(p), repeat=algebra.dim):
        n = sum(w * c * c for w, c in zip(algebra._norm_raw, coords))
        if n % p == 0 and any(coords):
            return coords
    return None


def field_by_token(token):
    return {
        "f5": lambda: PrimeField(5),
        "f13": lambda: PrimeField(13),
        "q": RationalField,
        "q[sqrt2]": lambda: QuadraticField(2),
    }[token]()


ALL_FIELD_TOKENS = ("f5", "f13", "q", "q[sqrt2]")


def elements(algebra, seed, n):
    rng = random.Random(seed)
    return [algebra.random_element(rng) for _ in range(n)]


def element_pairs(algebra, seed, n):
    rng = random.Random(seed)
    return [
        (algebra.random_element(rng), algebra.random_element(rng)) for _ in range(n)
    ]


def element_triples(algebra, seed, n):
    rng = random.Random(seed)
    return [
        (
            algebra.random_element(rng),
            algebra.random_element(rng),
            algebra.random_element(rng),
        )
        for _ in range(n)
    ]


def matrix_from(field, rows):
    """Frozen matrix fixture: list of CSV row strings in the scalar grammar."""
    return SquareMatrix.from_csv(field, "\n".join(rows))


def quat(field, a, b):
    return QuatAlgebra(field, field.parse(a), field.parse(b))


def octo(field, a, b, c):
    return OctAlgebra(field, field.parse(a), field.parse(b), field.parse(c))
