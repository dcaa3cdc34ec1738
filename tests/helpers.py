"""Shared test utilities, including the naive classification oracle.

The oracle classifies by literal repeated element multiplication and is the
slow, independent route that census results are checked against.  The
brute-force census, tail-count and witness scans below walk every
coordinate tuple and are the oracles for the norm-distribution routes in
kpotent.search.  The hand-transcribed representation matrices and the
per-term schoolbook products are the literal-definition oracles for the
table-derived maps and the lazy-reduction kernel; the maps of the basis
elements also fix every entry of the basis tables that kpotent.algebra
derives by doubling.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

from kpotent import (
    OctAlgebra,
    PrimeField,
    QuadraticField,
    QuatAlgebra,
    Quaternion,
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


def brute_tail_counts(p, weights):
    """[#{x : sum w_i x_i^2 = m (mod p)} for m in range(p)], by visiting
    every coordinate tuple."""
    counts = [0] * p
    # one term w_i x_i^2 per coordinate value, so each tuple is one sum
    for terms in product(*[[w * c * c for c in range(p)] for w in weights]):
        counts[sum(terms) % p] += 1
    return counts


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


# -- literal-definition oracles for the representation maps and products -----


def _left4(q):
    alg = q.algebra
    a, b = alg.a, alg.b
    ab = a * b
    q0, q1, q2, q3 = q.coords
    return SquareMatrix(alg.field, (
        (q0, a * q1, b * q2, -(ab * q3)),
        (q1, q0, b * q3, -(b * q2)),
        (q2, -(a * q3), q0, a * q1),
        (q3, -q2, q1, q0),
    ))


def _right4(q):
    alg = q.algebra
    a, b = alg.a, alg.b
    ab = a * b
    q0, q1, q2, q3 = q.coords
    return SquareMatrix(alg.field, (
        (q0, a * q1, b * q2, -(ab * q3)),
        (q1, q0, -(b * q3), b * q2),
        (q2, a * q3, q0, -(a * q1)),
        (q3, q2, -q1, q0),
    ))


def _left8(x):
    alg = x.algebra
    a, b, c = alg.a, alg.b, alg.c
    ab, ac, bc = a * b, a * c, b * c
    abc = ab * c
    x0, x1, x2, x3, x4, x5, x6, x7 = x.coords
    return SquareMatrix(alg.field, (
        (x0, a * x1, b * x2, -(ab * x3), c * x4, -(ac * x5), -(bc * x6), abc * x7),
        (x1, x0, b * x3, -(b * x2), c * x5, -(c * x4), bc * x7, -(bc * x6)),
        (x2, -(a * x3), x0, a * x1, c * x6, -(ac * x7), -(c * x4), ac * x5),
        (x3, -x2, x1, x0, c * x7, -(c * x6), c * x5, -(c * x4)),
        (x4, -(a * x5), -(b * x6), ab * x7, x0, a * x1, b * x2, -(ab * x3)),
        (x5, -x4, -(b * x7), b * x6, x1, x0, -(b * x3), b * x2),
        (x6, a * x7, -x4, -(a * x5), x2, a * x3, x0, -(a * x1)),
        (x7, x6, -x5, -x4, x3, x2, -x1, x0),
    ))


def _right8(x):
    alg = x.algebra
    a, b, c = alg.a, alg.b, alg.c
    ab, ac, bc = a * b, a * c, b * c
    abc = ab * c
    x0, x1, x2, x3, x4, x5, x6, x7 = x.coords
    return SquareMatrix(alg.field, (
        (x0, a * x1, b * x2, -(ab * x3), c * x4, -(ac * x5), -(bc * x6), abc * x7),
        (x1, x0, -(b * x3), b * x2, -(c * x5), c * x4, -(bc * x7), bc * x6),
        (x2, a * x3, x0, -(a * x1), -(c * x6), ac * x7, c * x4, -(ac * x5)),
        (x3, x2, -x1, x0, -(c * x7), c * x6, -(c * x5), c * x4),
        (x4, a * x5, b * x6, -(ab * x7), x0, -(a * x1), -(b * x2), ab * x3),
        (x5, x4, b * x7, -(b * x6), -x1, x0, b * x3, -(b * x2)),
        (x6, -(a * x7), x4, a * x5, -x2, -(a * x3), x0, a * x1),
        (x7, -x6, x5, x4, -x3, -x2, x1, x0),
    ))


def transcribed_left_rep(x):
    """The left map of x, entries written out by hand from the basis table."""
    return _left4(x) if isinstance(x, Quaternion) else _left8(x)


def transcribed_right_rep(x):
    """The right map of x, entries written out by hand from the basis table."""
    return _right4(x) if isinstance(x, Quaternion) else _right8(x)


def schoolbook_mul(x, y):
    """x*y term by term from the structure constants, reducing every step.

    It reads the algebra's own table, ``_table_raw``, so it checks the
    product kernel, not the table; the transcribed maps above check the
    table."""
    alg = x.algebra
    field = alg.field
    acc = [field.zero] * alg.dim
    for i, xi in enumerate(x.coords):
        for j, yj in enumerate(y.coords):
            k, coeff = alg._table_raw[i][j]
            acc[k] = acc[k] + xi * yj * field.element(coeff)
    return alg.element(acc)


def schoolbook_matmul(a, b):
    """The matrix product with every entry summed term by term."""
    n = a.order
    field = a.field
    ra, rb = a.rows, b.rows
    return SquareMatrix(field, [
        [sum((ra[i][k] * rb[k][j] for k in range(n)), field.zero)
         for j in range(n)]
        for i in range(n)
    ])


def is_canonical(field, raw):
    """Residues in [0, p), reduced fractions, pairs of reduced fractions."""
    if isinstance(field, PrimeField):
        return type(raw) is int and 0 <= raw < field.p
    if isinstance(field, QuadraticField):
        if not (type(raw) is tuple and len(raw) == 2):
            return False
        parts = raw
    else:
        parts = (raw,)
    return all(
        type(v) is Fraction and v.denominator > 0
        and gcd(v.numerator, v.denominator) == 1
        for v in parts
    )


def is_canonical_lifted(field, ents, den):
    """Lifted storage in canonical form: a tuple of ints (pairs of ints over
    Q(sqrt d)) over den > 0 with gcd(den, every int) = 1; over F_p den is 1
    and the entries are residues in [0, p)."""
    if type(ents) is not tuple or type(den) is not int or den <= 0:
        return False
    if isinstance(field, PrimeField):
        return den == 1 and all(type(e) is int and 0 <= e < field.p for e in ents)
    if isinstance(field, QuadraticField):
        if not all(type(e) is tuple and len(e) == 2 for e in ents):
            return False
        ints = [c for e in ents for c in e]
    else:
        ints = list(ents)
    return all(type(c) is int for c in ints) and gcd(den, *ints) == 1


def least_roots(p):
    """{x: least y in [0, p/2] with y^2 = x mod p} for every square x, by
    scanning y: the literal definition of the canonical F_p square root."""
    roots = {}
    for y in range(p // 2 + 1):
        roots.setdefault(y * y % p, y)
    return roots
