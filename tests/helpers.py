"""Shared test utilities, including the naive classification oracle.

The oracle classifies by literal repeated element multiplication and is the
slow, independent route that census results are checked against;
``demoivre_power_check`` checks powers of unit quaternions by the same
literal multiplication against the angle-addition rule.  The brute-force
census, tail-count and witness scans below walk every coordinate tuple and
are the oracles for the norm-distribution routes in kpotent.search.  The hand-transcribed representation matrices and the
per-term schoolbook products are the literal-definition oracles for the
table-derived maps and the lazy-reduction kernel; the maps of the basis
elements also fix every entry of the basis tables that kpotent.algebra
derives by doubling.  The discrepancy polynomials of the identity
report's laws, read off the symbolic basis table, prove the report's
verdicts for every parameter at once; ``replay_random_tail`` puts back the
seeded random cases the report once ran after its basis tuples.
"""

import random
from fractions import Fraction
from itertools import chain, cycle, product
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
from kpotent import report
from kpotent.algebra import _doubling
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


def demoivre_power_check(algebra, cos_coord, pure_coords, n):
    """Check that powers of x = cos + pure follow the angle-addition rule.

    Both cos(m a) and sin(m a)/sin(a) obey the recursion
    v(m+1) = 2 cos(a) v(m) - v(m-1); the check compares x^m computed by
    repeated multiplication with cos(m a) + (sin(m a)/sin(a)) * pure for
    every m <= n and reports whether they all agree.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    field = algebra.field
    cos_a = field.element(cos_coord)
    pure = tuple(field.element(p) for p in pure_coords)
    if len(pure) != 3:
        raise ValueError("pure part must have exactly 3 coordinates")
    x = algebra.element((cos_a,) + pure)
    two = field.element(2)
    cos_prev, ratio_prev = field.one, field.zero     # m = 0
    cos_cur, ratio_cur = cos_a, field.one            # m = 1
    power = x
    for m in range(2, n + 1):
        power = power * x
        cos_cur, cos_prev = two * cos_a * cos_cur - cos_prev, cos_cur
        ratio_cur, ratio_prev = two * cos_a * ratio_cur - ratio_prev, ratio_cur
        expected = algebra.element((cos_cur,) + tuple(ratio_cur * p for p in pure))
        if power != expected:
            return False
    return True


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


def trial_squarefree(d):
    """Whether no square q^2 > 1 divides d, by trying every q up to sqrt d."""
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            return False
        i += 1
    return True


# -- the identity report's former random tail ---------------------------------


def _tail_seed(name, regime):
    h = 0
    for byte in f"{name}|{regime}".encode():
        h = (h * 131 + byte) & 0xFFFFFFFF
    return h ^ 0x5EED


def replay_random_tail(monkeypatch, basis=True):
    """Make ``kpotent.report`` check, for each suite and regime, the basis
    tuples (unless basis is False) and then the 12 seeded random tuples it
    once drew after them.  Each tail was seeded by the suite's name (its
    identifier, or "oct-block-forms") and the regime; ``report._cases`` is
    called once per suite and regime, in ``report._SUITES`` order."""
    cases = report._cases
    labels = {kind: [label for label, _ in report._algebras(kind)] for kind in report._KINDS}
    seeds = cycle([
        _tail_seed(idents[0] if len(idents) == 1 else "oct-block-forms", regime)
        for kind, _, idents, _ in report._SUITES for regime in labels[kind]
    ])

    def tail_cases(algebra, arity):
        # the seed is taken at the call, also for a walk that stops early
        rng = random.Random(next(seeds))
        tail = (tuple(algebra.random_element(rng) for _ in range(arity)) for _ in range(12))
        return chain(cases(algebra, arity), tail) if basis else tail

    monkeypatch.setattr(report, "_cases", tail_cases)


# -- discrepancy polynomials of the identity report's laws --------------------
#
# A polynomial in the parameters a, b, c is a dict {(ea, eb, ec): int}; a
# symbolic element is a dict {coordinate: polynomial} and a symbolic matrix
# a dict {(row, column): polynomial}.  Zero terms and entries are left out.

_ONE = {(0, 0, 0): 1}


def _poly_add(p, q, sign=1):
    out = dict(p)
    for e, v in q.items():
        w = out.get(e, 0) + sign * v
        if w:
            out[e] = w
        else:
            del out[e]
    return out


def _poly_mul(p, q):
    out = {}
    for e, v in p.items():
        for f, w in q.items():
            g = (e[0] + f[0], e[1] + f[1], e[2] + f[2])
            out[g] = out.get(g, 0) + v * w
    return {g: v for g, v in out.items() if v}


def _add_into(out, key, poly, sign=1):
    acc = _poly_add(out.get(key, {}), poly, sign)
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def _combine(*terms):
    """The sum of sign * value over (sign, value) terms, the values all
    symbolic elements or all symbolic matrices."""
    out = {}
    for sign, value in terms:
        for key, poly in value.items():
            _add_into(out, key, poly, sign)
    return out


class SymbolicAlgebra:
    """H(a,b) (dim 4) or O(a,b,c) (dim 8) with the parameters symbolic:
    f_i f_j = c_ij f_k, c_ij read off ``kpotent.algebra._doubling``."""

    def __init__(self, dim):
        self.dim = dim
        table, _ = _doubling(dim)
        self.table = [
            [(k, {(mask & 1, mask >> 1 & 1, mask >> 2 & 1): sign}) for k, sign, mask in row]
            for row in table
        ]
        # n(x) = sum w_i x_i^2 with w_0 = 1 and w_i = -c_ii
        self.weights = [_ONE] + [_poly_add({}, self.table[i][i][1], -1) for i in range(1, dim)]

    def basis(self, i):
        return {i: _ONE}

    def mul(self, x, y):
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                k, c = self.table[i][j]
                _add_into(out, k, _poly_mul(_poly_mul(xi, yj), c))
        return out

    def conj(self, x):
        return {i: v if i == 0 else _poly_add({}, v, -1) for i, v in x.items()}

    def left(self, x):
        """L(x)[k][j] = sum over i of x_i c_ij, where f_i f_j = c_ij f_k."""
        out = {}
        for i, xi in x.items():
            for j in range(self.dim):
                k, c = self.table[i][j]
                _add_into(out, (k, j), _poly_mul(xi, c))
        return out

    def right(self, x):
        """R(x)[k][i] = sum over j of x_j c_ij, where f_i f_j = c_ij f_k."""
        out = {}
        for j, xj in x.items():
            for i in range(self.dim):
                k, c = self.table[i][j]
                _add_into(out, (k, i), _poly_mul(xj, c))
        return out

    def polar_norm(self, x, w):
        """2B(x, w) = n(x + w) - n(x) - n(w) = 2 sum w_i x_i w_i."""
        out = {}
        for i, xi in x.items():
            if i in w:
                out = _poly_add(out, _poly_mul(self.weights[i], _poly_mul(xi, w[i])), 2)
        return out

    def identity(self, poly):
        return {(i, i): poly for i in range(self.dim)} if poly else {}


def _matmul(*mats):
    out = mats[0]
    for b in mats[1:]:
        rows = {}
        for (k, j), v in b.items():
            rows.setdefault(k, []).append((j, v))
        prod = {}
        for (i, k), u in out.items():
            for j, v in rows.get(k, ()):
                _add_into(prod, (i, j), _poly_mul(u, v))
        out = prod
    return out


def _transpose(m):
    return {(j, i): v for (i, j), v in m.items()}


def report_law_discrepancies():
    """{law identifier: its discrepancy polynomials} for the eight report
    laws that are not block forms.  A law holds in a regime iff each of
    its polynomials vanishes at the regime's parameters, in its field.

    The map laws and the conjugate-transpose laws are linear in each
    argument, so they are taken on basis tuples.  The inverse law, written
    L(x)L(conj x) = n(x) I, and the square and sandwich laws are quadratic
    in x; the characteristic is never 2, so each holds identically iff its
    polarization in x vanishes on basis pairs x = f_i, w = f_j with i <= j:
    L(x)L(conj w) + L(w)L(conj x) = 2B(x, w) I, rep(xw + wx) = rep(x)rep(w)
    + rep(w)rep(x), and rep(x(yw) + w(yx)) = rep(x)rep(y)rep(w) +
    rep(w)rep(y)rep(x) for every basis y (Schafer, *An Introduction to
    Nonassociative Algebras*, ch. III; McCrimmon, *A Taste of Jordan
    Algebras*, on linearization)."""
    out = {}
    for alg, prefix in ((SymbolicAlgebra(4), "quat"), (SymbolicAlgebra(8), "oct")):
        f = [alg.basis(i) for i in range(alg.dim)]
        maps = (alg.left, alg.right)
        pairs = [(x, w) for i, x in enumerate(f) for w in f[i:]]
        laws = {
            "conjugate-transpose-law": [
                _combine((1, rep(alg.conj(x))), (-1, _transpose(rep(x))))
                for x in f for rep in maps
            ],
        }
        if prefix == "quat":
            laws["left-map-multiplicative"] = [
                _combine((1, alg.left(alg.mul(x, y))), (-1, _matmul(alg.left(x), alg.left(y))))
                for x in f for y in f
            ]
            laws["right-map-direct-order"] = [
                _combine((1, alg.right(alg.mul(x, y))), (-1, _matmul(alg.right(x), alg.right(y))))
                for x in f for y in f
            ]
            laws["right-map-reversed-order"] = [
                _combine((1, alg.right(alg.mul(x, y))), (-1, _matmul(alg.right(y), alg.right(x))))
                for x in f for y in f
            ]
            laws["inverse-law"] = [
                _combine(
                    (1, _matmul(alg.left(x), alg.left(alg.conj(w)))),
                    (1, _matmul(alg.left(w), alg.left(alg.conj(x)))),
                    (-1, alg.identity(alg.polar_norm(x, w))),
                )
                for x, w in pairs
            ]
        else:
            laws["square-law"] = [
                _combine(
                    (1, rep(_combine((1, alg.mul(x, w)), (1, alg.mul(w, x))))),
                    (-1, _matmul(rep(x), rep(w))),
                    (-1, _matmul(rep(w), rep(x))),
                )
                for x, w in pairs for rep in maps
            ]
            laws["sandwich-law"] = [
                _combine(
                    (1, rep(_combine((1, alg.mul(x, alg.mul(y, w))), (1, alg.mul(w, alg.mul(y, x)))))),
                    (-1, _matmul(rep(x), rep(y), rep(w))),
                    (-1, _matmul(rep(w), rep(y), rep(x))),
                )
                for x, w in pairs for y in f for rep in maps
            ]
        for name, mats in laws.items():
            out[f"{prefix}-{name}"] = [poly for m in mats for poly in m.values()]
    return out


def evaluate_poly(poly, params):
    """The value of a polynomial at the parameters (a, b[, c]) of a field."""
    field = params[0].field
    values = list(params) + [field.one] * (3 - len(params))
    total = field.zero
    for exps, coeff in poly.items():
        term = field.element(coeff)
        for v, e in zip(values, exps):
            term = term * v ** e
        total = total + term
    return total
