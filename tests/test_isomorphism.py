"""Isomorphism oracles: facts that hold at every size, so they check the
handling of the parameters where no brute-force oracle reaches.

Both sides of each check run the same kernel, so a fault that is blind to
the parameters still needs the other oracles.  References: Lam,
*Introduction to Quadratic Forms over Fields*, ch. III; Voight,
*Quaternion Algebras*, ch. 5-6; Springer & Veldkamp, *Octonions, Jordan
Algebras and Exceptional Groups*, ch. 1.
"""

import random
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kpotent import (
    OctAlgebra,
    PrimeField,
    QuadraticField,
    QuatAlgebra,
    RationalField,
    SquareMatrix,
    classify,
    left_rep,
    right_rep,
    search_exhaustive,
)

H_PARAMS = ((-1, -1), (1, 1), (2, 3), (-2, 5), (3, -5))
O_PARAMS = ((-1, -1, -1), (1, 1, 1), (2, 3, 5), (-2, 3, -5))


def census_counts(algebra):
    return [(row.kind, row.index, row.count) for row in search_exhaustive(algebra)]


@pytest.mark.parametrize("kind,p", [("quat", 7), ("quat", 11), ("quat", 13), ("quat", 31),
                                    ("oct", 7), ("oct", 11), ("oct", 13)])
def test_census_counts_do_not_depend_on_parameters(kind, p):
    # every H(a,b) and O(a,b,c) over F_p is split, so only the samples of a
    # census depend on the parameters
    field = PrimeField(p)
    cls, param_sets = (QuatAlgebra, H_PARAMS) if kind == "quat" else (OctAlgebra, O_PARAMS)
    counts = [census_counts(cls(field, *params)) for params in param_sets]
    assert all(c == counts[0] for c in counts[1:])


FIELDS = (
    PrimeField(13),
    PrimeField(1048573),
    PrimeField(2**61 - 1),
    RationalField(),
    QuadraticField(2),
    QuadraticField(7),
)

nonzero = st.integers(-40, 40).filter(bool)


def scalar(field, draw_pair):
    r, s = draw_pair
    return field.element((r, s)) if isinstance(field, QuadraticField) else field.element(r)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    dim=st.sampled_from((4, 8)),
    params=st.lists(st.tuples(nonzero, st.integers(-3, 3)), min_size=3, max_size=3),
    scales=st.lists(st.tuples(nonzero, st.integers(-3, 3)), min_size=3, max_size=3),
    seed=st.integers(0, 2**32),
)
def test_rescaling_parameters_is_an_isomorphism(field, dim, params, scales, seed):
    # H(a,b) ~ H(a s1^2, b s2^2) and O(a,b,c) ~ O(a s1^2, b s2^2, c s3^2):
    # phi divides coordinate i by the product of the s_j over the set bits
    # j of i
    n_params = dim.bit_length() - 1
    values = [scalar(field, v) for v in params[:n_params]]
    s = [scalar(field, v) for v in scales[:n_params]]
    assume(not any(v.is_zero for v in values + s))
    cls = QuatAlgebra if dim == 4 else OctAlgebra
    alg = cls(field, *values)
    image = cls(field, *[v * t * t for v, t in zip(values, s)])
    factors = [prod((s[j] for j in range(n_params) if i >> j & 1), start=field.one)
               for i in range(dim)]

    def phi(x):
        return image.element([c / f for c, f in zip(x.coords, factors)])

    def diagonal(entries):
        return SquareMatrix(field, [[entries[r] if r == c else field.zero
                                     for c in range(dim)] for r in range(dim)])

    d, d_inv = diagonal([f.inv() for f in factors]), diagonal(factors)
    rng = random.Random(seed)
    x, y = alg.random_element(rng), alg.random_element(rng)
    assert phi(x * y) == phi(x) * phi(y)
    assert left_rep(phi(x)) == d * left_rep(x) * d_inv
    assert right_rep(phi(x)) == d * right_rep(x) * d_inv
    before, after = classify(x), classify(phi(x))
    assert (after.kind, after.index) == (before.kind, before.index)
