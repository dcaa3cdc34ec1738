import json
import random

import pytest

from kpotent import (
    OctAlgebra,
    ParseError,
    PrimeField,
    QuatAlgebra,
    SquareMatrix,
    block_check,
    left_rep,
    right_rep,
)

from helpers import (
    ALL_FIELD_TOKENS,
    element_pairs,
    elements,
    field_by_token,
    matrix_from,
    octo,
    quat,
)


@pytest.fixture(params=ALL_FIELD_TOKENS)
def field(request):
    return field_by_token(request.param)


# -- fixtures: the known matrices for the showcase elements ---------------------

F5_X = ("2", "3", "1", "3")
F5_LEFT = ["2,-3,-1,-3", "3,2,-3,1", "1,3,2,-3", "3,-1,3,2"]
F5_RIGHT = ["2,-3,-1,-3", "3,2,3,-1", "1,-3,2,3", "3,1,-3,2"]

F13_X = ("3", "2", "1", "1", "1", "1", "1", "1")
F13_LEFT = [
    "3,-2,-1,-1,-1,-1,-1,-1",
    "2,3,-1,1,-1,1,1,-1",
    "1,1,3,-2,-1,-1,1,1",
    "1,-1,2,3,-1,1,-1,1",
    "1,1,1,1,3,-2,-1,-1",
    "1,-1,1,-1,2,3,1,-1",
    "1,-1,-1,1,1,-1,3,2",
    "1,1,-1,-1,1,1,-2,3",
]
F13_RIGHT = [
    "3,-2,-1,-1,-1,-1,-1,-1",
    "2,3,1,-1,1,-1,-1,1",
    "1,-1,3,2,1,1,-1,-1",
    "1,1,-2,3,1,-1,1,-1",
    "1,-1,-1,-1,3,2,1,1",
    "1,1,-1,1,-2,3,-1,1",
    "1,1,1,-1,-1,1,3,-2",
    "1,-1,1,1,-1,-1,2,3",
]


def f5_showcase():
    field = PrimeField(5)
    alg = quat(field, "-1", "-1")
    return field, alg, alg.parse_element(",".join(F5_X))


def f13_showcase():
    field = PrimeField(13)
    alg = octo(field, "-1", "-1", "-1")
    return field, alg, alg.parse_element(",".join(F13_X))


def test_f5_showcase_matrices():
    field, _, x = f5_showcase()
    assert left_rep(x) == matrix_from(field, F5_LEFT)
    assert right_rep(x) == matrix_from(field, F5_RIGHT)


def test_f13_showcase_matrices():
    field, _, x = f13_showcase()
    assert left_rep(x) == matrix_from(field, F13_LEFT)
    assert right_rep(x) == matrix_from(field, F13_RIGHT)


def test_identity_maps_to_identity(field):
    halg = QuatAlgebra(field, 2, 3)
    oalg = OctAlgebra(field, 2, 3, 6)
    assert left_rep(halg.one) == SquareMatrix.identity(4, field)
    assert right_rep(halg.one) == SquareMatrix.identity(4, field)
    assert left_rep(oalg.one) == SquareMatrix.identity(8, field)
    assert right_rep(oalg.one) == SquareMatrix.identity(8, field)


def test_basis_extraction_for_all_minus_one(rationals):
    # reading the 8x8 left map at a single basis coordinate recovers the
    # structure constants of left multiplication by f1
    alg = OctAlgebra(rationals, -1, -1, -1)
    f1 = alg.basis_element(1)
    m = left_rep(f1)
    for j in range(8):
        expected = (f1 * alg.basis_element(j)).coords
        for i in range(8):
            assert m.rows[i][j] == expected[i]


# -- column oracle: representation matrices ARE multiplication tables -----------


def test_left_right_columns_match_products(field):
    rng = random.Random(21)
    for alg in (QuatAlgebra(field, 2, 3), OctAlgebra(field, 2, 3, 6)):
        for _ in range(12):
            x = alg.random_element(rng)
            lm, rm = left_rep(x), right_rep(x)
            for j in range(alg.dim):
                ej = alg.basis_element(j)
                left_col = (x * ej).coords
                right_col = (ej * x).coords
                for i in range(alg.dim):
                    assert lm.rows[i][j] == left_col[i]
                    assert rm.rows[i][j] == right_col[i]


# -- linearity, homomorphism, power, sandwich ------------------------------------


def test_linearity(field):
    rng = random.Random(22)
    for alg in (QuatAlgebra(field, 2, 3), OctAlgebra(field, 2, 3, 6)):
        for x, y in element_pairs(alg, 23, 25):
            lam = field.random_element(rng)
            for rep in (left_rep, right_rep):
                assert rep(x + y) == rep(x) + rep(y)
                assert rep(x.scale(lam)) == rep(x).scale(lam)


def test_left_map_is_multiplicative(field):
    alg = QuatAlgebra(field, 2, 3)
    for x, y in element_pairs(alg, 24, 100):
        assert left_rep(x * y) == left_rep(x) * left_rep(y)


def test_right_map_composes_in_reverse(field):
    alg = QuatAlgebra(field, 2, 3)
    seen_direct_failure = False
    for x, y in element_pairs(alg, 25, 100):
        assert right_rep(x * y) == right_rep(y) * right_rep(x)
        if right_rep(x * y) != right_rep(x) * right_rep(y):
            seen_direct_failure = True
    # the direct order genuinely fails (f1, f2 is a counterexample)
    f1, f2 = alg.basis_element(1), alg.basis_element(2)
    assert right_rep(f1 * f2) != right_rep(f1) * right_rep(f2)
    assert seen_direct_failure


def test_power_law_all_maps(field):
    for alg in (QuatAlgebra(field, 2, 3), OctAlgebra(field, 2, 3, 6)):
        for x in elements(alg, 26, 8):
            lm, rm = left_rep(x), right_rep(x)
            lpow = SquareMatrix.identity(alg.dim, field)
            rpow = SquareMatrix.identity(alg.dim, field)
            xpow = alg.one
            for n in range(1, 13):
                lpow, rpow, xpow = lpow * lm, rpow * rm, xpow * x
                assert left_rep(xpow) == lpow, n
                assert right_rep(xpow) == rpow, n


def test_octonion_square_and_sandwich_laws(field):
    alg = OctAlgebra(field, 2, 3, 6)
    for x, y in element_pairs(alg, 27, 30):
        for rep in (left_rep, right_rep):
            assert rep(x * x) == rep(x) ** 2
            assert rep(x * (y * x)) == rep(x) * rep(y) * rep(x)


def test_transpose_law_scope(field):
    # conj-transpose holds exactly at all-(-1) parameters
    div_h = QuatAlgebra(field, -1, -1)
    div_o = OctAlgebra(field, -1, -1, -1)
    for alg in (div_h, div_o):
        for x in elements(alg, 28, 25):
            assert left_rep(x.conjugate()) == left_rep(x).transpose()
            assert right_rep(x.conjugate()) == right_rep(x).transpose()
    gen_h = QuatAlgebra(field, 2, 3)
    f1 = gen_h.basis_element(1)
    assert left_rep(f1.conjugate()) != left_rep(f1).transpose()


def test_injectivity_on_samples(field):
    alg = OctAlgebra(field, 2, 3, 6)
    for x in elements(alg, 29, 25):
        if left_rep(x).is_zero:
            assert x.is_zero
        y = alg.random_element(random.Random(76))
        if left_rep(x) == left_rep(y):
            assert x == y


def test_inverse_law(field):
    alg = QuatAlgebra(field, 2, 3)
    identity = SquareMatrix.identity(4, field)
    for x in elements(alg, 30, 40):
        if x.norm().is_zero:
            continue
        assert left_rep(x) * left_rep(x.inverse()) == identity
        assert right_rep(x) * right_rep(x.inverse()) == identity


# -- block assembly --------------------------------------------------------------


def test_block_check_all_minus_one(rationals):
    alg = OctAlgebra(rationals, -1, -1, -1)
    rng = random.Random(31)
    for _ in range(10):
        rep = block_check(alg.random_element(rng))
        assert rep.left_classical_agrees
        assert rep.left_parametric_agrees
        assert rep.right_parametric_agrees
        # the classically quoted right form duplicates the first quaternion
        # half in its lower-left block, so it disagrees even here


def test_block_check_identity_element(rationals):
    alg = OctAlgebra(rationals, -1, -1, -1)
    rep = block_check(alg.one)
    assert rep.left_classical_agrees
    assert rep.left_parametric_agrees and rep.right_parametric_agrees
    # for x = 1 the quoted lower-left block is I4 instead of 0: exactly the
    # four diagonal positions of that block disagree
    assert rep.right_classical_mismatches == ((4, 0), (5, 1), (6, 2), (7, 3))


def test_block_check_general_parameters(field):
    alg = OctAlgebra(field, 2, 3, 6)
    rng = random.Random(32)
    saw_left_mismatch = False
    for _ in range(10):
        rep = block_check(alg.random_element(rng))
        assert rep.left_parametric_agrees
        assert rep.right_parametric_agrees
        saw_left_mismatch = saw_left_mismatch or not rep.left_classical_agrees
    assert saw_left_mismatch  # the fixed-sign form needs c = -1


def test_block_check_quantifies_right_mismatch(rationals):
    alg = OctAlgebra(rationals, -1, -1, -1)
    rng = random.Random(33)
    x = alg.random_element(rng)
    rep = block_check(x)
    assert not rep.right_classical_agrees
    assert all(4 <= i < 8 and 0 <= j < 4 for i, j in rep.right_classical_mismatches)


def test_block_check_over_prime_field():
    alg = OctAlgebra(PrimeField(7), -1, -1, -1)
    rng = random.Random(77)
    for _ in range(10):
        rep = block_check(alg.random_element(rng))
        assert rep.left_classical_agrees
        assert rep.left_parametric_agrees and rep.right_parametric_agrees


def test_right_rep_top_left_block_is_first_half(rationals):
    # the top-left 4x4 block of the 8x8 right map is the 4x4 right map of
    # the first quaternion half
    alg = OctAlgebra(rationals, -1, -1, -1)
    rng = random.Random(34)
    for _ in range(15):
        x = alg.random_element(rng)
        xp, _ = x.split_pair()
        m = right_rep(x)
        block = right_rep(xp)
        for i in range(4):
            for j in range(4):
                assert m.rows[i][j] == block.rows[i][j]


# -- matrix arithmetic ------------------------------------------------------------


def test_mat_pow_fixtures():
    field, _, x = f5_showcase()
    assert left_rep(x) ** 4 == SquareMatrix.identity(4, field)
    assert right_rep(x) ** 4 == SquareMatrix.identity(4, field)
    field13, _, y = f13_showcase()
    i8 = SquareMatrix.identity(8, field13)
    assert left_rep(y) ** 12 == i8
    assert right_rep(y) ** 12 == i8
    # element-level route agrees
    assert y ** 13 == y and left_rep(y ** 12) == i8


def test_mat_pow_zero_and_errors(f5):
    m = left_rep(quat(f5, "-1", "-1").element((1, 2, 3, 4)))
    assert m ** 0 == SquareMatrix.identity(4, f5)
    assert m ** 1 == m
    with pytest.raises(ValueError):
        m ** -1


def test_matrix_shape_validation(f5):
    with pytest.raises(ValueError):
        SquareMatrix(f5, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        SquareMatrix(f5, [[1] * 4] * 3)


def test_matrix_mismatched_operands(f5, f13):
    a = SquareMatrix.identity(4, f5)
    b = SquareMatrix.identity(8, f5)
    c = SquareMatrix.identity(4, f13)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + c


def test_transpose_involution(field):
    alg = OctAlgebra(field, 2, 3, 6)
    for x in elements(alg, 34, 10):
        m = left_rep(x)
        assert m.transpose().transpose() == m


# -- emitters ----------------------------------------------------------------------


def test_matrix_csv_json_round_trip(field):
    for alg in (QuatAlgebra(field, 2, 3), OctAlgebra(field, 2, 3, 6)):
        for x in elements(alg, 35, 10):
            m = left_rep(x)
            assert SquareMatrix.from_csv(field, m.to_csv()) == m
            assert SquareMatrix.from_json(field, m.to_json()) == m
            data = json.loads(m.to_json())
            assert len(data) == alg.dim and all(len(r) == alg.dim for r in data)


def test_matrix_parse_errors(f5):
    with pytest.raises(ParseError, match="row 1"):
        SquareMatrix.from_csv(f5, "1,2,3,4\n1,x,3,4\n0,0,0,0\n0,0,0,0")
    with pytest.raises(ParseError):
        SquareMatrix.from_json(f5, "not json")


@pytest.mark.parametrize(
    "text",
    ["5", '"1,2"', "null", "{}", "[1, 2]", '["1", "2"]', "[[1, 2], [3, 4]]",
     '[["1", null]]', '[["1"], "2"]'],
)
def test_matrix_json_shape_errors(f5, text):
    with pytest.raises(ParseError, match="list of lists of strings"):
        SquareMatrix.from_json(f5, text)


def test_matrix_json_entry_errors(f5):
    rows = [["0"] * 4 for _ in range(4)]
    rows[2][1] = "x"
    with pytest.raises(ParseError, match="row 2"):
        SquareMatrix.from_json(f5, json.dumps(rows))
