import random
from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial

import pytest

from boxcert.boxes import BoxBody, unit_cube
from boxcert.diffop import (
    SlabOperator,
    SlabPolynomial,
    apply_op,
    contract,
    derivative_along,
    express_as_powers,
    h_vector_cube,
    hr_check,
    hr_form,
    hr_signature,
    is_primitive,
    op_add,
    op_from_box,
    op_scale,
    op_to_json,
    pairing_matrix,
    primitive_gram,
    primitive_space_basis,
    volume_polynomial,
)
from boxcert.exactlin import Inertia, RatMatrix, inertia, rank
from boxcert.mixvol import BodyTuple, mixed_volume
from boxcert.selftest import random_box

CROSS_ALPHA = SlabOperator(4, 2, {(0, 1): 1, (2, 3): 1, (0, 2): -1, (1, 3): -1})


def test_op_from_box_degree_one():
    box = BoxBody(3, (1, 2, 3))
    op = op_from_box(box, 1)
    assert op.terms == {(0,): F(1), (1,): F(2), (2,): F(3)}


def test_op_from_box_degree_two_unit_cube():
    assert op_from_box(unit_cube(2), 2).terms == {(0, 1): F(2)}


def test_op_from_box_degree_two_widths():
    assert op_from_box(BoxBody(2, (2, 3)), 2).terms == {(0, 1): F(12)}


def test_op_from_box_power_exceeding_dimension_warns():
    with pytest.warns(UserWarning):
        op = op_from_box(unit_cube(2), 3)
    assert op.is_zero


def test_apply_cube_derivative_n2():
    result = derivative_along(unit_cube(2), volume_polynomial(2))
    assert result.terms == {(0,): F(1), (1,): F(1)}


def test_apply_cross_alpha_kills_cube_derivative():
    q = contract(volume_polynomial(4), [unit_cube(4)])
    assert apply_op(CROSS_ALPHA, q).is_zero


def test_apply_zero_operator():
    assert apply_op(SlabOperator(3, 2), volume_polynomial(3)).is_zero


def test_apply_matches_iterated_single_derivatives():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(2, 6)
        box = random_box(rng, n)
        k = rng.randrange(1, n + 1)
        p = volume_polynomial(n)
        via_op = apply_op(op_from_box(box, k), p)
        step = p
        for _ in range(k):
            step = derivative_along(box, step)
        assert via_op == step


def _fold_single_derivatives(p, bodies):
    for box in bodies:
        p = derivative_along(box, p)
    return p


def test_contract_matches_fold_of_single_derivatives():
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randrange(2, 7)
        pool = [random_box(rng, n) for _ in range(rng.randrange(1, 4))]
        image = derivative_along(random_box(rng, n), volume_polynomial(n))
        for p in (volume_polynomial(n), image):
            bodies = [rng.choice(pool) for _ in range(rng.randrange(0, n))]
            assert contract(p, bodies) == _fold_single_derivatives(p, bodies)


def test_contract_applies_one_operator_per_distinct_body(monkeypatch):
    a, b = BoxBody(4, (1, 2, 3, 4)), BoxBody(4, (2, 1, F(1, 2), 3))
    calls = []

    def counting(op, p):
        calls.append(op.k)
        return apply_op(op, p)

    monkeypatch.setattr("boxcert.diffop.apply_op", counting)
    result = contract(volume_polynomial(4), [a, b, a, a])
    assert sorted(calls) == [1, 3]
    assert result == _fold_single_derivatives(volume_polynomial(4), [a, b, a, a])


def test_contract_past_the_degree_is_zero():
    with pytest.warns(UserWarning):
        assert contract(volume_polynomial(3), [unit_cube(3)] * 4).is_zero


def test_primitive_space_dimension_n4_k2():
    basis = primitive_space_basis(2, unit_cube(4), [])
    assert len(basis) == 2  # C(4,2) - C(4,1)


def test_primitive_space_n2_k1():
    basis = primitive_space_basis(1, unit_cube(2), [])
    assert len(basis) == 1
    op = basis[0]
    assert op.coeff((0,)) == -op.coeff((1,)) != 0


def test_cross_alpha_is_primitive():
    assert is_primitive(CROSS_ALPHA, unit_cube(4), [])


def test_primitive_dimensions_match_h_vector():
    for n in (4, 5, 6):
        cube = unit_cube(n)
        h = h_vector_cube(n)
        for k in range(1, n // 2 + 1):
            basis = primitive_space_basis(k, cube, [cube] * (n - 2 * k))
            assert len(basis) == h[k] - h[k - 1]


def test_primitive_rejects_degenerate_bodies():
    with pytest.raises(ValueError):
        primitive_space_basis(1, BoxBody(3, (1, 0, 1)), [unit_cube(3)])


def test_hr_form_cross_alpha():
    assert hr_form(CROSS_ALPHA, CROSS_ALPHA, []) == 4


def test_hr_form_difference_operator_n2():
    alpha = SlabOperator(2, 1, {(0,): 1, (1,): -1})
    value = hr_form(alpha, alpha, [])
    assert value == -2
    assert (-1) ** 1 * value == 2 > 0


def test_hr_form_zero_operator():
    assert hr_form(SlabOperator(2, 1), SlabOperator(2, 1), []) == 0


def test_hr_form_symmetric_bilinear():
    rng = random.Random(1)
    n, k = 4, 2
    cube = unit_cube(n)
    subsets = list(combinations(range(n), k))
    for _ in range(10):
        a = SlabOperator(n, k, {s: F(rng.randrange(-3, 4)) for s in subsets})
        b = SlabOperator(n, k, {s: F(rng.randrange(-3, 4)) for s in subsets})
        c = SlabOperator(n, k, {s: F(rng.randrange(-3, 4)) for s in subsets})
        assert hr_form(a, b, []) == hr_form(b, a, [])
        lhs = hr_form(op_add(a, op_scale(c, F(3, 2))), b, [])
        assert lhs == hr_form(a, b, []) + F(3, 2) * hr_form(c, b, [])
    # only the first operator is applied, so check both slots under a
    # nontrivial contraction by non-cube bodies
    for n, k in ((5, 1), (5, 2), (6, 1), (6, 2)):
        subsets = list(combinations(range(n), k))
        for _ in range(4):
            c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
            a, b, c = (
                SlabOperator(n, k, {s: F(rng.randrange(-3, 4)) for s in subsets})
                for _ in range(3)
            )
            assert hr_form(a, b, c_bodies) == hr_form(b, a, c_bodies)
            mixed = op_add(a, op_scale(c, F(3, 2)))
            expected = hr_form(a, b, c_bodies) + F(3, 2) * hr_form(c, b, c_bodies)
            assert hr_form(mixed, b, c_bodies) == hr_form(b, mixed, c_bodies) == expected


def test_hr_form_degree_mismatch():
    with pytest.raises(ValueError):
        hr_form(SlabOperator(4, 1, {(0,): 1}), SlabOperator(4, 2, {(0, 1): 1}), [])


def test_hr_check_cross_alpha():
    value, sign_ok, equality_ok, kills_v = hr_check(CROSS_ALPHA, unit_cube(4), [])
    assert value == 4 and sign_ok and equality_ok and not kills_v


def test_hr_check_zero_operator():
    value, sign_ok, equality_ok, kills_v = hr_check(SlabOperator(4, 2), unit_cube(4), [])
    assert value == 0 and sign_ok and equality_ok and kills_v


def test_hr_check_rejects_non_primitive():
    bad = SlabOperator(4, 2, {(0, 1): 1})
    with pytest.raises(ValueError):
        hr_check(bad, unit_cube(4), [])


def test_hr_check_on_basis_elements():
    cube = unit_cube(4)
    for op in primitive_space_basis(2, cube, []):
        value, sign_ok, equality_ok, kills_v = hr_check(op, cube, [])
        assert sign_ok and equality_ok and value > 0 and not kills_v


def test_hr_positivity_on_random_primitive_elements():
    rng = random.Random(2)
    for n in (4, 5, 6):
        cube = unit_cube(n)
        for k in range(1, n // 2 + 1):
            c_bodies = [cube] * (n - 2 * k)
            basis = primitive_space_basis(k, cube, c_bodies)
            v_poly = volume_polynomial(n)
            for _ in range(15):
                alpha = SlabOperator(n, k)
                for b in basis:
                    alpha = op_add(alpha, op_scale(b, F(rng.randrange(-3, 4))))
                value = hr_form(alpha, alpha, c_bodies)
                assert (-1) ** k * value >= 0
                assert (value == 0) == apply_op(alpha, v_poly).is_zero


def test_pairing_rank_equals_h_entry():
    for n in (4, 5, 6):
        for k in range(1, n // 2 + 1):
            assert rank(pairing_matrix(n, k)) == comb(n, k)


def test_pairing_inertia_is_the_hodge_riemann_signature():
    # degree k is the sum of L^(k-j) P_j, dim P_j = C(n,j) - C(n,j-1), (-1)^j-definite
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            dims = [comb(n, j) - (comb(n, j - 1) if j else 0) for j in range(k + 1)]
            expected = Inertia(sum(dims[0::2]), sum(dims[1::2]), 0)
            assert inertia(pairing_matrix(n, k)) == expected
            cube = unit_cube(n)
            basis = primitive_space_basis(k, cube, [cube] * (n - 2 * k))
            assert hr_signature(n, k, basis) == (expected, True)


def test_hr_signature_compares_with_the_h_vector(monkeypatch):
    # a wrong prediction alone fails the verdict, with the span still definite
    cube = unit_cube(5)
    basis = primitive_space_basis(2, cube, [cube])
    monkeypatch.setattr("boxcert.diffop.h_vector_cube", lambda n: [1] * (n + 1))
    assert hr_signature(5, 2, basis) == (Inertia(6, 4, 0), False)


@pytest.mark.parametrize("n, k", [(6, 3), (8, 4)])
def test_primitive_gram_diagonal_is_the_form_value(n, k):
    cube = unit_cube(n)
    c_bodies = [cube] * (n - 2 * k)
    basis = primitive_space_basis(k, cube, c_bodies)
    gram, scales = primitive_gram(n, k, basis, pairing_matrix(n, k))
    assert gram.rows == len(basis) and gram.is_symmetric
    for i, (op, d) in enumerate(zip(basis, scales)):
        assert gram[i, i] / d**2 == hr_check(op, cube, c_bodies)[0]
    definite = Inertia(len(basis), 0, 0) if k % 2 == 0 else Inertia(0, len(basis), 0)
    assert inertia(gram) == definite


def test_pairing_matrix_is_hr_form_gram():
    for n in range(2, 7):
        cube_powers = [unit_cube(n)] * n
        for k in range(n // 2 + 1):
            ops = [SlabOperator(n, k, {s: 1}) for s in combinations(range(n), k)]
            c_bodies = cube_powers[: n - 2 * k]
            gram = [[hr_form(a, b, c_bodies) for b in ops] for a in ops]
            assert pairing_matrix(n, k) == RatMatrix(gram)


def test_hr_form_consistent_with_mixed_volume():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n // 2 + 1)
        a_body, b_body = random_box(rng, n), random_box(rng, n)
        c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
        form = hr_form(op_from_box(a_body, k), op_from_box(b_body, k), c_bodies)
        mv = mixed_volume(
            BodyTuple(n, ((a_body, k), (b_body, k)) + tuple((c, 1) for c in c_bodies))
        )
        assert form == factorial(n) * mv


def test_express_as_powers_degree_one():
    alpha = SlabOperator(2, 1, {(0,): 1})
    powers = express_as_powers(alpha)
    assert powers.to_operator(2) == alpha
    assert all(box.is_nondegenerate for _, box in powers.terms)


def test_express_as_powers_roundtrip_random():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, min(2, n) + 1)
        terms = {
            s: F(rng.randrange(-4, 5)) for s in combinations(range(n), k)
        }
        alpha = SlabOperator(n, k, terms)
        powers = express_as_powers(alpha)
        assert powers.to_operator(n) == alpha
        assert all(box.is_nondegenerate for _, box in powers.terms)


def test_express_as_powers_primitive_alpha():
    powers = express_as_powers(CROSS_ALPHA)
    assert powers.to_operator(4) == CROSS_ALPHA
    assert all(box.is_nondegenerate for _, box in powers.terms)


def test_express_as_powers_zero_operator():
    assert express_as_powers(SlabOperator(3, 2)).terms == ()


def test_express_as_powers_higher_degree():
    alpha = SlabOperator(6, 3, {(0, 1, 2): F(1), (3, 4, 5): F(-2), (0, 2, 4): F(1, 3)})
    powers = express_as_powers(alpha)
    assert powers.to_operator(6) == alpha


def test_h_vector():
    assert h_vector_cube(4) == [1, 4, 6, 4, 1]
    assert h_vector_cube(2) == [1, 2, 1]
    for n in range(1, 9):
        assert sum(h_vector_cube(n)) == 2**n


def test_operator_json_roundtrip():
    data = op_to_json(CROSS_ALPHA)
    assert data["n"] == 4 and data["k"] == 2
    terms = {tuple(t["S"]): F(t["c"]) for t in data["terms"]}
    assert SlabOperator(data["n"], data["k"], terms) == CROSS_ALPHA


def test_slab_polynomial_rejects_repeated_indices():
    with pytest.raises(ValueError):
        SlabPolynomial(3, {(0, 0): F(1)})


def test_operator_monomial_degree_enforced():
    with pytest.raises(ValueError):
        SlabOperator(3, 2, {(0,): F(1)})
