import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from math import comb, factorial

import pytest

from boxcert.boxes import BoxBody, unit_cube
from boxcert.diffop import (
    SlabOperator,
    apply_op,
    contract,
    derivative_along,
    express_as_powers,
    h_vector_cube,
    hr_check,
    hr_form,
    hr_signature,
    op_from_box,
    op_to_json,
    pairing_matrix,
    polarization_signs,
    primitive_space_basis,
    volume_polynomial,
)
from boxcert.exactlin import Inertia, RatMatrix, inertia, nullspace_basis
from boxcert.mixvol import BodyTuple, mixed_volume
from boxcert.selftest import random_box

CROSS_ALPHA = SlabOperator(4, 2, {(0, 1): 1, (2, 3): 1, (0, 2): -1, (1, 3): -1})


def _combination(n, k, scaled):
    """sum_i x_i a_i over (x_i, a_i) pairs, through the summing constructor."""
    return SlabOperator(n, k, ((s, x * c) for x, a in scaled for s, c in a.terms.items()))


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
    hr_check(CROSS_ALPHA, unit_cube(4), [])  # raises unless primitive


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
        lhs = hr_form(_combination(n, k, [(1, a), (F(3, 2), c)]), b, [])
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
            mixed = _combination(n, k, [(1, a), (F(3, 2), c)])
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


def test_an_operator_kills_v_exactly_when_it_is_zero():
    # d^S V = s_{[n] - S}, distinct monomials for distinct S, so hr_check's
    # kills_v is a.is_zero
    rng = random.Random(19)
    for n in range(1, 8):
        v = volume_polynomial(n)
        for k in range(n + 1):
            subsets = list(combinations(range(n), k))
            for _ in range(12):
                chosen = rng.sample(subsets, rng.randrange(len(subsets) + 1))
                terms = {s: F(rng.randrange(-3, 4), rng.randrange(1, 4)) for s in chosen}
                a = SlabOperator(n, k, terms)
                assert apply_op(a, v).is_zero == a.is_zero
            assert apply_op(SlabOperator(n, k), v).is_zero


def test_hr_check_rejects_non_primitive():
    bad = SlabOperator(4, 2, {(0, 1): 1})
    with pytest.raises(ValueError):
        hr_check(bad, unit_cube(4), [])


def _primitive_by_q(a, reference, c_bodies):
    """a * D_L * prod D_{C_i} V = 0, with a applied to q = D_L prod D_{C_i} V:
    the primitivity test as it ran before ``hr_check`` applied a once."""
    return apply_op(a, contract(volume_polynomial(a.n), [reference, *c_bodies])).is_zero


def _hr_check_accepts(a, reference, c_bodies):
    try:
        hr_check(a, reference, c_bodies)
    except ValueError as exc:
        assert "not primitive" in str(exc)
        return False
    return True


def test_hr_check_primitivity_matches_the_q_oracle():
    rng = random.Random(21)
    seen = Counter()
    for n in range(2, 8):
        for k in range(1, n // 2 + 1):
            subsets = list(combinations(range(n), k))
            reference = random_box(rng, n)
            c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
            basis = primitive_space_basis(k, reference, c_bodies)
            ops = [SlabOperator(n, k)]
            for _ in range(4):
                scaled = [(F(rng.randrange(-3, 4), rng.randrange(1, 3)), b) for b in basis]
                combo = _combination(n, k, scaled)
                chosen = rng.sample(subsets, rng.randrange(1, len(subsets) + 1))
                noise = SlabOperator(n, k, {s: rng.randrange(-2, 3) for s in chosen})
                ops += [combo, _combination(n, k, [(1, combo), (1, noise)]), noise]
            for a in ops:
                expected = _primitive_by_q(a, reference, c_bodies)
                assert _hr_check_accepts(a, reference, c_bodies) == expected
                seen[expected] += 1
    assert seen[True] >= 50 and seen[False] >= 50  # both verdicts were exercised


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
                alpha = _combination(n, k, [(F(rng.randrange(-3, 4)), b) for b in basis])
                value = hr_form(alpha, alpha, c_bodies)
                assert (-1) ** k * value >= 0
                assert (value == 0) == apply_op(alpha, v_poly).is_zero


def test_pairing_rank_equals_h_entry():
    for n in (4, 5, 6):
        for k in range(1, n // 2 + 1):
            pairing = inertia(pairing_matrix(n, k))
            assert pairing.n_pos + pairing.n_neg == comb(n, k)


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


def test_hr_signature_rejects_a_span_outside_the_eigenspace(monkeypatch):
    # each basis below fails (b): the all-ones vector is a level-0 eigenvector
    # (eigenvalue 3, its 1 x 1 Gram is positive), a repeat and a zero are dependent
    cube = unit_cube(5)
    b0 = primitive_space_basis(2, cube, [cube])[0]
    ones = SlabOperator(5, 2, [*b0.terms.items(), *((s, 1) for s in combinations(range(5), 2))])
    calls = Counter()

    def counting(m):
        calls["inertia"] += 1
        return inertia(m)

    monkeypatch.setattr("boxcert.diffop.inertia", counting)
    tampered = [[ones], [b0, b0], [b0, SlabOperator(5, 2)]]
    for basis in tampered:
        assert hr_signature(5, 2, basis) == (Inertia(6, 4, 0), False)
    assert calls["inertia"] == len(tampered)


@pytest.mark.parametrize("n, k", [(6, 3), (7, 2), (8, 4)])
def test_primitive_form_value_is_the_eigenvalue_times_the_squared_norm(n, k):
    # P b = lam b on the span, lam = (-1)^k (n-2k)!, so the form is (-1)^k-definite there
    lam = (-1) ** k * factorial(n - 2 * k)
    cube = unit_cube(n)
    c_bodies = [cube] * (n - 2 * k)
    basis = primitive_space_basis(k, cube, c_bodies)
    assert hr_signature(n, k, basis)[1]
    for op in basis:
        assert hr_check(op, cube, c_bodies)[0] == lam * sum(c**2 for c in op.terms.values())
    rng = random.Random(f"eigen:{n}:{k}")
    for _ in range(5):
        x = _combination(n, k, [(rng.choice((-2, -1, 1, 2)), b) for b in basis])
        value = hr_form(x, x, c_bodies)
        assert value == lam * sum(c**2 for c in x.terms.values()) != 0


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


@pytest.mark.parametrize("k", range(1, 7))
def test_polarization_signs_are_the_nonzero_patterns(k):
    patterns = list(product((0, 1), repeat=k))[1:]
    assert polarization_signs(k) == [(d, (-1) ** (k + sum(d))) for d in patterns]


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


def test_slab_operator_rejects_repeated_indices():
    with pytest.raises(ValueError):
        SlabOperator(3, 2, {(0, 0): F(1)})


def test_operator_monomial_degree_enforced():
    with pytest.raises(ValueError):
        SlabOperator(3, 2, {(0,): F(1)})


def test_constructor_sums_pairs_and_checks_subsets():
    pairs = [((1, 0), 2), ((2, 3), 1), ((0, 1), F(1, 2)), ((3, 2), -1), ((0, 2), F(-1, 3))]
    op = SlabOperator(4, 2, pairs)
    assert op.terms == {(0, 1): F(5, 2), (0, 2): F(-1, 3)}  # (2, 3) summed to 0
    assert list(op.terms) == sorted(op.terms)
    assert SlabOperator(4, 2, iter(pairs)) == op == SlabOperator(4, 2, dict(op.terms))
    for bad in ([((0, 1), 1), ((2,), 1)], [((1, 1), 1)], [((0, 4), 1)]):
        with pytest.raises(ValueError):
            SlabOperator(4, 2, bad)


# The polynomial representation the operators replaced, kept as the oracle:
# a polynomial is a {T: c} dict over the monomials s_T, and d^S sends s_T to
# s_{T - S} when S <= T, else 0.


def _reference_apply(a, poly):
    out = {}
    for t, ct in poly.items():
        for s, cs in a.terms.items():
            if set(s) <= set(t):
                rest = tuple(j for j in t if j not in s)
                out[rest] = out.get(rest, 0) + cs * ct
    return {t: c for t, c in out.items() if c != 0}


def _reference_contract(poly, bodies):
    for box in bodies:
        poly = _reference_apply(op_from_box(box, 1), poly)
    return poly


def _image(p):
    """The polynomial p stands for: its terms keyed by their complements."""
    full = set(range(p.n))
    return {tuple(sorted(full.difference(s))): c for s, c in p.terms.items()}


def test_operators_match_the_polynomial_reference():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randrange(1, 9)
        v = {tuple(range(n)): F(1)}
        assert _image(volume_polynomial(n)) == v
        k = rng.randrange(n + 1)
        subsets = list(combinations(range(n), k))
        chosen = rng.sample(subsets, rng.randrange(len(subsets) + 1))
        a = SlabOperator(n, k, {s: F(rng.randrange(-3, 4), rng.randrange(1, 4)) for s in chosen})
        pool = [random_box(rng, n) for _ in range(2)]
        bodies = [rng.choice(pool) for _ in range(rng.choice((n - k, rng.randrange(n - k + 1))))]
        p, reference = contract(volume_polynomial(n), bodies), _reference_contract(v, bodies)
        assert _image(p) == reference
        assert p.constant == reference.get((), 0)
        ap, a_reference = apply_op(a, p), _reference_apply(a, reference)
        assert _image(ap) == a_reference and ap.constant == a_reference.get((), 0)
        box = random_box(rng, n)
        assert _image(derivative_along(box, p)) == _reference_apply(op_from_box(box, 1), reference)
        rest = [box] * (n - len(bodies))
        full = contract(p, rest)
        assert full.k == n and full.constant == _reference_contract(reference, rest).get((), 0)


def _reference_union(reference, rows, cols):
    return [
        [reference.get(tuple(sorted(u + s)), 0) if set(u).isdisjoint(s) else 0 for s in cols]
        for u in rows
    ]


def test_union_coefficients_match_the_polynomial_reference(monkeypatch):
    captured = []

    def capturing(matrix):
        captured.append(matrix)
        return nullspace_basis(matrix)

    monkeypatch.setattr("boxcert.diffop.nullspace_basis", capturing)
    rng = random.Random(26)
    for n in range(2, 9):
        v = {tuple(range(n)): F(1)}
        for k in range(1, n // 2 + 1):
            subsets = list(combinations(range(n), k))
            q = _reference_contract(v, [unit_cube(n)] * (n - 2 * k))
            assert pairing_matrix(n, k).to_lists() == _reference_union(q, subsets, subsets)
            reference = random_box(rng, n)
            c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
            primitive_space_basis(k, reference, c_bodies)
            q = _reference_contract(v, [reference, *c_bodies])
            rows = list(combinations(range(n), k - 1))
            assert captured.pop().to_lists() == _reference_union(q, rows, subsets)
