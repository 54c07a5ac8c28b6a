import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcert.exactlin import (
    Inertia,
    RatMatrix,
    det,
    dot,
    inertia,
    integer_matrix,
    nullspace_basis,
    principal_submatrix,
    rat_from_str,
    rat_to_str,
    rref,
    symmetric_pivots,
)
from boxcert.selftest import random_rational_matrix, random_symmetric_positive


def cofactor_det(rows):
    """Independent oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def lu_det(m):
    """Independent oracle: product of pivots along a rational LU path."""
    a = m.to_lists()
    n = m.rows
    sign = 1
    prod = F(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return F(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        prod *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return sign * prod


def test_ratmatrix_coerces_each_row_once():
    # an all-Fraction row is kept as it is; any other row goes through rat,
    # which makes ints and strings exact and rejects a float anywhere
    row = (F(1), F(2, 3))
    m = RatMatrix(iter([row, [1, "3/2"], (x for x in (F(5), 7))]))
    assert m.entries[0] is row
    assert m.entries == ((F(1), F(2, 3)), (F(1), F(3, 2)), (F(5), F(7)))
    assert all(type(x) is F for r in m.entries for x in r)
    for rows in ([[F(1), 0.5]], [[0.5, F(1)]], [[F(1)], [1.0]]):
        with pytest.raises(TypeError, match="floats are not allowed"):
            RatMatrix(rows)
    with pytest.raises(ValueError, match="ragged rows"):
        RatMatrix([[F(1)], [F(1), F(2)]])
    assert RatMatrix([]).entries == () and RatMatrix([[]]).entries == ((),)


def test_det_identity():
    assert det(RatMatrix.identity(3)) == 1


@pytest.mark.parametrize(
    "rows,expected",
    [([[1, 2], [3, 1]], F(-5)), ([[2, 1], [1, 2]], F(3))],
)
def test_det_against_cofactor_oracle(rows, expected):
    rows = [[F(x) for x in r] for r in rows]
    assert cofactor_det(rows) == expected
    assert det(RatMatrix(rows)) == expected


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(RatMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_oracles_on_random_matrices():
    rng = random.Random(42)
    for _ in range(60):
        dim = rng.randrange(1, 9)
        m = random_rational_matrix(rng, dim, dim)
        value = det(m)
        assert value == lu_det(m)
        assert value == det(m.transpose())
        if dim <= 5:
            assert value == cofactor_det(m.to_lists())


def test_inertia_diagonal():
    m = RatMatrix([[5, 0, 0], [0, -1, 0], [0, 0, 0]])
    assert inertia(m) == Inertia(1, 1, 1)


def test_inertia_offdiagonal_block():
    # eigenvalues +1 and -1 by hand
    assert inertia(RatMatrix([[0, 1], [1, 0]])) == Inertia(1, 1, 0)


def test_inertia_rank_one_positive():
    assert inertia(RatMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])) == Inertia(1, 0, 2)


def test_inertia_requires_symmetric():
    with pytest.raises(ValueError):
        inertia(RatMatrix([[1, 2], [3, 4]]))


def char_poly_inertia(m):
    """Independent oracle: Faddeev-LeVerrier characteristic polynomial plus
    Descartes' rule, which counts positive roots exactly for real-rooted
    polynomials (symmetric matrices only)."""
    n = m.rows
    coeffs = [F(1)]  # char poly of xI - M: x^n + c1 x^(n-1) + ... + cn
    mk = RatMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m.matmul(mk)
        ck = -F(sum(mk[i, i] for i in range(n)), k)
        coeffs.append(ck)
        if k < n:
            bumped = [
                [mk[i, j] + (ck if i == j else 0) for j in range(n)] for i in range(n)
            ]
            mk = RatMatrix(bumped)
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    n_pos = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return Inertia(n_pos, n - n_pos - n_zero, n_zero)


def zero_diagonal_matrices():
    """Symmetric matrices whose elimination meets an all-zero trailing diagonal.

    On these, ``inertia`` adds a row and column to another to make a pivot.
    Each hand-made matrix also comes scaled by a diagonal congruence with
    denominators 2, 3 and 7, and random zero-diagonal matrices follow.
    """
    fixed = [
        [[0, 1], [1, 0]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        # one ordinary pivot, then the trailing block [[0, 1], [1, 0]]
        [[1, 1, 1], [1, 1, 2], [1, 2, 1]],
        # singular: the same after the ordinary pivot, with a zero remainder
        [[1, 1, 1, 2], [1, 1, 2, 2], [1, 2, 1, 3], [2, 2, 3, 4]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
        [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, -3], [0, 0, -3, 0]],
    ]
    matrices = [RatMatrix(rows) for rows in fixed]
    scales = (F(1, 2), F(3), F(2, 3), F(-3, 7))
    for rows in fixed:
        s = [scales[i % len(scales)] for i in range(len(rows))]
        matrices.append(RatMatrix([[s[i] * x * s[j] for j, x in enumerate(row)]
                                   for i, row in enumerate(rows)]))
    rng = random.Random(31)
    pool = [F(p, q) for p in range(-3, 4) for q in (1, 2, 3, 7)]
    for _ in range(30):
        dim = rng.randrange(2, 7)
        rows = [[F(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                rows[i][j] = rows[j][i] = rng.choice(pool)
        matrices.append(RatMatrix(rows))
    return matrices


def _assert_pivots_give_det(m):
    """The symmetric pivots of N = D M have r = m exactly when det M != 0,
    and then det M = D_m / D^m, against the cofactor expansion."""
    rows, den = integer_matrix(m)
    pivots = symmetric_pivots(rows)
    expected = cofactor_det(m.to_lists())
    assert (len(pivots) < m.rows) == (expected == 0)
    if len(pivots) == m.rows:
        assert F(pivots[-1], den**m.rows) == expected


def test_inertia_against_char_poly_oracle():
    rng = random.Random(23)
    for _ in range(80):
        dim = rng.randrange(1, 7)
        rows = [[F(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = F(rng.randrange(-3, 4), rng.randrange(1, 3))
        m = RatMatrix(rows)
        assert inertia(m) == char_poly_inertia(m)
        _assert_pivots_give_det(m)
    fixed = [
        # nonsingular with a zero diagonal: the first pivot comes from a
        # row-and-column add
        [[0, 1, 2], [1, 0, 3], [2, 3, 0]],
        # a negative diagonal, nonsingular and with denominators
        [[-2, 1, F(1, 2)], [1, -3, 1], [F(1, 2), 1, -F(5, 3)]],
        # singular: the third row is the sum of the first two
        [[2, -1, 1], [-1, 3, 2], [1, 2, 3]],
    ]
    for m in [RatMatrix(rows) for rows in fixed] + zero_diagonal_matrices():
        assert inertia(m) == char_poly_inertia(m)
        _assert_pivots_give_det(m)


def _random_nonsingular(rng, dim):
    while True:
        a = random_rational_matrix(rng, dim, dim)
        if det(a) != 0:
            return a


def test_inertia_congruence_invariant():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randrange(1, 7)
        m = random_symmetric_positive(rng, dim)
        a = _random_nonsingular(rng, dim)
        congruent = a.transpose().matmul(m).matmul(a)
        assert inertia(congruent) == inertia(m)
    for m in zero_diagonal_matrices():
        a = _random_nonsingular(rng, m.rows)
        congruent = a.transpose().matmul(m).matmul(a)
        assert inertia(congruent) == inertia(m)


def _assert_det_sign_relation(m):
    ine = inertia(m)
    d = det(m)
    assert ine.n_pos + ine.n_neg + ine.n_zero == m.rows
    if ine.n_zero == 0:
        assert (d > 0) == (ine.n_neg % 2 == 0)
        assert d != 0
    else:
        assert d == 0


def test_inertia_det_sign_relation():
    rng = random.Random(11)
    for _ in range(60):
        dim = rng.randrange(1, 7)
        # random symmetric, signs mixed
        rows = [[F(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = F(rng.randrange(-4, 5), rng.randrange(1, 4))
        _assert_det_sign_relation(RatMatrix(rows))
    for m in zero_diagonal_matrices():
        _assert_det_sign_relation(m)


def test_nullspace_rank_one():
    basis = nullspace_basis(RatMatrix([[1, 1], [1, 1]]))
    assert len(basis) == 1
    z = basis[0]
    assert z[0] == -z[1] != 0


def test_nullspace_full_rank():
    assert nullspace_basis(RatMatrix.identity(4)) == []


def test_nullspace_single_row():
    m = RatMatrix([[1, 2, 3]])
    basis = nullspace_basis(m)
    assert len(basis) == 2
    for z in basis:
        assert all(v == 0 for v in m.matvec(z))
    # independence: the two free coordinates form an identity block
    assert basis[0][1] == 1 and basis[0][2] == 0
    assert basis[1][1] == 0 and basis[1][2] == 1


def test_nullspace_vectors_satisfy_mz_zero():
    rng = random.Random(13)
    for _ in range(30):
        m = random_rational_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        basis = nullspace_basis(m)
        assert len(basis) == m.cols - len(rref(m)[1])
        for z in basis:
            assert all(v == 0 for v in m.matvec(z))


def test_principal_submatrix_cases():
    m = RatMatrix([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
    assert principal_submatrix(m, range(3)) == m
    assert principal_submatrix(m, [1]) == RatMatrix([[4]])
    assert principal_submatrix(m, [0, 2]) == RatMatrix([[1, 3], [3, 6]])
    with pytest.raises(ValueError):
        principal_submatrix(m, [])
    with pytest.raises(ValueError):
        principal_submatrix(m, [3])


def test_rref_pivots_and_rank():
    m = RatMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert len(rref(m)[1]) == 2
    assert reduced.entries[2] == (F(0), F(0), F(0))


@given(st.fractions(), st.fractions())
def test_rat_str_roundtrip(a, b):
    for value in (a, b, a + b, a * b):
        assert rat_from_str(rat_to_str(value)) == value


def test_rat_from_str_rejects_non_strings():
    for value in (0.5, -1381.4, 3, None, ["1"]):
        with pytest.raises(ValueError):
            rat_from_str(value)


def test_rat_str_format():
    assert rat_to_str(F(3)) == "3"
    assert rat_to_str(F(-3, 7)) == "-3/7"
    assert rat_to_str(F(0)) == "0"


@settings(max_examples=50)
@given(
    st.lists(
        st.lists(st.fractions(max_denominator=9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_det_transpose_property(rows):
    m = RatMatrix(rows)
    assert det(m) == det(m.transpose())


def test_matrix_immutable():
    m = RatMatrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 5


def test_dot_dimension_check():
    with pytest.raises(ValueError):
        dot((F(1),), (F(1), F(2)))
