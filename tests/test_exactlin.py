import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcert.boxes import unit_cube
from boxcert.diffop import _union_coefficients, contract, volume_polynomial
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


def _full_width_rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Oracle: Gauss-Jordan whose row operations run over every column."""
    a = m.to_lists()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if row is None:
            continue
        a[r], a[row] = a[row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return RatMatrix(a), pivots


def _degenerate_rational_matrix(rng: random.Random) -> RatMatrix:
    """1-7 rows, 1-9 columns, often with zero rows or columns, repeated rows
    or a rank below min(rows, cols)."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 9)
    grid = random_rational_matrix(rng, rows, cols).to_lists()
    kind = rng.randrange(5)
    if kind == 1:  # low rank: a rows x r times r x cols product
        r = rng.randint(0, min(rows, cols) - 1)
        grid = [[F(0)] * cols for _ in range(rows)]
        if r:
            left, right = random_rational_matrix(rng, rows, r), random_rational_matrix(rng, r, cols)
            grid = left.matmul(right).to_lists()
    elif kind == 2:  # repeated rows, some scaled
        for i in range(rows):
            if rng.random() < 0.5:
                grid[i] = [rng.choice((1, -2, F(1, 3))) * x for x in grid[rng.randrange(rows)]]
    elif kind == 3:  # zero rows and zero columns
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            grid[i] = [F(0)] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in grid:
                row[j] = F(0)
    elif kind == 4:  # sparse
        grid = [[x if rng.random() < 0.3 else F(0) for x in row] for row in grid]
    return RatMatrix(grid)


def _cube_union_matrix(n: int, k: int) -> RatMatrix:
    """The C(n,k-1) x C(n,k) system ``primitive_space_basis`` solves for the cube."""
    q = contract(volume_polynomial(n), [unit_cube(n)] * (n - 2 * k + 1))
    return _union_coefficients(q, combinations(range(n), k - 1), list(combinations(range(n), k)))


def _assert_reduced_echelon(reduced: RatMatrix, pivots: list[int]) -> None:
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    for r, pc in enumerate(pivots):
        assert all(x == 0 for x in reduced.entries[r][:pc])
        assert reduced[r, pc] == 1
        assert all(reduced[i, pc] == (i == r) for i in range(reduced.rows))
    for row in reduced.entries[len(pivots):]:
        assert all(x == 0 for x in row)


def _upper_triangular(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    """Full row rank, nonzero diagonal, zero below it: the forward pass finds
    every row below its pivot already zero, so the backward pass does all
    the clearing."""
    pool = [F(a, b) for a in range(-4, 5) for b in (1, 2, 3)]
    nonzero = [x for x in pool if x]
    return RatMatrix(
        [[F(0)] * i + [rng.choice(nonzero)] + [rng.choice(pool) for _ in range(cols - i - 1)] for i in range(rows)]
    )


def _wide_with_free_columns(rng: random.Random, rows: int, pivots: list[int], cols: int) -> RatMatrix:
    """rows x cols of rank len(pivots) < rows, whose RREF has these pivots:
    a random left factor times an echelon right factor with a free column
    between two of its pivots."""
    pool = [F(a, b) for a in range(-4, 5) for b in (1, 2, 3)]
    right = [[F(0)] * cols for _ in pivots]
    for r, pc in enumerate(pivots):
        right[r][pc] = F(1)
        for c in range(pc + 1, cols):
            if c not in pivots:
                right[r][c] = rng.choice(pool)
    while True:
        left = random_rational_matrix(rng, rows, len(pivots))
        if len(rref(left)[1]) == len(pivots):
            return left.matmul(RatMatrix(right))


def _backward_pass_cases(rng: random.Random) -> list[tuple[RatMatrix, list[int] | None]]:
    """Inputs where the backward pass carries the work or meets free columns,
    with their pivot columns where the construction fixes them."""
    shapes = [(1, 1), (4, 4), (6, 6), (3, 8), (5, 9)]
    cases = [(_upper_triangular(rng, rows, cols), list(range(rows))) for rows, cols in shapes]
    for rows, pivots, cols in [(4, [0, 2], 5), (5, [0, 1, 3, 6], 8), (6, [1, 4, 5], 9), (3, [0, 3], 4)]:
        cases.append((_wide_with_free_columns(rng, rows, pivots, cols), pivots))
    zero_columns = random_rational_matrix(rng, 4, 6).to_lists()
    for row in zero_columns:
        row[0] = row[3] = F(0)
    cases.append((RatMatrix(zero_columns), None))
    cases += [(random_rational_matrix(rng, 1, cols), None) for cols in (1, 5, 9)]
    cases += [(random_rational_matrix(rng, rows, 1), None) for rows in (2, 7)]
    cases += [(RatMatrix([[0, 0, 0]]), []), (RatMatrix([[0], [0], [0]]), [])]
    return cases


def test_rref_equals_the_full_width_loop():
    # the forward pass starts each row operation at its pivot column, and the
    # backward pass clears above each pivot once: same Fractions, same pivots
    rng = random.Random(34)
    matrices = [_degenerate_rational_matrix(rng) for _ in range(240)]
    backward = _backward_pass_cases(random.Random(35))
    matrices += [m for m, _ in backward]
    matrices += [_cube_union_matrix(n, k) for n, k in [(6, 3), (7, 3), (9, 3), (8, 4)]]
    for m in matrices:
        reduced, pivots = rref(m)
        expected, expected_pivots = _full_width_rref(m)
        assert reduced.entries == expected.entries
        assert pivots == expected_pivots
        _assert_reduced_echelon(reduced, pivots)
    assert len(pivots) == 56  # the last matrix, (8,4): full row rank C(8,3)
    for m, known_pivots in backward:
        if known_pivots is not None:
            assert rref(m)[1] == known_pivots


def _unimodular(rng: random.Random, size: int) -> RatMatrix:
    """A seeded invertible integer matrix: a row permutation of L U with unit
    diagonals, so det = +-1."""
    lower = [[F(rng.randint(-3, 3)) if j < i else F(i == j) for j in range(size)] for i in range(size)]
    upper = [[F(rng.randint(-3, 3)) if j > i else F(i == j) for j in range(size)] for i in range(size)]
    product = RatMatrix(lower).matmul(RatMatrix(upper)).to_lists()
    rng.shuffle(product)
    return RatMatrix(product)


def test_rref_is_idempotent_and_depends_only_on_the_row_space():
    # no reference loop: the RREF is a function of the row space alone
    rng = random.Random(3535)
    matrices = [_degenerate_rational_matrix(rng) for _ in range(120)]
    matrices += [_upper_triangular(rng, 5, 7), _cube_union_matrix(6, 3)]
    for m in matrices:
        reduced, pivots = rref(m)
        assert rref(reduced) == (reduced, pivots)
        g = _unimodular(rng, m.rows)
        assert abs(det(g)) == 1
        assert rref(g.matmul(m)) == (reduced, pivots)


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
