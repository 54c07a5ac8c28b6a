import random
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

from boxcert.boxes import BoxBody, unit_cube
from boxcert.exactlin import RatMatrix, det, dot, inertia, principal_submatrix, rref
from boxcert.fedotov import (
    VerificationReport,
    build_matrix,
    construct_counterexample,
    pipeline_base_k2,
    reduce_to_general_k,
    shephard_verify,
    verify_certificate,
)
from boxcert.hypmat import (
    SUBSET_ENUMERATION_CAP,
    Violation,
    _principal_minors,
    af_form_check,
    class_matrix,
    equality_witness,
    find_violation,
    greedy_core,
    is_hyperbolic,
    shrink_with_witness,
    sylvester_violation,
    witness_forms,
    witness_implies_two_positive,
)
from boxcert.selftest import (
    random_box,
    random_nonneg_vector,
    random_symmetric_positive,
)


def planted_block_matrix():
    """Non-hyperbolic 3x3 block at 0..2, hyperbolic elsewhere, strong coupling
    so no cross pair forms a positive-definite 2x2 minor."""
    b = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    rows = [[F(0)] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            rows[i][j] = F(b[i][j])
            rows[3 + i][3 + j] = F(1)
    for i in range(3):
        for j in range(3, 6):
            rows[i][j] = rows[j][i] = F(2)
    return RatMatrix(rows)


def test_is_hyperbolic_examples():
    assert is_hyperbolic(RatMatrix([[1, 2], [2, 1]]))  # eigenvalues 3, -1
    assert not is_hyperbolic(RatMatrix([[2, 1], [1, 2]]))  # eigenvalues 3, 1
    assert is_hyperbolic(RatMatrix([[F(5, 7)]]))


def test_is_hyperbolic_rejects_bad_input():
    with pytest.raises(ValueError):
        is_hyperbolic(RatMatrix([[1, 2], [3, 1]]))
    with pytest.raises(ValueError):
        is_hyperbolic(RatMatrix([[1, 0], [0, 1]]))


def test_sylvester_violation_found():
    violation = sylvester_violation(RatMatrix([[2, 1], [1, 2]]))
    assert violation.subset == (0, 1)
    assert violation.det_value == 3


def test_sylvester_violation_none_for_hyperbolic():
    assert sylvester_violation(RatMatrix([[1, 2], [2, 1]])) is None
    assert sylvester_violation(RatMatrix([[1, 1], [1, 1]])) is None


def test_sylvester_prefers_smallest_then_lexicographic():
    # two independent violating pairs; (0,1) must win over (0,2)/(2,3)
    rows = [
        [2, 1, F(1, 2), F(1, 2)],
        [1, 2, F(1, 2), F(1, 2)],
        [F(1, 2), F(1, 2), 2, 1],
        [F(1, 2), F(1, 2), 1, 2],
    ]
    violation = sylvester_violation(RatMatrix(rows))
    assert violation.subset == (0, 1)


def _low_rank(rng, size, rank):
    """W W^T for an integer size x rank matrix W: every minor above rank is 0."""
    w = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(size)]
    return RatMatrix([[dot(u, v) for v in w] for u in w])


def _minor_test_matrices():
    rng = random.Random(2)
    matrices = [random_symmetric_positive(rng, size) for size in range(1, 6)]
    matrices += [_low_rank(rng, size, rank) for size in (3, 5, 7) for rank in (1, 2, 3)]
    # singular leading blocks and zero diagonals
    matrices += [
        RatMatrix([[0, 1], [1, 0]]),
        RatMatrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]]),
        RatMatrix([[1, 1, 2, 0], [1, 1, 3, 1], [2, 3, 5, 2], [0, 1, 2, 0]]),
        RatMatrix([[0] * 4 for _ in range(4)]),
    ]
    # W D W^T, D indefinite, with a singular subset two below the rank whose
    # children are not: M_00 = 0 at rank 3, and M_{01} = [[1, 1], [1, 1]] at rank 4
    extra = random.Random(3)
    cases = (((1, -1, 1), [[1, 1, 0]]), ((1, -1, 1, 1), [[1, 0, 0, 0], [1, 1, 1, 0]]))
    for signs, lead in cases:
        rest = 2 * len(signs) - 1 - len(lead)
        w = lead + [[extra.randint(-3, 3) for _ in signs] for _ in range(rest)]
        matrices.append(RatMatrix([
            [sum(d * a * b for d, a, b in zip(signs, u, v)) for v in w] for u in w
        ]))
    # repeated rows (and so repeated columns)
    for size in (4, 6):
        base = random_symmetric_positive(rng, size)
        idx = list(range(size - 1)) + [1]
        matrices.append(RatMatrix([[base[i, j] for j in idx] for i in idx]))
    # rational entries with several denominators
    pool = [F(p, q) for p in range(-5, 6) for q in (1, 2, 3, 7)]
    for size in (3, 5, 7):
        rows = [[F(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                rows[i][j] = rows[j][i] = rng.choice(pool)
        matrices.append(RatMatrix(rows))
    return matrices


def _subsets_up_to(size, top):
    """Nonempty subsets of range(size) with at most ``top`` elements, in order."""
    return [s for card in range(1, top + 1) for s in combinations(range(size), card)]


def _assert_zero_above(m, top):
    """det M_I = 0 for every subset larger than ``top``, by ``det`` directly."""
    for card in range(top + 1, m.rows + 1):
        for subset in combinations(range(m.rows), card):
            assert det(principal_submatrix(m, subset)) == 0


def test_principal_minors_order_and_values():
    for m in _minor_test_matrices():
        size, top = m.rows, len(rref(m)[1])
        minors = list(_principal_minors(m))
        subsets = [subset for subset, _ in minors]
        assert subsets == _subsets_up_to(size, top)
        assert subsets == sorted(subsets, key=lambda s: (len(s), s))
        assert (subsets[-1:] == [tuple(range(size))]) == (top == size)
        for subset, value in minors:
            assert value == det(principal_submatrix(m, subset))
        _assert_zero_above(m, top)


def test_principal_minors_require_symmetric():
    with pytest.raises(ValueError):
        list(_principal_minors(RatMatrix([[1, 2], [3, 1]])))


def test_principal_minors_vanish_above_dimension():
    # a k = 1 matrix has rank at most n, so with m > n every minor above n is 0
    rng = random.Random(5)
    n, m = 3, 6
    bodies = [random_box(rng, n) for _ in range(m)]
    matrix = build_matrix(bodies, 1, [random_box(rng, n)]).matrix
    minors = list(_principal_minors(matrix))
    assert [subset for subset, _ in minors] == _subsets_up_to(m, n)
    for subset, value in minors:
        assert value == det(principal_submatrix(matrix, subset))
    _assert_zero_above(matrix, n)
    assert any(value != 0 for subset, value in minors if len(subset) == n)


def test_sylvester_dimension_cap():
    size = SUBSET_ENUMERATION_CAP + 1
    ones = RatMatrix([[1] * size for _ in range(size)])
    with pytest.raises(ValueError):
        sylvester_violation(ones)


def test_violation_invariant_enforced():
    Violation((0,), F(-1))  # (-1)^1 * -1 = 1 > 0: a genuine witness
    with pytest.raises(ValueError):
        Violation((0,), F(1))  # (-1)^1 * 1 <= 0: not a witness
    with pytest.raises(ValueError):
        Violation((0, 1), F(-2))  # (-1)^2 * -2 <= 0: not a witness


def test_violation_serialization():
    v = Violation((0, 2), F(5, 3))
    assert v.to_json() == {"I": [0, 2], "det": "5/3"}


def test_equivalence_inertia_vs_minors():
    rng = random.Random(0)
    for _ in range(120):
        dim = rng.randrange(1, 7)
        m = random_symmetric_positive(rng, dim)
        assert is_hyperbolic(m) == (sylvester_violation(m) is None)


def test_af_form_check_basics():
    m = RatMatrix([[1, 2], [2, 1]])
    x = (F(1), F(2))
    assert af_form_check(m, x, x)
    assert af_form_check(m, x, (F(0), F(0)))


def test_af_form_check_on_hyperbolic_random():
    rng = random.Random(1)
    found = 0
    while found < 20:
        dim = rng.randrange(1, 6)
        m = random_symmetric_positive(rng, dim)
        if not is_hyperbolic(m):
            continue
        found += 1
        for _ in range(20):
            assert af_form_check(
                m, random_nonneg_vector(rng, dim), random_nonneg_vector(rng, dim)
            )


def test_af_form_check_on_shephard_matrices():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randrange(2, 6)
        bodies = [random_box(rng, n) for _ in range(rng.randrange(2, 5))]
        c_bodies = [random_box(rng, n) for _ in range(n - 2)]
        m = build_matrix(bodies, 1, c_bodies).matrix
        assert is_hyperbolic(m)
        for _ in range(10):
            assert af_form_check(
                m,
                random_nonneg_vector(rng, len(bodies)),
                random_nonneg_vector(rng, len(bodies)),
            )


def _oracle_forms(m, x, y):
    """(<x,My>, <x,Mx>, <y,My>) by Fraction matvec and dot."""
    my = m.matvec(y)
    return dot(x, my), dot(x, m.matvec(x)), dot(y, my)


def test_af_form_check_agrees_with_the_fraction_oracle():
    rng = random.Random(19)
    verdicts = set()
    for _ in range(150):
        dim = rng.randrange(1, 6)
        m = random_symmetric_positive(rng, dim)
        x, y = random_nonneg_vector(rng, dim), random_nonneg_vector(rng, dim)
        xy, xx, yy = _oracle_forms(m, x, y)
        verdicts.add(af_form_check(m, x, y))
        assert af_form_check(m, x, y) == (xy**2 >= xx * yy)
    assert verdicts == {True, False}


def test_equality_witness_agrees_with_the_fraction_oracle():
    rng = random.Random(19)
    for _ in range(40):
        dim = rng.randrange(2, 6)
        # a sum of fewer than dim positive rank-one terms: singular and positive
        vectors = [random_nonneg_vector(rng, dim) for _ in range(rng.randrange(1, dim))]
        vectors = [tuple(v + 1 for v in u) for u in vectors]
        m = RatMatrix([[sum(u[i] * u[j] for u in vectors) for j in range(dim)] for i in range(dim)])
        x, y = equality_witness(m)
        xy, xx, yy = _oracle_forms(m, x, y)
        assert xy**2 == xx * yy and min(x) > 0 and min(y) > 0


def test_af_form_check_rejects_negative_entries():
    with pytest.raises(ValueError):
        af_form_check(RatMatrix([[1, 2], [2, 1]]), (F(-1), F(0)), (F(1), F(1)))


def test_equality_witness_rank_one():
    m = RatMatrix([[1, 2], [2, 4]])
    x, y = equality_witness(m)
    assert all(v > 0 for v in x) and all(v > 0 for v in y)
    assert x[0] * y[1] != x[1] * y[0]
    assert dot(x, m.matvec(y)) ** 2 == dot(x, m.matvec(x)) * dot(y, m.matvec(y))


def test_equality_witness_rejects_nonsingular():
    with pytest.raises(ValueError):
        equality_witness(RatMatrix.identity(3))


def test_equality_witness_rejects_zero_matrix():
    with pytest.raises(ValueError):
        equality_witness(RatMatrix([[0, 0], [0, 0]]))


def test_equality_witness_kernel_parallel_to_ones():
    # kernel of [[1,-1],[-1,1]] is spanned by the all-ones vector
    m = RatMatrix([[1, -1], [-1, 1]])
    x, y = equality_witness(m)
    assert all(v > 0 for v in x) and all(v > 0 for v in y)
    assert x[0] * y[1] != x[1] * y[0]
    assert dot(x, m.matvec(y)) ** 2 == dot(x, m.matvec(x)) * dot(y, m.matvec(y))


def test_equality_witness_homothety_shephard():
    k = BoxBody(3, (1, 2, 3))
    fm = build_matrix([k, k.scale(2)], 1, [unit_cube(3)])
    assert det(fm.matrix) == 0
    x, y = equality_witness(fm.matrix)
    mx, my = fm.matrix.matvec(x), fm.matrix.matvec(y)
    assert dot(x, my) ** 2 == dot(x, mx) * dot(y, my)


def test_greedy_core_minimal_input():
    m = RatMatrix([[2, 1], [1, 2]])
    assert greedy_core(m, range(2)) == (0, 1)


def test_greedy_core_planted_block():
    m = planted_block_matrix()
    assert inertia(m).n_pos >= 2
    core = greedy_core(m, range(6))
    assert set(core) <= {0, 1, 2}
    sub = principal_submatrix(m, core)
    assert inertia(sub).n_pos >= 2
    # idempotence
    assert greedy_core(sub, range(len(core))) == tuple(range(len(core)))


def test_greedy_core_rejects_hyperbolic():
    with pytest.raises(ValueError):
        greedy_core(RatMatrix([[1, 2], [2, 1]]), range(2))


def test_find_violation_rejects_hyperbolic_before_the_core_search(monkeypatch):
    # a hyperbolic matrix has no positive-definite plane, so the shrink's Gram
    # check rejects every witness pair before greedy_core could run
    rng = random.Random(12)
    n = 4
    bodies = [random_box(rng, n) for _ in range(12)]
    m = build_matrix(bodies, 1, [random_box(rng, n) for _ in range(n - 2)]).matrix

    def no_core_search(*_):
        raise AssertionError("greedy_core ran on a hyperbolic matrix")

    monkeypatch.setattr("boxcert.hypmat.greedy_core", no_core_search)
    for _ in range(5):
        x, y = random_nonneg_vector(rng, m.rows), random_nonneg_vector(rng, m.rows)
        with pytest.raises(ValueError):
            find_violation(m, range(m.rows), witness=(x, y))


def test_shrink_with_witness_certifies_core():
    m = planted_block_matrix()
    # x spans the positive block directions, y picks a single one
    x = (F(1), F(1), F(0), F(0), F(0), F(0))
    y = (F(1), F(0), F(0), F(0), F(0), F(0))
    live = shrink_with_witness(m, range(6), x, y)
    assert set(live) <= {0, 1}
    sub = principal_submatrix(m, live)
    assert inertia(sub).n_pos >= 2


def test_shrink_with_witness_rejects_bad_witness():
    m = RatMatrix([[1, 2], [2, 1]])  # hyperbolic: no PD plane exists
    with pytest.raises(ValueError):
        shrink_with_witness(m, range(2), (F(1), F(0)), (F(0), F(1)))


def _core_violation(table, classes):
    """greedy_core, then sylvester_violation on the core, in the indices of
    the matrix: the search ``find_violation`` runs after its witness shrink."""
    core = greedy_core(table, classes)
    violation = sylvester_violation(class_matrix(table, [classes[i] for i in core]))
    return Violation(tuple(core[i] for i in violation.subset), violation.det_value)


def test_find_violation_and_the_core_search_find_violations():
    m = planted_block_matrix()
    v1 = _core_violation(m, range(6))
    assert (-1) ** len(v1.subset) * det(principal_submatrix(m, v1.subset)) > 0
    x = (F(1), F(1), F(0), F(0), F(0), F(0))
    y = (F(1), F(0), F(0), F(0), F(0), F(0))
    v2 = find_violation(m, range(6), witness=(x, y))
    assert (-1) ** len(v2.subset) * det(principal_submatrix(m, v2.subset)) > 0


def _duplicated_and_shuffled(bodies, c_bodies, k, x, y, seed):
    """The matrix over ``bodies`` with a third of them repeated, in shuffled order.

    A repeated body's weights in x and y are split evenly over its copies, so
    the class sums, and with them the witness pairings, keep their values.
    """
    rng = random.Random(seed)
    order = list(range(len(bodies))) + rng.sample(range(len(bodies)), len(bodies) // 3)
    rng.shuffle(order)
    copies = Counter(order)
    fm = build_matrix([bodies[i] for i in order], k, c_bodies)
    return fm, [x[i] / copies[i] for i in order], [y[i] / copies[i] for i in order]


@pytest.fixture(scope="module")
def pipeline_matrices():
    lifted = reduce_to_general_k(pipeline_base_k2(6), 3)
    cases = [(b.bodies, b.c_bodies, 2, b.x, b.y) for b in map(pipeline_base_k2, (4, 5))]
    cases.append((lifted.bodies, lifted.c_bodies, 3, lifted.x, lifted.y))
    return [_duplicated_and_shuffled(*case, seed=n) for n, case in enumerate(cases)]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_factored_matches_plain(table, classes, x, y):
    """Each factored-form routine returns what it returns on the m x m matrix."""
    plain = (class_matrix(table, classes), range(len(classes)))
    for fn, args, kwargs in (
        (shrink_with_witness, (x, y), {}),
        (greedy_core, (), {}),
        (_core_violation, (), {}),
        (find_violation, (), {"witness": (x, y)}),
    ):
        factored = _outcome(fn, table, classes, *args, **kwargs)
        assert factored == _outcome(fn, *plain, *args, **kwargs), fn.__name__


def test_factored_form_matches_plain_on_pipeline_matrices(pipeline_matrices):
    for fm, x, y in pipeline_matrices:
        assert len(set(fm.classes)) < fm.m
        _assert_factored_matches_plain(fm.table, fm.classes, x, y)


def test_witness_pairings_match_matvec(pipeline_matrices):
    for fm, x, y in pipeline_matrices:
        mx = fm.matrix.matvec(x)
        assert witness_forms(fm.table, fm.classes, x, y)[:2] == (dot(y, mx), dot(x, mx))
    rng = random.Random(8)
    for _ in range(30):
        c = rng.randrange(1, 5)
        classes = [rng.randrange(c) for _ in range(rng.randrange(1, 9))]
        table = random_symmetric_positive(rng, c)
        x = random_nonneg_vector(rng, len(classes))
        y = random_nonneg_vector(rng, len(classes))
        m = class_matrix(table, classes)
        mx, my = m.matvec(x), m.matvec(y)
        assert witness_forms(table, classes, x, y) == (dot(y, mx), dot(x, mx), dot(y, my))


def test_factored_form_matches_plain_on_random_tables():
    rng = random.Random(9)
    found = 0
    for _ in range(60):
        c = rng.randrange(2, 6)
        classes = list(range(c)) + [rng.randrange(c) for _ in range(rng.randrange(0, 5))]
        rng.shuffle(classes)
        table = random_symmetric_positive(rng, c)
        x = random_nonneg_vector(rng, len(classes))
        y = random_nonneg_vector(rng, len(classes))
        _assert_factored_matches_plain(table, classes, x, y)
        violation = _outcome(find_violation, table, classes, witness=(x, y))
        found += isinstance(violation, Violation)
    assert found >= 5  # the witness path ran to a violation, not only to its errors


def test_inertia_and_minor_paths_never_run_rref(pipeline_matrices, monkeypatch):
    # inertia, the enumerator's rank and the core search all run on the
    # Bareiss step: with every binding of exactlin.rref raising, nothing changes
    rng = random.Random(14)
    shephard = build_matrix([random_box(rng, 4) for _ in range(7)], 1, [random_box(rng, 4) for _ in range(2)])
    planted = planted_block_matrix()
    x = (F(1), F(1), F(0), F(0), F(0), F(0))
    y = (F(1), F(0), F(0), F(0), F(0), F(0))
    fm, px, py = pipeline_matrices[0]

    def run():
        return [
            shephard_verify(shephard),
            sylvester_violation(shephard.matrix),
            sylvester_violation(planted),
            is_hyperbolic(shephard.matrix),
            is_hyperbolic(planted),
            greedy_core(planted, range(6)),
            greedy_core(fm.table, fm.classes),
            _core_violation(planted, range(6)),
            find_violation(planted, range(6), witness=(x, y)),
            find_violation(fm.table, fm.classes, witness=(px, py)),
        ]

    expected = run()
    assert expected[0].determinant == 0 and expected[2] is not None

    def forbidden(*args, **kwargs):
        raise AssertionError("rref ran on an inertia or minor path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "boxcert" and hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref", forbidden)
    assert run() == expected


def _fraction_shrink(table, classes, x, y):
    """``shrink_with_witness`` as it ran in Fraction arithmetic, kept as the oracle."""
    if not table.is_symmetric:
        raise ValueError("matrix must be symmetric")

    def class_sums(v):
        sums = [F(0)] * table.rows
        for c, vi in zip(classes, v):
            sums[c] += vi
        return sums

    x_sums, y_sums = class_sums(x), class_sums(y)
    cx, cy = list(table.matvec(x_sums)), list(table.matvec(y_sums))
    gx, gy, gxy = dot(x_sums, cx), dot(y_sums, cy), dot(x_sums, cy)
    if not witness_implies_two_positive(gx, gy, gxy):
        raise ValueError("witness pair does not certify two positive directions")
    live = [i for i in range(len(classes)) if x[i] != 0 or y[i] != 0]
    e = table.entries
    changed = True
    while changed:
        changed = False
        for a in list(live):
            xa, ya, ca = x[a], y[a], classes[a]
            maa = e[ca][ca]
            gx2 = gx - 2 * xa * cx[ca] + xa * xa * maa
            gy2 = gy - 2 * ya * cy[ca] + ya * ya * maa
            gxy2 = gxy - xa * cy[ca] - ya * cx[ca] + xa * ya * maa
            if witness_implies_two_positive(gx2, gy2, gxy2):
                live.remove(a)
                gx, gy, gxy = gx2, gy2, gxy2
                for c, row in enumerate(e):
                    cx[c] -= xa * row[ca]
                    cy[c] -= ya * row[ca]
                changed = True
    return tuple(live)


def test_integer_shrink_matches_the_fraction_shrink():
    # tables with denominators and repeated classes; x and y with negative
    # and zero entries and denominators of their own
    rng = random.Random(15)
    entries = [F(a, b) for a in range(1, 13) for b in (1, 2, 3, 5, 7)]
    weights = [F(a, b) for a in range(-4, 5) for b in (1, 2, 3, 4)]
    shrunk = 0
    for _ in range(300):
        c = rng.randrange(1, 6)
        classes = list(range(c)) + [rng.randrange(c) for _ in range(rng.randrange(0, 6))]
        rng.shuffle(classes)
        rows = [[F(0)] * c for _ in range(c)]
        for i in range(c):
            for j in range(i, c):
                rows[i][j] = rows[j][i] = rng.choice(entries)
        table = RatMatrix(rows)
        x, y = ([rng.choice(weights) for _ in classes] for _ in range(2))
        expected = _outcome(_fraction_shrink, table, classes, x, y)
        assert _outcome(shrink_with_witness, table, classes, x, y) == expected
        shrunk += isinstance(expected, tuple) and len(expected) < len(classes)
    assert shrunk >= 50  # the removal loop ran, not only the up-front Gram check


def test_witness_forms_are_the_three_pairings(pipeline_matrices):
    for fm, x, y in pipeline_matrices:
        mx, my = fm.matrix.matvec(x), fm.matrix.matvec(y)
        assert witness_forms(fm.table, fm.classes, x, y) == (dot(y, mx), dot(x, mx), dot(y, my))


def test_witness_layer_runs_no_fraction_arithmetic(pipeline_matrices, monkeypatch):
    fm, x, y = pipeline_matrices[0]
    certs = [construct_counterexample(n, n // 2) for n in (4, 6, 8)]
    tables = [build_matrix(cert.bodies, cert.k, cert.c_bodies) for cert in certs]

    def run():
        return [
            find_violation(fm.table, fm.classes, witness=(x, y)),
            *(find_violation(t.table, t.classes, witness=(c.x, c.y)) for t, c in zip(tables, certs)),
            *map(verify_certificate, certs),
        ]

    def witness_layer():
        return [
            witness_forms(fm.table, fm.classes, x, y),
            shrink_with_witness(fm.table, fm.classes, x, y),
        ]

    expected, expected_layer = run(), witness_layer()
    assert expected[1:4] == [Violation(c.subset, c.subset_det) for c in certs]
    assert expected[4:] == [VerificationReport(True, "")] * 3

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction arithmetic ran in the witness layer")

    monkeypatch.setattr("boxcert.exactlin.dot", forbidden)
    monkeypatch.setattr(RatMatrix, "matvec", forbidden)
    assert run() == expected
    for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(F, f"__{op}__", forbidden)
        monkeypatch.setattr(F, f"__r{op}__", forbidden)
    monkeypatch.setattr(F, "__neg__", forbidden)
    assert witness_layer() == expected_layer
