import json
import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest

from boxcert.boxes import BoxBody, minkowski_combine, unit_cube
from boxcert.diffop import primitive_space_basis
from boxcert.exactlin import RatMatrix, det, dot, inertia, principal_submatrix
from boxcert.fedotov import (
    Certificate,
    PipelineError,
    build_matrix,
    certificate_from_json,
    certificate_to_json,
    construct_counterexample,
    construct_counterexample_k2,
    double_polarization_check,
    load_certificate,
    pipeline_base_k2,
    random_instance,
    SearchStats,
    random_search,
    reduce_to_general_k,
    save_certificate,
    shephard_verify,
    verify_certificate,
    width_classes,
)
from boxcert.hypmat import (
    Violation, is_hyperbolic, sylvester_violation, violates_sign, witness_forms
)
from boxcert.mixvol import BodyTuple, mixed_volume
from boxcert.selftest import naive_permanent_mixed_volume, random_box


def _rank(m):
    """Rank of a symmetric matrix: n_pos + n_neg of its exact inertia."""
    found = inertia(m)
    return found.n_pos + found.n_neg


def test_build_matrix_homothets_rank_one():
    k = BoxBody(3, (1, 2, 3))
    fm = build_matrix([k, k.scale(2)], 1, [unit_cube(3)])
    v = fm.matrix[0, 0]
    assert fm.matrix.entries == ((v, 2 * v), (2 * v, 4 * v))
    assert _rank(fm.matrix) == 1


def test_build_matrix_all_cubes_gives_ones():
    cube = unit_cube(4)
    fm = build_matrix([cube] * 3, 1, [cube] * 2)
    assert all(v == 1 for row in fm.matrix.entries for v in row)


def test_build_matrix_random_passes_shephard():
    rng = random.Random(0)
    for _ in range(10):
        n = rng.randrange(2, 6)
        bodies = [random_box(rng, n) for _ in range(rng.randrange(1, 6))]
        c_bodies = [random_box(rng, n) for _ in range(n - 2)]
        report = shephard_verify(build_matrix(bodies, 1, c_bodies))
        assert report.ok


def test_build_matrix_validates_bookkeeping():
    with pytest.raises(ValueError):
        build_matrix([unit_cube(4)], 2, [unit_cube(4)])
    with pytest.raises(ValueError):
        build_matrix([], 1, [unit_cube(4)] * 2)


def test_width_classes_group_by_widths_only():
    a, b = BoxBody(3, (1, 2, 3)), BoxBody(3, (2, 2, 2))
    bodies = [a, b, BoxBody(3, (1, 2, 3)), b, a]
    reps, classes = width_classes(bodies)
    assert reps == [a, b] and reps[0] is a
    assert classes == [0, 1, 0, 1, 0]


def test_build_matrix_repeated_widths_match_reference():
    rng = random.Random(1)
    for n, k in ((4, 1), (5, 2), (6, 2)):
        distinct = [random_box(rng, n) for _ in range(3)]
        bodies = [distinct[0], distinct[1], BoxBody(n, distinct[0].widths),
                  distinct[2], distinct[1], distinct[0]]
        c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
        fm = build_matrix(bodies, k, c_bodies)
        tail = tuple((c, 1) for c in c_bodies)
        for i, a in enumerate(bodies):
            for j, b in enumerate(bodies):
                t = BodyTuple(n, ((a, k), (b, k)) + tail)
                assert fm.matrix[i, j] == mixed_volume(t)


def _entrywise_table(fm, oracle=mixed_volume):
    """The class table of ``fm`` again, one oracle call per class pair."""
    reps, _ = width_classes(fm.bodies)
    tail = tuple((c, 1) for c in fm.c_bodies)
    return [
        [oracle(BodyTuple(fm.n, ((a, fm.k), (b, fm.k)) + tail)) for b in reps]
        for a in reps
    ]


def _mixed_box(rng, n, pool):
    return BoxBody(n, tuple(rng.choice(pool) for _ in range(n)))


def test_build_matrix_table_matches_entrywise_mixed_volume():
    # widths over denominators 1..7, zero included, so rows scale by
    # different factors; every k with 2k <= n, for n <= 7
    rng = random.Random(11)
    pool = [F(p, q) for p in range(0, 9) for q in (1, 2, 3, 4, 5, 7)]
    positive = [w for w in pool if w]
    for n in range(2, 8):
        for k in range(1, n // 2 + 1):
            r = n - 2 * k
            c = _mixed_box(rng, n, positive)
            shapes = (
                [_mixed_box(rng, n, positive) for _ in range(r)],
                [c] * r,
                [c if i % 3 else _mixed_box(rng, n, positive) for i in range(r)],
            )
            for c_bodies in shapes:
                bodies = [_mixed_box(rng, n, pool) for _ in range(3)] + [unit_cube(n)]
                fm = build_matrix(bodies, k, c_bodies)
                expected = _entrywise_table(fm)
                assert [list(row) for row in fm.table.entries] == expected
                if n <= 6:
                    assert _entrywise_table(fm, naive_permanent_mixed_volume) == expected


def test_build_matrix_table_matches_entrywise_at_dimension_12():
    # the perfbench shephard instance (13 bodies, 10 distinct C bodies) and
    # a k = 2 search instance (12 bodies, 8 distinct C bodies)
    rng = random.Random("perfbench:shephard:1")

    def box():
        return BoxBody(12, tuple(F(rng.randint(1, 16), rng.randint(1, 4)) for _ in range(12)))

    bodies = [box() for _ in range(13)]
    search_bodies, search_c_bodies = random_instance(12, 2, 12, 1, 0)
    instances = [(bodies, 1, [box() for _ in range(10)]), (search_bodies, 2, search_c_bodies)]
    for bodies, k, c_bodies in instances:
        fm = build_matrix(bodies, k, c_bodies)
        assert [list(row) for row in fm.table.entries] == _entrywise_table(fm)


def test_build_matrix_shares_no_code_with_the_verifier(monkeypatch):
    # the builder's table is its own evaluation: neither the coordinate DP
    # nor any part of the derivative path runs
    rng = random.Random(12)
    cases = [
        ([random_box(rng, 6) for _ in range(4)], 1, [random_box(rng, 6) for _ in range(4)]),
        ([random_box(rng, 7) for _ in range(3)], 2, [unit_cube(7)] * 3),
        ([random_box(rng, 8) for _ in range(3)], 4, []),
    ]
    expected = [build_matrix(*case).table for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("build_matrix called a verifier or DP routine")

    for module in ("mixvol", "diffop", "fedotov"):
        for name in ("mixed_volume", "apply_op", "op_from_box", "contract"):
            monkeypatch.setattr(f"boxcert.{module}.{name}", forbidden, raising=False)
    assert [build_matrix(*case).table for case in cases] == expected


def test_shephard_verify_single_body():
    fm = build_matrix([BoxBody(2, (2, 3))], 1, [])
    report = shephard_verify(fm)
    assert report.ok and report.subsets_checked == 1
    assert report.determinant == fm.matrix[0, 0] > 0


def test_shephard_verify_determinant_is_full_minor():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(2, 6)
        bodies = [random_box(rng, n) for _ in range(rng.randrange(1, 6))]
        fm = build_matrix(bodies, 1, [random_box(rng, n) for _ in range(n - 2)])
        report = shephard_verify(fm)
        assert report.subsets_checked == 2 ** fm.m - 1
        assert report.determinant == det(fm.matrix)


def test_shephard_verify_accepts_zero_width_body():
    # widths (0, 0, 1) give a zero diagonal entry: sylvester_violation rejects
    # such a matrix, shephard_verify must not
    fm = build_matrix([BoxBody(3, (1, 2, 3)), BoxBody(3, (0, 0, 1))], 1, [unit_cube(3)])
    with pytest.raises(ValueError):
        sylvester_violation(fm.matrix)
    report = shephard_verify(fm)
    assert report.ok and report.subsets_checked == 3
    assert report.determinant == F(-1, 4)


def test_shephard_verify_homothety_singular():
    k = BoxBody(3, (1, 2, 3))
    report = shephard_verify(build_matrix([k, k.scale(3)], 1, [unit_cube(3)]))
    assert report.ok and report.determinant == 0


def _brute_force_shephard(matrix):
    """(subsets, det M, violations) from ``det`` on every principal subset."""
    size = matrix.rows
    minors = [
        (subset, det(principal_submatrix(matrix, subset)))
        for card in range(1, size + 1)
        for subset in combinations(range(size), card)
    ]
    violations = tuple(Violation(s, v) for s, v in minors if violates_sign(s, v))
    return len(minors), minors[-1][1], violations


def test_shephard_verify_matches_brute_force():
    rng = random.Random(21)
    deficient = build_matrix([random_box(rng, 3) for _ in range(6)], 1, [random_box(rng, 3)])
    full = build_matrix([random_box(rng, 5) for _ in range(4)], 1, [random_box(rng, 5) for _ in range(3)])
    assert _rank(deficient.matrix) == 3 < deficient.m
    assert _rank(full.matrix) == full.m
    # the report depends on the matrix alone: a table with three positive
    # eigenvalues on classes (0, 1, 0, 2, 1) gives violations at rank 3 < 5
    a, b, c = (random_box(rng, 3) for _ in range(3))
    planted = replace(
        build_matrix([a, b, a, c, b], 1, [random_box(rng, 3)]),
        table=RatMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]]),
    )
    assert _rank(planted.matrix) == 3
    for fm in (deficient, full, planted):
        report = shephard_verify(fm)
        checked, determinant, violations = _brute_force_shephard(fm.matrix)
        assert report.subsets_checked == checked == 2**fm.m - 1
        assert report.determinant == determinant
        assert report.violations == violations
        assert report.ok == (not violations)
    assert shephard_verify(planted).violations


def test_shephard_verify_requires_k1():
    fm = build_matrix([unit_cube(4)] * 2, 2, [])
    with pytest.raises(ValueError):
        shephard_verify(fm)


def test_pipeline_base_k2_identities():
    base = pipeline_base_k2(4)
    assert base.pair_xy == 0
    assert base.pair_xx > 0
    assert base.x[-1] == 0 and base.y[-1] == 1
    assert all(v == 0 for v in base.y[:-1])
    assert base.bodies[-1] == unit_cube(4)
    assert not is_hyperbolic(base.fedotov.matrix)


@pytest.mark.parametrize("n", range(4, 11))
def test_pipeline_alpha_is_the_first_primitive_basis_element(n):
    cube = unit_cube(n)
    assert pipeline_base_k2(n).alpha == primitive_space_basis(2, cube, [cube] * (n - 4))[0]


def test_construct_k2_n4_verifies():
    cert = construct_counterexample_k2(4)
    assert verify_certificate(cert).ok
    assert (-1) ** len(cert.subset) * cert.subset_det > 0


def test_construct_k2_n5_verifies():
    cert = construct_counterexample_k2(5)
    assert verify_certificate(cert).ok
    assert cert.n == 5 and cert.k == 2


def test_construct_k2_rejects_small_dimension():
    with pytest.raises(ValueError):
        construct_counterexample_k2(3)


def test_construct_dispatch_bounds():
    with pytest.raises(ValueError):
        construct_counterexample(5, 3)  # 2k > n
    with pytest.raises(ValueError):
        construct_counterexample(4, 1)


def test_reduction_passthrough_k2():
    base = pipeline_base_k2(4)
    cert = reduce_to_general_k(base, 2)
    assert verify_certificate(cert).ok
    assert double_polarization_check(base, cert)
    assert cert.pair_xy == 0 and cert.pair_xx == base.pair_xx
    # delta labels: 01, 10, 11 per base body
    deltas = [label[1] for label in cert.labels[:3]]
    assert deltas == [(0, 1), (1, 0), (1, 1)]


def test_reduction_rejects_bad_degree():
    base = pipeline_base_k2(4)
    with pytest.raises(ValueError):
        reduce_to_general_k(base, 3)  # 2k > n for n=4
    with pytest.raises(ValueError):
        reduce_to_general_k(base, 1)


@pytest.mark.slow
def test_reduction_n6_k3_full():
    base = pipeline_base_k2(6)
    cert = reduce_to_general_k(base, 3)
    assert cert.pair_xy == 0
    assert cert.pair_xx == base.pair_xx > 0
    assert double_polarization_check(base, cert)
    assert verify_certificate(cert).ok
    cube = unit_cube(6)
    for (i, delta), body in zip(cert.labels, cert.bodies):
        pattern = [(delta[0] + delta[1], base.bodies[i]), (sum(delta[2:]), cube)]
        assert body == minkowski_combine(pattern)


def test_builder_checks_the_y_direction_as_the_verifier_does(monkeypatch):
    base = pipeline_base_k2(6)
    monkeypatch.setattr(
        "boxcert.fedotov.witness_forms", lambda *args: (*witness_forms(*args)[:2], F(0))
    )
    with pytest.raises(PipelineError, match="<y,My>"):
        pipeline_base_k2(4)
    with pytest.raises(PipelineError, match="<y,My>"):
        reduce_to_general_k(base, 3)


def test_random_search_zero_trials():
    cert, stats = random_search(4, 2, 3, 0, seed=0)
    assert cert is None
    assert stats.trials == 0 and not stats.found


def test_random_search_deterministic():
    a = random_search(4, 2, 3, 8, seed=5)
    b = random_search(4, 2, 3, 8, seed=5)
    assert a[1] == b[1]
    if a[0] is not None:
        assert certificate_to_json(a[0]) == certificate_to_json(b[0])


def test_random_search_k1_never_finds():
    cert, stats = random_search(4, 1, 4, 40, seed=2)
    assert cert is None and stats.trials == 40


def test_random_search_k2_finds_and_verifies():
    cert, stats = random_search(4, 2, 4, 30, seed=3)
    assert cert is not None, "no violation found; widen the search in the test"
    assert stats.found
    assert cert.x == () and cert.y == ()
    assert cert.trace["mode"] == "direct"
    assert verify_certificate(cert).ok
    bodies, c_bodies = random_instance(4, 2, 4, 3, cert.trace["trial"])
    assert cert.bodies == tuple(bodies) and cert.c_bodies == tuple(c_bodies)


def test_random_search_asks_inertia_before_enumerating(monkeypatch):
    # every k = 1 trial has one positive eigenvalue, so no subset is
    # enumerated; a k = 2 trial with two still is, and finds the same subset
    def forbidden(m):
        raise AssertionError("enumerated the minors of a hyperbolic matrix")

    monkeypatch.setattr("boxcert.fedotov.sylvester_violation", forbidden)
    cert, stats = random_search(12, 1, 20, 2, 1)
    assert cert is None and stats == SearchStats(2, False, None)
    monkeypatch.undo()
    cert, stats = random_search(12, 2, 12, 3, 1)
    assert stats == SearchStats(1, True, 0)
    assert cert.subset == (0, 2, 3, 5, 7, 8, 9, 10)
    assert verify_certificate(cert).ok


def test_random_instance_draws_bodies_then_auxiliaries():
    bodies, c_bodies = random_instance(6, 2, 5, seed=4, trial=1)
    assert len(bodies) == 5 and len(c_bodies) == 2
    rng = random.Random("boxcert:4:1")
    drawn = [random_box(rng, 6) for _ in range(7)]
    assert bodies + c_bodies == drawn
    assert random_instance(6, 2, 5, seed=4, trial=1) == (bodies, c_bodies)
    assert random_instance(6, 2, 5, seed=4, trial=2) != (bodies, c_bodies)


def test_certificate_roundtrip_bit_exact(tmp_path):
    cert = construct_counterexample_k2(4)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    text = path.read_text()
    loaded = load_certificate(path)
    assert certificate_to_json(loaded) == text
    assert verify_certificate(loaded).ok


def test_certificate_reduction_labels_roundtrip(tmp_path):
    base = pipeline_base_k2(4)
    cert = reduce_to_general_k(base, 2)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert loaded.labels == cert.labels
    assert certificate_to_json(loaded) == path.read_text()


def test_verify_rejects_tampered_entry():
    cert = construct_counterexample_k2(4)
    data = json.loads(certificate_to_json(cert))
    data["matrix"][0][1] = "9999"
    data["matrix"][1][0] = "9999"
    tampered = certificate_from_json(json.dumps(data))
    report = verify_certificate(tampered)
    assert not report.ok and "entry" in report.reason


def _tampered(cert, changes):
    """``cert`` through JSON with matrix[i][j] = value for each (i, j, value)."""
    data = json.loads(certificate_to_json(cert))
    for i, j, value in changes:
        data["matrix"][i][j] = value
    return certificate_from_json(json.dumps(data))


def test_verify_rejects_asymmetric_matrix():
    cert = construct_counterexample_k2(4)
    report = verify_certificate(_tampered(cert, [(0, 1, "9999")]))
    assert (report.ok, report.reason) == (False, "matrix is not symmetric")


def test_verify_rejects_nonpositive_matrix():
    cert = construct_counterexample_k2(4)
    report = verify_certificate(_tampered(cert, [(0, 1, "-1"), (1, 0, "-1")]))
    assert (report.ok, report.reason) == (False, "matrix is not entrywise positive")


def test_verify_asymmetry_outranks_an_earlier_entry_mismatch():
    # (0, 0) differs from the table first in row-major order, but a stored
    # matrix that is not symmetric is reported as such
    cert = construct_counterexample_k2(4)
    report = verify_certificate(_tampered(cert, [(0, 0, "9999"), (5, 7, "9999")]))
    assert (report.ok, report.reason) == (False, "matrix is not symmetric")
    report = verify_certificate(_tampered(cert, [(0, 0, "9999"), (7, 5, "-1"), (5, 7, "-1")]))
    assert (report.ok, report.reason) == (False, "matrix is not entrywise positive")


@pytest.fixture(scope="module")
def reduction_n6_k3():
    return reduce_to_general_k(pipeline_base_k2(6), 3)


def _first_repeated_class_pair(classes):
    """First off-diagonal (i, j), row-major, whose class pair came earlier."""
    seen = set()
    for i in range(len(classes)):
        for j in range(i, len(classes)):
            key = tuple(sorted((classes[i], classes[j])))
            if key in seen and i != j:
                return i, j
            seen.add(key)
    return None


def test_verify_checks_every_entry_of_a_repeated_class(reduction_n6_k3):
    cert = reduction_n6_k3
    _, classes = width_classes(cert.bodies)
    i, j = _first_repeated_class_pair(classes)
    data = json.loads(certificate_to_json(cert))
    data["matrix"][i][j] = data["matrix"][j][i] = "9999"
    report = verify_certificate(certificate_from_json(json.dumps(data)))
    assert not report.ok
    assert report.reason.startswith(f"matrix entry ({i},{j}) is 9999, recomputed ")


@pytest.mark.parametrize(
    "i, j, value, reason",
    [
        (0, 5, "9999", "matrix entry (0,5) is 9999, recomputed 88/5"),
        (7, 12, "9999", "matrix entry (7,12) is 9999, recomputed 88/5"),
        (7, 12, "176/10", ""),
    ],
    ids=["first-row", "later-row", "later-row-longhand"],
)
def test_verify_entry_pass_on_a_repeated_class(reduction_n6_k3, i, j, value, reason):
    # rows 0 and 7 are the first two rows of width class 0: row 0 is compared
    # with the recomputed row, row 7 with row 0, by value when its entries
    # are not row 0's objects
    _, classes = width_classes(reduction_n6_k3.bodies)
    assert classes.index(classes[7]) == 0
    report = verify_certificate(_tampered(reduction_n6_k3, [(i, j, value), (j, i, value)]))
    assert (report.ok, report.reason) == (not reason, reason)


def test_verify_certificate_shares_no_code_with_the_builder(monkeypatch, reduction_n6_k3):
    # the verifier's table is the coordinate DP's: neither the builder's
    # integer table nor build_matrix runs
    cert_n4 = construct_counterexample_k2(4)
    certs = [cert_n4, reduction_n6_k3, _tampered(cert_n4, [(2, 3, "9999"), (3, 2, "9999")])]
    expected = [verify_certificate(cert) for cert in certs]
    assert [report.ok for report in expected] == [True, True, False]

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_certificate called the matrix builder")

    for name in ("_kfold_table", "build_matrix"):
        monkeypatch.setattr(f"boxcert.fedotov.{name}", forbidden)
    assert [verify_certificate(cert) for cert in certs] == expected


def test_certificate_with_noncanonical_strings_verifies():
    # "2/4" and "3/1" are the canonical "1/2" and "3" written out longhand
    cert = construct_counterexample_k2(4)
    text = certificate_to_json(cert)
    data = json.loads(text)

    def longhand(value):
        num, _, den = value.partition("/")
        return f"{2 * int(num)}/{2 * int(den or 1)}"

    data["matrix"] = [[longhand(v) for v in row] for row in data["matrix"]]
    data["x"] = [longhand(v) for v in data["x"]]
    data["subset_det"] = longhand(data["subset_det"])
    loaded = certificate_from_json(json.dumps(data))
    assert verify_certificate(loaded).ok
    assert certificate_to_json(loaded) == text


def test_verify_rejects_wrong_subset():
    cert = construct_counterexample_k2(4)
    # a singleton minor is positive, so (-1)^1 * det <= 0 always: not a violation
    data = json.loads(certificate_to_json(cert))
    data["subset"] = [0]
    data["subset_det"] = data["matrix"][0][0]
    tampered = certificate_from_json(json.dumps(data))
    report = verify_certificate(tampered)
    assert not report.ok


def test_verify_rejects_degenerate_body():
    cert = construct_counterexample_k2(4)
    data = json.loads(certificate_to_json(cert))
    data["bodies"][0][0] = "0"
    report = verify_certificate(certificate_from_json(json.dumps(data)))
    assert not report.ok and "degenerate" in report.reason


def test_verify_rejects_wrong_pairing():
    cert = construct_counterexample_k2(4)
    data = json.loads(certificate_to_json(cert))
    data["x"][0] = "1000000"
    report = verify_certificate(certificate_from_json(json.dumps(data)))
    assert not report.ok


@pytest.mark.parametrize(
    "field, scale, reason",
    [
        ("y", 0, "quadratic form <y,My> is not strictly positive"),
        ("y", 2, ""),
        ("y", -1, ""),
        ("x", -1, ""),
    ],
)
def test_verify_needs_a_positive_y_direction(field, scale, reason):
    # y = 0 proves nothing; a nonzero multiple of y, or -x, is as good a witness
    cert = construct_counterexample_k2(4)
    scaled = replace(cert, **{field: tuple(scale * v for v in getattr(cert, field))})
    report = verify_certificate(scaled)
    assert (report.ok, report.reason) == (not reason, reason)


def test_verify_rejects_bad_version():
    cert = construct_counterexample_k2(4)
    data = json.loads(certificate_to_json(cert))
    data["version"] = 99
    report = verify_certificate(certificate_from_json(json.dumps(data)))
    assert not report.ok and "version" in report.reason


def test_fedeasy_m2_determinants_nonpositive():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n // 2 + 1)
        bodies = [random_box(rng, n) for _ in range(2)]
        c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
        assert det(build_matrix(bodies, k, c_bodies).matrix) <= 0


def test_builder_and_verifier_paths_agree_on_certificate():
    from boxcert.mixvol import mixed_volume_via_derivatives

    cert = construct_counterexample_k2(4)
    n, k = cert.n, cert.k
    tail = tuple((c, 1) for c in cert.c_bodies)
    for i in range(3):
        for j in range(3):
            t = BodyTuple(n, ((cert.bodies[i], k), (cert.bodies[j], k)) + tail)
            assert mixed_volume(t) == mixed_volume_via_derivatives(t) == cert.matrix[i, j]
