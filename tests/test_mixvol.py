import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from boxcert.boxes import BoxBody, point, unit_cube, volume
from boxcert.exactlin import RatMatrix
from boxcert.fedotov import Certificate, build_matrix, verify_certificate
from boxcert.mixvol import (
    BodyTuple,
    af_check,
    body_tuple,
    iterated_af_check,
    mixed_volume,
    mixed_volume_via_derivatives,
    mixed_volumes,
    polarization_identity_check,
)
from boxcert.selftest import naive_permanent_mixed_volume, random_box


def test_cube_mixed_volume_is_one():
    for n in range(1, 6):
        assert mixed_volume(BodyTuple(n, ((unit_cube(n), n),))) == 1


def test_mixed_volume_two_boxes():
    # expand (l1 + 3*l2)(2*l1 + l2): the l1*l2 coefficient is 7, halved
    k1, k2 = BoxBody(2, (1, 2)), BoxBody(2, (3, 1))
    assert mixed_volume(body_tuple(k1, k2)) == F(7, 2)


def test_mixed_volume_with_point_vanishes():
    t = BodyTuple(3, ((point(3), 1), (unit_cube(3), 2)))
    assert mixed_volume(t) == 0


def test_body_tuple_validation():
    with pytest.raises(ValueError):
        BodyTuple(3, ((unit_cube(3), 2),))
    with pytest.raises(ValueError):
        BodyTuple(2, ((unit_cube(3), 2),))
    with pytest.raises(ValueError):
        BodyTuple(2, ((unit_cube(2), 0), (unit_cube(2), 2)))
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        BodyTuple(0, ())


def test_body_tuple_keeps_the_envelope_and_normalizes_entries():
    with pytest.raises(ValueError, match="exceeds the supported envelope"):
        BodyTuple(13, ((unit_cube(13), 13),))
    with pytest.raises(ValueError, match="all bodies must live in dimension n"):
        BodyTuple(3, ((unit_cube(3), 1), (unit_cube(2), 2)))
    cube = unit_cube(3)
    t = BodyTuple(3, [(cube, 1), [cube, F(1)], (cube, 1)])
    assert t.entries == ((cube, 1), (cube, 1), (cube, 1))
    assert all(type(mult) is int for _, mult in t.entries)
    assert t == BodyTuple(3, ((cube, 1),) * 3) and hash(t) == hash(BodyTuple(3, ((cube, 1),) * 3))


def _with_zero_width(rng, box):
    widths = list(box.widths)
    widths[rng.randrange(box.n)] = F(0)
    return BoxBody(box.n, tuple(widths))


def test_against_permutation_oracle():
    # Multiplicities 3, 5, 6 and 7 leave slack in a count field of
    # bit_length(m) bits, so they are checked on purpose; random draws add
    # a box repeated in two entries and zero widths.
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randrange(1, 5)
        t = body_tuple(*[random_box(rng, n) for _ in range(n)])
        assert mixed_volume(t) == naive_permanent_mixed_volume(t)
    for mults in ((3, 4), (5, 2), (6, 1), (7,), (3, 3, 1)):
        n = sum(mults)
        entries = tuple((random_box(rng, n), m) for m in mults)
        t = BodyTuple(n, entries)
        assert mixed_volume(t) == naive_permanent_mixed_volume(t)
    for _ in range(40):
        n = rng.randrange(1, 8)
        pool = [random_box(rng, n) for _ in range(2)]
        entries = []
        remaining = n
        while remaining:
            mult = rng.randrange(1, remaining + 1)
            box = rng.choice(pool)
            if rng.random() < 0.3:
                box = _with_zero_width(rng, box)
            entries.append((box, mult))
            remaining -= mult
        t = BodyTuple(n, tuple(entries))
        assert mixed_volume(t) == naive_permanent_mixed_volume(t)


def test_at_dimension_twelve_against_derivative_path():
    rng = random.Random(12)
    a, b, c, k = (random_box(rng, 12) for _ in range(4))
    for entries in (
        tuple((random_box(rng, 12), 1) for _ in range(12)),  # the shephard shape
        ((a, 6), (b, 6)),
        ((a, 5), (b, 5), (c, 1), (c, 1)),
        ((k, 12),),
    ):
        t = BodyTuple(12, entries)
        assert mixed_volume(t) == mixed_volume_via_derivatives(t)
    assert mixed_volume(BodyTuple(12, ((k, 12),))) == volume(k)


def _pattern(rng, n):
    """Random positive multiplicities summing to n."""
    mults = []
    while sum(mults) < n:
        mults.append(rng.randrange(1, n - sum(mults) + 1))
    return tuple(mults)


def _slots(rng, n, mults, count):
    """``count`` slots for ``mults``: the first lists one box in every entry,
    the rest draw from a small pool with zero widths and a point mixed in.
    """
    shared = random_box(rng, n)
    pool = [shared, point(n), _with_zero_width(rng, random_box(rng, n))]
    pool += [random_box(rng, n) for _ in range(3)]
    return [[shared] * len(mults)] + [[rng.choice(pool) for _ in mults] for _ in range(count - 1)]


@pytest.mark.parametrize("n", range(1, 9))
def test_mixed_volumes_equal_both_oracles_on_every_slot(n):
    # several slots with different bodies in one call; the permutation
    # oracle sums n! terms, so it checks n <= 6 (n = 8 alone takes a second)
    rng = random.Random(f"mixed_volumes:{n}")
    for _ in range(2):
        mults = _pattern(rng, n)
        slots = _slots(rng, n, mults, 4)
        values = mixed_volumes(n, mults, slots)
        assert len(values) == len(slots)
        for slot, value in zip(slots, values):
            t = BodyTuple(n, zip(slot, mults))
            assert value == mixed_volume_via_derivatives(t) == mixed_volume(t)
            if n <= 6:
                assert value == naive_permanent_mixed_volume(t)
        assert values[0] == volume(slots[0][0])


def test_mixed_volumes_at_dimension_twelve():
    rng = random.Random("mixed_volumes:12")
    slots = _slots(rng, 12, (6, 6), 3)
    for slot, value in zip(slots, mixed_volumes(12, (6, 6), slots)):
        assert value == mixed_volume_via_derivatives(BodyTuple(12, zip(slot, (6, 6))))
    # a k = 1 pattern: 4,096 states, every body distinct, against the builder's table
    bodies = [random_box(rng, 12) for _ in range(3)]
    c_bodies = [random_box(rng, 12) for _ in range(10)]
    table = build_matrix(bodies, 1, c_bodies).table
    pairs = [(a, b) for a in range(3) for b in range(a, 3)]
    slots = [[bodies[a], bodies[b], *c_bodies] for a, b in pairs]
    assert mixed_volumes(12, (1,) * 12, slots) == [table[a, b] for a, b in pairs]


def test_mixed_volumes_diagonal_is_the_doubled_multiplicity():
    # the verifier evaluates V(A[2k], C...) as V(A[k], A[k], C...)
    rng = random.Random(5)
    for n, k in ((2, 1), (4, 2), (5, 1), (7, 3), (8, 4), (12, 6)):
        a, tail = random_box(rng, n), [random_box(rng, n) for _ in range(n - 2 * k)]
        doubled = mixed_volumes(n, (k, k, *[1] * len(tail)), [[a, a, *tail]])
        assert doubled == mixed_volumes(n, (2 * k, *[1] * len(tail)), [[a, *tail]])
        assert doubled == [mixed_volume(BodyTuple(n, ((a, 2 * k),) + tuple((c, 1) for c in tail)))]


def test_mixed_volumes_edge_cases():
    cube = unit_cube(3)
    assert mixed_volumes(3, (2, 1), []) == []
    assert mixed_volumes(3, (2, 1), [[cube, point(3)], [cube, cube]]) == [0, 1]
    for mults, slot in (((2, 2), [cube] * 2), ((3, 0), [cube] * 2), ((1, 1), [cube] * 2),
                        ((2, 1), [cube, unit_cube(2)])):
        with pytest.raises(ValueError, match="summing to 3, and bodies in dimension 3"):
            mixed_volumes(3, mults, [slot])


def test_permutation_symmetry_exhaustive():
    rng = random.Random(1)
    for n in range(2, 6):
        bodies = [random_box(rng, n) for _ in range(n)]
        reference = mixed_volume(body_tuple(*bodies))
        for perm in permutations(bodies):
            assert mixed_volume(body_tuple(*perm)) == reference


def test_multilinearity():
    rng = random.Random(2)
    from boxcert.boxes import minkowski_combine

    for _ in range(25):
        n = rng.randrange(2, 6)
        rest = [random_box(rng, n) for _ in range(n - 1)]
        k1, k2 = random_box(rng, n), random_box(rng, n)
        a, b = F(rng.randrange(1, 9), 2), F(rng.randrange(1, 9), 4)
        combined = minkowski_combine([(a, k1), (b, k2)])
        lhs = mixed_volume(body_tuple(combined, *rest))
        rhs = a * mixed_volume(body_tuple(k1, *rest)) + b * mixed_volume(
            body_tuple(k2, *rest)
        )
        assert lhs == rhs


def test_derivative_path_trivial_cases():
    for n in range(1, 6):
        t = BodyTuple(n, ((unit_cube(n), n),))
        assert mixed_volume_via_derivatives(t) == 1
    box = BoxBody(3, (F(1, 2), 2, 3))
    t = BodyTuple(3, ((box, 3),))
    assert mixed_volume_via_derivatives(t) == F(1, 2) * 2 * 3


def test_derivative_path_agrees_on_random_tuples():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(1, 7)
        entries = []
        remaining = n
        while remaining:
            mult = rng.randrange(1, remaining + 1)
            entries.append((random_box(rng, n), mult))
            remaining -= mult
        t = BodyTuple(n, tuple(entries))
        assert mixed_volume(t) == mixed_volume_via_derivatives(t)


def test_derivative_path_merges_a_box_listed_in_two_entries():
    a, b = BoxBody(4, (1, 2, F(3, 2), 5)), BoxBody(4, (2, F(1, 3), 1, 4))
    t = BodyTuple(4, ((a, 2), (b, 1), (a, 1)))
    assert mixed_volume_via_derivatives(t) == mixed_volume(t)
    assert mixed_volume(t) == mixed_volume(BodyTuple(4, ((a, 3), (b, 1))))


def test_af_equal_bodies():
    k = BoxBody(3, (1, 2, 3))
    lhs, rhs, holds = af_check(k, k, [unit_cube(3)])
    assert holds and lhs == rhs


def test_af_homothets_give_equality():
    k = BoxBody(4, (1, 2, 3, 4))
    lhs, rhs, holds = af_check(k, k.scale(2), [unit_cube(4), BoxBody(4, (2, 1, 1, 2))])
    assert holds and lhs == rhs


def test_af_two_dimensional_example():
    lhs, rhs, holds = af_check(BoxBody(2, (1, 2)), BoxBody(2, (3, 1)), [])
    assert (lhs, rhs, holds) == (F(49, 4), F(6), True)


def test_af_wrong_body_count():
    with pytest.raises(ValueError):
        af_check(unit_cube(3), unit_cube(3), [])


def test_af_random_suite():
    rng = random.Random(5)
    for n in range(2, 7):
        for _ in range(50):
            lhs, rhs, holds = af_check(
                random_box(rng, n),
                random_box(rng, n),
                [random_box(rng, n) for _ in range(n - 2)],
            )
            assert holds


def test_iterated_af_reduces_to_af_at_k_l_one():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(2, 6)
        k1, k2 = random_box(rng, n), random_box(rng, n)
        cs = [random_box(rng, n) for _ in range(n - 2)]
        assert iterated_af_check(k1, k2, 1, 1, cs) == af_check(k1, k2, cs)


def test_iterated_af_equal_bodies():
    k = BoxBody(4, (1, 2, 1, 2))
    lhs, rhs, holds = iterated_af_check(k, k, 2, 2, [])
    assert holds and lhs == rhs


def test_iterated_af_random_n4():
    rng = random.Random(7)
    for _ in range(50):
        lhs, rhs, holds = iterated_af_check(
            random_box(rng, 4), random_box(rng, 4), 2, 2, []
        )
        assert holds


def test_iterated_af_invalid_degrees():
    with pytest.raises(ValueError):
        iterated_af_check(unit_cube(3), unit_cube(3), 0, 1, [unit_cube(3)] * 2)
    with pytest.raises(ValueError):
        iterated_af_check(unit_cube(3), unit_cube(3), 2, 2, [])


def test_polarization_single_body_is_identity():
    box = BoxBody(3, (1, 2, 3))
    tail = ((unit_cube(3), 2),)
    lhs, rhs, equal = polarization_identity_check([box], tail)
    assert equal and lhs == rhs == mixed_volume(BodyTuple(3, ((box, 1),) + tail))


def test_polarization_repeated_body_homogeneity():
    k = BoxBody(4, (1, 3, 2, 1))
    tail = ((unit_cube(4), 2),)
    lhs, rhs, equal = polarization_identity_check([k, k], tail)
    assert equal
    direct = mixed_volume(BodyTuple(4, ((k, 2),) + tail))
    doubled = mixed_volume(BodyTuple(4, ((k.scale(2), 2),) + tail))
    assert lhs == F(1, 2) * (doubled - 2 * direct) == direct


def test_polarization_three_distinct_n5():
    rng = random.Random(8)
    r_bodies = [random_box(rng, 5) for _ in range(3)]
    tail = tuple((random_box(rng, 5), 1) for _ in range(2))
    lhs, rhs, equal = polarization_identity_check(r_bodies, tail)
    assert equal


def test_polarization_random():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n + 1)
        r_bodies = [random_box(rng, n) for _ in range(k)]
        tail = tuple((random_box(rng, n), 1) for _ in range(n - k))
        assert polarization_identity_check(r_bodies, tail)[2]


def test_dimension_envelope():
    with pytest.raises(ValueError):
        BodyTuple(13, ((unit_cube(13), 13),))


def test_nonnegative_with_degenerate_bodies():
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randrange(1, 6)
        bodies = []
        for _ in range(n):
            box = random_box(rng, n)
            if rng.random() < 0.4:
                widths = list(box.widths)
                widths[rng.randrange(n)] = F(0)
                box = BoxBody(n, tuple(widths))
            bodies.append(box)
        value = mixed_volume(body_tuple(*bodies))
        assert value >= 0
        if all(b.is_nondegenerate for b in bodies):
            assert value > 0


def _verifier_reason(n, bodies, k, c_bodies):
    """``verify_certificate`` on the matrix ``build_matrix`` gives these bodies.

    The certificate claims no minor, so a verifier whose table equals the
    builder's on every entry stops at "empty violating subset".
    """
    fm = build_matrix(bodies, k, c_bodies)
    cert = Certificate(
        n=n, k=k, labels=tuple(range(fm.m)), bodies=fm.bodies, c_bodies=fm.c_bodies,
        x=(), y=(), pair_xy=None, pair_xx=None, matrix=fm.matrix, subset=(), subset_det=F(0),
    )
    return verify_certificate(cert).reason


def test_kfold_prefix_pairing_matches_both_paths():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(3, 8)
        k = rng.randrange(1, (n + 1) // 2)  # leaves at least one C body
        bodies = [random_box(rng, n) for _ in range(3)]
        c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
        tail = tuple((c, 1) for c in c_bodies)
        for a in range(3):
            for b in range(3):
                t = BodyTuple(n, ((bodies[a], k), (bodies[b], k)) + tail)
                assert mixed_volume(t) == mixed_volume_via_derivatives(t)
        assert _verifier_reason(n, bodies, k, c_bodies) == "empty violating subset"
    # n = 2k is the pipeline's shape, where the shared contraction is V itself;
    # at n = 12, k = 6 and k = 5 with two distinct C bodies
    cases = [(2 * k, k, 3, 0) for k in range(1, 5)] + [(12, 6, 2, 0), (12, 5, 2, 2)]
    for n, k, count, c_count in cases:
        bodies = [random_box(rng, n) for _ in range(count)]
        c_bodies = [random_box(rng, n) for _ in range(c_count)]
        assert len(set(c_bodies)) == c_count
        tail = tuple((c, 1) for c in c_bodies)
        for a in range(count):
            for b in range(count):
                t = BodyTuple(n, ((bodies[a], k), (bodies[b], k)) + tail)
                assert mixed_volume(t) == mixed_volume_via_derivatives(t)
        assert _verifier_reason(n, bodies, k, c_bodies) == "empty violating subset"


def test_kfold_bookkeeping_is_validated():
    cube = unit_cube(4)
    with pytest.raises(ValueError):
        BodyTuple(4, ((cube, 2), (cube, 2), (cube, 1)))
    cert = Certificate(
        n=4, k=2, labels=(0,), bodies=(cube,), c_bodies=(cube,), x=(), y=(),
        pair_xy=None, pair_xx=None, matrix=RatMatrix([[1]]), subset=(0,), subset_det=F(1),
    )
    assert verify_certificate(cert).reason == "auxiliary body count does not match n - 2k"
