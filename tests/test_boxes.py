import random
from collections import Counter
from fractions import Fraction as F

import pytest

from boxcert.boxes import (
    BoxBody,
    box_from_widths,
    minkowski_combine,
    point,
    unit_cube,
    volume,
)


def test_minkowski_scaling():
    assert minkowski_combine([(2, unit_cube(3))]).widths == (2, 2, 2)


def test_minkowski_point_translates():
    # adding a point only moves a box, so the widths are unchanged
    box = BoxBody(2, (1, 2))
    assert minkowski_combine([(1, box), (1, point(2))]) == box


def test_minkowski_componentwise():
    combined = minkowski_combine([(1, BoxBody(2, (1, 2))), (3, BoxBody(2, (3, 1)))])
    assert combined.widths == (10, 5)


def test_minkowski_rejects_negative_coefficient():
    with pytest.raises(ValueError):
        minkowski_combine([(-1, unit_cube(2))])


def test_minkowski_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        minkowski_combine([(1, unit_cube(2)), (1, unit_cube(3))])


def test_volume_cases():
    assert volume(unit_cube(4)) == 1
    assert volume(BoxBody(3, (1, 2, 3))) == 6
    assert volume(BoxBody(3, (1, 0, 3))) == 0


def test_volume_of_combination_is_polynomial():
    rng = random.Random(3)
    grid = [F(j, 3) for j in range(1, 10)]
    for _ in range(25):
        n = rng.randrange(1, 6)
        boxes = [
            BoxBody(n, tuple(rng.choice(grid) for _ in range(n))) for _ in range(3)
        ]
        lams = [rng.choice(grid) for _ in range(3)]
        combined = minkowski_combine(list(zip(lams, boxes)))
        predicted = F(1)
        for j in range(n):
            predicted *= sum(l * b.widths[j] for l, b in zip(lams, boxes))
        assert volume(combined) == predicted


def test_family_closed_under_positive_combination():
    rng = random.Random(4)
    grid = [F(j, 4) for j in range(1, 9)]
    for _ in range(25):
        n = rng.randrange(1, 5)
        boxes = [
            BoxBody(n, tuple(rng.choice(grid) for _ in range(n))) for _ in range(2)
        ]
        combined = minkowski_combine([(rng.choice(grid), b) for b in boxes])
        assert combined.is_nondegenerate


def test_degenerate_box_flagged():
    assert not point(3).is_nondegenerate
    assert not BoxBody(2, (1, 0)).is_nondegenerate
    assert unit_cube(2).is_nondegenerate


def test_negative_width_rejected():
    with pytest.raises(ValueError):
        BoxBody(1, (-1,))


def test_float_width_rejected():
    with pytest.raises(TypeError):
        BoxBody(2, (1, 0.5))


def test_boxes_are_immutable_values():
    # equal widths, given as any exact type, make equal boxes with one hash
    a, b = BoxBody(2, (1, F(1, 2))), BoxBody(2, [F(1), "1/2"])
    assert a == b and hash(a) == hash(b)
    assert all(type(w) is F for w in b.widths)
    assert Counter([a, unit_cube(2), b]) == {a: 2, unit_cube(2): 1}
    with pytest.raises(AttributeError):
        a.widths = (F(1), F(1))


def test_box_from_widths_parses_rational_strings():
    assert box_from_widths(2, ["1/3", "7/2"]) == BoxBody(2, (F(1, 3), F(7, 2)))


@pytest.mark.parametrize(
    "data",
    ["12", ("1", "2"), ["1", 2.0], ["1"], ["1", "2", "3"], ["-1", "2"]],
    ids=["string", "tuple", "float", "short", "long", "negative"],
)
def test_box_from_widths_rejects(data):
    with pytest.raises(ValueError):
        box_from_widths(2, data)
