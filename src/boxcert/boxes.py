"""Axis-aligned boxes, which are their widths.

The ambient reference body is the unit cube in R^n; the family of bodies
sharing its facet structure is exactly the nondegenerate axis-aligned boxes
(all side lengths > 0). Mixed volumes are translation invariant, so a box
is determined for every purpose here by its dimension and its widths (side
lengths); no position is stored. Widths combine linearly under Minkowski
combination, and the volume polynomial in them is the product
w_1 * ... * w_n (see the diffop module).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .exactlin import Rat, rat, rats_from_json


class _BoxBodyFields(NamedTuple):
    n: int
    widths: tuple[Rat, ...]


class BoxBody(_BoxBodyFields):
    """An axis-aligned box in R^n with side lengths ``widths``.

    An immutable record, equal and equally hashed when the widths are equal;
    the widths are made exact and checked at construction.
    """

    __slots__ = ()

    def __new__(cls, n: int, widths: Iterable):
        widths = tuple(rat(w) for w in widths)
        if len(widths) != n:
            raise ValueError("widths length must equal the dimension")
        if any(w < 0 for w in widths):
            raise ValueError("widths must be nonnegative")
        return super().__new__(cls, n, widths)

    @property
    def is_nondegenerate(self) -> bool:
        """True iff the box has nonempty interior (all widths > 0)."""
        return all(w > 0 for w in self.widths)

    def scale(self, c) -> "BoxBody":
        c = rat(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return BoxBody(self.n, tuple(c * w for w in self.widths))


def unit_cube(n: int) -> BoxBody:
    return BoxBody(n, tuple(Fraction(1) for _ in range(n)))


def point(n: int) -> BoxBody:
    """A degenerate box with all widths zero."""
    return BoxBody(n, tuple(Fraction(0) for _ in range(n)))


def box_from_widths(n: int, data) -> BoxBody:
    """A box in R^n from a JSON list of rational strings, one per width."""
    return BoxBody(n, rats_from_json(data, "widths"))


def minkowski_combine(terms: Iterable[tuple]) -> BoxBody:
    """Minkowski combination sum_i c_i K_i with coefficients c_i >= 0.

    Widths combine linearly.
    """
    terms = [(rat(c), box) for c, box in terms]
    if not terms:
        raise ValueError("empty combination")
    n = terms[0][1].n
    widths = [Fraction(0)] * n
    for c, box in terms:
        if c < 0:
            raise ValueError("negative coefficient in Minkowski combination")
        if box.n != n:
            raise ValueError("dimension mismatch in Minkowski combination")
        for j in range(n):
            widths[j] += c * box.widths[j]
    return BoxBody(n, tuple(widths))


def volume(box: BoxBody) -> Rat:
    """Product of the widths; equals the volume polynomial at the widths."""
    result = Fraction(1)
    for w in box.widths:
        result *= w
    return result
