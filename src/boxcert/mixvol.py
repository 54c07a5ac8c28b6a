"""Mixed volumes of axis-aligned boxes.

For boxes vol(sum_r lambda_r K_r) = prod_t sum_r lambda_r w_{r,t}, so
V(K_1[m_1], ..., K_R[m_R]) = (prod_r m_r! / n!) [lambda^m] of that product
of n linear forms. ``mixed_volume`` extracts the coefficient exactly, by an
integer dynamic programme over the coordinates t. It is the evaluator for
single entries (the ``mixvol`` command, the Alexandrov-Fenchel checks, the
self-tests) and for certificate verification, one call per class pair. A
whole k-fold matrix, whose entries share their auxiliary bodies, is built by
its own table evaluation in the fedotov module, which calls nothing here.

A second, independent evaluation path goes through the volume polynomial:
V(K_1[m_1], ..., K_R[m_R]) = (1/n!) D_{K_1}^{m_1} ... D_{K_R}^{m_R} V, the
constant left by the diffop module's ``contract``, which applies each
distinct body's power once. The two paths cross-check each other in the
``mixvol`` command and the self-tests.

Nothing is cached between calls: callers that need many entries evaluate
each distinct one once themselves.

Supported envelope: n <= 12 (desk-scale instances have n <= 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .boxes import BoxBody, minkowski_combine
from .diffop import contract, polarization_signs, volume_polynomial
from .exactlin import Rat, integer_row

MAX_DIMENSION = 12

Entries = tuple[tuple[BoxBody, int], ...]


@dataclass(frozen=True)
class BodyTuple:
    """n bodies with multiplicities summing to the ambient dimension."""

    n: int
    entries: Entries

    def __post_init__(self):
        entries = tuple((box, int(mult)) for box, mult in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.n < 1:
            raise ValueError(f"dimension must be at least 1, got {self.n}")
        if any(mult < 1 for _, mult in entries):
            raise ValueError("multiplicities must be at least 1")
        if any(box.n != self.n for box, _ in entries):
            raise ValueError("all bodies must live in dimension n")
        total = sum(mult for _, mult in entries)
        if total != self.n:
            raise ValueError(f"multiplicities sum to {total}, expected {self.n}")
        if self.n > MAX_DIMENSION:
            raise ValueError(f"dimension {self.n} exceeds the supported envelope")


def body_tuple(*bodies: BoxBody) -> BodyTuple:
    """BodyTuple from n explicit bodies, each with multiplicity 1."""
    if not bodies:
        raise ValueError("empty body tuple")
    return BodyTuple(bodies[0].n, tuple((b, 1) for b in bodies))


def mixed_volume(t: BodyTuple) -> Rat:
    """Exact mixed volume: the lambda^m coefficient, by a DP over coordinates.

    The state is how many factors each entry has used, prod_r (m_r + 1)
    states; at coordinate t each state passes value * (integer width) on to
    the state one entry further. Entry r's count is a bit field starting at
    2^b - 1 - m_r (b = m_r.bit_length()) under a guard bit, which is set
    exactly when the count would pass m_r: one AND per transition.
    """
    steps = []
    start = guard = shift = 0
    den = scale = 1
    for box, mult in t.entries:
        widths, d = integer_row(box.widths)
        bits = mult.bit_length()
        start |= ((1 << bits) - 1 - mult) << shift
        guard |= 1 << (shift + bits)
        steps.append((widths, 1 << shift))
        shift += bits + 1
        den *= d**mult
        scale *= factorial(mult)
    layer = {start: 1}
    for coord in range(t.n):
        following: dict[int, int] = {}
        get = following.get
        for widths, step in steps:
            width = widths[coord]
            if width:
                for state, value in layer.items():
                    target = state + step
                    if not target & guard:
                        following[target] = get(target, 0) + value * width
        layer = following
    return Fraction(scale * sum(layer.values()), factorial(t.n) * den)


def mixed_volume_via_derivatives(t: BodyTuple) -> Rat:
    """Exact mixed volume: V contracted by every entry's body, m times each.

    Independent of the coefficient path; works on any body tuple, including
    one that lists the same box in two entries.
    """
    bodies = [box for box, mult in t.entries for _ in range(mult)]
    return contract(volume_polynomial(t.n), bodies).constant / factorial(t.n)


def af_check(
    k_body: BoxBody, l_body: BoxBody, c_bodies: Sequence[BoxBody]
) -> tuple[Rat, Rat, bool]:
    """Quadratic mixed-volume inequality for the pair (K, L) against C.

    Returns (lhs, rhs, holds) with lhs = V(K, L, C...)^2 and
    rhs = V(K, K, C...) * V(L, L, C...): ``iterated_af_check`` at
    k = l = 1. For boxes this always holds.
    """
    return iterated_af_check(k_body, l_body, 1, 1, c_bodies)


def iterated_af_check(
    k1: BoxBody, k2: BoxBody, k: int, l: int, c_bodies: Sequence[BoxBody]
) -> tuple[Rat, Rat, bool]:
    """Power form of the iterated quadratic inequality.

    lhs = V(K1[k], K2[l], C...)^(k+l),
    rhs = V(K1[k+l], C...)^k * V(K2[k+l], C...)^l.
    """
    n = k1.n
    if k < 1 or l < 1 or k + l > n:
        raise ValueError("need k, l >= 1 and k + l <= n")
    if len(c_bodies) != n - k - l:
        raise ValueError(f"expected {n - k - l} auxiliary bodies")
    tail = tuple((c, 1) for c in c_bodies)
    mixed = mixed_volume(BodyTuple(n, ((k1, k), (k2, l)) + tail))
    pure1 = mixed_volume(BodyTuple(n, ((k1, k + l),) + tail))
    pure2 = mixed_volume(BodyTuple(n, ((k2, k + l),) + tail))
    lhs = mixed ** (k + l)
    rhs = pure1**k * pure2**l
    return lhs, rhs, lhs >= rhs


def polarization_identity_check(
    r_bodies: Sequence[BoxBody], tail: Entries
) -> tuple[Rat, Rat, bool]:
    """Check the polarization formula on k leading slots.

    lhs = V(R_1, ..., R_k, tail), rhs = (1/k!) * sum over nonzero sign
    patterns delta of (-1)^(k + |delta|) V((delta . R)[k], tail), the terms
    of ``polarization_signs``.
    """
    k = len(r_bodies)
    if k < 1:
        raise ValueError("need at least one leading body")
    n = r_bodies[0].n
    tail = tuple(tail)
    tail_total = sum(mult for _, mult in tail)
    if tail_total != n - k:
        raise ValueError(f"tail multiplicities sum to {tail_total}, expected {n - k}")
    lhs = mixed_volume(BodyTuple(n, tuple((r, 1) for r in r_bodies) + tail))
    rhs = Fraction(0)
    for delta, sign in polarization_signs(k):
        combined = minkowski_combine(list(zip(delta, r_bodies)))
        rhs += sign * mixed_volume(BodyTuple(n, ((combined, k),) + tail))
    rhs /= factorial(k)
    return lhs, rhs, lhs == rhs
