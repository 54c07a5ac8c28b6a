"""Mixed volumes of axis-aligned boxes.

For boxes vol(sum_r lambda_r K_r) = prod_t sum_r lambda_r w_{r,t}, so
V(K_1[m_1], ..., K_R[m_R]) = (prod_r m_r! / n!) [lambda^m] of that product
of n linear forms. ``mixed_volume`` extracts the coefficient exactly, by an
integer dynamic programme over the coordinates t. It is the evaluator for
single entries (the ``mixvol`` command, the Alexandrov-Fenchel checks, the
self-tests) and, as ``mixed_volumes``, for certificate verification, in
batched passes over the class pairs. A k-fold matrix is built by its own
table evaluation in the fedotov module, which calls nothing here.

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

from fractions import Fraction
from itertools import repeat
from math import factorial, prod
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .boxes import BoxBody, minkowski_combine
from .diffop import contract, polarization_signs, volume_polynomial
from .exactlin import Rat, integer_row

MAX_DIMENSION = 12

Entries = tuple[tuple[BoxBody, int], ...]


class _BodyTupleFields(NamedTuple):
    n: int
    entries: Entries


class BodyTuple(_BodyTupleFields):
    """n bodies with multiplicities summing to the ambient dimension."""

    __slots__ = ()

    def __new__(cls, n: int, entries: Iterable):
        entries = tuple((box, int(mult)) for box, mult in entries)
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        if any(mult < 1 for _, mult in entries):
            raise ValueError("multiplicities must be at least 1")
        if any(box.n != n for box, _ in entries):
            raise ValueError("all bodies must live in dimension n")
        total = sum(mult for _, mult in entries)
        if total != n:
            raise ValueError(f"multiplicities sum to {total}, expected {n}")
        if n > MAX_DIMENSION:
            raise ValueError(f"dimension {n} exceeds the supported envelope")
        return super().__new__(cls, n, entries)


def body_tuple(*bodies: BoxBody) -> BodyTuple:
    """BodyTuple from n explicit bodies, each with multiplicity 1."""
    if not bodies:
        raise ValueError("empty body tuple")
    return BodyTuple(bodies[0].n, tuple((b, 1) for b in bodies))


def mixed_volume(t: BodyTuple) -> Rat:
    """Exact mixed volume: the lambda^m coefficient, ``mixed_volumes``' one-slot case."""
    return mixed_volumes(t.n, [mult for _, mult in t.entries], [[box for box, _ in t.entries]])[0]


def mixed_volumes(n: int, mults: Sequence[int], slots: Sequence[Sequence[BoxBody]]) -> list[Rat]:
    """V(B_1[m_1], ..., B_R[m_R]) for each slot (B_1, ..., B_R), by one DP over coordinates.

    The state is how many factors each entry has used: entry r's count is a
    bit field from 2^b - 1 - m_r (b = m_r.bit_length()) under a guard bit,
    set exactly when the count would pass m_r. At coordinate t each state
    passes its value times the entry's integer width one entry further. A
    value is a list of integers, one per slot, and starts at prod_r m_r!;
    each distinct body is scaled to integers once.
    """
    bodies = {id(box): box for slot in slots for box in slot}.values()
    if min(mults) < 1 or sum(mults) != n or any(box.n != n for box in bodies):
        raise ValueError(f"need multiplicities >= 1 summing to {n}, and bodies in dimension {n}")
    scaled = {id(box): integer_row(box.widths) for box in bodies}
    steps, dens = [], [factorial(n)] * len(slots)
    start = guard = shift = 0
    for r, mult in enumerate(mults):
        rows = [scaled[id(slot[r])] for slot in slots]
        bits = mult.bit_length()
        start |= ((1 << bits) - 1 - mult) << shift
        guard |= 1 << (shift + bits)
        steps.append(([[widths[t] for widths, _ in rows] for t in range(n)], 1 << shift))
        dens = [den * d**mult for den, (_, d) in zip(dens, rows)]
        shift += bits + 1
    layer = {start: [prod(map(factorial, mults))] * len(slots)}
    for coord in range(n):
        following: dict[int, list[int]] = {}
        for columns, step in steps:
            widths = columns[coord]
            if any(widths):
                for state, value in layer.items():
                    target = state + step
                    if not target & guard:
                        terms = map(mul, value, widths)
                        held = following.get(target)
                        following[target] = list(terms if held is None else map(add, held, terms))
        layer = following
    return [Fraction(v, den) for v, den in zip(next(iter(layer.values()), repeat(0)), dens)]


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
    rhs = V(K1[k+l], C...)^k * V(K2[k+l], C...)^l, where V(K[k+l], C...) is
    V(K[k], K[l], C...): the three share one ``mixed_volumes`` pass.
    """
    n = k1.n
    if k < 1 or l < 1 or k + l > n:
        raise ValueError("need k, l >= 1 and k + l <= n")
    if len(c_bodies) != n - k - l:
        raise ValueError(f"expected {n - k - l} auxiliary bodies")
    mults, c = (k, l) + (1,) * len(c_bodies), tuple(c_bodies)
    mixed, pure1, pure2 = mixed_volumes(n, mults, [(k1, k2, *c), (k1, k1, *c), (k2, k2, *c)])
    lhs = mixed ** (k + l)
    rhs = pure1**k * pure2**l
    return lhs, rhs, lhs >= rhs


def polarization_identity_check(
    r_bodies: Sequence[BoxBody], tail: Entries
) -> tuple[Rat, Rat, bool]:
    """Check the polarization formula on k leading slots.

    lhs = V(R_1, ..., R_k, tail), rhs = (1/k!) * sum over nonzero sign
    patterns delta of (-1)^(k + |delta|) V((delta . R)[k], tail), the terms
    of ``polarization_signs``, in one ``mixed_volumes`` pass.
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
    signs, rest = polarization_signs(k), [box for box, _ in tail]
    combined = [minkowski_combine(list(zip(delta, r_bodies))) for delta, _ in signs]
    values = mixed_volumes(n, (k, *(mult for _, mult in tail)), [(c, *rest) for c in combined])
    rhs = sum(sign * v for (_, sign), v in zip(signs, values)) / factorial(k)
    return lhs, rhs, lhs == rhs
