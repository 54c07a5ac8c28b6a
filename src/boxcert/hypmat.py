"""Hyperbolic-matrix toolkit.

A symmetric matrix is hyperbolic when its positive eigenspace is
one-dimensional. For symmetric matrices with strictly positive entries this
is equivalent (exactly, no approximation) to every principal minor
satisfying (-1)^|I| det M_I <= 0, and to the quadratic two-point inequality
<x, My>^2 >= <x, Mx><y, My> on the nonnegative orthant. This module
provides the exact checks for each formulation, equality witnesses for the
singular case, and a core-shrinking search that reduces a non-hyperbolic
matrix to a small index set on which exhaustive minor enumeration is
feasible.

Everything on the certification path is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .exactlin import (
    Rat,
    RatMatrix,
    det,
    dot,
    inertia,
    nullspace_basis,
    principal_submatrix,
    rat_to_str,
)

# 2^22 subsets is the largest enumeration we are willing to run blind;
# larger matrices must be shrunk to a core first.
SUBSET_ENUMERATION_CAP = 22


@dataclass(frozen=True)
class Violation:
    """A principal subset witnessing failure of the minor sign condition.

    Indices are 0-based and ascending; the defining inequality
    (-1)^|I| * det_value > 0 is checked at construction.
    """

    subset: tuple[int, ...]
    det_value: Rat

    def __post_init__(self):
        object.__setattr__(self, "subset", tuple(sorted(self.subset)))
        if (-1) ** len(self.subset) * self.det_value <= 0:
            raise ValueError("subset does not witness a sign violation")

    @property
    def size_parity_sign(self) -> int:
        return -1 if len(self.subset) % 2 else 1

    def to_json(self) -> dict:
        return {"I": list(self.subset), "det": rat_to_str(self.det_value)}


def _require_symmetric_positive(m: RatMatrix) -> None:
    if not m.is_symmetric:
        raise ValueError("matrix must be symmetric")
    if not m.is_positive:
        raise ValueError("matrix must have strictly positive entries")


def is_hyperbolic(m: RatMatrix) -> bool:
    """True iff the positive eigenspace is one-dimensional (exact inertia).

    Requires a symmetric matrix with positive entries, for which at least
    one positive eigenvalue is guaranteed.
    """
    _require_symmetric_positive(m)
    return inertia(m).n_pos == 1


def _principal_minors(m: RatMatrix) -> Iterator[tuple[tuple[int, ...], Rat]]:
    """(I, det M_I) for every nonempty principal subset I of a square matrix.

    Subsets come smallest-first, lexicographically within a size, so the
    last one is the full index set.
    """
    size = m.rows
    if size > SUBSET_ENUMERATION_CAP:
        raise ValueError(
            f"dimension {size} exceeds the exhaustive minor enumeration cap "
            f"{SUBSET_ENUMERATION_CAP}"
        )
    for card in range(1, size + 1):
        for subset in combinations(range(size), card):
            yield subset, det(principal_submatrix(m, subset))


def sylvester_violation(m: RatMatrix) -> Optional[Violation]:
    """First principal subset with (-1)^|I| det M_I > 0, or None.

    Subsets are scanned smallest-first, lexicographically within a size, so
    the returned witness is deterministic. None is returned exactly when
    the matrix is hyperbolic.
    """
    _require_symmetric_positive(m)
    for subset, value in _principal_minors(m):
        if (-1) ** len(subset) * value > 0:
            return Violation(subset, value)
    return None


def af_form_check(m: RatMatrix, x: Sequence[Rat], y: Sequence[Rat]) -> bool:
    """Exact check of <x, My>^2 >= <x, Mx><y, My> for x, y >= 0."""
    if not m.is_symmetric:
        raise ValueError("matrix must be symmetric")
    if len(x) != m.rows or len(y) != m.rows:
        raise ValueError("vector dimension mismatch")
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        raise ValueError("vectors must be componentwise nonnegative")
    mx = m.matvec(x)
    my = m.matvec(y)
    return dot(x, my) ** 2 >= dot(x, mx) * dot(y, my)


def equality_witness(m: RatMatrix) -> tuple[tuple[Rat, ...], tuple[Rat, ...]]:
    """Strictly positive, independent x, y with exact equality in the form.

    Requires det M = 0 and M != 0. Construction: take z in ker M, pick a
    positive y independent of z, and shift x = z + b*y with b large enough
    that x > 0; the equality <x, My>^2 = <x, Mx><y, My> is invariant under
    the shift because Mz = 0.
    """
    if not m.is_symmetric:
        raise ValueError("matrix must be symmetric")
    size = m.rows
    if all(v == 0 for row in m.entries for v in row):
        raise ValueError("zero matrix has no meaningful witness")
    if det(m) != 0:
        raise ValueError("matrix must be singular")
    z = nullspace_basis(m)[0]
    ones = tuple(Fraction(1) for _ in range(size))
    if size > 1 and all(v == z[0] for v in z):
        # z is a multiple of the all-ones vector; bend y away from it.
        y = (Fraction(2),) + ones[1:]
    else:
        y = ones
    b = 1 + max(-zi / yi for zi, yi in zip(z, y))
    x = tuple(zi + b * yi for zi, yi in zip(z, y))
    if not all(v > 0 for v in x):
        raise AssertionError("witness shift failed to make x positive")
    # independence: x = z + b*y with z not proportional to y
    if all(x[i] * y[j] == x[j] * y[i] for i in range(size) for j in range(size)):
        raise AssertionError("witness vectors are proportional")
    mx = m.matvec(x)
    my = m.matvec(y)
    if dot(x, my) ** 2 != dot(x, mx) * dot(y, my):
        raise AssertionError("witness does not satisfy the equality")
    return x, y


def _keeps_two_positive(m: RatMatrix, subset: Sequence[int]) -> bool:
    if len(subset) < 2:
        return False
    return inertia(principal_submatrix(m, subset)).n_pos >= 2


def greedy_core(m: RatMatrix) -> tuple[int, ...]:
    """Shrink a non-hyperbolic matrix to a removal-minimal index core.

    Every accepted removal is verified by exact inertia: the remaining
    principal submatrix must keep at least a two-dimensional positive
    eigenspace. Batches are tried first (halving window sizes), then single
    indices, so the result is deterministic and no single further index can
    be removed.

    Non-hyperbolicity of the input is checked once, after the loop, on the
    core: a principal submatrix has no more positive eigenvalues than the
    matrix (Cauchy interlacing), so a core with n_pos >= 2 proves it for the
    input, and when no removal was accepted the core is the input itself.
    """
    _require_symmetric_positive(m)
    live = list(range(m.rows))
    changed = True
    while changed:
        changed = False
        window = max(len(live) // 2, 1)
        while window >= 1:
            start = 0
            while start < len(live):
                candidate = live[:start] + live[start + window :]
                if _keeps_two_positive(m, candidate):
                    live = candidate
                    changed = True
                else:
                    start += 1
            window //= 2
    if not _keeps_two_positive(m, live):
        raise ValueError("matrix is already hyperbolic; nothing to localize")
    return tuple(live)


def witness_implies_two_positive(gx: Rat, gy: Rat, gxy: Rat) -> bool:
    """PD test for the 2x2 Gram [[gx, gxy], [gxy, gy]].

    A positive-definite Gram of two vectors under M exhibits a plane on
    which the form is positive, hence n_pos(M) >= 2.
    """
    return gx > 0 and gy > 0 and gx * gy - gxy * gxy > 0


def shrink_with_witness(
    m: RatMatrix, x: Sequence[Rat], y: Sequence[Rat]
) -> tuple[int, ...]:
    """Quadratic-cost core shrink guided by an exact Gram-PD witness.

    Starting from the joint support of x and y, indices are greedily
    removed while the Gram matrix of the restricted vectors under the
    restricted matrix stays positive definite; that property certifies
    n_pos >= 2 for every intermediate submatrix without computing a full
    inertia. Intended as a pre-pass before greedy_core on matrices too
    large for cubic-cost eliminations.
    """
    if not m.is_symmetric:
        raise ValueError("matrix must be symmetric")
    size = m.rows
    if len(x) != size or len(y) != size:
        raise ValueError("vector dimension mismatch")
    live = [i for i in range(size) if x[i] != 0 or y[i] != 0]
    e = m.entries
    cx = {a: sum((x[b] * e[a][b] for b in live), Fraction(0)) for a in live}
    cy = {a: sum((y[b] * e[a][b] for b in live), Fraction(0)) for a in live}
    gx = sum((x[a] * cx[a] for a in live), Fraction(0))
    gy = sum((y[a] * cy[a] for a in live), Fraction(0))
    gxy = sum((x[a] * cy[a] for a in live), Fraction(0))
    if not witness_implies_two_positive(gx, gy, gxy):
        raise ValueError("witness pair does not certify two positive directions")
    changed = True
    while changed:
        changed = False
        for a in list(live):
            xa, ya, maa = x[a], y[a], e[a][a]
            gx2 = gx - 2 * xa * cx[a] + xa * xa * maa
            gy2 = gy - 2 * ya * cy[a] + ya * ya * maa
            gxy2 = gxy - xa * cy[a] - ya * cx[a] + xa * ya * maa
            if witness_implies_two_positive(gx2, gy2, gxy2):
                live.remove(a)
                gx, gy, gxy = gx2, gy2, gxy2
                for b in live:
                    cx[b] -= xa * e[b][a]
                    cy[b] -= ya * e[b][a]
                changed = True
    return tuple(live)


def find_violation(
    m: RatMatrix,
    witness: Optional[tuple[Sequence[Rat], Sequence[Rat]]] = None,
) -> Violation:
    """Locate a principal-minor sign violation in a non-hyperbolic matrix.

    With a witness pair the matrix is first shrunk at quadratic cost, then
    polished by greedy_core and enumerated exhaustively; the returned
    subset is expressed in the indices of ``m``. The one bound on the
    enumeration is SUBSET_ENUMERATION_CAP, which sylvester_violation
    enforces on the core.

    The precondition n_pos(m) >= 2 is checked before the core search, so a
    hyperbolic input raises ValueError without running it. With a witness,
    the Gram-PD check in shrink_with_witness is the proof; without one, an
    exact inertia of ``m`` is.
    """
    _require_symmetric_positive(m)
    if witness is not None:
        pre = shrink_with_witness(m, *witness)
    else:
        if inertia(m).n_pos < 2:
            raise ValueError("matrix is already hyperbolic; nothing to localize")
        pre = tuple(range(m.rows))
    sub = principal_submatrix(m, pre)
    core_local = greedy_core(sub)
    core = tuple(pre[i] for i in core_local)
    violation = sylvester_violation(principal_submatrix(m, core))
    if violation is None:  # unreachable: the core keeps n_pos >= 2
        raise AssertionError("non-hyperbolic core produced no violation")
    return Violation(tuple(core[i] for i in violation.subset), violation.det_value)
