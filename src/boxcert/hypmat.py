"""Hyperbolic-matrix toolkit.

A symmetric matrix is hyperbolic when its positive eigenspace is
one-dimensional. For symmetric matrices with strictly positive entries this
is equivalent (exactly, no approximation) to every principal minor
satisfying (-1)^|I| det M_I <= 0, and to the quadratic two-point inequality
<x, My>^2 >= <x, Mx><y, My> on the nonnegative orthant. This module
provides the exact checks for each formulation, equality witnesses for the
singular case, and a core-shrinking search, led by a required witness
pair, that reduces a non-hyperbolic matrix to a small index set on which
exhaustive minor enumeration is feasible.

The core search and the witness pairings take a matrix as (table, classes),
M_ij = table[classes[i]][classes[j]]; a plain matrix is (m, range(m)). For J
with classes C, M_J = P^T T_C P with P of full row rank, so by Sylvester's
law of inertia every inertia is taken on T_C.

Everything on the certification path is exact. The witness layer
(``witness_forms``, ``shrink_with_witness``) scales the c x c table once to
integers, and x and y once each, and divides only where it returns a form
value; ``af_form_check`` and ``equality_witness`` read their pairings
from ``witness_forms`` too. ``minor_sign_violations`` is the one
minor-sign scan, which both ``sylvester_violation`` and the Shephard check
read. It scales M once to N = D M and eliminates N once
(``exactlin.symmetric_pivots``), whose pivots give the exact inertia and
det M. A matrix with n_pos <= 1 and no negative diagonal entry has no
violation, so none of its minors is enumerated. Otherwise each minor is the
integer det N_I, with the sign of det M_I, from one fresh
``exactlin.bareiss`` of the block N_I, and only a violation becomes the
Fraction det N_I / D^|I|. ``violates_sign`` is the one minor-sign rule, which
the verifier's det M_I check also reads, and ``is_hyperbolic`` the plain
hyperbolicity test of a positive matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactlin import (
    Rat,
    RatMatrix,
    bareiss,
    det,
    inertia,
    integer_matrix,
    integer_row,
    nullspace_basis,
    pivot_inertia,
    principal_submatrix,
    rat_to_str,
    symmetric_pivots,
)

# 2^22 subsets is the largest enumeration we are willing to run blind;
# larger matrices must be shrunk to a core first. The cap bounds a lazy
# first-violation search, and the listing of a matrix that the inertia rule
# does not settle, at one elimination of at most rank x rank per subset; the
# subsets above the rank have minor 0 and are never generated.
SUBSET_ENUMERATION_CAP = 22


def violates_sign(subset: Sequence[int], value: Rat | int) -> bool:
    """(-1)^|I| det M_I > 0, with ``value`` det M_I or a positive multiple of
    it, such as the integer minor det N_I = D^|I| det M_I of N = D M.
    """
    return value < 0 if len(subset) % 2 else value > 0


class _ViolationFields(NamedTuple):
    subset: tuple[int, ...]
    det_value: Rat


class Violation(_ViolationFields):
    """A principal subset witnessing failure of the minor sign condition.

    Indices are 0-based and ascending; the defining inequality
    (-1)^|I| * det_value > 0 is checked at construction.
    """

    __slots__ = ()

    def __new__(cls, subset: Sequence[int], det_value: Rat):
        subset = tuple(sorted(subset))
        if not violates_sign(subset, det_value):
            raise ValueError("subset does not witness a sign violation")
        return super().__new__(cls, subset, det_value)

    def to_json(self) -> dict:
        return {"I": list(self.subset), "det": rat_to_str(self.det_value)}


def _require_symmetric_positive(m: RatMatrix) -> None:
    if not m.is_symmetric:
        raise ValueError("matrix must be symmetric")
    if not m.is_positive:
        raise ValueError("matrix must have strictly positive entries")


def class_matrix(table: RatMatrix, classes: Sequence[int]) -> RatMatrix:
    """The m x m matrix M_ij = table[classes[i]][classes[j]]."""
    e = table.entries
    return RatMatrix([[e[a][b] for b in classes] for a in classes])


def _integer_sums(size: int, classes: Sequence[int], v: Sequence[Rat]):
    """(z, sums, d): z = d v in integers, d the lcm of v's denominators, and
    per row of a table with ``size`` rows, the sum of z_i over the indices i
    of that class."""
    if len(v) != len(classes):
        raise ValueError("vector dimension mismatch")
    z, d = integer_row(v)
    sums = [0] * size
    for c, zi in zip(classes, z):
        sums[c] += zi
    return z, sums, d


def _scaled_witness(table: RatMatrix, classes: Sequence[int], x, y):
    """The witness on the table scaled once to integers.

    With N = D T, X = d_x x and Y = d_y y (D, d_x, d_y the lcms of the
    denominators), returns (N, X, Y, cx, cy, gram, scales): the row sums
    cx = N X_C and cy = N Y_C on the class sums X_C, Y_C, the Gram values
    (gx, gy, gxy) = (X_C cx, Y_C cy, X_C cy), and the scale of each,
    (D d_x^2, D d_y^2, D d_x d_y), all positive.
    """
    rows, den = integer_matrix(table)
    zx, x_sums, dx = _integer_sums(table.rows, classes, x)
    zy, y_sums, dy = _integer_sums(table.rows, classes, y)
    cx = [sum(map(mul, row, x_sums)) for row in rows]
    cy = [sum(map(mul, row, y_sums)) for row in rows]
    gram = sum(map(mul, x_sums, cx)), sum(map(mul, y_sums, cy)), sum(map(mul, x_sums, cy))
    return rows, zx, zy, cx, cy, gram, (den * dx * dx, den * dy * dy, den * dx * dy)


def witness_forms(
    table: RatMatrix, classes: Sequence[int], x: Sequence[Rat], y: Sequence[Rat]
) -> tuple[Rat, Rat, Rat]:
    """(<y, Mx>, <x, Mx>, <y, My>), the table's form on the class sums.

    The table is scaled once to integers, and x and y once each; each form
    is one integer divided by its scale.
    """
    *_, (gx, gy, gxy), (sx, sy, sxy) = _scaled_witness(table, classes, x, y)
    return Fraction(gxy, sxy), Fraction(gx, sx), Fraction(gy, sy)


def is_hyperbolic(m: RatMatrix) -> bool:
    """True iff the positive eigenspace is one-dimensional (exact inertia).

    Requires a symmetric matrix with positive entries, for which at least
    one positive eigenvalue is guaranteed.
    """
    _require_symmetric_positive(m)
    return inertia(m).n_pos == 1


def _require_enumerable(m: RatMatrix) -> None:
    if m.rows > SUBSET_ENUMERATION_CAP:
        raise ValueError(
            f"dimension {m.rows} exceeds the exhaustive minor enumeration cap "
            f"{SUBSET_ENUMERATION_CAP}"
        )


def _integer_minors(rows: list[list[int]], top: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(I, det N_I) for the nonempty subsets I with |I| <= top, smallest
    first and lexicographically within a size, each from one fresh
    ``bareiss`` of the integer principal submatrix N_I; N is symmetric and
    of rank top, so every larger subset has minor 0 and is not yielded.

    Nothing is kept from one subset to the next, so the memory is one
    top x top block, and a lazy caller pays only for the subsets it reads.
    """
    for card in range(1, top + 1):
        for subset in combinations(range(len(rows)), card):
            yield subset, bareiss([[rows[r][c] for c in subset] for r in subset])


def minor_sign_violations(m: RatMatrix) -> tuple[Rat, Iterator[Violation]]:
    """(det M, violations): a lazy iterator over each principal subset with
    (-1)^|I| det M_I > 0, in the order of ``_integer_minors``, as a
    Violation whose value is det N_I / D^|I|, for N = D M in integers.

    The enumeration cap is checked first. Then N is eliminated once by
    ``symmetric_pivots``: the pivots give the exact inertia, and det M is
    the last one over D^m at full rank, and 0 otherwise. When n_pos <= 1
    and no diagonal entry is negative, there is no violation, and nothing
    is enumerated. By Cauchy interlacing each principal M_I has
    n_pos(M_I) <= 1. If n_pos(M_I) = 1, det M_I is the positive eigenvalue
    times |I| - 1 eigenvalues that are <= 0. If n_pos(M_I) = 0, M_I is
    negative semidefinite with trace >= 0, so M_I = 0 and det M_I = 0.
    Either way (-1)^|I| det M_I <= 0. Otherwise the subsets up to the rank
    are enumerated, reading each sign off the integer det N_I.
    """
    _require_enumerable(m)
    if not m.is_symmetric:
        raise ValueError("matrix must be symmetric")
    rows, den = integer_matrix(m)
    pivots = symmetric_pivots([row[:] for row in rows])
    signature = pivot_inertia(pivots, m.rows)
    last = pivots[-1] if pivots else 1  # D_0 = 1, the empty matrix's det
    det_m = Fraction(0) if signature.n_zero else Fraction(last, den**m.rows)
    if signature.n_pos <= 1 and all(row[i] >= 0 for i, row in enumerate(rows)):
        return det_m, iter(())
    return det_m, (
        Violation(subset, Fraction(value, den ** len(subset)))
        for subset, value in _integer_minors(rows, len(pivots))
        if violates_sign(subset, value)
    )


def sylvester_violation(m: RatMatrix) -> Optional[Violation]:
    """First principal subset with (-1)^|I| det M_I > 0, or None.

    Subsets are scanned smallest-first, lexicographically within a size, so
    the returned witness is deterministic; those above the rank have minor 0
    and are not scanned. None is returned exactly when the matrix is
    hyperbolic; a hyperbolic matrix is answered from the scan's inertia,
    without enumerating a subset.
    """
    _require_symmetric_positive(m)
    return next(minor_sign_violations(m)[1], None)


def af_form_check(m: RatMatrix, x: Sequence[Rat], y: Sequence[Rat]) -> bool:
    """Exact check of <x, My>^2 >= <x, Mx><y, My> for x, y >= 0."""
    if not m.is_symmetric:
        raise ValueError("matrix must be symmetric")
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        raise ValueError("vectors must be componentwise nonnegative")
    pair_xy, pair_xx, pair_yy = witness_forms(m, range(m.rows), x, y)
    return pair_xy**2 >= pair_xx * pair_yy


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
    pair_xy, pair_xx, pair_yy = witness_forms(m, range(size), x, y)
    if pair_xy**2 != pair_xx * pair_yy:
        raise AssertionError("witness does not satisfy the equality")
    return x, y


def _keeps_two_positive(
    table: RatMatrix, classes: Sequence[int], subset: Sequence[int]
) -> bool:
    if len(subset) < 2:
        return False
    return inertia(principal_submatrix(table, {classes[i] for i in subset})).n_pos >= 2


def greedy_core(table: RatMatrix, classes: Sequence[int]) -> tuple[int, ...]:
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
    _require_symmetric_positive(table)
    live = list(range(len(classes)))
    changed = True
    while changed:
        changed = False
        window = max(len(live) // 2, 1)
        while window >= 1:
            start = 0
            while start < len(live):
                candidate = live[:start] + live[start + window :]
                if _keeps_two_positive(table, classes, candidate):
                    live = candidate
                    changed = True
                else:
                    start += 1
            window //= 2
    if not _keeps_two_positive(table, classes, live):
        raise ValueError("matrix is already hyperbolic; nothing to localize")
    return tuple(live)


def witness_implies_two_positive(gx: Rat, gy: Rat, gxy: Rat) -> bool:
    """PD test for the 2x2 Gram [[gx, gxy], [gxy, gy]].

    A positive-definite Gram of two vectors under M exhibits a plane on
    which the form is positive, hence n_pos(M) >= 2. Only signs are read,
    so the answer is the same on a Gram whose entries carry the positive
    scales of ``_scaled_witness``.
    """
    return gx > 0 and gy > 0 and gx * gy - gxy * gxy > 0


def shrink_with_witness(
    table: RatMatrix, classes: Sequence[int], x: Sequence[Rat], y: Sequence[Rat]
) -> tuple[int, ...]:
    """Quadratic-cost core shrink guided by an exact Gram-PD witness.

    Starting from the joint support of x and y, indices are greedily
    removed while the Gram matrix of the restricted vectors under the
    restricted matrix stays positive definite; that property certifies
    n_pos >= 2 for every intermediate submatrix without computing a full
    inertia. The row sums (Mx)_a and (My)_a depend only on the class of a,
    so they are kept per class: a removal updates c values.

    Everything runs on the table scaled once to integers, and x and y once
    each (``_scaled_witness``). The Gram values then carry the positive
    scales D d_x^2, D d_y^2 and D d_x d_y, and gx gy - gxy^2 the scale
    D^2 d_x^2 d_y^2, so every sign of the PD test, and with it every
    removal, is the same as on the rationals.
    """
    if not table.is_symmetric:
        raise ValueError("matrix must be symmetric")
    rows, zx, zy, cx, cy, (gx, gy, gxy), _ = _scaled_witness(table, classes, x, y)
    if not witness_implies_two_positive(gx, gy, gxy):
        raise ValueError("witness pair does not certify two positive directions")
    live = [i for i in range(len(classes)) if zx[i] or zy[i]]
    changed = True
    while changed:
        changed = False
        for a in list(live):
            xa, ya, ca = zx[a], zy[a], classes[a]
            col = rows[ca]  # column ca of the symmetric N
            maa = col[ca]
            gx2 = gx - 2 * xa * cx[ca] + xa * xa * maa
            gy2 = gy - 2 * ya * cy[ca] + ya * ya * maa
            gxy2 = gxy - xa * cy[ca] - ya * cx[ca] + xa * ya * maa
            if witness_implies_two_positive(gx2, gy2, gxy2):
                live.remove(a)
                gx, gy, gxy = gx2, gy2, gxy2
                cx = [v - xa * w for v, w in zip(cx, col)]
                cy = [v - ya * w for v, w in zip(cy, col)]
                changed = True
    return tuple(live)


def find_violation(
    table: RatMatrix,
    classes: Sequence[int],
    witness: tuple[Sequence[Rat], Sequence[Rat]],
) -> Violation:
    """Locate a principal-minor sign violation in a non-hyperbolic matrix.

    The required witness pair first shrinks the matrix at quadratic cost;
    its Gram-PD check proves n_pos >= 2, so a hyperbolic input raises
    ValueError before the core search. greedy_core then polishes the core,
    which is enumerated exhaustively; the returned subset is in the indices
    of the matrix. The one bound on the enumeration is
    SUBSET_ENUMERATION_CAP, which sylvester_violation enforces on the core.
    """
    _require_symmetric_positive(table)
    pre = shrink_with_witness(table, classes, *witness)
    core_local = greedy_core(table, [classes[i] for i in pre])
    core = tuple(pre[i] for i in core_local)
    violation = sylvester_violation(class_matrix(table, [classes[i] for i in core]))
    if violation is None:  # unreachable: the core keeps n_pos >= 2
        raise AssertionError("non-hyperbolic core produced no violation")
    return Violation(tuple(core[i] for i in violation.subset), violation.det_value)
