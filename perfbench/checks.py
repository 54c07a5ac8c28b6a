"""Correctness checks that do not trust the program under test.

Every check re-derives the claim it tests with exact arithmetic written
here: permanents by a dynamic programme over column subsets (the program
uses Ryser's formula and a derivative path), determinants by plain
Fraction elimination (the program uses Bareiss). A check returns None when
the output is correct and a one-line reason otherwise; ``verdict`` turns any
exception raised on malformed output into such a reason, so a bad output is
always a failed operation and never a crash of the benchmark.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Optional, Sequence

Row = Sequence[Fraction]


def verdict(check: Callable[..., Optional[str]], *args) -> Optional[str]:
    """Run ``check``; an exception on malformed output is a failure reason."""
    try:
        return check(*args)
    except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def rational(text) -> Fraction:
    """Parse a "p/q" string; JSON numbers are refused so no float slips in."""
    if not isinstance(text, str):
        raise TypeError(f"expected a rational string, got {text!r}")
    return Fraction(text)


def _integer_row(row: Row) -> tuple[list[int], int]:
    scale = lcm(*(x.denominator for x in row))
    return [int(x * scale) for x in row], scale


def extend(partial: dict[int, int], row: list[int]) -> dict[int, int]:
    """Assign one more row to every free column of each partial assignment.

    ``partial`` maps a set of used columns (a bit mask) to the permanent of
    the rows placed so far restricted to those columns.
    """
    out: dict[int, int] = {}
    for mask, value in partial.items():
        for j, w in enumerate(row):
            if w and not mask >> j & 1:
                key = mask | 1 << j
                out[key] = out.get(key, 0) + value * w
    return out


def place(rows: Sequence[Row], partial=None) -> tuple[dict[int, int], int]:
    """Partial permanents after placing ``rows``; also the integer scale."""
    partial = {0: 1} if partial is None else partial
    scale = 1
    for row in rows:
        ints, f = _integer_row(row)
        partial = extend(partial, ints)
        scale *= f
    return partial, scale


def mixed_volume(rows: Sequence[Row], partial=None, partial_scale: int = 1) -> Fraction:
    """V = perm(W) / n! for the width rows W of n boxes in R^n.

    ``partial`` and ``partial_scale`` carry rows placed beforehand, so rows
    shared by many entries are placed once.
    """
    n = len(rows[0])
    done, scale = place(rows, partial)
    return Fraction(done.get((1 << n) - 1, 0), factorial(n) * scale * partial_scale)


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [list(row) for row in matrix]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("determinant of a non-square matrix")
    result = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, size):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def _width_rows(data, n: int) -> list[list[Fraction]]:
    rows = [[rational(w) for w in widths] for widths in data]
    if any(len(row) != n or min(row) <= 0 for row in rows):
        raise ValueError("every body needs n positive widths")
    return rows


def check_certificate(text: str, n: int, k: int) -> Optional[str]:
    """Re-derive a Fedotov certificate's claim from its widths alone.

    Reads only n, k, bodies, c_bodies, subset and subset_det: the block of
    k-fold mixed volumes on the subset I must have the stored determinant,
    and (-1)^|I| det M_I must be positive.
    """
    data = json.loads(text)
    if (data["n"], data["k"]) != (n, k):
        return f"certificate is for (n,k)=({data['n']},{data['k']}), expected ({n},{k})"
    bodies = _width_rows(data["bodies"], n)
    c_rows = _width_rows(data["c_bodies"], n)
    if len(c_rows) != n - 2 * k:
        return f"certificate has {len(c_rows)} auxiliary bodies, expected {n - 2 * k}"
    subset = data["subset"]
    if not subset or any(type(i) is not int for i in subset):
        return "violating subset is empty or not a list of indices"
    if subset != sorted(set(subset)) or subset[0] < 0 or subset[-1] >= len(bodies):
        return f"violating subset {subset} is not ascending and in range"
    c_partial, c_scale = place(c_rows)
    block = [
        [
            mixed_volume([bodies[a]] * k + [bodies[b]] * k, c_partial, c_scale)
            for b in subset
        ]
        for a in subset
    ]
    minor = determinant(block)
    stored = rational(data["subset_det"])
    if minor != stored:
        return f"det M_I is {minor}, certificate states {stored}"
    if (-1) ** len(subset) * minor <= 0:
        return f"(-1)^{len(subset)} det M_I = {(-1) ** len(subset) * minor} is not positive"
    return None


def shephard_matrix(bodies: Sequence[Row], c_bodies: Sequence[Row]) -> list[list[Fraction]]:
    """M_ij = V(K_i, K_j, C_1, ..., C_{n-2}); the C rows are placed once."""
    c_partial, c_scale = place(c_bodies)
    size = len(bodies)
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        after_i, scale_i = place([bodies[i]], c_partial)
        for j in range(i, size):
            m[i][j] = m[j][i] = mixed_volume([bodies[j]], after_i, c_scale * scale_i)
    return m


def check_shephard(stdout: str, bodies: Sequence[Row], c_bodies: Sequence[Row]) -> Optional[str]:
    """``shephard --format json`` on one instance: ok, every minor, exact det."""
    data = json.loads(stdout)
    (result,) = data["instances"]
    minors = 2 ** len(bodies) - 1
    if data["ok"] is not True or result["ok"] is not True:
        return "shephard reports a minor sign violation"
    if result["subsets_checked"] != minors:
        return f"subsets_checked is {result['subsets_checked']}, expected {minors}"
    expected = determinant(shephard_matrix(bodies, c_bodies))
    if rational(result["det"]) != expected:
        return f"det is {result['det']}, recomputed {expected}"
    return None


def check_hodge(stdout: str, n: int, k: int) -> Optional[str]:
    """``hodge primitive --format json``: primitive dimension and pairing rank."""
    data = json.loads(stdout)
    dimension = comb(n, k) - comb(n, k - 1)
    if data["dimension"] != dimension or len(data["basis"]) != dimension:
        return f"primitive dimension is {data['dimension']}, expected {dimension}"
    if data["pairing_rank"] != comb(n, k):
        return f"pairing rank is {data['pairing_rank']}, expected {comb(n, k)}"
    if data["ok"] is not True:
        return "hodge reports a count mismatch"
    return None
