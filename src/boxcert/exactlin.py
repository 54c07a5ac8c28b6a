"""Exact rational linear algebra.

Scalars are ``fractions.Fraction`` (arbitrary precision, always normalized:
positive denominator, gcd(|num|, den) = 1). Matrices are immutable grids of
such scalars. Everything here is exact; there is no floating point on any
code path.

Determinants use one fraction-free Bareiss loop over the integers
(``bareiss``): a matrix is scaled once by the lcm D of all its entry
denominators, so det M = det(D M) / D^n, and every division in the loop is
exact. Intermediate values stay at minor size instead of letting naive
fraction arithmetic blow up. ``hypmat`` runs the same loop on each integer
principal submatrix whose minor it reads.

The one symmetric elimination (``symmetric_pivots``) runs the same step on
the same scaling, with symmetric pivots: a nonzero diagonal entry is swapped
to the front in its row and its column, and where the trailing diagonal is
zero but some a_ij is not, row and column j are first added to row and
column i (then a_ii = 2 a_ij). Both are congruences by matrices of
determinant +-1, so the k-th pivot D_k is a leading minor of a matrix
congruent to N, and det N = D_n at full rank. The k-th LDL^T pivot
D_k / D_{k-1} has the sign of D_k D_{k-1}, and Sylvester's law of inertia
reads the signature off those signs (``pivot_inertia``).

The RREF (``rref``) is Gaussian elimination, then back substitution, and
each pass keeps one invariant. Forward: when column c gets its pivot in
row r, rows r and below are zero left of c, so the pivot row is
normalized, and the rows below it cleared, on columns c and up only
(x - f * 0 = x on the columns left of it). Backward, from the last pivot
up: a pivot row is already zero in every later pivot column, so clearing
the rows above pivot r never refills a later pivot column. The RREF of a
matrix is unique and Fractions are normalized, so the reduced matrix, the
pivots and every null-space vector are the same Fractions as Gauss-Jordan
(each pivot clearing every other row) gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

Rat = Fraction

Vector = tuple[Rat, ...]


def rat(value) -> Rat:
    """Coerce ints, strings and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact computations")
    return Fraction(value)


def rat_to_str(value: Rat) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1; sign on p."""
    value = rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rat_from_str(text: str) -> Rat:
    """Parse an exact rational from a string; any other type is rejected.

    Input files hold rationals as strings, so a JSON number (a binary float
    in particular) never becomes a Fraction. "1/0" is a ValueError, and so
    is "1e400": a short exponent string would build a huge integer.
    """
    if not isinstance(text, str):
        raise ValueError(
            f"expected a rational string such as \"p/q\", got {type(text).__name__} {text!r}"
        )
    if "e" in text or "E" in text:
        raise ValueError(f"decimal exponent in {text!r}; write the rational as \"p/q\"")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def json_list(value, what: str) -> list:
    """``value`` if it is a JSON array; iterating a string would split it."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; ``int()`` would truncate 6.25 to 6.

    A float, a string and a bool (a subclass of int) are rejected.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__} {value!r}")
    return value


def rats_from_json(value, what: str) -> Vector:
    """A JSON array of rational strings, each parsed by ``rat_from_str``."""
    return tuple(rat_from_str(v) for v in json_list(value, what))


def dot(u: Sequence[Rat], v: Sequence[Rat]) -> Rat:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


class Inertia(NamedTuple):
    """Eigenvalue sign counts (n_pos, n_neg, n_zero) of a symmetric matrix."""

    n_pos: int
    n_neg: int
    n_zero: int


class RatMatrix:
    """Immutable matrix of exact rationals.

    Rows are stored as a tuple of tuples of ``Fraction``. All operations
    return new matrices.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable]):
        rows = map(tuple, rows)  # an all-Fraction row (a class table's, the loader's) is kept
        grid = tuple(r if set(map(type, r)) <= {Fraction} else tuple(map(rat, r)) for r in rows)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    def __getitem__(self, ij: tuple[int, int]) -> Rat:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_to_str(x) for x in row) for row in self.entries)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))

    @property
    def is_positive(self) -> bool:
        """All entries strictly positive."""
        return all(x > 0 for row in self.entries for x in row)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.entries)) if self.rows else RatMatrix([])

    def matvec(self, v: Sequence[Rat]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(dot(row, v) for row in self.entries)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = other.transpose().entries
        return RatMatrix([[dot(r, c) for c in cols] for r in self.entries])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def to_lists(self) -> list[list[Rat]]:
        return [list(row) for row in self.entries]


def integer_row(values: Sequence[Rat]) -> tuple[list[int], int]:
    """(integers z, denominator d) with values[i] = z[i] / d exactly."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def integer_matrix(m: RatMatrix) -> tuple[list[list[int]], int]:
    """(integer rows N, scale D) with N = D * m, D the lcm of all denominators."""
    den = lcm(*(x.denominator for row in m.entries for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m.entries], den


def _eliminate(a: list[list[int]], k: int, prev: int) -> int:
    """One fraction-free step on the pivot a[k][k]; returns the pivot.

    Every row below k is updated past column k by
    a[i][j] = (a[i][j] a[k][k] - a[i][k] a[k][j]) / prev, an exact division
    when prev is the previous step's pivot, and its column k is set to 0.
    """
    ak = a[k]
    pivot = ak[k]
    for i in range(k + 1, len(a)):
        ai = a[i]
        aik = ai[k]
        for j in range(k + 1, len(ak)):
            ai[j] = (ai[j] * pivot - aik * ak[j]) // prev
        ai[k] = 0
    return pivot


def bareiss(a: list[list[int]]) -> int:
    """det a of a square integer matrix, by fraction-free elimination in place.

    A zero pivot is swapped with the first row below it that is nonzero in
    its column, and the swap negates one of the two rows, so the
    determinant keeps its value; a column with no such row gives 0 (``a`` is
    then left part-eliminated). Every division is exact.
    """
    prev = 1
    for k in range(len(a)):
        if a[k][k] == 0:
            for r in range(k + 1, len(a)):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], [-x for x in a[k]]
                    break
            else:
                return 0
        prev = _eliminate(a, k, prev)
    return prev


def det(m: RatMatrix) -> Rat:
    """Exact determinant: ``bareiss`` on m scaled once to integers."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    rows, den = integer_matrix(m)
    return Fraction(bareiss(rows), den**m.rows)


def symmetric_pivots(a: list[list[int]]) -> list[int]:
    """The pivots D_1, ..., D_r of a symmetric integer matrix, r its rank:
    ``_eliminate`` in place with symmetric pivots (see the module docstring)
    until the trailing block is zero.
    """
    size = len(a)
    pivots = []
    prev = 1
    for k in range(size):
        p = next((p for p in range(k, size) if a[p][p]), None)
        if p is None:
            # rows from k on are 0 left of column k; by symmetry, the first
            # nonzero row has its first nonzero right of its zero diagonal
            p = next((i for i in range(k, size) if any(a[i])), None)
            if p is None:
                break
            j = next(j for j, x in enumerate(a[p]) if x)
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a[k:]:
                row[p] += row[j]
        a[k], a[p] = a[p], a[k]
        for row in a[k:]:
            row[k], row[p] = row[p], row[k]
        prev = _eliminate(a, k, prev)
        pivots.append(prev)
    return pivots


def pivot_inertia(pivots: Sequence[int], size: int) -> Inertia:
    """The inertia of a size x size matrix with these ``symmetric_pivots``."""
    n_pos = sum((p > 0) == (q > 0) for p, q in zip((1, *pivots), pivots))
    return Inertia(n_pos, len(pivots) - n_pos, size - len(pivots))


def inertia(m: RatMatrix) -> Inertia:
    """Exact (n_pos, n_neg, n_zero) of a symmetric matrix, by ``pivot_inertia``."""
    if not m.is_symmetric:
        raise ValueError("inertia requires a symmetric matrix")
    return pivot_inertia(symmetric_pivots(integer_matrix(m)[0]), m.rows)


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    A forward pass normalizes each pivot row and clears the rows below it;
    a backward pass, from the last pivot up, clears the rows above each
    pivot. Both work on columns c and up only, where c is the pivot column.
    Forward, rows r and below are zero left of column c (an earlier pivot
    column was cleared below its pivot, a column with no pivot was zero
    there), so x - f * 0 = x on every column the slice skips. Backward,
    pivot row r is zero left of c and already zero in every later pivot
    column, so clearing above it never refills a later pivot column. The
    RREF is unique, so these are the same Fractions Gauss-Jordan gives.
    """
    a = m.to_lists()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if row is None:
            continue
        a[r], a[row] = a[row], a[r]
        inv = 1 / a[r][c]
        tail = [x * inv for x in a[r][c:]]
        a[r][c:] = tail
        for i in range(r + 1, nrows):
            if a[i][c] != 0:
                f = a[i][c]
                a[i][c:] = [x - f * y for x, y in zip(a[i][c:], tail)]
        pivots.append(c)
        r += 1
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        tail = a[r][c:]
        for i in range(r):
            if a[i][c] != 0:
                f = a[i][c]
                a[i][c:] = [x - f * y for x, y in zip(a[i][c:], tail)]
    return RatMatrix(a), pivots


def nullspace_basis(m: RatMatrix) -> list[Vector]:
    """Basis of {z : Mz = 0}, one vector per free column of the RREF.

    Vectors are linearly independent by construction (each has a 1 in its
    own free column and 0 in every other free column).
    """
    reduced, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        z = [Fraction(0)] * m.cols
        z[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            z[pc] = -reduced[r, fc]
        basis.append(tuple(z))
    return basis


def principal_submatrix(m: RatMatrix, subset: Iterable[int]) -> RatMatrix:
    """Rows and columns of a square matrix restricted to ``subset``.

    Indices are 0-based, must be nonempty, in range, and are taken in
    ascending order. Symmetry is not re-checked here: callers pass matrices
    they validated or built symmetric, and a check would cost a full pass
    over the matrix per minor.
    """
    idx = sorted(set(subset))
    if not idx:
        raise ValueError("empty index subset")
    if idx[0] < 0 or idx[-1] >= m.rows:
        raise ValueError(f"index out of range: {idx}")
    e = m.entries
    return RatMatrix([[e[i][j] for j in idx] for i in idx])
