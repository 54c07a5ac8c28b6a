"""Constant-coefficient differential operators on the cube's volume polynomial.

Everything is phrased in slab coordinates: a box K with widths w determines
the directional-derivative operator sum_j w_j d/ds_j on polynomials in the
slab variables s_1..s_n, and the volume polynomial of the box family is the
single multilinear monomial V = s_1 * ... * s_n.

Because d^2/ds_j^2 annihilates every multilinear polynomial, an operator's
action on V (and on all derivative images of V) is determined by its
squarefree part. Operators here are stored *only* through that squarefree
part: a degree-k operator is a map from k-element subsets of {0..n-1} to
rational coefficients. Two operators that differ by a member of the
annihilator ideal {a : aV = 0} are therefore identified, which is exactly
the quotient in which the Hodge-Riemann statements live.

``apply_op`` is the one differentiation, and ``contract`` the one place a
list of bodies is applied to a polynomial: each distinct body's derivative
power ``op_from_box(box, count)`` once. ``derivative_along``, a box's
degree-1 derivative, has no caller; it is the single-step reference of the
tests and the benchmark's tracer. ``_form_and_image`` is the one evaluator
of the form (``hr_form``); ``hr_check``, the one Hodge-Riemann verdict on a
primitive operator, reads its image a D_C V too: a is primitive when D_L of
it is 0. ``hr_signature`` is the one signature verdict (the pairing's exact
inertia against the h-vector, and its definiteness on the primitive span,
``primitive_gram``); ``hodge primitive`` and the selftest read the last
two. As d^S V = s_{[n] - S}, an operator kills V exactly when it is zero.
``polarization_signs`` is the one sign rule of the polarization formula,
which ``express_as_powers``, the mixvol check and the fedotov lift read.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

from .boxes import BoxBody, unit_cube
from .exactlin import (
    Inertia,
    Rat,
    RatMatrix,
    inertia,
    integer_matrix,
    integer_row,
    nullspace_basis,
    rat,
    rat_to_str,
)

Subset = tuple[int, ...]


def _normalize_terms(n: int, terms: Mapping) -> dict[Subset, Rat]:
    out: dict[Subset, Rat] = {}
    for key, value in terms.items():
        subset = tuple(sorted(key))
        if len(set(subset)) != len(subset):
            raise ValueError(f"repeated index in monomial {key}")
        if subset and (subset[0] < 0 or subset[-1] >= n):
            raise ValueError(f"index out of range in monomial {key}")
        value = rat(value)
        if value != 0:
            out[subset] = out.get(subset, Fraction(0)) + value
    return {s: c for s, c in sorted(out.items()) if c != 0}


class SlabPolynomial:
    """Multilinear polynomial in the slab variables s_0..s_{n-1}.

    Monomials are subsets of {0..n-1}; the empty subset is the constant
    term. Instances are immutable by convention.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping = ()):
        self.n = n
        self.terms = _normalize_terms(n, dict(terms))

    def coeff(self, subset: Iterable[int]) -> Rat:
        return self.terms.get(tuple(sorted(subset)), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant(self) -> Rat:
        """The degree-0 coefficient."""
        return self.terms.get((), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SlabPolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"SlabPolynomial({self.n}, 0)"
        body = " + ".join(
            f"{rat_to_str(c)}*s{list(s)}" for s, c in self.terms.items()
        )
        return f"SlabPolynomial({self.n}, {body})"


class SlabOperator:
    """Squarefree degree-k operator sum_{|S|=k} c_S d^S."""

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, k: int, terms: Mapping = ()):
        if k < 0:
            raise ValueError("operator degree must be nonnegative")
        self.n = n
        self.k = k
        self.terms = _normalize_terms(n, dict(terms))
        if any(len(s) != k for s in self.terms):
            raise ValueError("all monomials must have the operator's degree")

    def coeff(self, subset: Iterable[int]) -> Rat:
        return self.terms.get(tuple(sorted(subset)), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SlabOperator)
            and (self.n, self.k) == (other.n, other.k)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.k, tuple(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"SlabOperator({self.n}, k={self.k}, 0)"
        body = " + ".join(f"{rat_to_str(c)}*d{list(s)}" for s, c in self.terms.items())
        return f"SlabOperator({self.n}, k={self.k}, {body})"


def volume_polynomial(n: int) -> SlabPolynomial:
    """V = s_0 * s_1 * ... * s_{n-1}."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return SlabPolynomial(n, {tuple(range(n)): Fraction(1)})


def op_from_box(box: BoxBody, k: int) -> SlabOperator:
    """Squarefree part of the k-th power of the box's derivative operator.

    The coefficient on a k-subset S is k! * prod_{j in S} width_j. For
    k > n the power annihilates every multilinear polynomial; the zero
    operator is returned with a warning.
    """
    if k < 1:
        raise ValueError("operator degree must be at least 1")
    if k > box.n:
        warnings.warn(
            f"derivative power {k} exceeds dimension {box.n}; "
            "the operator annihilates the volume polynomial",
            stacklevel=2,
        )
        return SlabOperator(box.n, k)
    fact = factorial(k)
    terms = {}
    for subset in combinations(range(box.n), k):
        c = Fraction(fact)
        for j in subset:
            c *= box.widths[j]
        if c != 0:
            terms[subset] = c
    return SlabOperator(box.n, k, terms)


def op_add(a: SlabOperator, b: SlabOperator) -> SlabOperator:
    if (a.n, a.k) != (b.n, b.k):
        raise ValueError("operator shape mismatch")
    terms = dict(a.terms)
    for s, c in b.terms.items():
        terms[s] = terms.get(s, Fraction(0)) + c
    return SlabOperator(a.n, a.k, terms)


def op_scale(a: SlabOperator, c) -> SlabOperator:
    c = rat(c)
    return SlabOperator(a.n, a.k, {s: c * v for s, v in a.terms.items()})


def apply_op(a: SlabOperator, p: SlabPolynomial) -> SlabPolynomial:
    """Formal differentiation: d^S sends s_T to s_{T - S} when S <= T, else 0."""
    if a.n != p.n:
        raise ValueError("dimension mismatch")
    terms: dict[Subset, Rat] = {}
    for t, ct in p.terms.items():
        t_set = set(t)
        for s, cs in a.terms.items():
            if t_set.issuperset(s):
                rest = tuple(j for j in t if j not in s)
                terms[rest] = terms.get(rest, Fraction(0)) + cs * ct
    return SlabPolynomial(p.n, terms)


def derivative_along(box: BoxBody, p: SlabPolynomial) -> SlabPolynomial:
    """Apply the box's degree-1 derivative operator sum_j w_j d_j."""
    return apply_op(op_from_box(box, 1), p)


def contract(p: SlabPolynomial, bodies: Sequence[BoxBody]) -> SlabPolynomial:
    """D_{K_1} ... D_{K_r} p, for the bodies K_i listed with repeats.

    Equal bodies are grouped: a body listed c times is applied as the one
    operator ``op_from_box(body, c)``, the squarefree part of D_K^c, which
    acts on multilinear p as c single derivatives do. The operators commute,
    so the order of the list does not matter. A body repeated more than n
    times warns (``op_from_box``) and gives the zero polynomial.
    """
    for box, count in Counter(bodies).items():
        p = apply_op(op_from_box(box, count), p)
    return p


def _form_and_image(
    a: SlabOperator, b: SlabOperator, c_bodies: Sequence[BoxBody]
) -> tuple[Rat, SlabPolynomial]:
    """(a*b*prod_i D_{C_i} V, a*prod_i D_{C_i} V): only a is applied, and b
    pairs with the coefficients of the degree-k image."""
    if a.n != b.n:
        raise ValueError("operator dimension mismatch")
    if a.k != b.k:
        raise ValueError(f"degree mismatch: {a.k} vs {b.k}")
    n = a.n
    if 2 * a.k + len(c_bodies) != n:
        raise ValueError("body count does not complete the degree to n")
    p = apply_op(a, contract(volume_polynomial(n), c_bodies))
    return sum((c * p.coeff(s) for s, c in b.terms.items()), Fraction(0)), p


def hr_form(a: SlabOperator, b: SlabOperator, c_bodies: Sequence[BoxBody]) -> Rat:
    """The scalar a * b * prod_i D_{C_i} applied to V.

    Degrees must satisfy deg a = deg b = k and 2k + len(c_bodies) = n, so
    the result is a constant. Symmetric and bilinear in (a, b).
    """
    return _form_and_image(a, b, c_bodies)[0]


def _union_coefficients(
    q: SlabPolynomial, row_subsets: Iterable[Subset], col_subsets: Sequence[Subset]
) -> RatMatrix:
    """Entry (U, S) is q's coefficient on the union of U and S if they are
    disjoint, else 0.

    Applying d^U d^S to q leaves that coefficient as the constant term when
    |U| + |S| = deg q, and a squarefree product with a repeated index is zero.
    """
    rows = []
    for u in row_subsets:
        u_set = set(u)
        rows.append(
            [q.coeff(u + s) if u_set.isdisjoint(s) else Fraction(0) for s in col_subsets]
        )
    return RatMatrix(rows)


def primitive_space_basis(
    k: int, reference: BoxBody, c_bodies: Sequence[BoxBody]
) -> list[SlabOperator]:
    """Basis of the degree-k operators annihilating D_L prod_i D_{C_i} V.

    ``reference`` is the body L. The widths of nondegenerate boxes fill
    the open positive orthant, on which a polynomial vanishes only if it is
    zero, so vanishing of the pairing against every box in the family is
    the same as identical vanishing of the degree (k-1) polynomial, which
    is the linear system solved here.
    """
    n = reference.n
    if 2 * k > n:
        raise ValueError("need 2k <= n")
    if len(c_bodies) != n - 2 * k:
        raise ValueError(f"expected {n - 2 * k} auxiliary bodies")
    if not reference.is_nondegenerate or any(
        not c.is_nondegenerate for c in c_bodies
    ):
        raise ValueError("all bodies must be nondegenerate")
    q = contract(volume_polynomial(n), [reference, *c_bodies])
    cols = list(combinations(range(n), k))
    kernel = nullspace_basis(_union_coefficients(q, combinations(range(n), k - 1), cols))
    return [
        SlabOperator(n, k, {s: c for s, c in zip(cols, z) if c != 0}) for z in kernel
    ]


def hr_check(
    a: SlabOperator, reference: BoxBody, c_bodies: Sequence[BoxBody]
) -> tuple[Rat, bool, bool, bool]:
    """The Hodge-Riemann verdict on a primitive operator.

    Returns (value, sign_ok, equality_ok, kills_v): value is
    a*a*prod D_{C_i} V, sign_ok checks (-1)^k * value >= 0, kills_v whether
    the operator kills V, and equality_ok that value = 0 exactly when it
    does (when a = 0). The operators commute, so a is primitive for
    (reference, c_bodies) when D_L of a*prod D_{C_i} V is 0; else ValueError.
    """
    value, image = _form_and_image(a, a, c_bodies)
    if not apply_op(op_from_box(reference, 1), image).is_zero:
        raise ValueError("operator is not primitive for the given bodies")
    sign_ok = (-1) ** a.k * value >= 0
    return value, sign_ok, (value == 0) == a.is_zero, a.is_zero


@dataclass(frozen=True)
class PowerCombination:
    """A sum sum_i x_i (D_{K_i})^k of pure powers of box derivatives."""

    k: int
    terms: tuple[tuple[Rat, BoxBody], ...]

    def to_operator(self, n: int) -> SlabOperator:
        total = SlabOperator(n, self.k)
        for x, box in self.terms:
            total = op_add(total, op_scale(op_from_box(box, self.k), x))
        return total


def _lagrange_weights_at_zero(points: Sequence[int]) -> list[Rat]:
    """Weights l_t(0) so that sum_t l_t(0) p(t) = p(0) for deg p <= len-1."""
    weights = []
    for t in points:
        w = Fraction(1)
        for u in points:
            if u != t:
                w *= Fraction(-u, t - u)
        weights.append(w)
    return weights


def polarization_signs(k: int) -> list[tuple[tuple[int, ...], int]]:
    """(delta, (-1)^(k + |delta|)) over the nonzero 0/1 patterns of length k,
    lexicographically: the terms of k! D_{R_1} ... D_{R_k} = sum_delta
    (-1)^(k + |delta|) (D_{delta . R})^k (the zero pattern's power is 0).
    """
    return [(d, (-1) ** (k + sum(d))) for d in product((0, 1), repeat=k)][1:]


def express_as_powers(a: SlabOperator) -> PowerCombination:
    """Write a degree-k operator as sum_i x_i (D_{K_i})^k, K_i nondegenerate.

    Construction: polarize each monomial k! d^S into signed k-th powers of
    indicator-box derivatives over the nonempty sub-subsets of S, then
    replace every degenerate indicator box B by the exact combination
    sum_t l_t(0) (D_{B + t*cube})^k over the shifts t = 1..k+1 (Lagrange
    weights at 0 isolate the pure (D_B)^k coefficient of the degree-k
    operator polynomial in t). Duplicate boxes are merged.
    """
    k, n = a.k, a.n
    if k < 1:
        raise ValueError("degree must be at least 1")
    if a.is_zero:
        return PowerCombination(k, ())
    shifts = list(range(1, k + 2))
    weights = _lagrange_weights_at_zero(shifts)
    signs = polarization_signs(k)
    combo: dict[tuple[Rat, ...], Rat] = {}
    for s, c in a.terms.items():
        for delta, sign in signs:
            chosen = {j for j, d in zip(s, delta) if d}
            base = c * sign / factorial(k)
            for t, weight in zip(shifts, weights):
                widths = tuple(
                    Fraction(t + 1) if j in chosen else Fraction(t) for j in range(n)
                )
                combo[widths] = combo.get(widths, Fraction(0)) + base * weight
    terms = tuple(
        (x, BoxBody(n, widths))
        for widths, x in sorted(combo.items())
        if x != 0
    )
    return PowerCombination(k, terms)


def h_vector_cube(n: int) -> list[int]:
    """(h_0, ..., h_n) for the n-cube: h_k = C(n, k)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return [comb(n, j) for j in range(n + 1)]


def pairing_matrix(n: int, k: int) -> RatMatrix:
    """Gram matrix of the degree-k pairing (a, b) -> a*b*(D_cube)^{n-2k} V
    over the unit-coefficient operators d^S, S running over k-subsets.

    The entry for (d^U, d^S) is hr_form(d^U, d^S, [cube] * (n - 2k)), read
    directly off q = (D_cube)^{n-2k} V, which is contracted once.
    """
    if 2 * k > n:
        raise ValueError("need 2k <= n")
    q = contract(volume_polynomial(n), [unit_cube(n)] * (n - 2 * k))
    subsets = list(combinations(range(n), k))
    return _union_coefficients(q, subsets, subsets)


def primitive_gram(
    n: int, k: int, basis: Sequence[SlabOperator], pairing: RatMatrix
) -> tuple[RatMatrix, list[int]]:
    """(G, scales): G = B P B^T, the Gram matrix of ``pairing`` on ``basis``.

    ``pairing`` is P = ``pairing_matrix(n, k)``. Row i of B is basis[i]'s
    coefficients over the k-subsets, scaled to integers by scales[i]
    (``integer_row``). A positive row scaling is a congruence, so G has the
    inertia of the basis' own Gram matrix, and G[i, i] / scales[i]^2 is the
    form value of basis[i]. The products run on P scaled once to integers,
    over its nonzero entries (the disjoint pairs); P is symmetric, so its
    rows serve as its columns.
    """
    subsets = list(combinations(range(n), k))
    scaled = [integer_row([op.coeff(s) for s in subsets]) for op in basis]
    rows = [z for z, _ in scaled]
    a, den = integer_matrix(pairing)
    nonzero = [[(s, x) for s, x in enumerate(row) if x] for row in a]
    bp = [[sum(b[s] * x for s, x in nz) for nz in nonzero] for b in rows]
    gram = [[Fraction(sum(x * y for x, y in zip(u, b)), den) for b in rows] for u in bp]
    return RatMatrix(gram), [d for _, d in scaled]


def hr_signature(n: int, k: int, basis: Sequence[SlabOperator]) -> tuple[Inertia, bool]:
    """(inertia of ``pairing_matrix(n, k)``, the Hodge-Riemann signature verdict).

    ``basis`` spans the degree-k primitive operators of the cube. The
    verdict holds when both exact inertias read as the relations state:
    (a) the degree-k operators are the sum of L^(k-j) P_j over j <= k, with
        dim P_j = h_j - h_(j-1) and the pairing (-1)^j-definite on each, so
        the pairing reads n_pos = the sum over even j, n_neg = the sum over
        odd j, and n_zero = 0;
    (b) the pairing is (-1)^k-definite on the span of ``basis``: the inertia
        of ``primitive_gram`` is (|basis|, 0, 0) for even k and
        (0, |basis|, 0) for odd k.
    """
    pairing = pairing_matrix(n, k)
    found = inertia(pairing)
    h = h_vector_cube(n)
    dims = [h[j] - (h[j - 1] if j else 0) for j in range(k + 1)]
    size = len(basis)
    definite = Inertia(size, 0, 0) if k % 2 == 0 else Inertia(0, size, 0)
    ok = found == Inertia(sum(dims[0::2]), sum(dims[1::2]), 0) and (
        inertia(primitive_gram(n, k, basis, pairing)[0]) == definite
    )
    return found, ok


def op_to_json(a: SlabOperator) -> dict:
    return {
        "n": a.n,
        "k": a.k,
        "terms": [
            {"S": list(s), "c": rat_to_str(c)} for s, c in sorted(a.terms.items())
        ],
    }
