"""Mixed-volume matrices, the counterexample pipeline, and certificates.

The m x m matrix M_ij = V(K_i[k], K_j[k], C_1, ..., C_{n-2k}) of k-fold
mixed volumes is hyperbolic for k = 1 (that is Shephard's family of
determinantal inequalities), and was conjectured to stay hyperbolic for
every k <= n/2. It does not: a degree-2 primitive operator with a strict
Hodge-Riemann value yields, through its expression as a combination of pure
squares of box derivatives, vectors x, y >= 0 with <x, My> = 0 and
<x, Mx> > 0, which is impossible for a hyperbolic matrix. This module builds those
matrices, runs the pipeline at k = 2, lifts it to any k > 2 by double
polarization, hunts for direct violations at random, and independently
re-verifies emitted certificates with the coordinate DP of the mixvol module.
The builder checks the witness claims in one place for the base and the
lift, and the lift reads its signs from ``polarization_signs``.

A matrix is built as its table over width classes in one integer pass:
every entry shares the auxiliary bodies C, so their permanent on every
column set is computed once, and each class's products over the k-subsets
of coordinates once; an entry is then a dot product. The builder calls
neither the coordinate DP of the mixvol module nor the derivative path.

All certification arithmetic is exact.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, repeat
from math import factorial
from operator import add, lshift, mul
from typing import Callable, Optional, Sequence

from .boxes import BoxBody, box_from_widths, unit_cube
from .diffop import (
    SlabOperator,
    express_as_powers,
    hr_form,
    op_to_json,
    polarization_signs,
    primitive_space_basis,
)
from .exactlin import (
    Rat,
    RatMatrix,
    det,
    integer_row,
    json_int,
    json_list,
    rat_from_str,
    rat_to_str,
)
from .hypmat import (
    SUBSET_ENUMERATION_CAP,
    Violation,
    _principal_minors,
    class_matrix,
    find_violation,
    is_hyperbolic,
    sylvester_violation,
    violates_sign,
    witness_forms,
)
from .mixvol import MAX_DIMENSION, BodyTuple, mixed_volume

CERTIFICATE_VERSION = 1

DEFAULT_SEARCH_GRID = tuple(Fraction(j, 4) for j in range(1, 17))


def random_box(rng: random.Random, n: int) -> BoxBody:
    """A box in R^n whose widths are drawn from DEFAULT_SEARCH_GRID in order."""
    return BoxBody(n, tuple(rng.choice(DEFAULT_SEARCH_GRID) for _ in range(n)))


def random_instance(
    n: int, k: int, m: int, seed: int, trial: int
) -> tuple[list[BoxBody], list[BoxBody]]:
    """Seeded (bodies, c_bodies): m bodies, then n - 2k auxiliary bodies.

    Each (seed, trial) has its own generator, so an instance does not depend
    on how many others were drawn before it.
    """
    rng = random.Random(f"boxcert:{seed}:{trial}")
    bodies = [random_box(rng, n) for _ in range(m)]
    return bodies, [random_box(rng, n) for _ in range(n - 2 * k)]


@dataclass(frozen=True)
class FedotovMatrix:
    """The k-fold mixed-volume matrix M_ij = table[classes[i]][classes[j]]."""

    n: int
    k: int
    bodies: tuple[BoxBody, ...]
    c_bodies: tuple[BoxBody, ...]
    classes: tuple[int, ...]
    table: RatMatrix

    @property
    def m(self) -> int:
        return len(self.bodies)

    @cached_property
    def matrix(self) -> RatMatrix:
        """The m x m matrix itself, for a v1 certificate or minor enumeration."""
        return class_matrix(self.table, self.classes)


def width_classes(bodies: Sequence[BoxBody]) -> tuple[list[BoxBody], list[int]]:
    """Group bodies by widths: (first body of each class, class of each body).

    Mixed volumes see only widths, so M_ij depends on the unordered pair of
    the classes of bodies i and j alone.
    """
    index: dict[tuple[Rat, ...], int] = {}
    classes = [index.setdefault(body.widths, len(index)) for body in bodies]
    return [bodies[classes.index(c)] for c in range(len(index))], classes


def _symmetric_table(size: int, entry: Callable[[int, int], Rat]) -> RatMatrix:
    """The size x size symmetric matrix of entry(a, b), one call per a <= b."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            rows[a][b] = rows[b][a] = entry(a, b)
    return RatMatrix(rows)


def _kfold_table(
    n: int, reps: Sequence[BoxBody], k: int, c_bodies: Sequence[BoxBody]
) -> RatMatrix:
    """The table V(A_a[k], A_b[k], C...) over ``reps``, one integer pass per matrix.

    With every width row scaled to integers, the coefficient behind entry
    (a, b) is the sum over disjoint k-sets S, T of coordinates of
    e_a[S] e_b[T] P[[n] - S - T], where e_a[S] = prod_{t in S} a_t and P[U]
    is the permanent of the C rows on the columns U. P comes from one DP over
    the C rows with the used columns as state (a width class of mu equal rows
    picks mu columns at once, times mu!), shared by every entry. Then
    q_a[T] = sum over S disjoint from T of e_a[S] P[[n] - S - T] is one pass
    over (S, T) lists built once, and the entry is
    (k!)^2 <q_a, e_b> / (n! den_C den_a^k den_b^k).

    Every integer here is nonnegative, so the classes ride side by side in
    one Python integer, a slot each, wide enough for the largest dot
    product: the pass over (S, T) serves every class at once, and each
    table column is one dot product.
    """
    bit = [1 << t for t in range(n)]
    full = (1 << n) - 1
    permanents = {0: 1}
    c_den, scale = 1, factorial(k) ** 2
    for c, mu in Counter(c_bodies).items():
        row, d = integer_row(c.widths)
        c_den *= d**mu
        scale *= factorial(mu)
        following: dict[int, int] = {}
        get = following.get
        for used, value in permanents.items():
            for cols in combinations([t for t in range(n) if not used & bit[t]], mu):
                target, product = used, value
                for t in cols:
                    target |= bit[t]
                    product *= row[t]
                following[target] = get(target, 0) + product
        permanents = following
    # e_a over the j-subsets for j = 1..k, each product from its parent
    # subset without the last column
    steps = []
    index: dict[tuple[int, ...], int] = {(): 0}
    for j in range(1, k + 1):
        level = list(combinations(range(n), j))
        steps.append([(index[s[:-1]], s[-1]) for s in level])
        index = {s: i for i, s in enumerate(level)}
    e_rows, dens = [], []
    for a in reps:
        widths, d = integer_row(a.widths)
        e = [1]
        for parents in steps:
            e = [e[p] * widths[t] for p, t in parents]
        e_rows.append(e)
        dens.append(d**k)
    # per k-set T: the k-sets S disjoint from it, and P[[n] - S - T] for each
    masks = [sum(bit[t] for t in s) for s in index]
    pairs = []
    for t_mask in masks:
        free = [t for t in range(n) if not t_mask & bit[t]]
        disjoint = [index[s] for s in combinations(free, k)]
        pairs.append((disjoint, [permanents[full ^ t_mask ^ masks[i]] for i in disjoint]))
    # q_a[T] <= top * max P * (S per T), and a table sum has one term per T
    top = max(map(max, e_rows))
    bound = top * max(permanents.values()) * len(pairs[0][0]) * len(pairs) * top
    width = bound.bit_length() // 8 + 1  # bytes per slot
    packed = [0] * len(masks)
    for a, e in enumerate(e_rows):
        packed = list(map(add, packed, map(lshift, e, repeat(8 * width * a))))
    q = [sum(map(mul, map(packed.__getitem__, disjoint), values)) for disjoint, values in pairs]
    columns = []
    for e in e_rows:
        raw = sum(map(mul, e, q)).to_bytes(width * len(reps), "little")
        columns.append(
            [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
        )
    den = factorial(n) * c_den
    return _symmetric_table(
        len(reps),
        lambda a, b: Fraction(scale * columns[b][a], den * dens[a] * dens[b]),
    )


def build_matrix(
    bodies: Sequence[BoxBody],
    k: int,
    c_bodies: Sequence[BoxBody],
) -> FedotovMatrix:
    """Assemble M_ij = V(K_i[k], K_j[k], C...) exactly.

    One entry per distinct pair of width classes, every entry of a class
    pair sharing that value; the whole class table comes from one integer
    evaluation that shares the C bodies' column permanents and each class's
    k-subset products across the matrix (``_kfold_table``).
    """
    bodies = tuple(bodies)
    c_bodies = tuple(c_bodies)
    if not bodies:
        raise ValueError("need at least one body")
    n = bodies[0].n
    if k < 1 or 2 * k + len(c_bodies) != n:
        raise ValueError(
            f"dimension bookkeeping failed: 2*{k} + {len(c_bodies)} != {n}"
        )
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported envelope")
    reps, classes = width_classes(bodies)
    table = _kfold_table(n, reps, k, c_bodies)
    return FedotovMatrix(n, k, bodies, c_bodies, tuple(classes), table)


@dataclass(frozen=True)
class ShephardReport:
    """Outcome of checking every principal minor sign at k = 1."""

    ok: bool
    subsets_checked: int
    violations: tuple[Violation, ...]
    determinant: Rat


def shephard_verify(fm: FedotovMatrix) -> ShephardReport:
    """Assert (-1)^|I| det M_I <= 0 for every principal subset (k = 1 only).

    All 2^m - 1 subsets are checked: ``_principal_minors`` yields those up to
    the rank, and every larger one has minor 0, which satisfies the sign
    condition. ``determinant`` is det M, the full set's minor when the rank
    is m and 0 otherwise. A violation in the report indicates an
    implementation bug: for box inputs the k = 1 matrix is always hyperbolic.
    """
    if fm.k != 1:
        raise ValueError("shephard_verify applies to k = 1 matrices")
    violations = []
    subset, value = (), Fraction(1)  # det of a 0x0 matrix is 1
    for subset, value in _principal_minors(fm.matrix):
        if violates_sign(subset, value):
            violations.append(Violation(subset, value))
    determinant = value if len(subset) == fm.m else Fraction(0)
    return ShephardReport(not violations, 2**fm.m - 1, tuple(violations), determinant)


@dataclass(frozen=True)
class Certificate:
    """Self-contained, exactly re-verifiable record of a minor-sign violation.

    ``labels`` names each matrix row: plain indices for the k = 2 pipeline
    and direct search, (i, delta-bits) pairs for the general-k reduction.
    Everything is recomputable from the stored widths alone.
    """

    n: int
    k: int
    labels: tuple
    bodies: tuple[BoxBody, ...]
    c_bodies: tuple[BoxBody, ...]
    x: tuple[Rat, ...]
    y: tuple[Rat, ...]
    pair_xy: Optional[Rat]
    pair_xx: Optional[Rat]
    matrix: RatMatrix
    subset: tuple[int, ...]
    subset_det: Rat
    trace: dict = field(default_factory=dict)
    version: int = CERTIFICATE_VERSION


def _certificate(
    fm: FedotovMatrix, labels, x, y, pairs, violation: Violation, trace: dict
) -> Certificate:
    """The certificate of ``violation`` in ``fm``; ``pairs`` is (<x,My>, <x,Mx>)."""
    return Certificate(
        fm.n, fm.k, tuple(labels), fm.bodies, fm.c_bodies, tuple(x), tuple(y), *pairs,
        fm.matrix, violation.subset, violation.det_value, trace,
    )


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PipelineData:
    """Intermediate state of the k = 2 construction, reused by the lift."""

    n: int
    alpha: SlabOperator
    bodies: tuple[BoxBody, ...]
    x: tuple[Rat, ...]
    y: tuple[Rat, ...]
    c_bodies: tuple[BoxBody, ...]
    fedotov: FedotovMatrix
    pair_xy: Rat
    pair_xx: Rat


class PipelineError(AssertionError):
    """An exact internal consistency check failed; diagnostics attached."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise PipelineError(message)


def _witness_claims(
    fm: FedotovMatrix, x, y, expected: Rat, form: str, source: str, bad_xy: str
) -> tuple[Rat, Rat]:
    """(<x,My>, <x,Mx>), once the verifier's claims <x,My> = 0,
    <x,Mx> = expected > 0 and <y,My> > 0 hold; the strings word the errors.
    """
    pair_xy, pair_xx, pair_yy = witness_forms(fm.table, fm.classes, x, y)
    _check(pair_xy == 0, bad_xy.format(pair_xy))
    _check(pair_xx == expected, f"{form} {pair_xx} differs from {source} {expected}")
    _check(pair_xx > 0, f"{form} is not strictly positive")
    _check(pair_yy > 0, f"{form} <y,My> is not strictly positive")
    return pair_xy, pair_xx


def pipeline_base_k2(n: int) -> PipelineData:
    """Degree-2 primitive data: bodies, x, y and the k = 2 matrix in R^n.

    Steps: pick the first degree-2 primitive basis operator (nonzero, so
    aV != 0 and the quadratic form is strict), expand it into pure squares
    of nondegenerate box derivatives, append the cube with coefficient 0,
    and verify <x, My> = 0, <x, Mx> = alpha^2 (D_cube)^{n-4} V / n! > 0 and
    <y, My> > 0 exactly, the verifier's three claims.
    """
    if n < 4:
        raise ValueError("the degree-2 construction needs n >= 4")
    cube = unit_cube(n)
    c_bodies = tuple([cube] * (n - 4))
    basis = primitive_space_basis(2, cube, c_bodies)
    _check(bool(basis), "primitive space is trivial")
    alpha = basis[0]
    powers = express_as_powers(alpha)
    _check(
        powers.to_operator(n) == alpha,
        "power expansion does not reproduce the operator",
    )
    _check(
        all(box.is_nondegenerate for _, box in powers.terms),
        "power expansion produced a degenerate body",
    )
    bodies = tuple(box for _, box in powers.terms) + (cube,)
    x = tuple(c for c, _ in powers.terms) + (Fraction(0),)
    y = tuple(Fraction(0) for _ in powers.terms) + (Fraction(1),)
    fm = build_matrix(bodies, 2, c_bodies)
    expected = hr_form(alpha, alpha, c_bodies) / factorial(n)
    pairs = _witness_claims(
        fm, x, y, expected, "quadratic form", "operator value",
        "primitivity pairing is {}, expected 0",
    )
    return PipelineData(n, alpha, bodies, x, y, c_bodies, fm, *pairs)


def construct_counterexample_k2(n: int) -> Certificate:
    """Certified violation of the minor sign condition at k = 2, any n >= 4."""
    base = pipeline_base_k2(n)
    fm = base.fedotov
    violation = find_violation(fm.table, fm.classes, witness=(base.x, base.y))
    trace = {
        "mode": "pipeline-k2",
        "alpha": op_to_json(base.alpha),
        "shifts": [1, 2, 3],
    }
    return _certificate(
        fm, range(fm.m), base.x, base.y, (base.pair_xy, base.pair_xx), violation, trace
    )


def reduce_to_general_k(base: PipelineData, k: int) -> Certificate:
    """Lift the k = 2 violation to degree k via double polarization.

    Each base body K_i spawns the bodies (d_1 + d_2) K_i + (d_3 + ... +
    d_k) * cube over the nonzero patterns d, whose widths are
    (d_1 + d_2) w + (d_3 + ... + d_k), and the polarization signs turn the
    base pairings into the lifted ones exactly: <x~, M~ y~> = <x, My> and
    <x~, M~ x~> = <x, Mx>. Both sides of each identity are computed
    independently and compared, and <y~, M~ y~> > 0 is checked, as the
    verifier will.
    """
    n = base.n
    if k < 2 or 2 * k > n:
        raise ValueError(f"need 2 <= k <= n/2, got k={k}, n={n}")
    cube = unit_cube(n)
    signs = polarization_signs(k)
    inv_kfact = Fraction(1, factorial(k))
    labels = []
    bodies = []
    x_t = []
    y_t = []
    m_plus = len(base.bodies)
    y_delta = (1,) + (0,) * (k - 1)
    for i in range(m_plus):
        widths = base.bodies[i].widths
        for delta, sign in signs:
            a, b = delta[0] + delta[1], sum(delta[2:])
            body = BoxBody(n, tuple(a * w + b for w in widths))
            _check(body.is_nondegenerate, f"degenerate lifted body at {(i, delta)}")
            labels.append((i, delta))
            bodies.append(body)
            x_t.append(sign * base.x[i] * inv_kfact)
            y_t.append(
                Fraction(1) if (i == m_plus - 1 and delta == y_delta) else Fraction(0)
            )
    c_bodies = tuple([cube] * (n - 2 * k))
    fm = build_matrix(bodies, k, c_bodies)
    pairs = _witness_claims(
        fm, x_t, y_t, base.pair_xx, "lifted quadratic form", "base",
        "lifted pairing {} differs from base 0",
    )
    violation = find_violation(fm.table, fm.classes, witness=(x_t, y_t))
    trace = {
        "mode": "reduction",
        "base_k": 2,
        "base_m": m_plus,
        "alpha": op_to_json(base.alpha),
        "shifts": [1, 2, 3],
    }
    return _certificate(fm, labels, x_t, y_t, pairs, violation, trace)


def construct_counterexample(n: int, k: int) -> Certificate:
    """k = 2 directly; k > 2 through the reduction from the k = 2 base."""
    if k < 2:
        raise ValueError("the sign condition holds at k = 1; need k >= 2")
    if 2 * k > n:
        raise ValueError(f"need 2k <= n, got k={k}, n={n}")
    if k == 2:
        return construct_counterexample_k2(n)
    return reduce_to_general_k(pipeline_base_k2(n), k)


def double_polarization_check(base: PipelineData, cert: Certificate) -> bool:
    """Base entries must equal the signed double sum of lifted entries.

    M_ij = (1/k!^2) sum_{d,e} (-1)^{k+|d|} (-1)^{k+|e|} M~_{id, je}, summed
    over nonzero patterns (the zero pattern's body is a point and would
    contribute nothing).
    """
    k = cert.k
    scale = Fraction(1, factorial(k) ** 2)
    signs = dict(polarization_signs(k))
    positions: dict[int, list[tuple[int, int]]] = {}
    for pos, (i, delta) in enumerate(cert.labels):
        positions.setdefault(i, []).append((pos, signs[delta]))
    fm = base.fedotov
    for i in range(fm.m):
        for j in range(i, fm.m):
            total = Fraction(0)
            for pos_a, sign_a in positions[i]:
                row = cert.matrix.entries[pos_a]
                for pos_b, sign_b in positions[j]:
                    total += sign_a * sign_b * row[pos_b]
            if scale * total != fm.table[fm.classes[i], fm.classes[j]]:
                return False
    return True


@dataclass(frozen=True)
class SearchStats:
    trials: int
    found: bool
    found_trial: Optional[int]


def random_search(
    n: int, k: int, m: int, trials: int, seed: int
) -> tuple[Optional[Certificate], SearchStats]:
    """Randomized hunt for a direct minor-sign violation.

    Trial t checks random_instance(n, k, m, seed, t), so the outcome is a
    pure function of (seed, trials). Each trial first asks ``is_hyperbolic``
    of the class table (grid bodies give a positive one): a positive matrix
    with one positive eigenvalue has no violating minor (by Cauchy
    interlacing, each M_I has one too), so its 2^m - 1 subsets are not
    enumerated; any other trial is scanned by ``sylvester_violation``.
    Returns the first violation as a certificate with empty x, y (marked
    "direct"), or None.
    """
    if k < 1 or 2 * k > n:
        raise ValueError("need 1 <= k <= n/2")
    if m < 1:
        raise ValueError("need at least one body")
    if m > SUBSET_ENUMERATION_CAP:
        raise ValueError("m too large for exhaustive minor enumeration")
    for trial in range(trials):
        bodies, c_bodies = random_instance(n, k, m, seed, trial)
        fm = build_matrix(bodies, k, c_bodies)
        if is_hyperbolic(fm.table):
            continue
        violation = sylvester_violation(fm.matrix)
        if violation is not None:
            trace = {
                "mode": "direct",
                "seed": seed,
                "trial": trial,
                "grid": [rat_to_str(g) for g in DEFAULT_SEARCH_GRID],
            }
            cert = _certificate(fm, range(m), (), (), (None, None), violation, trace)
            return cert, SearchStats(trial + 1, True, trial)
    return None, SearchStats(trials, False, None)


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Re-check a certificate through the independent evaluation path.

    The table over the stored bodies' width classes is recomputed from the
    widths by the coordinate DP of the mixvol module (the builder's integer
    table shares no code with it), one ``mixed_volume`` per class pair, with
    the auxiliary bodies grouped by width class. The stored matrix is read
    once, by the entry pass: each class's first stored row is compared with
    the recomputed row by value and then stands for the class, so the later
    rows of an honest class, which share its entry objects, compare by
    identity. The matrix is symmetric and positive exactly when it matches a
    positive table. Every claim is then checked on the table: the pairings
    <x,My> = 0 and <x,Mx> > 0 with <y,My> > 0 (a positive-definite Gram
    matrix of x and y, so the form is positive on a plane), all three from
    one integer scaling of the table (``witness_forms``), and det M_I,
    recomputed by fraction-free elimination, with its sign condition. With
    no witness, both stored pairings must be null. Bounds come first.
    """

    def fail(reason: str) -> VerificationReport:
        return VerificationReport(False, reason)

    if cert.version != CERTIFICATE_VERSION:
        return fail(f"unsupported certificate version {cert.version}")
    n, k = cert.n, cert.k
    if n > MAX_DIMENSION:
        return fail(f"dimension {n} exceeds the supported envelope n <= {MAX_DIMENSION}")
    if k < 1 or 2 * k > n:
        return fail(f"degree bounds violated: k={k}, n={n}")
    if len(cert.c_bodies) != n - 2 * k:
        return fail("auxiliary body count does not match n - 2k")
    size = len(cert.bodies)
    if len(cert.labels) != size:
        return fail("label count does not match body count")
    if cert.matrix.rows != size or cert.matrix.cols != size:
        return fail("matrix shape does not match body count")
    for box in cert.bodies + cert.c_bodies:
        if box.n != n:
            return fail("body dimension mismatch")
        if not box.is_nondegenerate:
            return fail("degenerate body in certificate")
    reps, classes = width_classes(cert.bodies)
    tail = tuple(Counter(cert.c_bodies).items())

    def entry(a: int, b: int) -> Rat:
        pair = ((reps[a], 2 * k),) if a == b else ((reps[a], k), (reps[b], k))
        return mixed_volume(BodyTuple(n, pair + tail))

    table = _symmetric_table(len(reps), entry)
    expected_rows = [tuple(row[c] for c in classes) for row in table.entries]
    for i, row in enumerate(cert.matrix.entries):
        expected = expected_rows[classes[i]]
        if row != expected:
            if not cert.matrix.is_symmetric:
                return fail("matrix is not symmetric")
            if not cert.matrix.is_positive:
                return fail("matrix is not entrywise positive")
            j = next(j for j in range(size) if row[j] != expected[j])
            return fail(f"matrix entry ({i},{j}) is {row[j]}, recomputed {expected[j]}")
        expected_rows[classes[i]] = row
    if not table.is_positive:
        return fail("matrix is not entrywise positive")
    if cert.x or cert.y:
        if len(cert.x) != size or len(cert.y) != size:
            return fail("witness vector dimension mismatch")
        pair_xy, pair_xx, pair_yy = witness_forms(table, classes, cert.x, cert.y)
        if pair_xy != 0:
            return fail(f"pairing <x,My> is {pair_xy}, expected 0")
        if cert.pair_xy != 0:
            return fail(f"stored <x,My> is {cert.pair_xy}, expected 0")
        if pair_xx != cert.pair_xx:
            return fail("stored <x,Mx> does not match recomputation")
        if pair_xx <= 0:
            return fail("quadratic form <x,Mx> is not strictly positive")
        if pair_yy <= 0:
            return fail("quadratic form <y,My> is not strictly positive")
    elif cert.pair_xy is not None or cert.pair_xx is not None:
        return fail("stored pairings without a witness must be null")
    subset = cert.subset
    if not subset:
        return fail("empty violating subset")
    if list(subset) != sorted(set(subset)):
        return fail("violating subset must be strictly ascending")
    if subset[0] < 0 or subset[-1] >= size:
        return fail("violating subset index out of range")
    minor = det(class_matrix(table, [classes[i] for i in subset]))
    if minor != cert.subset_det:
        return fail(f"stored minor {cert.subset_det} differs from {minor}")
    if not violates_sign(subset, minor):
        return fail("subset does not violate the minor sign condition")
    return VerificationReport(True, "")


def _label_to_json(label):
    if isinstance(label, tuple):
        i, delta = label
        return [i, list(delta)]
    return label


def _label_from_json(data):
    if isinstance(data, list):
        pattern = json_list(data[1], "label pattern")
        return (
            json_int(data[0], "label index"),
            tuple(json_int(b, "label pattern bit") for b in pattern),
        )
    return json_int(data, "label")


def certificate_to_json(cert: Certificate) -> str:
    """Canonical structured-text form; round-trips bit-exactly.

    Matrix entries are shared objects (``class_matrix`` indexes one table,
    the loader parses each distinct string once), so each distinct object is
    formatted once, keyed by ``id``; keying by value would hash in Python.
    """
    entries = cert.matrix.entries
    distinct = {id(v): v for row in entries for v in row}
    text = {key: rat_to_str(v) for key, v in distinct.items()}
    payload = {
        "version": cert.version,
        "kind": "minor-sign-violation",
        "n": cert.n,
        "k": cert.k,
        "m": len(cert.bodies),
        "labels": [_label_to_json(l) for l in cert.labels],
        "bodies": [[rat_to_str(w) for w in b.widths] for b in cert.bodies],
        "c_bodies": [[rat_to_str(w) for w in b.widths] for b in cert.c_bodies],
        "x": [rat_to_str(v) for v in cert.x],
        "y": [rat_to_str(v) for v in cert.y],
        "pair_xy": None if cert.pair_xy is None else rat_to_str(cert.pair_xy),
        "pair_xx": None if cert.pair_xx is None else rat_to_str(cert.pair_xx),
        "matrix": [[text[id(v)] for v in row] for row in entries],
        "subset": list(cert.subset),
        "subset_det": rat_to_str(cert.subset_det),
        "trace": cert.trace,
    }
    return json.dumps(payload, indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate; every array field must be a JSON list.

    A v1 matrix repeats a few hundred distinct values up to m^2 times, so
    each distinct rational string is parsed once; any other value goes to
    ``rat_from_str`` as it is, which rejects it. ``m`` must count the bodies
    and ``kind`` must name the one claim v1 makes.
    """
    data = json.loads(text)
    n = json_int(data["n"], "n")
    parse_once = cache(rat_from_str)

    def rat_of(value) -> Rat:
        return parse_once(value) if type(value) is str else rat_from_str(value)

    def rats(value, what: str) -> tuple[Rat, ...]:
        return tuple(map(rat_of, json_list(value, what)))

    def boxes(key: str) -> tuple[BoxBody, ...]:
        return tuple(box_from_widths(n, ws) for ws in json_list(data[key], key))

    cert = Certificate(
        n=n,
        k=json_int(data["k"], "k"),
        labels=tuple(_label_from_json(l) for l in json_list(data["labels"], "labels")),
        bodies=boxes("bodies"),
        c_bodies=boxes("c_bodies"),
        x=rats(data["x"], "x"),
        y=rats(data["y"], "y"),
        pair_xy=None if data["pair_xy"] is None else rat_of(data["pair_xy"]),
        pair_xx=None if data["pair_xx"] is None else rat_of(data["pair_xx"]),
        matrix=RatMatrix(rats(row, "matrix row") for row in json_list(data["matrix"], "matrix")),
        subset=tuple(
            json_int(i, "subset entry") for i in json_list(data["subset"], "subset")
        ),
        subset_det=rat_of(data["subset_det"]),
        trace=data["trace"],
        version=json_int(data["version"], "version"),
    )
    if json_int(data["m"], "m") != len(cert.bodies):
        raise ValueError(f"m is {data['m']}, but the certificate has {len(cert.bodies)} bodies")
    if data["kind"] != "minor-sign-violation":
        raise ValueError(f"kind must be \"minor-sign-violation\", got {data['kind']!r}")
    return cert


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(certificate_to_json(cert))


def load_certificate(path) -> Certificate:
    with open(path, encoding="utf-8") as handle:
        return certificate_from_json(handle.read())
