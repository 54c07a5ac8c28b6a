"""Seeded property suites aggregating every module's exact invariants.

Each suite draws its instances from an explicit random generator and
returns (ok, detail); the CLI `selftest` command runs them all through
run_all, at fixed counts and with generators seeded from --seed. The
acceptance tests draw their own, larger instance sets. A failure anywhere
is an exact violation, never a tolerance issue.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

from .boxes import minkowski_combine, unit_cube, volume
from .diffop import (
    SlabOperator,
    express_as_powers,
    hr_check,
    hr_form,
    hr_signature,
    op_from_box,
    primitive_space_basis,
)
from .exactlin import RatMatrix, det, dot, inertia, principal_submatrix
from .fedotov import (
    DEFAULT_SEARCH_GRID,
    build_matrix,
    construct_counterexample_k2,
    double_polarization_check,
    pipeline_base_k2,
    random_box,
    reduce_to_general_k,
    shephard_verify,
    verify_certificate,
)
from .hypmat import (
    af_form_check, equality_witness, is_hyperbolic, sylvester_violation, violates_sign
)
from .mixvol import (
    BodyTuple,
    af_check,
    body_tuple,
    iterated_af_check,
    mixed_volume,
    mixed_volume_via_derivatives,
    polarization_identity_check,
)

GRID = DEFAULT_SEARCH_GRID


def random_symmetric_positive(rng: random.Random, dim: int) -> RatMatrix:
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = rng.choice(GRID)
    return RatMatrix(rows)


def random_rational_matrix(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    pool = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)]
    return RatMatrix([[rng.choice(pool) for _ in range(cols)] for _ in range(rows)])


def random_nonneg_vector(rng: random.Random, dim: int) -> tuple:
    pool = (Fraction(0),) + tuple(GRID)
    return tuple(rng.choice(pool) for _ in range(dim))


def naive_permanent_mixed_volume(t: BodyTuple) -> Fraction:
    """Permutation-sum oracle perm(W)/n!, independent of the coefficient DP."""
    rows = [box.widths for box, mult in t.entries for _ in range(mult)]
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(1)
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total / factorial(n)


def suite_exactlin(rng: random.Random, count: int) -> tuple[bool, str]:
    """Determinant transpose symmetry, congruence invariance, det/inertia signs."""
    for trial in range(count):
        dim = rng.randrange(1, 7)
        m = random_rational_matrix(rng, dim, dim)
        if det(m) != det(m.transpose()):
            return False, f"det(M) != det(M^T) at trial {trial}"
        s = random_symmetric_positive(rng, dim)
        while True:
            a = random_rational_matrix(rng, dim, dim)
            if det(a) != 0:
                break
        congruent = a.transpose().matmul(s).matmul(a)
        if inertia(congruent) != inertia(s):
            return False, f"inertia not congruence-invariant at trial {trial}"
        ine = inertia(s)
        d = det(s)
        if ine.n_zero == 0:
            if (d > 0) != (ine.n_neg % 2 == 0):
                return False, f"sign(det) mismatch at trial {trial}"
        elif d != 0:
            return False, f"det != 0 with n_zero > 0 at trial {trial}"
    return True, f"{count} instances"


def suite_boxes(rng: random.Random, count: int) -> tuple[bool, str]:
    """Combination polynomial, family closure."""
    for trial in range(count):
        n = rng.randrange(1, 7)
        boxes = [random_box(rng, n) for _ in range(3)]
        lams = [rng.choice(GRID) for _ in range(3)]
        combined = minkowski_combine(list(zip(lams, boxes)))
        predicted = Fraction(1)
        for j in range(n):
            predicted *= sum(l * b.widths[j] for l, b in zip(lams, boxes))
        if volume(combined) != predicted:
            return False, f"combination volume mismatch at trial {trial}"
        if not combined.is_nondegenerate:
            return False, f"positive combination left the family at trial {trial}"
    return True, f"{count} instances"


def suite_mixvol_core(rng: random.Random, count: int) -> tuple[bool, str]:
    """Symmetry, multilinearity, positivity against the permutation oracle."""
    for trial in range(count):
        n = rng.randrange(2, 5)
        bodies = [random_box(rng, n) for _ in range(n)]
        t = body_tuple(*bodies)
        value = mixed_volume(t)
        if value != naive_permanent_mixed_volume(t):
            return False, f"permanent oracle mismatch at trial {trial}"
        if value <= 0:
            return False, f"nondegenerate bodies gave nonpositive volume at {trial}"
        shuffled = list(bodies)
        rng.shuffle(shuffled)
        if mixed_volume(body_tuple(*shuffled)) != value:
            return False, f"symmetry violated at trial {trial}"
        a, b = rng.choice(GRID), rng.choice(GRID)
        extra = random_box(rng, n)
        combo = minkowski_combine([(a, bodies[0]), (b, extra)])
        lhs = mixed_volume(body_tuple(combo, *bodies[1:]))
        rhs = a * value + b * mixed_volume(body_tuple(extra, *bodies[1:]))
        if lhs != rhs:
            return False, f"multilinearity violated at trial {trial}"
    return True, f"{count} instances"


def suite_mixvol_paths(rng: random.Random, count: int) -> tuple[bool, str]:
    """Permanent path and derivative path agree exactly."""
    for trial in range(count):
        n = rng.randrange(1, 7)
        entries = []
        remaining = n
        while remaining:
            mult = rng.randrange(1, remaining + 1)
            entries.append((random_box(rng, n), mult))
            remaining -= mult
        t = BodyTuple(n, tuple(entries))
        if mixed_volume(t) != mixed_volume_via_derivatives(t):
            return False, f"evaluation paths disagree at trial {trial}"
    return True, f"{count} instances"


def suite_af(rng: random.Random, per_dim: int) -> tuple[bool, str]:
    """The quadratic mixed-volume inequality on random boxes, exactly."""
    total = 0
    for n in range(2, 7):
        for trial in range(per_dim):
            k_body = random_box(rng, n)
            l_body = random_box(rng, n)
            c_bodies = [random_box(rng, n) for _ in range(n - 2)]
            lhs, rhs, holds = af_check(k_body, l_body, c_bodies)
            if not holds:
                return False, f"violation at n={n}, trial {trial}: {lhs} < {rhs}"
            total += 1
    return True, f"{total} instances"


def suite_polarization(rng: random.Random, count: int) -> tuple[bool, str]:
    for trial in range(count):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n + 1)
        r_bodies = [random_box(rng, n) for _ in range(k)]
        tail = tuple((random_box(rng, n), 1) for _ in range(n - k))
        lhs, rhs, equal = polarization_identity_check(r_bodies, tail)
        if not equal:
            return False, f"polarization identity failed at trial {trial}"
    return True, f"{count} instances"


def suite_hypmat(rng: random.Random, count: int) -> tuple[bool, str]:
    """Inertia condition == minor condition; witnesses are exact.

    ``sylvester_violation`` answers a hyperbolic matrix from its inertia,
    so every subset of such a matrix is re-checked by ``det`` directly.
    """
    hyperbolic_seen = 0
    for trial in range(count):
        dim = rng.randrange(1, 7)
        m = random_symmetric_positive(rng, dim)
        hyp = is_hyperbolic(m)
        violation = sylvester_violation(m)
        if hyp != (violation is None):
            return False, f"equivalence failed at trial {trial}"
        if violation is not None:
            value = det(principal_submatrix(m, violation.subset))
            if value != violation.det_value or not violates_sign(violation.subset, value):
                return False, f"violation does not re-verify at trial {trial}"
        else:
            hyperbolic_seen += 1
            for card in range(1, dim + 1):
                for subset in combinations(range(dim), card):
                    if violates_sign(subset, det(principal_submatrix(m, subset))):
                        return False, f"minor condition failed at trial {trial}"
            for _ in range(20):
                x = random_nonneg_vector(rng, dim)
                y = random_nonneg_vector(rng, dim)
                if not af_form_check(m, x, y):
                    return False, f"quadratic form failed at trial {trial}"
    return True, f"{count} matrices ({hyperbolic_seen} hyperbolic)"


def suite_equality_witness(rng: random.Random, count: int) -> tuple[bool, str]:
    """Homothety instances: det = 0 and the witness re-verifies."""
    for trial in range(count):
        n = rng.randrange(2, 6)
        m_bodies = rng.randrange(2, 5)
        k_body = random_box(rng, n)
        scales = [rng.choice(GRID) for _ in range(m_bodies)]
        bodies = [k_body.scale(s) for s in scales]
        c_bodies = [random_box(rng, n) for _ in range(n - 2)]
        fm = build_matrix(bodies, 1, c_bodies)
        if det(fm.matrix) != 0:
            return False, f"homothety matrix not singular at trial {trial}"
        x, y = equality_witness(fm.matrix)
        mx = fm.matrix.matvec(x)
        my = fm.matrix.matvec(y)
        if dot(x, my) ** 2 != dot(x, mx) * dot(y, my):
            return False, f"witness equality failed at trial {trial}"
        if any(v <= 0 for v in x) or any(v <= 0 for v in y):
            return False, f"witness not strictly positive at trial {trial}"
    return True, f"{count} instances"


def suite_diffop(rng: random.Random, hr_count: int) -> tuple[bool, str]:
    """Dimension counts, pairing signature, quadratic-form sign, power-expression roundtrip."""
    dims = (4, 5)
    for n in dims:
        cube = unit_cube(n)
        for k in range(1, n // 2 + 1):
            c_bodies = [cube] * (n - 2 * k)
            basis = primitive_space_basis(k, cube, c_bodies)
            if len(basis) != comb(n, k) - comb(n, k - 1):
                return False, f"primitive dimension wrong at n={n}, k={k}"
            if not hr_signature(n, k, basis)[1]:
                return False, f"pairing signature wrong at n={n}, k={k}"
            for trial in range(hr_count):
                coeffs = [rng.choice([Fraction(a) for a in range(-3, 4)]) for _ in basis]
                pairs = ((s, c * v) for c, b in zip(coeffs, basis) for s, v in b.terms.items())
                alpha = SlabOperator(n, k, pairs)
                _, sign_ok, equality_ok, _ = hr_check(alpha, cube, c_bodies)
                if not sign_ok:
                    return False, f"sign violated at n={n}, k={k}, trial {trial}"
                if not equality_ok:
                    return False, f"equality case wrong at n={n}, k={k}, trial {trial}"
    for trial in range(hr_count):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, min(2, n) + 1)
        terms = {}
        for s in combinations(range(n), k):
            terms[s] = rng.choice([Fraction(a) for a in range(-3, 4)])
        alpha = SlabOperator(n, k, terms)
        if express_as_powers(alpha).to_operator(n) != alpha:
            return False, f"power roundtrip failed at trial {trial}"
    return True, f"dims {dims}, {hr_count} draws each"


def suite_hr_mixed_volume_consistency(rng: random.Random, count: int) -> tuple[bool, str]:
    """hr_form on box powers equals n! times the mixed volume."""
    for trial in range(count):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n // 2 + 1)
        a_body = random_box(rng, n)
        b_body = random_box(rng, n)
        c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
        form = hr_form(op_from_box(a_body, k), op_from_box(b_body, k), c_bodies)
        mv = mixed_volume(
            BodyTuple(n, ((a_body, k), (b_body, k)) + tuple((c, 1) for c in c_bodies))
        )
        if form != factorial(n) * mv:
            return False, f"operator/coefficient mismatch at trial {trial}"
    return True, f"{count} instances"


def suite_fedeasy_m2(rng: random.Random, count: int) -> tuple[bool, str]:
    """m = 2 determinants are <= 0 for every k, and the iterated inequality holds."""
    for trial in range(count):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n // 2 + 1)
        bodies = [random_box(rng, n) for _ in range(2)]
        c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
        fm = build_matrix(bodies, k, c_bodies)
        if det(fm.matrix) > 0:
            return False, f"m=2 determinant positive at trial {trial}"
        k_it = rng.randrange(1, n)
        l_it = rng.randrange(1, n - k_it + 1)
        cs = [random_box(rng, n) for _ in range(n - k_it - l_it)]
        lhs, rhs, holds = iterated_af_check(bodies[0], bodies[1], k_it, l_it, cs)
        if not holds:
            return False, f"iterated inequality failed at trial {trial}"
    return True, f"{count} instances"


def suite_shephard(rng: random.Random, count: int) -> tuple[bool, str]:
    """All principal minor signs pass on random k = 1 instances."""
    for trial in range(count):
        n = rng.randrange(2, 7)
        m_bodies = rng.randrange(1, 7)
        bodies = [random_box(rng, n) for _ in range(m_bodies)]
        c_bodies = [random_box(rng, n) for _ in range(n - 2)]
        report = shephard_verify(build_matrix(bodies, 1, c_bodies))
        if not report.ok:
            return False, f"minor sign violation at trial {trial}"
    return True, f"{count} instances"


def suite_pipeline(rng: random.Random) -> tuple[bool, str]:
    """k = 2 construction verifies; k = 2 passthrough reduction is consistent."""
    cert = construct_counterexample_k2(4)
    report = verify_certificate(cert)
    if not report.ok:
        return False, f"k=2 certificate failed: {report.reason}"
    base = pipeline_base_k2(4)
    passthrough = reduce_to_general_k(base, 2)
    if not double_polarization_check(base, passthrough):
        return False, "double polarization bookkeeping failed"
    if not verify_certificate(passthrough).ok:
        return False, "passthrough certificate failed"
    return True, "n=4 construction and passthrough verified"


def run_all(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Every suite at its fixed count; deterministic in seed."""
    results = []

    def run(name, fn, count):
        rng = random.Random(f"selftest:{seed}:{name}")
        ok, detail = fn(rng, count)
        results.append((name, ok, detail))

    run("exactlin", suite_exactlin, 20)
    run("boxes", suite_boxes, 20)
    run("mixvol-core", suite_mixvol_core, 15)
    run("mixvol-paths", suite_mixvol_paths, 25)
    run("alexandrov-fenchel", suite_af, 10)
    run("polarization", suite_polarization, 10)
    run("hyperbolicity", suite_hypmat, 25)
    run("equality-witness", suite_equality_witness, 10)
    run("operators", suite_diffop, 5)
    run("operator-volume-consistency", suite_hr_mixed_volume_consistency, 10)
    run("two-body-determinants", suite_fedeasy_m2, 15)
    run("minor-signs", suite_shephard, 10)
    results.append(("pipeline", *suite_pipeline(random.Random(seed))))
    return results
