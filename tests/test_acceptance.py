"""Acceptance gate: every criterion at its stated count and budget, exact.

Each test prints one PASS/FAIL line (visible with -s or in captured output).
Tolerances are zero throughout; the only stated budgets are wall-clock.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import comb

from boxcert.boxes import unit_cube
from boxcert.diffop import (
    SlabOperator,
    apply_op,
    hr_check,
    hr_form,
    pairing_matrix,
    primitive_space_basis,
    volume_polynomial,
)
from boxcert.exactlin import det, dot, inertia, principal_submatrix
from boxcert.fedotov import (
    build_matrix,
    load_certificate,
    pipeline_base_k2,
    shephard_verify,
    verify_certificate,
)
from boxcert.hypmat import (
    equality_witness,
    is_hyperbolic,
    sylvester_violation,
    violates_sign,
)
from boxcert.mixvol import (
    BodyTuple,
    af_check,
    iterated_af_check,
    mixed_volume,
    mixed_volume_via_derivatives,
)
from boxcert.selftest import random_box, random_symmetric_positive
from test_hypmat import principal_minors

CLI = [sys.executable, "-m", "boxcert.cli"]


def report(number: int, ok: bool, description: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=900)


def test_criterion_01_counterexample_k2(tmp_path):
    path = tmp_path / "cert_n4_k2.json"
    start = time.monotonic()
    result = run_cli(
        "fedotov", "construct", "--n", "4", "--k", "2", "--output", str(path)
    )
    elapsed = time.monotonic() - start
    ok = result.returncode == 0 and elapsed < 60
    cert = load_certificate(path)
    ok &= cert.pair_xy == 0
    ok &= cert.pair_xx > 0
    ok &= (-1) ** len(cert.subset) * cert.subset_det > 0
    ok &= bool(verify_certificate(cert))  # derivative-path recomputation
    report(1, ok, f"k=2 counterexample at n=4, verified, {elapsed:.1f}s < 60s")


def test_criterion_02_counterexample_general_k(tmp_path):
    path = tmp_path / "cert_n6_k3.json"
    start = time.monotonic()
    result = run_cli(
        "fedotov", "construct", "--n", "6", "--k", "3", "--output", str(path)
    )
    elapsed = time.monotonic() - start
    ok = result.returncode == 0 and elapsed < 600
    cert = load_certificate(path)
    ok &= cert.k == 3 and cert.trace["mode"] == "reduction"
    ok &= cert.pair_xy == 0
    base = pipeline_base_k2(6)
    ok &= cert.pair_xx == base.pair_xx > 0
    ok &= bool(verify_certificate(cert))
    report(2, ok, f"k=3 counterexample at n=6 via reduction, {elapsed:.1f}s < 600s")


def test_criterion_03_cube_h_vector_counts():
    ok = True
    for n in (4, 5, 6):
        cube = unit_cube(n)
        for k in range(1, n // 2 + 1):
            pairing = inertia(pairing_matrix(n, k))
            ok &= pairing.n_pos + pairing.n_neg == comb(n, k)
            basis = primitive_space_basis(k, cube, [cube] * (n - 2 * k))
            ok &= len(basis) == comb(n, k) - comb(n, k - 1)
    report(3, ok, "pairing ranks C(n,k) and primitive dimensions C(n,k)-C(n,k-1)")


def test_criterion_04_explicit_hr_value():
    alpha = SlabOperator(4, 2, {(0, 1): 1, (2, 3): 1, (0, 2): -1, (1, 3): -1})
    hr_check(alpha, unit_cube(4), [])  # raises unless alpha is primitive
    ok = hr_form(alpha, alpha, []) == 4
    report(4, ok, "d1d2+d3d4-d1d3-d2d4 is primitive with squared value 4")


def test_criterion_05_af_suite():
    rng = random.Random("acceptance:af")
    start = time.monotonic()
    checked = 0
    ok = True
    for n in range(2, 7):
        for _ in range(1000):
            lhs, rhs, holds = af_check(
                random_box(rng, n),
                random_box(rng, n),
                [random_box(rng, n) for _ in range(n - 2)],
            )
            ok &= holds
            checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 60
    report(5, ok, f"{checked} quadratic inequalities, 0 violations, {elapsed:.1f}s < 60s")


def test_criterion_06_shephard_suite():
    rng = random.Random("acceptance:shephard")
    ok = True
    for _ in range(200):
        n = rng.randrange(2, 7)
        m = rng.randrange(1, 7)
        bodies = [random_box(rng, n) for _ in range(m)]
        c_bodies = [random_box(rng, n) for _ in range(n - 2)]
        ok &= shephard_verify(build_matrix(bodies, 1, c_bodies)).ok
    for _ in range(20):
        n = rng.randrange(2, 7)
        m = rng.randrange(2, 5)
        k_body = random_box(rng, n)
        bodies = [k_body.scale(F(j + 1, 2)) for j in range(m)]
        c_bodies = [random_box(rng, n) for _ in range(n - 2)]
        matrix = build_matrix(bodies, 1, c_bodies).matrix
        ok &= det(matrix) == 0
        x, y = equality_witness(matrix)
        mx, my = matrix.matvec(x), matrix.matvec(y)
        ok &= dot(x, my) ** 2 == dot(x, mx) * dot(y, my)
        ok &= all(v > 0 for v in x) and all(v > 0 for v in y)
    report(6, ok, "200 minor-sign instances + 20 homothety equality witnesses")


def test_criterion_07_two_body_cases():
    rng = random.Random("acceptance:m2")
    ok = True
    for _ in range(200):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n // 2 + 1)
        bodies = [random_box(rng, n) for _ in range(2)]
        c_bodies = [random_box(rng, n) for _ in range(n - 2 * k)]
        ok &= det(build_matrix(bodies, k, c_bodies).matrix) <= 0
    for _ in range(200):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n)
        l = rng.randrange(1, n - k + 1)
        c_bodies = [random_box(rng, n) for _ in range(n - k - l)]
        ok &= iterated_af_check(
            random_box(rng, n), random_box(rng, n), k, l, c_bodies
        )[2]
    report(7, ok, "200 two-body determinants <= 0 and 200 iterated inequalities")


def test_criterion_08_hyperbolicity_equivalence():
    rng = random.Random("acceptance:hyp")
    ok = True
    for _ in range(500):
        dim = rng.randrange(1, 7)
        m = random_symmetric_positive(rng, dim)
        hyperbolic = is_hyperbolic(m)
        violation = sylvester_violation(m)
        ok &= hyperbolic == (violation is None)
        # the full enumeration, which does not go through the inertia rule
        _, minors = principal_minors(m)
        ok &= hyperbolic == (not any(violates_sign(s, v) for s, v in minors))
        if violation is not None:
            value = det(principal_submatrix(m, violation.subset))
            ok &= value == violation.det_value
            ok &= (-1) ** len(violation.subset) * value > 0
    report(8, ok, "500 matrices: inertia condition == minor condition, witnesses exact")


def test_criterion_09_oracle_equivalence():
    rng = random.Random("acceptance:paths")
    ok = True
    for _ in range(500):
        n = rng.randrange(1, 7)
        entries = []
        remaining = n
        while remaining:
            mult = rng.randrange(1, remaining + 1)
            entries.append((random_box(rng, n), mult))
            remaining -= mult
        t = BodyTuple(n, tuple(entries))
        ok &= mixed_volume(t) == mixed_volume_via_derivatives(t)
    report(9, ok, "500 tuples: permanent path == derivative path")


def test_criterion_10_determinism():
    ok = True
    commands = [
        ["fedotov", "construct", "--n", "4", "--k", "2", "--format", "json"],
        ["fedotov", "search", "--n", "4", "--k", "2", "--m", "3",
         "--trials", "5", "--seed", "9", "--format", "json"],
        ["hodge", "primitive", "--n", "5", "--k", "2", "--format", "json"],
        ["shephard", "--n", "4", "--m", "3", "--seed", "2", "--trials", "2",
         "--format", "json"],
    ]
    for args in commands:
        first = run_cli(*args)
        second = run_cli(*args)
        threaded = run_cli(*args, "--threads", "3")
        ok &= first.stdout == second.stdout == threaded.stdout
        ok &= first.returncode == second.returncode == threaded.returncode
    report(10, ok, "byte-identical output across reruns and thread counts")
