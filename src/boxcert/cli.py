"""Command-line surface.

Subcommands:
    mixvol FILE              evaluate a body tuple from a file
    shephard                 build and check a k = 1 matrix (random or file)
    fedotov construct        run the counterexample pipeline
    fedotov search           randomized direct hunt for violations
    fedotov verify FILE      independently re-verify a certificate
    hodge primitive          primitive-space basis, dimensions, form values
    selftest                 run every property suite

Each subparser names its handler through ``set_defaults(handler=...)``, and
the handler takes the parsed ``argparse.Namespace`` itself as its
configuration.

Exit status: 0 success, 1 verification failure, 2 a ``UsageError`` (bad
flags, a malformed ``mixvol``/``shephard`` input file, an ``--output`` path
that cannot be written, or a bound exceeded before any work: n <= 12, and
m <= 22 for ``shephard``/``fedotov search``);
any other exception is a fault and propagates. Output for a fixed
command line (including --seed) is byte-identical across runs and
independent of --threads. ``--trials`` counts instances exactly (1 for
``shephard`` and 100 for ``fedotov search`` by default; 0 runs none).
``--output PATH`` writes the payload to PATH: the certificate for ``fedotov
construct`` and ``search`` (a summary still goes to stdout), the whole
report otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .boxes import BoxBody, box_from_widths, unit_cube
from .diffop import h_vector_cube, hr_check, hr_signature, op_to_json, primitive_space_basis
from .exactlin import json_int, json_list, rat_to_str, rats_from_json
from .fedotov import (
    certificate_to_json,
    construct_counterexample,
    load_certificate,
    random_instance,
    random_search,
    shephard_verify,
    verify_certificate,
    build_matrix,
)
from .hypmat import SUBSET_ENUMERATION_CAP
from .mixvol import MAX_DIMENSION, BodyTuple, mixed_volume, mixed_volume_via_derivatives


class UsageError(Exception):
    """Bad flags or parameter bounds; maps to exit status 2."""


def require_dimension(n: int) -> None:
    if n > MAX_DIMENSION:
        raise UsageError(f"n = {n} exceeds the supported envelope n <= {MAX_DIMENSION}")


def require_minor_cap(m: int) -> None:
    if m > SUBSET_ENUMERATION_CAP:
        raise UsageError(
            f"m = {m} exceeds the exhaustive minor enumeration cap {SUBSET_ENUMERATION_CAP}"
        )


def require_degree_bounds(args: argparse.Namespace) -> None:
    if args.n is None or args.k is None:
        raise UsageError("--n and --k are required")
    if args.k < 1 or 2 * args.k > args.n:
        raise UsageError(f"need 1 <= k <= n/2, got n={args.n}, k={args.k}")
    require_dimension(args.n)


def require_writable(path: str) -> None:
    """Open ``path`` before any work, as ``_emit`` will; remove it if new."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _emit(payload: str, args: argparse.Namespace) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _report(result: dict, lines: list[str], args: argparse.Namespace) -> None:
    """Emit ``result`` as indented JSON under ``--format json``, else ``lines``."""
    if args.format == "json":
        _emit(json.dumps(result, indent=2) + "\n", args)
    else:
        _emit("\n".join(lines) + "\n", args)


def _print(line: str) -> None:
    sys.stdout.write(line + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, an over-long integer
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _field(obj, key: str, what: str):
    """``obj[key]``; a non-object or a missing key in an input file is a usage error."""
    if not isinstance(obj, dict):
        raise UsageError(f"{what} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise UsageError(f"{what} has no {key!r} field")
    return obj[key]


def _box_from_entry(n: int, entry: dict) -> BoxBody:
    """One body of an input file; an optional "offset" is checked, then dropped.

    Mixed volumes are translation invariant, so a box is its widths.
    """
    box = box_from_widths(n, _field(entry, "widths", "body"))
    offset = entry.get("offset")
    if offset is not None and len(rats_from_json(offset, "offset")) != n:
        raise ValueError("offset length must equal the dimension")
    return box


def cmd_mixvol(args: argparse.Namespace) -> int:
    data = _load_json(args.file)
    try:
        n = json_int(_field(data, "n", "input file"), "n")
        require_dimension(n)
        entries = tuple(
            (_box_from_entry(n, e), json_int(e.get("multiplicity", 1), "multiplicity"))
            for e in json_list(_field(data, "bodies", "input file"), "bodies")
        )
        total = sum(mult for _, mult in entries)
        if total != n:
            raise UsageError(f"multiplicities sum to {total}, expected {n}")
        t = BodyTuple(n, entries)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    value = mixed_volume(t)
    cross = mixed_volume_via_derivatives(t)
    if value != cross:  # pragma: no cover - would indicate an engine bug
        _print(f"INTERNAL ERROR: evaluation paths disagree: {value} vs {cross}")
        return 1
    text = rat_to_str(value)
    _report({"n": n, "mixed_volume": text}, [f"mixed volume = {text}"], args)
    return 0


def cmd_shephard(args: argparse.Namespace) -> int:
    if args.file:
        data = _load_json(args.file)
        try:
            n = json_int(_field(data, "n", "input file"), "n")
            if n < 2:
                raise UsageError("need n >= 2")
            require_dimension(n)
            bodies, c_bodies = (
                [_box_from_entry(n, e) for e in json_list(_field(data, key, "input file"), key)]
                for key in ("bodies", "c_bodies")
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if not bodies or len(c_bodies) != n - 2:
            raise UsageError(
                f"need at least 1 body and {n - 2} c_bodies, got {len(bodies)} and {len(c_bodies)}"
            )
        m = len(bodies)
        instances = [(bodies, c_bodies)]
    else:
        if args.n is None or args.m is None:
            raise UsageError("--n and --m are required without --file")
        if args.n < 2:
            raise UsageError("need n >= 2")
        require_dimension(args.n)
        if args.m < 1:
            raise UsageError("need m >= 1")
        m = args.m
        # drawn lazily, after the bound check below
        instances = (
            random_instance(args.n, 1, m, args.seed, trial) for trial in range(args.trials)
        )
    require_minor_cap(m)
    results = []
    all_ok = True
    for index, (bodies, c_bodies) in enumerate(instances):
        fm = build_matrix(bodies, 1, c_bodies)
        report = shephard_verify(fm)
        all_ok &= report.ok
        results.append(
            {
                "instance": index,
                "ok": report.ok,
                "subsets_checked": report.subsets_checked,
                "det": rat_to_str(report.determinant),
                "violations": [v.to_json() for v in report.violations],
            }
        )
    lines = [
        f"instance {r['instance']}: {'ok' if r['ok'] else 'VIOLATION'} "
        f"({r['subsets_checked']} minors, det = {r['det']})"
        for r in results
    ]
    lines.append("all minor signs consistent" if all_ok else "MINOR SIGN VIOLATION")
    _report({"ok": all_ok, "instances": results}, lines, args)
    return 0 if all_ok else 1


def cmd_fedotov_construct(args: argparse.Namespace) -> int:
    require_degree_bounds(args)
    if args.k < 2:
        raise UsageError("the k = 1 family is hyperbolic; need k >= 2")
    cert = construct_counterexample(args.n, args.k)
    report = verify_certificate(cert)
    payload = certificate_to_json(cert)
    if args.format == "json" and not args.output:
        sys.stdout.write(payload)
        return 0 if report.ok else 1
    if args.output:
        _emit(payload, args)
    _print(
        f"certificate: n={cert.n} k={cert.k} m={len(cert.bodies)} "
        f"subset={list(cert.subset)} det={rat_to_str(cert.subset_det)}"
    )
    if not args.output:
        _print(f"<x,My> = {rat_to_str(cert.pair_xy)}, <x,Mx> = {rat_to_str(cert.pair_xx)}")
    _print(f"independent verification: {'ok' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def cmd_fedotov_search(args: argparse.Namespace) -> int:
    require_degree_bounds(args)
    if args.m is None or args.m < 1:
        raise UsageError("--m is required and must be >= 1")
    require_minor_cap(args.m)
    cert, stats = random_search(args.n, args.k, args.m, args.trials, args.seed)
    ok = True
    if cert is not None:
        ok = bool(verify_certificate(cert))
        if args.output:
            _emit(certificate_to_json(cert), args)
    if args.format == "json":
        result = {
            "trials": stats.trials,
            "found": stats.found,
            "found_trial": stats.found_trial,
            "verified": ok if cert is not None else None,
        }
        sys.stdout.write(json.dumps(result, indent=2) + "\n")
    else:
        if cert is None:
            _print(f"no violation in {stats.trials} trials (absence is not evidence)")
        else:
            _print(
                f"violation at trial {stats.found_trial}: subset="
                f"{list(cert.subset)} det={rat_to_str(cert.subset_det)} "
                f"verified={'ok' if ok else 'FAILED'}"
            )
    return 0 if ok else 1


def cmd_fedotov_verify(args: argparse.Namespace) -> int:
    try:
        cert = load_certificate(args.file)
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc}") from exc
    except (KeyError, IndexError, TypeError, OverflowError, ValueError, RecursionError) as exc:
        ok, reason = False, f"malformed certificate: {exc}"
        line = f"certificate INVALID: malformed: {exc}"
    else:
        report = verify_certificate(cert)
        ok, reason = report.ok, report.reason
        line = (
            f"certificate OK: n={cert.n} k={cert.k} m={len(cert.bodies)} "
            f"subset={list(cert.subset)} det={rat_to_str(cert.subset_det)}"
            if ok
            else f"certificate INVALID: {reason}"
        )
    _report({"ok": ok, "reason": reason}, [line], args)
    return 0 if ok else 1


def cmd_hodge_primitive(args: argparse.Namespace) -> int:
    require_degree_bounds(args)
    n, k = args.n, args.k
    cube = unit_cube(n)
    c_bodies = [cube] * (n - 2 * k)
    basis = primitive_space_basis(k, cube, c_bodies)
    h = h_vector_cube(n)
    expected_dim, expected_rank = h[k] - h[k - 1], h[k]
    pairing, signature_ok = hr_signature(n, k, basis)
    pairing_rank = pairing.n_pos + pairing.n_neg
    elements = []
    # the dimension, the signature (which fixes the rank at h_k),
    # and per element the Hodge-Riemann verdict
    ok = len(basis) == expected_dim and signature_ok
    for op in basis:
        value, signed_ok, equality_ok, kills = hr_check(op, cube, c_bodies)
        ok &= signed_ok and equality_ok
        elements.append(
            {
                "operator": op_to_json(op),
                "form_value": rat_to_str(value),
                "signed_value_nonneg": signed_ok,
                "kills_volume_polynomial": kills,
            }
        )
    result = {
        "n": n,
        "k": k,
        "h_vector": h,
        "dimension": len(basis),
        "expected_dimension": expected_dim,
        "pairing_rank": pairing_rank,
        "expected_pairing_rank": expected_rank,
        "ok": ok,
        "basis": elements,
    }
    lines = [
        f"h-vector: {h}",
        f"primitive space dimension: {len(basis)} (expected {expected_dim})",
        f"pairing rank: {pairing_rank} (expected {expected_rank})",
        *(
            f"basis[{idx}]: form value {element['form_value']}, "
            f"signed sign ok: {element['signed_value_nonneg']}"
            for idx, element in enumerate(elements)
        ),
        "all counts consistent" if ok else "CHECK FAILED",
    ]
    _report(result, lines, args)
    return 0 if ok else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_all  # loaded for this command only

    results = run_all(seed=args.seed)
    all_ok = all(ok for _, ok, _ in results)
    suites = [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in results]
    lines = [f"{'PASS' if ok else 'FAIL'} {name} - {detail}" for name, ok, detail in results]
    lines.append("selftest passed" if all_ok else "selftest FAILED")
    _report({"ok": all_ok, "suites": suites}, lines, args)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxcert",
        description="Exact mixed volumes of boxes and minor-sign certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler, *, n=False, k=False, m=False, trials=None, seed=False):
        p.set_defaults(handler=handler)
        if n:
            p.add_argument("--n", type=int, help="ambient dimension")
        if k:
            p.add_argument("--k", type=int, help="repetition degree")
        if m:
            p.add_argument("--m", type=int, help="number of bodies")
        if trials is not None:
            p.add_argument(
                "--trials", type=int, default=trials, help="number of instances (0 runs none)"
            )
        if seed:
            p.add_argument("--seed", type=int, default=0, help="deterministic seed")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.add_argument("--output", help="write the payload to this path")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker cap, at least 1; accepted but currently has no effect",
        )

    p_mix = sub.add_parser("mixvol", help="evaluate a body tuple from a file")
    p_mix.add_argument("file", help="JSON file with n and bodies")
    add_common(p_mix, cmd_mixvol)

    p_she = sub.add_parser("shephard", help="build and check a k=1 matrix")
    p_she.add_argument("--file", help="explicit instance file")
    add_common(p_she, cmd_shephard, n=True, m=True, trials=1, seed=True)

    p_fed = sub.add_parser("fedotov", help="counterexample pipeline")
    fed_sub = p_fed.add_subparsers(dest="subcommand", required=True)

    p_con = fed_sub.add_parser("construct", help="build a certified violation")
    add_common(p_con, cmd_fedotov_construct, n=True, k=True)

    p_sea = fed_sub.add_parser("search", help="randomized direct search")
    add_common(p_sea, cmd_fedotov_search, n=True, k=True, m=True, trials=100, seed=True)

    p_ver = fed_sub.add_parser("verify", help="re-verify a certificate file")
    p_ver.add_argument("file", help="certificate path")
    add_common(p_ver, cmd_fedotov_verify)

    p_hod = sub.add_parser("hodge", help="primitive spaces and form values")
    hod_sub = p_hod.add_subparsers(dest="subcommand", required=True)
    p_pri = hod_sub.add_parser("primitive", help="basis, dimension, form values")
    add_common(p_pri, cmd_hodge_primitive, n=True, k=True)

    p_self = sub.add_parser("selftest", help="run every property suite")
    add_common(p_self, cmd_selftest, seed=True)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise UsageError("--threads must be at least 1")
        if getattr(args, "trials", 0) < 0:
            raise UsageError("--trials must be nonnegative")
        if args.output:
            require_writable(args.output)
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
