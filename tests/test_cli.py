import json
import subprocess
import sys
from collections import Counter
from math import comb

import pytest

from boxcert.boxes import unit_cube
from boxcert.cli import main
from boxcert.diffop import (
    _form_and_image,
    apply_op,
    hr_signature,
    op_from_box,
    pairing_matrix,
    primitive_space_basis,
)
from boxcert.exactlin import Inertia, RatMatrix
from boxcert.fedotov import certificate_to_json, construct_counterexample_k2, random_search

RUN = [sys.executable, "-m", "boxcert.cli"]


def run_cli(*args):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=300
    )


def test_construct_text_output(capsys):
    assert main(["fedotov", "construct", "--n", "4", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "independent verification: ok" in out
    assert "<x,My> = 0" in out


def test_construct_bounds_exit_2(capsys):
    assert main(["fedotov", "construct", "--n", "3", "--k", "2"]) == 2
    assert main(["fedotov", "construct", "--n", "4", "--k", "1"]) == 2


def test_construct_writes_certificate(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(
        ["fedotov", "construct", "--n", "4", "--k", "2", "--output", str(path)]
    ) == 0
    data = json.loads(path.read_text())
    assert data["version"] == 1 and data["n"] == 4 and data["k"] == 2
    assert main(["fedotov", "verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "certificate OK" in out


def test_verify_rejects_tampered_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    main(["fedotov", "construct", "--n", "4", "--k", "2", "--output", str(path)])
    data = json.loads(path.read_text())
    data["matrix"][0][0] = "12345"
    path.write_text(json.dumps(data))
    assert main(["fedotov", "verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out


def test_verify_missing_file_is_usage_error(capsys):
    assert main(["fedotov", "verify", "/nonexistent/cert.json"]) == 2


def test_mixvol_from_file(tmp_path, capsys):
    path = tmp_path / "tuple.json"
    path.write_text(
        json.dumps(
            {"n": 2, "bodies": [{"widths": ["1", "2"]}, {"widths": ["3", "1"]}]}
        )
    )
    assert main(["mixvol", str(path)]) == 0
    assert capsys.readouterr().out == "mixed volume = 7/2\n"


def test_mixvol_json_format(tmp_path, capsys):
    path = tmp_path / "tuple.json"
    path.write_text(
        json.dumps({"n": 3, "bodies": [{"widths": ["1", "1", "1"], "multiplicity": 3}]})
    )
    assert main(["mixvol", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 3, "mixed_volume": "1"}


def test_shephard_random_instances(capsys):
    assert main(["shephard", "--n", "4", "--m", "4", "--seed", "1", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "all minor signs consistent" in out


def test_shephard_file_instance(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps(
            {
                "n": 3,
                "bodies": [{"widths": ["1", "2", "3"]}, {"widths": ["2", "4", "6"]}],
                "c_bodies": [{"widths": ["1", "1", "1"]}],
            }
        )
    )
    assert main(["shephard", "--file", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["instances"][0]["det"] == "0"  # homothets


def test_hodge_primitive_reports_dimension(capsys):
    assert main(["hodge", "primitive", "--n", "4", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "primitive space dimension: 2 (expected 2)" in out


def test_hodge_primitive_exit_status_covers_the_form_values(capsys, monkeypatch):
    # hr_check, the one Hodge-Riemann verdict, reads the form from the one evaluator
    def negated(*args):
        value, image = _form_and_image(*args)
        return -value, image

    monkeypatch.setattr("boxcert.diffop._form_and_image", negated)
    assert main(["hodge", "primitive", "--n", "4", "--k", "2", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["dimension"] == data["expected_dimension"]
    assert not all(e["signed_value_nonneg"] for e in data["basis"])


@pytest.mark.parametrize(
    "n, k, negated",
    [
        # the signature (3, 3) is symmetric: only definiteness on the span catches it
        (4, 2, Inertia(3, 3, 0)),
        # the h-vector predicts (6, 4): the signature catches it too
        (5, 2, Inertia(4, 6, 0)),
    ],
)
def test_hodge_primitive_exit_status_covers_the_signature(capsys, monkeypatch, n, k, negated):
    monkeypatch.setattr(
        "boxcert.diffop.pairing_matrix",
        lambda n, k: RatMatrix([[-x for x in row] for row in pairing_matrix(n, k).entries]),
    )
    cube = unit_cube(n)
    basis = primitive_space_basis(k, cube, [cube] * (n - 2 * k))
    assert hr_signature(n, k, basis) == (negated, False)
    assert main(["hodge", "primitive", "--n", str(n), "--k", str(k), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["pairing_rank"] == data["expected_pairing_rank"] == comb(n, k)
    assert data["dimension"] == data["expected_dimension"]
    # the form's evaluator is untouched, so every element's own verdict still holds
    assert all(e["signed_value_nonneg"] for e in data["basis"])


def test_hodge_primitive_applies_each_basis_element_once(capsys, monkeypatch):
    # primitivity is D_L of the form's image, so no element is applied to q
    cube = unit_cube(6)
    basis = set(primitive_space_basis(3, cube, []))
    applied = Counter()

    def counting(a, p):
        if a in basis:
            applied[a] += 1
        return apply_op(a, p)

    monkeypatch.setattr("boxcert.diffop.apply_op", counting)
    assert main(["hodge", "primitive", "--n", "6", "--k", "3", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["basis"]) == len(basis) == 5
    assert applied == Counter(dict.fromkeys(basis, 1))


def test_hodge_primitive_checks_every_element_for_primitivity(capsys, monkeypatch):
    # D_cube^2 does not kill D_cube V, so it is not primitive: a fault, not a verdict
    monkeypatch.setattr(
        "boxcert.cli.primitive_space_basis",
        lambda k, cube, c_bodies: [*primitive_space_basis(k, cube, c_bodies), op_from_box(cube, k)],
    )
    with pytest.raises(ValueError, match="not primitive"):
        main(["hodge", "primitive", "--n", "4", "--k", "2", "--format", "json"])
    assert capsys.readouterr().out == ""


def test_hodge_primitive_bad_bounds(capsys):
    assert main(["hodge", "primitive", "--n", "3", "--k", "2"]) == 2


def test_search_deterministic_json(capsys):
    args = ["fedotov", "search", "--n", "4", "--k", "2", "--m", "3",
            "--trials", "5", "--seed", "9", "--format", "json"]
    assert main(args) in (0, 1)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "FAIL" not in out


def test_usage_error_on_bad_threads(capsys):
    assert main(["selftest", "--threads", "0"]) == 2


def test_usage_error_on_negative_trials(capsys):
    assert main(["shephard", "--n", "3", "--m", "2", "--trials", "-1"]) == 2
    assert capsys.readouterr().err == "usage error: --trials must be nonnegative\n"


@pytest.mark.slow
def test_subprocess_entry_point():
    result = run_cli("hodge", "primitive", "--n", "4", "--k", "2", "--format", "json")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["dimension"] == 2 and data["pairing_rank"] == 6


def test_max_core_size_flag_removed(capsys):
    # SUBSET_ENUMERATION_CAP is the one bound on the core, so no flag sets one
    with pytest.raises(SystemExit) as exc:
        main(["fedotov", "construct", "--n", "4", "--k", "2", "--max-core-size", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-core-size" in capsys.readouterr().err
    assert main(["fedotov", "construct", "--n", "4", "--k", "2"]) == 0


@pytest.mark.parametrize(
    "fmt, expected",
    [
        pytest.param("text", "all minor signs consistent\n", id="text"),
        pytest.param("json", '{\n  "ok": true,\n  "instances": []\n}\n', id="json"),
    ],
)
def test_shephard_zero_trials_runs_none(fmt, expected, capsys, monkeypatch):
    def no_build(*_):
        raise AssertionError("an instance was built for --trials 0")

    monkeypatch.setattr("boxcert.cli.build_matrix", no_build)
    argv = ["shephard", "--n", "3", "--m", "2", "--trials", "0", "--format", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_output_writes_report(tmp_path, fmt, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(certificate_to_json(construct_counterexample_k2(4)))
    assert main(["fedotov", "verify", str(cert), "--format", fmt]) == 0
    printed = capsys.readouterr().out
    report = tmp_path / "report.txt"
    argv = ["fedotov", "verify", str(cert), "--format", fmt, "--output", str(report)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert report.read_bytes() == printed.encode("utf-8")


def test_dimension_bound_checked_before_work(tmp_path, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("work started past the dimension bound")

    for target in (
        "boxcert.cli.primitive_space_basis",
        "boxcert.cli.random_instance",
        "boxcert.cli.build_matrix",
        "boxcert.fedotov.primitive_space_basis",
        "boxcert.fedotov.pipeline_base_k2",
        "boxcert.fedotov.build_matrix",
    ):
        monkeypatch.setattr(target, refuse)
    instance = tmp_path / "instance.json"
    cube = {"widths": ["1"] * 13}
    instance.write_text(json.dumps({"n": 13, "bodies": [cube], "c_bodies": [cube] * 11}))
    for argv in (
        ["fedotov", "construct", "--n", "16", "--k", "2"],
        ["fedotov", "search", "--n", "13", "--k", "2", "--m", "3"],
        ["hodge", "primitive", "--n", "16", "--k", "8"],
        ["shephard", "--n", "2400", "--m", "2"],
        ["shephard", "--file", str(instance)],
    ):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("exceeds the supported envelope n <= 12") == 5


@pytest.fixture(scope="module")
def cert_n4_data():
    return json.loads(certificate_to_json(construct_counterexample_k2(4)))


def _verify_data(tmp_path, data, *flags):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    return main(["fedotov", "verify", str(path), *flags])


@pytest.mark.parametrize(
    "field, value",
    [
        ("bodies", 5),
        ("matrix", None),
        ("version", [1]),
        ("subset", "0123"),
        ("bodies", ["1212", ["1", "2", "2", "1"]]),
        ("subset", [6.25, 7.25, 8.25, 9.25]),
        ("n", "4"),
        ("k", True),
        ("labels", [0.5] + list(range(1, 13))),
        ("matrix", [["1/0"]]),
        ("bodies", [["1/0", "1", "1", "1"]]),
        ("subset_det", "1/0"),
        ("x", ["1/0"]),
        ("pair_xx", "1/0"),
        ("matrix", [["1e400"]]),
        ("bodies", [["1e400", "1", "1", "1"]]),
        ("m", 1.5),
        ("m", 12),
        ("kind", -1),
    ],
    ids=[
        "bodies-int", "matrix-null", "version-list", "subset-string", "bodies-row",
        "subset-float", "n-string", "k-bool", "label-float", "entry-zero-denominator",
        "width-zero-denominator", "subset-det-zero-denominator", "x-zero-denominator",
        "pair-xx-zero-denominator", "entry-exponent", "width-exponent", "m-float",
        "m-count", "kind-int",
    ],
)
def test_verify_malformed_field_exits_1(tmp_path, capsys, cert_n4_data, field, value):
    data = dict(cert_n4_data, **{field: value})
    assert _verify_data(tmp_path, data) == 1
    assert capsys.readouterr().out.startswith("certificate INVALID: malformed: ")
    assert _verify_data(tmp_path, data, "--format", "json") == 1
    result = json.loads(capsys.readouterr().out)
    assert result["ok"] is False and result["reason"].startswith("malformed certificate: ")


@pytest.mark.parametrize("field", ["x", "subset_det"])
def test_verify_rejects_json_float(tmp_path, capsys, cert_n4_data, field):
    data = json.loads(json.dumps(cert_n4_data))
    if field == "x":
        data["x"][0] = float(data["x"][0].split("/")[0])
    else:
        data["subset_det"] = -1381.4
    assert _verify_data(tmp_path, data) == 1
    out = capsys.readouterr().out
    assert out.startswith("certificate INVALID: malformed: ") and "float" in out


@pytest.mark.parametrize("stored, shown", [("1", "1"), (None, "None")])
def test_verify_reports_the_stored_pairing(tmp_path, capsys, cert_n4_data, stored, shown):
    # the recomputed <x,My> is 0, so the reason names the stored value
    assert _verify_data(tmp_path, dict(cert_n4_data, pair_xy=stored)) == 1
    assert capsys.readouterr().out == f"certificate INVALID: stored <x,My> is {shown}, expected 0\n"


@pytest.mark.parametrize(
    "pairs", [{"pair_xy": "5", "pair_xx": "-3"}, {"pair_xy": "0"}, {"pair_xx": "1"}]
)
def test_verify_rejects_stored_pairings_without_a_witness(tmp_path, capsys, pairs):
    cert, _ = random_search(4, 2, 4, 100, seed=7)
    data = json.loads(certificate_to_json(cert))
    assert data["x"] == data["y"] == [] and _verify_data(tmp_path, data) == 0
    capsys.readouterr()
    assert _verify_data(tmp_path, dict(data, **pairs)) == 1
    reason = "stored pairings without a witness must be null"
    assert capsys.readouterr().out == f"certificate INVALID: {reason}\n"


def test_verify_dimension_beyond_envelope_exits_1(tmp_path, capsys):
    n = 14
    cube = ["1"] * n
    data = {
        "version": 1, "kind": "minor-sign-violation", "n": n, "k": 2, "m": 1,
        "labels": [0], "bodies": [cube], "c_bodies": [cube] * (n - 4),
        "x": [], "y": [], "pair_xy": None, "pair_xx": None,
        "matrix": [["1"]], "subset": [0], "subset_det": "1", "trace": {},
    }
    assert _verify_data(tmp_path, data) == 1
    out = capsys.readouterr().out
    assert out.startswith("certificate INVALID: dimension 14 exceeds")


def test_mixvol_rejects_json_float(tmp_path, capsys):
    path = tmp_path / "tuple.json"
    path.write_text(
        json.dumps({"n": 2, "bodies": [{"widths": [0.5, "2"]}, {"widths": ["3", "1"]}]})
    )
    assert main(["mixvol", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "float" in captured.err


GOOD_BODY = {"widths": ["3", "1"]}


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "bodies": [body, GOOD_BODY]}
        for body in (
            {"widths": "12"},
            {"widths": ["1", "2"], "offset": [0.5, "0"]},
            {"widths": ["1", "2"], "offset": ["0"]},
            {"widths": ["1", "2"], "offset": ["0", "0", "0"]},
            {"widths": ["1", "2"], "offset": "00"},
            {"widths": ["1", "2"], "multiplicity": 1.5},
            {"width": ["1", "2"]},
            ["1", "2"],
            {"widths": ["1/0", "2"]},
            {"widths": ["1e400", "2"]},
            {"widths": ["1E-2", "2"]},
        )
    ]
    + [
        {"n": 2.0, "bodies": [GOOD_BODY, GOOD_BODY]},
        {"bodies": [GOOD_BODY, GOOD_BODY]},
        [GOOD_BODY, GOOD_BODY],
    ],
    ids=[
        "widths-string", "offset-float", "offset-short", "offset-long", "offset-string",
        "multiplicity-float", "no-widths", "body-list", "width-zero-denominator",
        "width-exponent", "width-negative-exponent", "n-float", "no-n", "file-list",
    ],
)
def test_mixvol_rejects_malformed_body(tmp_path, capsys, data):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(data))
    assert main(["mixvol", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: ")


def test_input_offset_is_checked_then_ignored(tmp_path, capsys):
    path = tmp_path / "tuple.json"
    bodies = [{"widths": ["1", "2"], "offset": ["-5/2", "7"]}, {"widths": ["3", "1"]}]
    path.write_text(json.dumps({"n": 2, "bodies": bodies}))
    assert main(["mixvol", str(path)]) == 0
    assert capsys.readouterr().out == "mixed volume = 7/2\n"
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"n": 2, "bodies": bodies, "c_bodies": []}))
    assert main(["shephard", "--file", str(instance)]) == 0
    assert "all minor signs consistent" in capsys.readouterr().out



def test_shephard_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "instance.json"
    for bodies in ([["1", "2"]], [{"widths": ["1", "2/0"]}]):
        path.write_text(json.dumps({"n": 2, "bodies": bodies, "c_bodies": []}))
        assert main(["shephard", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")


def test_shephard_bound_checked_before_build(tmp_path, capsys, monkeypatch):
    def no_build(*_):
        raise AssertionError("build_matrix ran past the enumeration cap")

    monkeypatch.setattr("boxcert.cli.build_matrix", no_build)
    assert main(["shephard", "--n", "3", "--m", "23"]) == 2
    path = tmp_path / "instance.json"
    bodies = [{"widths": [str(i), "1", "2"]} for i in range(1, 24)]
    c_bodies = [{"widths": ["1", "1", "1"]}]
    path.write_text(json.dumps({"n": 3, "bodies": bodies, "c_bodies": c_bodies}))
    assert main(["shephard", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("exceeds the exhaustive minor") == 2


def test_mixvol_accepts_non_canonical_rationals(tmp_path, capsys):
    # certificates and input files written by earlier versions may hold these
    path = tmp_path / "tuple.json"
    bodies = [{"widths": ["2/4", " 1.5 "]}, {"widths": ["+3", "1"]}]
    path.write_text(json.dumps({"n": 2, "bodies": bodies}))
    assert main(["mixvol", str(path)]) == 0
    assert capsys.readouterr().out == "mixed volume = 5/2\n"


def _usage_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and message in captured.err


def test_search_minor_cap_checked_before_work(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("work started past the enumeration cap")

    monkeypatch.setattr("boxcert.cli.random_search", refuse)
    argv = ["fedotov", "search", "--n", "4", "--k", "2", "--m", "23"]
    _usage_error(capsys, argv, "m = 23 exceeds the exhaustive minor enumeration cap 22")


@pytest.mark.parametrize(
    "bodies, c_bodies, message",
    [
        ([], [], "need at least 1 body and 0 c_bodies, got 0 and 0"),
        ([GOOD_BODY], [GOOD_BODY], "need at least 1 body and 0 c_bodies, got 1 and 1"),
    ],
    ids=["no-bodies", "c-bodies-count"],
)
def test_shephard_file_shape_checked_before_work(
    tmp_path, capsys, monkeypatch, bodies, c_bodies, message
):
    def refuse(*_):
        raise AssertionError("build_matrix ran on a malformed instance")

    monkeypatch.setattr("boxcert.cli.build_matrix", refuse)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"n": 2, "bodies": bodies, "c_bodies": c_bodies}))
    _usage_error(capsys, ["shephard", "--file", str(path)], message)


def test_mixvol_multiplicity_sum_checked_before_work(tmp_path, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("a mixed volume was evaluated")

    monkeypatch.setattr("boxcert.cli.mixed_volume", refuse)
    path = tmp_path / "tuple.json"
    bodies = [{"widths": ["1", "2"], "multiplicity": 2}, GOOD_BODY]
    path.write_text(json.dumps({"n": 2, "bodies": bodies}))
    _usage_error(capsys, ["mixvol", str(path)], "multiplicities sum to 3, expected 2")


def test_mixvol_rejects_zero_dimension(tmp_path, capsys):
    # an empty tuple sums to n = 0; it is a malformed file, not an engine fault
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"n": 0, "bodies": []}))
    _usage_error(capsys, ["mixvol", str(path)], "dimension must be at least 1, got 0")


def test_value_error_inside_computation_is_not_a_usage_error(monkeypatch):
    def fault(*_):
        raise ValueError("internal fault")

    monkeypatch.setattr("boxcert.cli.construct_counterexample", fault)
    with pytest.raises(ValueError, match="internal fault"):
        main(["fedotov", "construct", "--n", "4", "--k", "2"])


DEEPLY_NESTED = "[" * 100_000


def test_verify_deeply_nested_json_is_malformed(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(DEEPLY_NESTED)
    assert main(["fedotov", "verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("certificate INVALID: malformed: ")
    assert main(["fedotov", "verify", str(path), "--format", "json"]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["ok"] is False and result["reason"].startswith("malformed certificate: ")


@pytest.mark.parametrize("command", [["mixvol"], ["shephard", "--file"]])
def test_deeply_nested_input_file_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_text(DEEPLY_NESTED)
    _usage_error(capsys, [*command, str(path)], "is not valid JSON")


def test_unwritable_output_checked_before_work(tmp_path, capsys, monkeypatch):
    def refuse(*_, **__):
        raise AssertionError("work started before --output was checked")

    for target in (
        "boxcert.cli.run_all",
        "boxcert.cli.construct_counterexample",
        "boxcert.cli.random_search",
        "boxcert.cli.load_certificate",
        "boxcert.cli._load_json",
        "boxcert.cli.random_instance",
        "boxcert.cli.primitive_space_basis",
    ):
        monkeypatch.setattr(target, refuse)
    commands = (
        ["selftest"],
        ["fedotov", "construct", "--n", "4", "--k", "2"],
        ["fedotov", "search", "--n", "4", "--k", "2", "--m", "3"],
        ["fedotov", "verify", str(tmp_path / "cert.json")],
        ["mixvol", str(tmp_path / "tuple.json")],
        ["shephard", "--n", "4", "--m", "3"],
        ["hodge", "primitive", "--n", "4", "--k", "2"],
    )
    for output in (tmp_path / "no-such-dir" / "x.txt", tmp_path):
        for argv in commands:
            assert main([*argv, "--output", str(output)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage error: cannot write ") == 2 * len(commands)
    assert list(tmp_path.iterdir()) == []


def test_output_check_leaves_no_file_behind(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["fedotov", "construct", "--n", "16", "--k", "2", "--output", str(path)]) == 2
    assert not path.exists()
    path.write_text("kept")
    assert main(["fedotov", "construct", "--n", "16", "--k", "2", "--output", str(path)]) == 2
    assert path.read_text() == "kept"
