"""Mutation fuzzing of the command-line input files.

The verifier is total: whatever a certificate file holds, ``fedotov
verify`` (on the (4,2) certificate) exits 0 or 1 with a one-line text
report or a JSON report, never a traceback. A mutation of a claim field to
a different rational, or a zero y, is rejected, and so is any stored
pairing on a direct certificate (``fedotov search``), which has no witness.
``mixvol`` and ``shephard --file`` never end in a traceback either: a bad
input file exits 2 with a usage error and nothing on stdout, and a good one
exits 0 or 1 with a report. The examples are derandomized, so every run
checks the same ones.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcert.cli import main
from boxcert.fedotov import certificate_to_json, construct_counterexample_k2, random_search

FUZZ = settings(max_examples=120, deadline=None, database=None, derandomize=True)

DEEP = "\x00deep\x00"  # spliced into the file as JSON nested far too deep to parse

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**63]),
    st.floats(),
    st.sampled_from(["1/0", "1e400", "2/4", "0", "-1", "", "1/2/3", DEEP]),
    st.text(max_size=6),
)

VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@cache
def _certificate_text() -> str:
    return certificate_to_json(construct_counterexample_k2(4))


def _paths(value, path=()):
    """Every path to a value inside ``value``, as tuples of keys and indices."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


PATHS = list(_paths(json.loads(_certificate_text())))


def _verify(tmp_path, data, fmt: str) -> tuple[int, str]:
    path = tmp_path / f"cert-{fmt}.json"
    text = json.dumps(data)
    path.write_text(text.replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000))
    out = io.StringIO()
    with redirect_stdout(out):
        status = main(["fedotov", "verify", str(path), "--format", fmt])
    return status, out.getvalue()


def _check_both_formats(tmp_path, data) -> int:
    """The exit status, after checking that text and JSON reports agree with it."""
    status, text = _verify(tmp_path, data, "text")
    assert status in (0, 1)
    assert text.count("\n") == 1
    assert text.startswith("certificate OK" if status == 0 else "certificate INVALID: ")
    json_status, report = _verify(tmp_path, data, "json")
    assert json_status == status
    report = json.loads(report)
    assert report["ok"] is (status == 0) and isinstance(report["reason"], str)
    return status


@FUZZ
@given(path=st.sampled_from(PATHS), delete=st.booleans(), value=VALUES)
def test_verify_is_total_under_one_mutation(tmp_path_factory, path, delete, value):
    data = json.loads(_certificate_text())
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    _check_both_formats(tmp_path_factory.mktemp("fuzz"), data)


def _claim_targets():
    data = json.loads(_certificate_text())
    m = data["m"]
    yield from (("matrix", i, j) for i in range(m) for j in range(m))
    yield from (("x", i) for i in range(m))
    yield from (("subset_det",), ("pair_xy",), ("pair_xx",))


@FUZZ
@given(
    target=st.sampled_from(list(_claim_targets())),
    num=st.integers(-(10**30), 10**30),
    den=st.integers(1, 10**6),
)
def test_verify_rejects_a_changed_claim(tmp_path_factory, target, num, den):
    data = json.loads(_certificate_text())
    parent = data
    for key in target[:-1]:
        parent = parent[key]
    if Fraction(num, den) == Fraction(parent[target[-1]]):
        num += den
    parent[target[-1]] = f"{num}/{den}"
    assert _check_both_formats(tmp_path_factory.mktemp("claim"), data) == 1


def test_verify_rejects_a_zero_y(tmp_path):
    data = json.loads(_certificate_text())
    data["y"] = ["0"] * data["m"]
    assert _check_both_formats(tmp_path, data) == 1
    _, report = _verify(tmp_path, data, "json")
    assert json.loads(report)["reason"] == "quadratic form <y,My> is not strictly positive"


@cache
def _direct_certificate_text() -> str:
    return certificate_to_json(random_search(4, 2, 4, 100, seed=7)[0])


@settings(FUZZ, max_examples=40)
@given(
    field=st.sampled_from(["pair_xy", "pair_xx"]),
    delete=st.booleans(),
    value=VALUES | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
)
@example(field="pair_xy", delete=False, value="0")
def test_verify_rejects_pairings_on_a_direct_certificate(tmp_path_factory, field, delete, value):
    # x = y = [], so both stored pairings must be null
    data = json.loads(_direct_certificate_text())
    assert data["x"] == data["y"] == []
    if delete:
        del data[field]
    else:
        data[field] = value
    status = _check_both_formats(tmp_path_factory.mktemp("direct"), data)
    assert status == (0 if value is None and not delete else 1)


# input files hold widths and counts: most draws here keep a file valid
INPUT_VALUES = st.one_of(
    VALUES,
    st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 6)),
    st.integers(-1, 4),
)


def _mutated(base):
    """``base`` with one value anywhere in it replaced or deleted."""
    paths = list(_paths(base))

    @st.composite
    def mutation(draw):
        data = json.loads(json.dumps(base))
        path = draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(INPUT_VALUES)
        return data

    return mutation()


def _run_on_file(tmp_path, argv, data, fmt: str) -> tuple[int, str, str]:
    path = tmp_path / f"input-{fmt}.json"
    path.write_text(json.dumps(data).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main([*argv, str(path), "--format", fmt])
    return status, out.getvalue(), err.getvalue()


def _check_input_file(tmp_path, argv, data) -> int:
    """The exit status of both formats, checked to be a report or a usage error."""
    statuses = set()
    for fmt in ("text", "json"):
        status, out, err = _run_on_file(tmp_path, argv, data, fmt)
        statuses.add(status)
        if status == 2:
            assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1
        else:
            assert status in (0, 1) and out and err == ""
            if fmt == "json":
                json.loads(out)
    assert len(statuses) == 1
    return statuses.pop()


MIXVOL_FILE = {
    "n": 3,
    "bodies": [
        {"widths": ["1", "2", "3/2"], "multiplicity": 2},
        {"widths": ["1/2", "1", "4"], "offset": ["0", "1", "-1"]},
    ],
}

SHEPHARD_FILE = {
    "n": 3,
    "bodies": [
        {"widths": ["1", "2", "3/2"]},
        {"widths": ["1/2", "1", "4"], "offset": ["0", "1", "-1"]},
        {"widths": ["2", "1/3", "1"]},
    ],
    "c_bodies": [{"widths": ["1", "1", "2"]}],
}


def test_unmutated_input_files_run(tmp_path):
    assert _check_input_file(tmp_path, ["mixvol"], MIXVOL_FILE) == 0
    assert _check_input_file(tmp_path, ["shephard", "--file"], SHEPHARD_FILE) == 0


@FUZZ
@given(data=_mutated(MIXVOL_FILE))
@example(data={"n": 0, "bodies": []})
def test_mixvol_is_total_under_one_mutation(tmp_path_factory, data):
    _check_input_file(tmp_path_factory.mktemp("mixvol"), ["mixvol"], data)


@FUZZ
@given(data=_mutated(SHEPHARD_FILE))
def test_shephard_file_is_total_under_one_mutation(tmp_path_factory, data):
    _check_input_file(tmp_path_factory.mktemp("shephard"), ["shephard", "--file"], data)
