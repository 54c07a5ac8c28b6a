"""Golden stdout digests: CLI output must not drift between revisions.

Criterion 10 checks that output is deterministic within one revision. These
digests pin it across revisions: a change that alters any byte of these
commands' stdout fails here and has to say why the output moved.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from boxcert.cli import main
from boxcert.fedotov import certificate_to_json, construct_counterexample

# input files written once per module; "{cert_6_3}", "{cert_12_4}", "{tuple}",
# "{shephard}", "{shephard_5}" and "{shephard_5_point}" in an argv name them
MIXVOL_TUPLE = {
    "n": 6,
    "bodies": [
        {"widths": ["1", "2", "3/2", "1", "5", "2/3"], "multiplicity": 3},
        {"widths": ["2", "1/2", "1", "4", "1", "3"], "multiplicity": 2},
        {"widths": ["1", "1", "7/3", "2", "1/5", "1"]},
    ],
}


def shephard_instance() -> dict:
    """A fixed k = 1 instance: n = 12, m = 13 bodies, widths p/q, p <= 16, q <= 4."""
    rng = random.Random("golden:shephard")

    def body() -> dict:
        return {"widths": [str(Fraction(rng.randint(1, 16), rng.randint(1, 4))) for _ in range(12)]}

    bodies = [body() for _ in range(13)]
    return {"n": 12, "bodies": bodies, "c_bodies": [body() for _ in range(10)]}


def small_shephard_instance(point: bool) -> dict:
    """A fixed n = 5 instance of four bodies, and with ``point`` a fifth,
    the point body, second: a zero row, so M is singular."""
    widths = [["1", "2", "3", "1", "2"], ["0", "1", "2", "3", "1"],
              ["2", "1", "1", "3", "1"], ["1", "1", "1", "1", "1"]]
    if point:
        widths.insert(1, ["0"] * 5)
    c_bodies = [["1", "2", "1", "1", "3"], ["2", "1", "1", "2", "1"], ["1", "1", "3", "1", "1"]]
    return {
        "n": 5,
        "bodies": [{"widths": w} for w in widths],
        "c_bodies": [{"widths": w} for w in c_bodies],
    }


GOLDEN = {
    "construct-4-2-json": (
        ["fedotov", "construct", "--n", "4", "--k", "2", "--format", "json"],
        "f4047e561eb80147349896ea3738fbfeed663fe3a4b9fb3da0f5116e19e99835",
    ),
    "construct-6-3-json": (
        ["fedotov", "construct", "--n", "6", "--k", "3", "--format", "json"],
        "0576ff0b9a43e59b84587228e5171c55f42b37314482b193f538416c51064376",
    ),
    # the pipeline benchmark's certificate: 681,439 bytes
    "construct-8-4-json": (
        ["fedotov", "construct", "--n", "8", "--k", "4", "--format", "json"],
        "e13805d897eaa6c2e9662018e67c40d13bc8f3ef39e566f160d986b95b94b17d",
    ),
    "construct-10-5-json": (
        ["fedotov", "construct", "--n", "10", "--k", "5", "--format", "json"],
        "5cbff8694be4ef6dcc4578b50e968e86dc624ce05f6eeba4c0ed3541aa05de13",
    ),
    # the 12-dimensional k = 2 base: the contractions of its primitive space
    "construct-12-4-json": (
        ["fedotov", "construct", "--n", "12", "--k", "4", "--format", "json"],
        "e5052d04673bd14aa40a4002f1d57f67f1dab67b6c82bd6cbaaa0ebe32cdc424",
    ),
    # the largest lifted certificate: 819 bodies, 14.2 MB
    "construct-12-6-json": (
        ["fedotov", "construct", "--n", "12", "--k", "6", "--format", "json"],
        "9f8e57742762fe33b16afa495e7a0a5ecea67c34f914491e6db61d64b74b85cb",
    ),
    "verify-6-3": (
        ["fedotov", "verify", "{cert_6_3}"],
        "7e5deecda7d12bc3d2cc0e3bb8ee64f9412dfad9ad77c692abf757c9887f8450",
    ),
    "verify-6-3-json": (
        ["fedotov", "verify", "{cert_6_3}", "--format", "json"],
        "de18f6aebf5d3f369d2fe4470e0c4400e58b293fa242d60ce15c74d3bebb3aa6",
    ),
    # the auxiliary-body path: four cube C bodies, so the DP's states carry a tail
    "verify-12-4": (
        ["fedotov", "verify", "{cert_12_4}"],
        "6d9c79cdb5b436150bbf8a375d3941427fb925d1a069bcf9b0bbe0d51bffbdd7",
    ),
    "verify-12-4-json": (
        ["fedotov", "verify", "{cert_12_4}", "--format", "json"],
        "de18f6aebf5d3f369d2fe4470e0c4400e58b293fa242d60ce15c74d3bebb3aa6",
    ),
    "mixvol-multiplicities": (
        ["mixvol", "{tuple}"],
        "3e3b653ae8ab96124f14bddb1954d6e55c3c9f9d7c700d8ad3db4023e799d351",
    ),
    "mixvol-multiplicities-json": (
        ["mixvol", "{tuple}", "--format", "json"],
        "497b819cfd23065e790d8ea6ec2918e889e082e181a2ab8e70f471959c921e8e",
    ),
    "search-4-2-m4-json": (
        ["fedotov", "search", "--n", "4", "--k", "2", "--m", "4",
         "--trials", "100", "--seed", "7", "--format", "json"],
        "245355f7c7642fba1685d39832a39fa59d210078843786bc98af47efb5cb81d7",
    ),
    "search-4-2-m4": (
        ["fedotov", "search", "--n", "4", "--k", "2", "--m", "4",
         "--trials", "100", "--seed", "7"],
        "2d462ea1e1e42c828a8b18c8688924ff9077ae3727abb4a5e7c527e9e7e8198f",
    ),
    # a k = 2 violation found and verified at trial 0, on 12 bodies with 8 distinct C bodies
    "search-12-2-m12-json": (
        ["fedotov", "search", "--n", "12", "--k", "2", "--m", "12",
         "--trials", "3", "--seed", "1", "--format", "json"],
        "d054ef2f085ff1ba611c51ab77b75fdd5c74bc4151d73333d147e873f55ef93f",
    ),
    # the first violation has 4 indices, [0, 3, 5, 13], past the triple cores;
    # the JSON reports the verdict only, so it reads as search-12-2-m12-json
    # does, and the text form pins the subset and its det
    "search-8-2-m22-json": (
        ["fedotov", "search", "--n", "8", "--k", "2", "--m", "22",
         "--trials", "20", "--seed", "3", "--format", "json"],
        "d054ef2f085ff1ba611c51ab77b75fdd5c74bc4151d73333d147e873f55ef93f",
    ),
    "search-8-2-m22": (
        ["fedotov", "search", "--n", "8", "--k", "2", "--m", "22",
         "--trials", "20", "--seed", "3"],
        "91881de36ed61c1550d57db115dfbc19490d02b0b9519ce09450c9093a635dfe",
    ),
    # the first violation has 6 indices, [0, 1, 4, 8, 9, 13]
    "search-12-2-m22": (
        ["fedotov", "search", "--n", "12", "--k", "2", "--m", "22",
         "--trials", "10", "--seed", "3"],
        "b7cf619ddc594223fa3ee4a0db20f51e4a17282dde3b86d3d2d5945e12b5f429",
    ),
    "shephard-5-5": (
        ["shephard", "--n", "5", "--m", "5", "--seed", "1", "--trials", "3"],
        "3af477df9ec9b050f39af1bc5ccffffd32cbbf343ea65c22391af726a7a4ccd1",
    ),
    "shephard-5-5-json": (
        ["shephard", "--n", "5", "--m", "5", "--seed", "1", "--trials", "3",
         "--format", "json"],
        "54ce7f296dd417126d0bef931bbaf92b3560c5c5aa0a3894525ffbbb08906e0c",
    ),
    # 8,191 minors on a 12-dimensional instance with 13 distinct bodies
    "shephard-file-12-13": (
        ["shephard", "--file", "{shephard}"],
        "e993d8325ebea08f507f25c1845661aab6113ba603c728da289b2e53e84df389",
    ),
    "shephard-file-12-13-json": (
        ["shephard", "--file", "{shephard}", "--format", "json"],
        "d0690380f0ed44bccd2c932370ed8f3bfa01c108ef049a918e6609873e769b53",
    ),
    # a nonsingular M: det -9669/160000 is its last symmetric pivot over D^4
    "shephard-file-5-4-json": (
        ["shephard", "--file", "{shephard_5}", "--format", "json"],
        "e9b2c2f19727f3dff40d4a17c670a528c6e5c509d0758ccb852eac7ee4bcf4e1",
    ),
    # the same bodies and a point body: M has a zero row, so its rank is
    # below m and det M = 0
    "shephard-file-5-5-point-json": (
        ["shephard", "--file", "{shephard_5_point}", "--format", "json"],
        "0ab28ea48d61e48fe93a201086a37e07e4edbae7f13783cc54fd44428a9782b9",
    ),
    # 65,535 minors; the 26,332 above size n = 8 vanish, since the rank is at most n
    "shephard-8-16": (
        ["shephard", "--n", "8", "--m", "16", "--seed", "1"],
        "dbd88557bd61609ab3cc1186e95f01e8477f6cb0c2db66175aa1faaa79ad13ab",
    ),
    # the same 65,535 minors as JSON; det M = 0, since m = 16 exceeds the rank 8
    "shephard-8-16-json": (
        ["shephard", "--n", "8", "--m", "16", "--seed", "1", "--format", "json"],
        "4921c1914199556b4dd48356419d9ec16507a11a8e1ff143d0c07eac336f2fc0",
    ),
    # 16,383 minors of a k = 1 matrix with 10 distinct C bodies
    "shephard-12-14-json": (
        ["shephard", "--n", "12", "--m", "14", "--seed", "1", "--format", "json"],
        "ab22f9d7dfd5ba6e464f681e6f7cf0c067312a9d0b523902442baf41adf345b8",
    ),
    # k = 1: the primitive space of degree 1, a 1 x 5 nullspace
    "hodge-primitive-5-1-json": (
        ["hodge", "primitive", "--n", "5", "--k", "1", "--format", "json"],
        "065aae15ccd08285e6e912684a42a6aaed59ffb7e15ab4738e9da2bee9af7522",
    ),
    "hodge-primitive-4-2": (
        ["hodge", "primitive", "--n", "4", "--k", "2"],
        "79c8cca078c8facae1478c1a6903e261549c36b07b669bec41c81374455acc58",
    ),
    "hodge-primitive-6-3-json": (
        ["hodge", "primitive", "--n", "6", "--k", "3", "--format", "json"],
        "2aa074289802ff9576504b36039464539735ed6bcb540f8e00527129f64157aa",
    ),
    # n - 2k >= 2: the form's eigenvalue on the primitive span is 6, then -2
    "hodge-primitive-7-2-json": (
        ["hodge", "primitive", "--n", "7", "--k", "2", "--format", "json"],
        "c8e66a4f504c02a86bd368f278717919029dc3918d5ac07b2ff57adb060b73ea",
    ),
    "hodge-primitive-8-3-json": (
        ["hodge", "primitive", "--n", "8", "--k", "3", "--format", "json"],
        "882fdab3de7dc7cb30aee4eaebc9d4689a8a9ee13aa1c76b3e51d8707a78b36e",
    ),
    "hodge-primitive-8-4-json": (
        ["hodge", "primitive", "--n", "8", "--k", "4", "--format", "json"],
        "ecd8ff3452c334c4c3595626dc4a9a9a626d4f9bd4571ad8b5f4af0276cc873d",
    ),
    # a 36 x 84 Fraction nullspace, 48 primitive elements
    "hodge-primitive-9-3-json": (
        ["hodge", "primitive", "--n", "9", "--k", "3", "--format", "json"],
        "430b1a8b615ac0059d7d586f2b9e0fb348e4f864987eaa1528e8548ffdd72fdb",
    ),
    # 42 primitive elements; its basis comes from the Fraction nullspace
    "hodge-primitive-9-4-json": (
        ["hodge", "primitive", "--n", "9", "--k", "4", "--format", "json"],
        "84cb38a163d6141d452e91a239f5dfe8568e9b28e2b290f9b7a4097f27b04ea6",
    ),
    # the first n = 10 pin: a 45 x 120 Fraction nullspace, 75 primitive elements
    "hodge-primitive-10-3-json": (
        ["hodge", "primitive", "--n", "10", "--k", "3", "--format", "json"],
        "b90eb827c0689af39e672945885bb05daaa71440e4a4db1854120d3002abfb97",
    ),
    # the largest pin: a 210 x 252 Fraction nullspace, 42 primitive elements
    "hodge-primitive-10-5-json": (
        ["hodge", "primitive", "--n", "10", "--k", "5", "--format", "json"],
        "2d7e2c346d859f3225cb158288076e179bf93ddff370ef300fc87f8efc8d4f65",
    ),
    "selftest": (
        ["selftest"],
        "0bf2abae02732f4268ff519215290171a1f5c7b759155daa40efdb1658452963",
    ),
    "selftest-json": (
        ["selftest", "--format", "json"],
        "19efc2a4543975df2bf475a05312b8b414049771d9ce2133bf106b0ad444bca6",
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, cert_12_4):
    root = tmp_path_factory.mktemp("golden")
    cert, tuple_file = root / "cert-6-3.json", root / "tuple.json"
    cert12, shephard = root / "cert-12-4.json", root / "shephard-12-13.json"
    cert.write_text(certificate_to_json(construct_counterexample(6, 3)), encoding="utf-8")
    cert12.write_text(certificate_to_json(cert_12_4), encoding="utf-8")
    tuple_file.write_text(json.dumps(MIXVOL_TUPLE), encoding="utf-8")
    shephard.write_text(json.dumps(shephard_instance()), encoding="utf-8")
    small = {"shephard_5": root / "shephard-5-4.json", "shephard_5_point": root / "shephard-5-5.json"}
    for path, point in zip(small.values(), (False, True)):
        path.write_text(json.dumps(small_shephard_instance(point)), encoding="utf-8")
    return {
        "cert_6_3": str(cert),
        "cert_12_4": str(cert12),
        "tuple": str(tuple_file),
        "shephard": str(shephard),
        **{name: str(path) for name, path in small.items()},
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(name, capsys, inputs):
    argv, digest = GOLDEN[name]
    assert main([arg.format(**inputs) for arg in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
