"""Golden stdout digests: CLI output must not drift between revisions.

Criterion 10 checks that output is deterministic within one revision. These
digests pin it across revisions: a change that alters any byte of these
commands' stdout fails here and has to say why the output moved.
"""

import hashlib

import pytest

from boxcert.cli import main

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
    "shephard-5-5": (
        ["shephard", "--n", "5", "--m", "5", "--seed", "1", "--trials", "3"],
        "3af477df9ec9b050f39af1bc5ccffffd32cbbf343ea65c22391af726a7a4ccd1",
    ),
    "shephard-5-5-json": (
        ["shephard", "--n", "5", "--m", "5", "--seed", "1", "--trials", "3",
         "--format", "json"],
        "54ce7f296dd417126d0bef931bbaf92b3560c5c5aa0a3894525ffbbb08906e0c",
    ),
    "hodge-primitive-4-2": (
        ["hodge", "primitive", "--n", "4", "--k", "2"],
        "79c8cca078c8facae1478c1a6903e261549c36b07b669bec41c81374455acc58",
    ),
    "hodge-primitive-6-3-json": (
        ["hodge", "primitive", "--n", "6", "--k", "3", "--format", "json"],
        "2aa074289802ff9576504b36039464539735ed6bcb540f8e00527129f64157aa",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
