"""The place degree bounds of the CLI, `splitting --max-degree N` and
`isom --bound N`, take N >= 1; anything else is refused by the parser with
exit code 2 and nothing on stdout."""
import json

import pytest

from cubicext.cli import main

SPLITTING = ["splitting", "--field", "5", "X^3-x"]
ISOM = ["isom", "--field", "5", "X^3-3*X-x", "X^3-3*X-x-1"]


def refused(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    return captured.err


@pytest.mark.parametrize("n", ["-3", "0"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_max_degree_below_one_exits_2(capsys, n, json_flag):
    err = refused(capsys, SPLITTING[:1] + json_flag + ["--max-degree", n] + SPLITTING[1:])
    assert f"argument --max-degree: N must be at least 1, got {int(n)}" in err


@pytest.mark.parametrize("n", ["-2", "-1", "0"])
def test_bound_below_one_exits_2(capsys, n):
    err = refused(capsys, ISOM[:1] + ["--bound", n] + ISOM[1:])
    assert f"argument --bound: N must be at least 1, got {int(n)}" in err


@pytest.mark.parametrize("flag,argv", [("--max-degree", SPLITTING), ("--bound", ISOM)])
def test_a_bound_that_is_not_an_integer_exits_2(capsys, flag, argv):
    err = refused(capsys, argv[:1] + [flag, "two"] + argv[1:])
    assert f"argument {flag}: invalid int value: 'two'" in err


def test_max_degree_one_lists_only_places_of_degree_one(capsys):
    assert main(SPLITTING[:1] + ["--json", "--max-degree", "1"] + SPLITTING[1:]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["places"]
    assert len(rows) == 6  # infinity and x - c for the five c in GF(5)
    assert {row["degree"] for row in rows} == {1}


def test_bound_one_is_accepted(capsys):
    assert main(ISOM[:1] + ["--json", "--bound", "1"] + ISOM[1:]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["isomorphic"] is False
