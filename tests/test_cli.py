import json
import time

import pytest

from cubicext.cli import (
    eval_ast,
    main,
    parse_ast,
    parse_cubic,
    parse_element,
    parse_field_spec,
    parse_ratfunc,
    render_ast,
    tokenize,
)
from cubicext.errors import DegreeError, ParseError, UnboundSymbol
from cubicext.ffield import field_make
from cubicext.polyring import func_field

F5 = field_make(5)
F7 = field_make(7)
F9 = field_make(3, 2)
K5 = func_field(F5)


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

def test_tokenize_positions():
    toks = tokenize("12 + x^3")
    assert toks[0] == ("int", 12, 0)
    assert toks[1] == ("op", "+", 3)
    assert toks[2] == ("sym", "x", 5)
    assert toks[-1][0] == "end"
    with pytest.raises(ParseError) as err:
        tokenize("x + %")
    assert err.value.position == 4


def test_parse_ast_shapes():
    assert parse_ast("42") == ("int", 42)
    assert parse_ast("x") == ("sym", "x")
    assert parse_ast("1+2*3") == ("+", ("int", 1), ("*", ("int", 2), ("int", 3)))
    assert parse_ast("(1+2)*3") == ("*", ("+", ("int", 1), ("int", 2)), ("int", 3))
    assert parse_ast("x^2") == ("^", ("sym", "x"), ("int", 2))
    # left associativity
    assert parse_ast("1-2-3") == ("-", ("-", ("int", 1), ("int", 2)), ("int", 3))
    assert parse_ast("8/2/2") == ("/", ("/", ("int", 8), ("int", 2)), ("int", 2))


def test_parse_ast_rejects():
    for bad, pos in [("", 0), ("1+", 2), ("(1", 2), ("1)", 1), ("^2", 0),
                     ("x^^2", 2), ("x^y", 2), ("2**3", 2)]:
        with pytest.raises(ParseError) as err:
            parse_ast(bad)
        assert err.value.position == pos


def test_render_parse_round_trip():
    cases = [
        "1+2*3", "x^3-3*x", "(x+1)*(x+2)", "X^3+x*X+x^2", "t^2+1",
        "0-5", "x/(x+1)/(x+2)", "((x))", "7", "X^3 - 3*X - (x^2+1)/x",
    ]
    for src in cases:
        ast = parse_ast(src)
        assert parse_ast(render_ast(ast)) == ast


# ---------------------------------------------------------------------------
# evaluation modes
# ---------------------------------------------------------------------------

def test_parse_element_modes():
    assert parse_element("3+4", F5) == F5.from_int(2)
    assert parse_element("2^3", F7) == F7.from_int(1)
    assert parse_element("1/3", F7) == F7.from_int(5)
    assert parse_element("t^2+t", F9) == F9.gen() ** 2 + F9.gen()
    with pytest.raises(UnboundSymbol):
        parse_element("t", F5)                      # m = 1: no t
    with pytest.raises(UnboundSymbol):
        parse_element("x", F5)                      # no x over GF(q)
    with pytest.raises(UnboundSymbol):
        parse_element("X", F5)                      # X only in cubics


def test_parse_ratfunc():
    x = K5.x
    assert parse_ratfunc("x^2+1", K5) == x * x + 1
    assert parse_ratfunc("(x+1)/(x+2)", K5) == (x + 1) / (x + 2)
    assert parse_ratfunc("1/x + 1/x", K5) == 2 / x


def test_parse_cubic_normalizes_to_monic():
    c = parse_cubic("2*X^3+2*X+2", F5)
    assert c.e == F5.zero and c.f == F5.one and c.g == F5.one
    ck = parse_cubic("X^3 - 3*X - (x^2+1)/x", K5)
    assert ck.g == -(K5.x ** 2 + 1) / K5.x


def test_parse_cubic_degree_checks():
    with pytest.raises(DegreeError):
        parse_cubic("X^2+1", F5)
    with pytest.raises(DegreeError):
        parse_cubic("X^4+X^3+1", F5)
    with pytest.raises(DegreeError):
        parse_cubic("X^3+1/X", F5)                  # X in a denominator
    # degree drops to 3 after cancellation are not a thing: eval is exact
    c = parse_cubic("(X+1)*(X+2)*(X+4)", F5)
    assert c.e == F5.from_int(7)


def test_parse_field_spec():
    assert parse_field_spec("7") is F7
    assert parse_field_spec("3^2") is F9
    with pytest.raises(ParseError):
        parse_field_spec("7^")
    with pytest.raises(ParseError):
        parse_field_spec("a")
    with pytest.raises(ParseError):
        parse_field_spec("7^2^2")
    with pytest.raises(ParseError):
        parse_field_spec("-5")


# ---------------------------------------------------------------------------
# the command-line surface
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_envelope(capsys):
    code, out, err = run_cli(capsys, "classify", "--field", "7", "--json", "X^3+X^2+1")
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert list(blob) == ["command", "input", "result"]
    assert blob["command"] == "classify"
    assert blob["input"] == {"field": "7", "cubic": "X^3+X^2+1"}
    assert blob["result"]["form"] == "depressed"
    assert blob["result"]["a"] == "6"


def test_classify_text_mode(capsys):
    code, out, err = run_cli(capsys, "classify", "--field", "7", "X^3+X^2+1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "form: depressed"
    assert "a: 6" in lines


def test_genus_command_golden(capsys):
    code, out, _ = run_cli(capsys, "genus", "--field", "5", "--json", "X^3-3*X-x")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["genus"] == 0
    assert result["fully_ramified"] == [{"place": "infinity", "d": 2}]
    assert result["partially_ramified"] == [{"place": "2+x", "d": 1},
                                            {"place": "3+x", "d": 1}]


def test_splitting_command_golden(capsys):
    code, out, _ = run_cli(capsys, "splitting", "--field", "3", "--max-degree", "1",
                           "--json", "X^3+x*X+x^2")
    assert code == 0
    rows = json.loads(out)["result"]["places"]
    assert [(r["place"], r["signature"]) for r in rows] == [
        ("infinity", "(3,1)"), ("x", "(2,1;1,1)"),
        ("1+x", "(1,3)"), ("2+x", "(1,1;1,2)")]


def test_errors_exit_codes_and_stderr(capsys):
    # parse error: 2, nothing on stdout
    code, out, err = run_cli(capsys, "classify", "--field", "5", "X^3+")
    assert code == 2 and out == "" and "ParseError" in err
    # math error: 3
    code, out, err = run_cli(capsys, "genus", "--field", "5", "--json", "X^3-3*X-2")
    assert code == 3 and out == ""
    blob = json.loads(err)
    assert blob["error"]["type"] == "ReducibleInput"
    # size error: 4
    code, out, err = run_cli(capsys, "classify", "--field", "2^31", "X^3+X+1")
    assert code == 4 and out == ""
    # bad field spec: 2
    code, out, err = run_cli(capsys, "factor", "--field", "10", "X^3+X+1")
    assert code == 2
    # unbound x in a finite-field command: 2
    code, out, err = run_cli(capsys, "factor", "--field", "5", "X^3+x")
    assert code == 2 and "UnboundSymbol" in err


def test_place_table_bound_is_checked_before_enumerating(capsys):
    # 13^5 = 371293 candidate carriers of degree 5 exceed the 2^16 scan limit
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "splitting", "--field", "13", "--max-degree", "5",
                             "X^3-x")
    assert code == 4 and out == "" and "SizeExceeded" in err
    assert time.perf_counter() - start < 1.0


def test_field_size_is_checked_before_the_primality_test(capsys):
    # trial division of this 25-digit prime would not finish
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "--field", "1000000000000000000000007",
                             "X^3-2")
    assert code == 4 and out == "" and "SizeExceeded" in err
    assert time.perf_counter() - start < 1.0


def test_power_size_is_checked_before_computing_it(capsys):
    for expr in ("X^3+X+(X+1)^2000000", "X^3+x*X+(x+1)^2000000", "X^3+x*X+((x+1)^200)^3"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", "--field", "7", expr)
        assert code == 4 and out == "" and "SizeExceeded" in err, expr
        assert time.perf_counter() - start < 1.0


def test_isom_command(capsys):
    code, out, _ = run_cli(capsys, "isom", "--field", "7", "--json", "X^3-2", "X^3-4")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["isomorphic"] is True
    code, out, _ = run_cli(capsys, "isom", "--field", "5", "--json", "--bound", "1",
                           "X^3-3*X-x", "X^3-3*X-x-1")
    res = json.loads(out)["result"]
    assert res["isomorphic"] is False


def test_galois_command_shanks(capsys):
    code, out, _ = run_cli(capsys, "galois", "--field", "5", "--json",
                           "X^3+2*X^2-5*X+1")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["galois"] is True
    assert res["shanks"] == {"parameter": "2", "canonical_a": "4"}
    # non-shanks input: the marker is null
    code, out, _ = run_cli(capsys, "galois", "--field", "7", "--json", "X^3-2")
    res2 = json.loads(out)["result"]
    assert res2["shanks"] is None
    assert res2["galois"] is True


def test_constant_command(capsys):
    code, out, _ = run_cli(capsys, "constant", "--field", "7", "--json", "X^3-2")
    res = json.loads(out)["result"]
    assert res["constant"] is True and res["unit"] == "2"
    code, out, _ = run_cli(capsys, "constant", "--field", "7", "--json", "X^3-x")
    res = json.loads(out)["result"]
    assert res["constant"] is False and res["certificate"] == "infinity"


def test_factor_command_witnesses(capsys):
    code, out, _ = run_cli(capsys, "factor", "--field", "7", "--json", "X^3-1")
    res = json.loads(out)["result"]
    assert res["kind"] == "three_distinct"
    assert res["roots"] == ["1", "2", "4"]
    code, out, _ = run_cli(capsys, "factor", "--field", "3^2", "--json", "X^3+t*X+1")
    assert code == 0
    assert json.loads(out)["result"]["kind"] in {
        "irreducible", "linear_times_quadratic", "three_distinct",
        "linear_times_square", "triple"}


def test_classify_uses_ratfunc_when_x_present(capsys):
    code, out, _ = run_cli(capsys, "classify", "--field", "5", "--json", "X^3-x")
    res = json.loads(out)["result"]
    assert res["form"] == "pure"
    assert res["base"] == "GF(5)(x)"
    code, out, _ = run_cli(capsys, "classify", "--field", "5", "--json", "X^3-2")
    assert json.loads(out)["result"]["base"] == "GF(5)"
