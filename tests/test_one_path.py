"""One code path per job: the Artin-Schreier section for every m, RatFunc
powers without a loop, the shared family guard of ffcubic, the CLI's
irreducibility gate and per-subcommand options, and CLI branches no other
test runs."""
import json
import random

import pytest

from cubicext import cli
from cubicext.canon import _char3_witness_ok, _depressed_witness_ok, reduce_cubic
from cubicext.cli import main, parse_cubic, parse_element
from cubicext.errors import DivisionByZero, WrongCharacteristic, WrongFieldClass
from cubicext.ffcubic import (LinTimesSquare, bin_char3, bin_depressed, bin_pure, brute_factor,
                              decompose_char3, decompose_depressed, decompose_pure)
from cubicext.ffield import _solve_quadratic, field_make
from cubicext.polyring import Poly, func_field

F3, F5, F7 = field_make(3), field_make(5), field_make(7)
K3, K5 = func_field(F3), func_field(F5)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_result(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "", err
    return json.loads(out)["result"]


# ---------------------------------------------------------------------------
# ffield: y^2 + y = u by the echelon section, odd m included
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [5, 7, 9])
def test_quadratic_solver_matches_a_scan_for_odd_m(m):
    F = field_make(2, m)
    roots = {u: [] for u in F.elements()}
    for y in F.elements():  # ascending
        roots[y * y + y].append(y)
    for u, ys in roots.items():
        assert list(_solve_quadratic(F, F.one, u)) == ys


# ---------------------------------------------------------------------------
# polyring: RatFunc powers
# ---------------------------------------------------------------------------

def _random_ratfunc(ff, rng):
    F = ff.field
    elems = list(F.elements())

    def poly(d):
        return Poly(F, [rng.choice(elems) for _ in range(d)] + [rng.choice(elems[1:])])

    return ff.from_poly(poly(rng.randrange(4))) / ff.from_poly(poly(rng.randrange(4)))


@pytest.mark.parametrize("F", [F5, field_make(2, 2)], ids=repr)
def test_ratfunc_powers_equal_repeated_products(F):
    ff, rng = func_field(F), random.Random(15)
    for f in [ff.zero, ff.one, ff.x] + [_random_ratfunc(ff, rng) for _ in range(12)]:
        for e in range(-4, 5):
            if f.is_zero() and e < 0:
                with pytest.raises(DivisionByZero):
                    f ** e
                continue
            ref = ff.one
            for _ in range(abs(e)):
                ref = ref * f
            if e < 0:
                ref = ff.one / ref
            got = f ** e
            assert got == ref, (f, e)
            assert got.den.is_monic() and got.num.gcd(got.den).degree == 0


# ---------------------------------------------------------------------------
# ffcubic: one family guard
# ---------------------------------------------------------------------------

_PURE = "X^3 - a is inseparable in characteristic 3"
_DEPRESSED = "X^3 - 3X - a degenerates to a pure cubic in characteristic 3"
_CHAR3 = "X^3 + aX + a^2 is the characteristic-3 family"


_GUARDED = [
    (decompose_pure, F3, _PURE), (bin_pure, F3, _PURE),
    (decompose_depressed, field_make(3, 2), _DEPRESSED), (bin_depressed, F3, _DEPRESSED),
    (decompose_char3, F5, _CHAR3), (bin_char3, field_make(2, 2), _CHAR3),
]


@pytest.mark.parametrize("fn, wrong, message", _GUARDED, ids=[c[0].__name__ for c in _GUARDED])
def test_family_entry_points_guard_their_parameter(fn, wrong, message):
    with pytest.raises(WrongCharacteristic) as err:
        fn(wrong.one)
    assert str(err.value) == message
    with pytest.raises(WrongFieldClass):
        fn(K3.x if fn in (decompose_char3, bin_char3) else K5.x)


# ---------------------------------------------------------------------------
# cli: witnesses, text rendering and branches no golden reaches
# ---------------------------------------------------------------------------

def _params(source1, source2, dom):
    return [reduce_cubic(parse_cubic(s, dom))[0].a for s in (source1, source2)]


def test_isom_depressed_over_gf7_prints_a_valid_witness(capsys):
    res = cli_result(capsys, "isom", "--field", "7", "--json", "X^3-3*X-1", "X^3-3*X-6")
    assert res["isomorphic"] is True and set(res["witness"]) == {"alpha", "beta"}
    a1, a2 = _params("X^3-3*X-1", "X^3-3*X-6", F7)
    alpha, beta = (parse_element(res["witness"][k], F7) for k in ("alpha", "beta"))
    assert _depressed_witness_ok(a1, a2, alpha, beta)


def test_isom_char3_over_k3_prints_its_witness(capsys):
    c1, c2 = "X^3+x*X+x^2", "X^3+x*(x+2)^2*X+(x*(x+2)^2)^2"
    res = cli_result(capsys, "isom", "--field", "3", "--json", c1, c2)
    assert res["form1"] == res["form2"] == "char3"
    assert res["isomorphic"] is True and res["witness"] == {"j": 1, "w": "x"}
    assert _char3_witness_ok(*_params(c1, c2, K3), 1, K3.x)


def test_isom_mixed_pure_and_depressed(capsys):
    res = cli_result(capsys, "isom", "--field", "7", "--json", "X^3-x", "X^3-3*X-x-1/x")
    assert (res["form1"], res["form2"]) == ("pure", "depressed")
    assert res["isomorphic"] is True and res["witness"] == {"value": "6*x"}


def test_isom_char3_negative_in_text_mode(capsys):
    code, out, _ = run_cli(capsys, "isom", "--field", "3", "X^3+x*X+x^2", "X^3+(x+1)*X+(x+1)^2")
    assert code == 0
    assert out.splitlines() == ["form1: char3", "form2: char3", "isomorphic: False",
                                "witness: None"]


def test_factor_linear_times_square_equals_brute_force(capsys):
    res = cli_result(capsys, "factor", "--field", "5", "--json", "X^3-3*X-2")
    assert res == {"kind": "linear_times_square", "simple": "2", "double": "4"}
    ref = brute_factor(parse_cubic("X^3-3*X-2", F5))
    assert isinstance(ref, LinTimesSquare)
    assert (ref.simple.render(), ref.double.render()) == ("2", "4")


def test_factor_text_mode_lists_the_roots(capsys):
    code, out, _ = run_cli(capsys, "factor", "--field", "7", "X^3-1")
    assert code == 0 and out.splitlines() == ["kind: three_distinct", "roots: 1, 2, 4"]


def test_classify_char3_over_gf9_of_x(capsys):
    res = cli_result(capsys, "classify", "--field", "3^2", "--json", "X^3+t*x*X+1")
    assert res["form"] == "char3" and res["a"] == "t/x^3"
    assert res["base"] == "GF(3^2)(x)"


@pytest.mark.parametrize("argv", [
    ("galois", "--field", "7", "X^3-1"),
    ("galois", "--field", "3", "X^3-2"),
    ("isom", "--field", "7", "X^3-3*X-1", "X^3-3*X-2"),
    ("isom", "--field", "5", "X^3-3*X-x^3+3*x", "X^3-3*X-x"),
    ("isom", "--field", "7", "X^3-3*X-2", "X^3-3*X-5"),
])
def test_isom_and_galois_reject_cubics_with_a_root(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--json", *argv[1:])
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "ReducibleInput"


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_subcommand_takes_only_the_options_it_reads(capsys, command):
    positionals = ["X^3-x"] * len(cli._COMMANDS[command][1])
    for flag, reader in (("--bound", "isom"), ("--max-degree", "splitting")):
        if command == reader:
            continue
        with pytest.raises(SystemExit) as err:
            main([command, "--field", "5", flag, "2"] + positionals)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_one_scalar_parser():
    assert cli.parse_ratfunc is cli.parse_element
    assert parse_element("(x+1)/x", K5) == (K5.x + 1) / K5.x
