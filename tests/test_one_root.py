"""One r-th root routine: square and cube roots against scans in fields
where the Adleman-Manders-Miller digit loop runs several steps, the pure
shapes' rational roots against poly_roots, the double-root guard of
isom_depressed, and reachable branches no other test runs."""
import json

import pytest

from cubicext.arith import ResolventBehavior, resolvent_place_behavior
from cubicext.canon import InseparablePure, Pure, has_rational_root, isom_depressed
from cubicext.cli import main
from cubicext.errors import ReducibleInput
from cubicext.ffield import Cube, Square, cube_classify, field_make, square_classify
from cubicext.places import places_up_to
from cubicext.polyring import func_field, poly_roots


def _scan(F, r):
    roots = {x: [] for x in F.elements()}
    for y in F.elements():  # ascending
        roots[y ** r].append(y)
    return roots


# 2^t exactly divides q - 1 with t = 4, 5, 4, 4: the square-root digit loop
# runs t - 1 >= 3 steps after digit 0
@pytest.mark.parametrize("F", [field_make(17), field_make(97), field_make(3, 4),
                               field_make(7, 2)], ids=repr)
def test_square_roots_match_a_scan(F):
    for x, ys in _scan(F, 2).items():
        got = square_classify(x)
        assert (list(got.roots) if isinstance(got, Square) else []) == ys, x


# 3^t exactly divides q - 1 with t = 3 (GF(109)) and t = 4 (GF(163))
@pytest.mark.parametrize("F", [field_make(109), field_make(163)], ids=repr)
def test_cube_roots_match_a_scan_with_a_long_digit_loop(F):
    for x, ys in _scan(F, 3).items():
        got = cube_classify(x)
        assert (list(got.roots) if isinstance(got, Cube) else []) == ys, x


@pytest.mark.parametrize("F", [field_make(7), field_make(13), field_make(2, 2),
                               field_make(2, 4), field_make(3, 2), field_make(3, 3)], ids=repr)
def test_pure_shapes_take_the_least_cube_root(F):
    for a in F.elements():
        for shape in (Pure(a), InseparablePure(a)):
            roots = poly_roots(shape.cubic().as_poly())
            assert has_rational_root(shape) == (roots[0] if roots else None), shape


# ---------------------------------------------------------------------------
# isom_depressed on a parameter with a^2 = 4
# ---------------------------------------------------------------------------

F2, F4, F7 = field_make(2), field_make(2, 2), field_make(7)
K5 = func_field(field_make(5))


# X^3 - 3X - a has a double root exactly when a^2 = 4: a = +-2 for odd p,
# a = 0 for p = 2; X^3 - 3X - 2 = (X + 1)^2 (X - 2), for one.
@pytest.mark.parametrize("bad, other", [
    (F7.from_int(2), F7.from_int(5)), (F7.from_int(2), F7.from_int(3)),
    (F7.from_int(5), F7.from_int(1)), (F2.zero, F2.one), (F4.zero, F4.gen()),
    (K5.from_int(2), K5.x), (K5.from_int(3), K5.x + 1),
], ids=repr)
def test_isom_depressed_rejects_a_double_root(bad, other):
    for pair in ((bad, other), (other, bad)):
        with pytest.raises(ReducibleInput):
            isom_depressed(*pair)


# ---------------------------------------------------------------------------
# reachable branches
# ---------------------------------------------------------------------------

def test_resolvent_splits_everywhere_at_parameter_one_in_characteristic_2():
    K4 = func_field(F4)
    for P in places_up_to(K4, 1):
        assert resolvent_place_behavior(K4.one, P) == ResolventBehavior.SPLIT


def test_isom_mixed_pure_depressed_without_a_purely_cubic_root(capsys):
    # X^2 + xX + 1 has no root in GF(7)(x), so X^3 - 3X - x is not purely cubic
    code = main(["isom", "--field", "7", "--json", "X^3-x", "X^3-3*X-x"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["isomorphic"] is False
