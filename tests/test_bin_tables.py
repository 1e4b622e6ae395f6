"""The bin tables that arith's signatures read.

For a residue field k of at most ``places._ROW_MAX_ORDER`` elements,
``arith._bin_table(k, core)`` is ``[core(k, v) for every counter value v]``,
built once per (field, core) from ``ffcubic``'s value-level bin cores; above
the bound it is None and the signatures ask the core directly.  Checked
here:

* every entry of every table against ``brute_factor`` on the family's cubic,
  for the tabled fields above q = 27 (``test_signature_values.py`` checks
  the cores up to 27), in characteristics 2, 3 and odd;
* one table per (field, core), and none above the bound;
* above the bound, at GF(257)(x) and GF(3^6)(x), every signature at a place
  where a is a unit equals the core's answer on the unit residue.
"""
import random

import pytest

from cubicext.arith import _UNRAMIFIED, Extension, _bin_table, signature
from cubicext.canon import Char3, DepressedTrace, Pure
from cubicext.ffcubic import _bin_char3, _bin_depressed, _bin_pure, brute_factor
from cubicext.ffield import FieldElem, field_make
from cubicext.places import _ROW_MAX_ORDER, _unit_residue_value, places_up_to
from cubicext.polyring import Poly, RatFunc, func_field

TABLED = [(2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (5, 3), (7, 2), (11, 2), (13, 2),
          (251, 1)]
CORES = {Pure: _bin_pure, DepressedTrace: _bin_depressed, Char3: _bin_char3}


def families(F):
    return [Char3] if F.p == 3 else [Pure, DepressedTrace]


@pytest.mark.parametrize("pm", TABLED, ids=[f"GF({p}^{m})" for p, m in TABLED])
def test_every_table_entry_is_the_brute_force_bin(pm):
    F = field_make(*pm)
    assert 27 < F.order <= _ROW_MAX_ORDER
    for family in families(F):
        table = _bin_table(F, CORES[family])
        assert len(table) == F.order
        for v, kind in enumerate(table):
            assert kind is type(brute_factor(family(FieldElem(F, v)).cubic())), (family, v)


def test_one_table_per_field_and_core():
    F = field_make(13, 2)
    for core in (_bin_pure, _bin_depressed):
        assert _bin_table(F, core) is _bin_table(F, core)
    assert _bin_table(F, _bin_pure) is not _bin_table(F, _bin_depressed)


@pytest.mark.parametrize("pm", [(257, 1), (3, 6)], ids=["GF(257)", "GF(3^6)"])
def test_no_table_above_the_bound(pm):
    F = field_make(*pm)
    assert F.order > _ROW_MAX_ORDER
    for family in families(F):
        assert _bin_table(F, CORES[family]) is None


@pytest.mark.parametrize("pm", [(257, 1), (3, 6)], ids=["GF(257)", "GF(3^6)"])
def test_signatures_above_the_bound_ask_the_core(pm):
    F = field_make(*pm)
    K = func_field(F)
    rng = random.Random(2401 + F.order)
    places = places_up_to(K, 1)
    checked = 0
    for family in families(F):
        core = CORES[family]
        for _ in range(3):
            num = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(3)] + [F.one])
            den = Poly(F, [F.from_value(rng.randrange(1, F.order)), F.one])
            a = RatFunc(K, num, den)
            if a.is_constant() or family is DepressedTrace and (a - 2 == 0 or a + 2 == 0):
                continue
            ext = Extension(family(a))
            for P in places:
                v, k, r = _unit_residue_value(a.num, a.den, P)
                if v or family is DepressedTrace and core(k, r) not in _UNRAMIFIED:
                    continue
                assert signature(ext, P) == _UNRAMIFIED[core(k, r)], (family, a, P)
                checked += 1
    assert checked > 1000
