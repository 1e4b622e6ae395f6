"""The one solver of y^p - y = u, p = 2 or 3.

``Field.as_section`` is, for p = 2 and p = 3 alike, the inverse of the
GF(p)-linear bijection sending 1 to the least basis value of nonzero trace
and t^j to t^(jp) - t^j (``Field._linear_inverse``).
``_artin_schreier_value(F, u)`` returns ``F.as_section(u)`` when it solves
y^p - y = u and None otherwise.  Checked here:

* in characteristic 2 it returns the same y as the earlier GF(2) echelon
  reduction, kept below as the oracle, for every u over GF(2^m), m <= 12,
  and on a seeded sample over GF(2^16) and GF(2^20);
* in characteristic 3 it solves y^3 - y = u exactly where Tr(u) = 0, with
  constant term 0;
* the characteristic-3 root core's section is the field's as_section, and a
  field of another characteristic has none.
"""
import random

import pytest

from cubicext.ffield import FieldElem, _artin_schreier_value, field_make, trace_to_prime


def echelon_rows(F):
    """Rows (pivot, L(x), x) spanning the image of L(y) = y^2 + y over
    GF(2^m): L(t^j), j = 1..m-1, each reduced by the rows before it."""
    rows = []
    for j in range(1, F.m):
        x = 1 << j
        r = F._mul(x, x) ^ x
        for pivot, row, pre in rows:
            if r >> pivot & 1:
                r ^= row
                x ^= pre
        rows.append((r.bit_length() - 1, r, x))
    return rows


def echelon_solve(rows, u):
    """u reduced by the rows in order: None if something is left (Tr(u) = 1),
    else the sum of the x of the rows used."""
    y, rest = 0, u
    for pivot, row, pre in rows:
        if rest >> pivot & 1:
            rest ^= row
            y ^= pre
    return None if rest else y


@pytest.mark.parametrize("m", range(1, 13))
def test_char2_matches_the_echelon_oracle_everywhere(m):
    F = field_make(2, m)
    rows = echelon_rows(F)
    for u in range(F.order):
        assert _artin_schreier_value(F, u) == echelon_solve(rows, u), u


@pytest.mark.parametrize("m", [16, 20])
def test_char2_matches_the_echelon_oracle_on_a_sample(m):
    F = field_make(2, m)
    rows = echelon_rows(F)
    rng = random.Random(2700 + m)
    solved = 0
    for u in [rng.randrange(F.order) for _ in range(2000)]:
        y = _artin_schreier_value(F, u)
        assert y == echelon_solve(rows, u), u
        solved += y is not None
    assert 800 < solved < 1200  # Tr(u) = 0 on half the field


@pytest.mark.parametrize("m", range(1, 8))
def test_char3_solves_exactly_where_the_trace_vanishes(m):
    F = field_make(3, m)
    for u in range(F.order):
        y = _artin_schreier_value(F, u)
        if trace_to_prime(FieldElem(F, u)).value:
            assert y is None, u
        else:
            assert y is not None and F._sub(F._pow(y, 3), y) == u, u
            assert y % 3 == 0, u  # constant term 0


@pytest.mark.parametrize("m", [1, 3, 4, 6])
def test_char3_maps_share_the_section(m):
    F = field_make(3, m)
    assert F.char3_maps[0] is F.as_section


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (7, 1)])
def test_no_section_outside_characteristics_2_and_3(p, m):
    with pytest.raises(AttributeError):
        field_make(p, m).as_section
