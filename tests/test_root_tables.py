"""The root tables that decompositions over small fields read.

For a field F of at most ``places._ROW_MAX_ORDER`` elements,
``ffcubic._root_table(F, family)`` is one list per (field, family) with one
entry per counter value v: None until ``_family_roots`` first reads it, then
``tuple(core(F, v))`` for the family's root core.  Above the bound there is
no table and each decomposition calls the core.  Checked here:

* every filled entry is the core's tuple, in characteristics 2, 3 and odd;
* one table per (field, family), and none above the bound;
* the first decomposition over a fresh field fills exactly one entry;
* ``decompose_any`` equals ``brute_factor`` in every bin, cold and warm;
* a poisoned entry changes or breaks ``decompose_any``, so the table is read;
* the characteristic-3 core's two fixed maps, and the core above the bound
  against ``brute_factor``.
"""
import random

import pytest

from cubicext.canon import Char3, Cubic, DepressedTrace, Pure, _reduce_values
from cubicext.ffcubic import (_ROOTS, Irreducible, LinTimesQuad, LinTimesSquare, ThreeDistinct,
                              Triple, _family_decomp, _family_roots, _root_table, brute_factor,
                              decompose_any)
from cubicext.ffield import FieldElem, _kernel, field_make, trace_to_prime
from cubicext.places import _ROW_MAX_ORDER

TABLED = [(2, 1), (2, 2), (5, 1), (7, 1), (3, 2), (3, 4), (5, 3), (101, 1), (2, 8)]
ABOVE = [(2, 9), (3, 6), (2, 16)]
BINS = {Irreducible, LinTimesQuad, ThreeDistinct, LinTimesSquare, Triple}


def families(F):
    return [Char3] if F.p == 3 else [Pure, DepressedTrace]


def filled(F):
    return sum(e is not None for family in families(F) for e in _root_table(F, family))


def seeded_cubics(F, rng):
    """Random monic cubics, and cubics with three, a simple and a double, and one triple root."""
    def el():
        return F.from_value(rng.randrange(F.order))

    out = [Cubic(el(), el(), el()) for _ in range(40)]
    for _ in range(10):
        r1, r2, r3 = el(), el(), el()
        for a, b, c in ((r1, r2, r3), (r1, r2, r2), (r1, r1, r1)):
            out.append(Cubic(-(a + b + c), a * b + a * c + b * c, -(a * b * c)))
    return out


@pytest.fixture
def fresh_tables():
    """Empty root tables before the test, and again after it, so a poisoned
    or partly filled table is never seen by another test."""
    _root_table.cache_clear()
    yield
    _root_table.cache_clear()


@pytest.mark.parametrize("pm", TABLED, ids=[f"GF({p}^{m})" for p, m in TABLED])
def test_every_filled_entry_is_the_cores_tuple(pm):
    F = field_make(*pm)
    assert F.order <= _ROW_MAX_ORDER
    for family in families(F):
        for v in range(F.order):
            _family_roots(F, v, family)
        table = _root_table(F, family)
        assert len(table) == F.order
        for v, roots in enumerate(table):
            assert roots == tuple(_ROOTS[family](F, v)), (family, v)


def test_one_table_per_field_and_family():
    F = field_make(7)
    assert _root_table(F, Pure) is _root_table(F, Pure)
    assert _root_table(F, Pure) is not _root_table(F, DepressedTrace)
    assert _root_table(F, Pure) is not _root_table(field_make(5), Pure)


@pytest.mark.parametrize("pm", ABOVE, ids=[f"GF({p}^{m})" for p, m in ABOVE])
def test_no_table_above_the_bound(pm):
    F = field_make(*pm)
    assert F.order > _ROW_MAX_ORDER
    for family in families(F):
        assert _root_table(F, family) is None


@pytest.mark.parametrize("pm", [(7, 1), (3, 5), (2, 8)], ids=["GF(7)", "GF(3^5)", "GF(2^8)"])
def test_first_decomposition_fills_one_entry(pm, fresh_tables):
    F = field_make(*pm)
    rng = random.Random(2600 + F.order)
    c = next(c for c in seeded_cubics(F, rng)
             if _reduce_values(_kernel(F), *(x.value for x in (c.e, c.f, c.g)))[0] in families(F))
    assert filled(F) == 0
    decompose_any(c)
    assert filled(F) == 1
    decompose_any(c)
    assert filled(F) == 1


@pytest.mark.parametrize("pm", TABLED + [(3, 6)], ids=[f"GF({p}^{m})" for p, m in TABLED + [(3, 6)]])
def test_decompose_any_is_brute_force_cold_and_warm(pm, fresh_tables):
    F = field_make(*pm)
    cubics = seeded_cubics(F, random.Random(2610 + F.order))
    expected = [brute_factor(c) for c in cubics]
    assert {type(d) for d in expected} == (BINS - {ThreeDistinct} if F.order == 2 else BINS)
    for _ in ("cold", "warm"):
        assert [decompose_any(c) for c in cubics] == expected


def test_a_poisoned_entry_is_read(fresh_tables):
    F = field_make(7)
    for r in range(3, 7):  # the first (X - 1)(X - 2)(X - r) that reduces to a family
        c = Cubic(F.from_int(-3 - r), F.from_int(2 + 3 * r), F.from_int(-2 * r))
        cls, params, _ = _reduce_values(_kernel(F), c.e.value, c.f.value, c.g.value)
        if cls in families(F):
            break
    v = params[0]
    assert type(decompose_any(c)) is ThreeDistinct
    table = _root_table(F, cls)
    assert len(table[v]) == 3
    table[v] = ()
    assert decompose_any(c) == Irreducible()
    table[v] = (next(z for z in range(F.order) if z not in _ROOTS[cls](F, v)),)
    with pytest.raises(AssertionError):
        decompose_any(c)


@pytest.mark.parametrize("m", [1, 2, 4, 5, 6])
def test_char3_maps_solve_their_equations(m):
    F = field_make(3, m)
    section, inverse = F.char3_maps
    n = F.nonsquare
    for u in range(F.order):
        z = inverse(u)
        assert F._sub(F._pow(z, 3), F._mul(n, z)) == u
        z = section(u)
        solved = F._sub(F._pow(z, 3), z) == u
        assert solved == (trace_to_prime(FieldElem(F, u)).value == 0), u


@pytest.mark.parametrize("m", [6, 7])
def test_char3_core_above_the_bound_is_brute_force(m):
    F = field_make(3, m)
    assert F.order > _ROW_MAX_ORDER
    rng = random.Random(2620 + m)
    for v in [rng.randrange(1, F.order) for _ in range(96)]:
        a = FieldElem(F, v)
        assert _family_decomp(F, v, Char3) == brute_factor(Cubic(F.zero, a, a * a)), v
