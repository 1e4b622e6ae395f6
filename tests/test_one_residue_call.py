"""The unit residue of a place in one call, and the bound division.

``ResidueData._unit_value`` evaluates both sides of num/den at the carrier's
root, strips powers of the carrier from a side whose residue is 0 and
divides, in one call.  It is checked against an independent oracle, copied
below from tests/test_residue_eval.py (Horner's rule plus trial division),
at every place of degree <= 2 over GF(2) ... GF(13), where degree 2 reads the
packed rows, and at the degree-2 places of GF(17), whose residue field of
289 > 2^8 elements takes the Horner pass.  The fractions have zeros and
poles at the place, common factors, and lengths beyond the rows grown so
far.  An empty denominator raises ZeroDenominator at once, at infinity and
at finite places.  ``Field._div`` is a bound closure like the other five
ops; it is checked against _mul(a, _pow(b, -1)) on every pair of a few small
fields, and raises DivisionByZero for b = 0 on each field shape.
"""
import random

import pytest

from cubicext.errors import DivisionByZero, ZeroDenominator
from cubicext.ffield import _digits, _divmod, _horner, _kernel, field_make
from cubicext.places import (Place, ResidueData, _unit_residue_value, iter_places, residue_field,
                             unit_residue_of)
from cubicext.polyring import Poly, func_field


def oracle_value_image(emb, v):
    """Embedding.value_image before the table: c in GF(p) maps to c; else the
    digits of v are a polynomial taken at the root."""
    src = emb.src
    if src.m == 1:
        return v
    return _horner(_kernel(emb.dst), _digits(v, src.p, src.m), emb.root.value)


def oracle_eval(rd, f):
    """ResidueData._eval before the single Horner pass: Horner's rule in the
    base at degree 1, else f mod the carrier, its d coefficients' images times
    the root powers."""
    K = _kernel(rd.place.ff.field)
    powers = [rd.field._pow(rd.root.value, i) for i in range(rd.place.degree)]
    if len(powers) == 1:
        return _horner(K, f, rd.root.value)
    k = rd.field
    acc = 0
    for c, r in zip(_divmod(K, f, K.load(rd.place.pi))[1], powers):
        acc = k._add(acc, k._mul(oracle_value_image(rd.embed, c), r))
    return acc


def oracle_unit_residue_of(num, den, P):
    """(v, residue value) of num/den at a finite place: strip the carrier from
    the side it divides, then evaluate both sides with oracle_eval."""
    rd = residue_field(P)
    K, k = _kernel(P.ff.field), rd.field
    pi = K.load(P.pi)

    def strip(f):
        n = 0
        while True:
            q, r = _divmod(K, f, pi)
            if r:
                return n, f
            f, n = q, n + 1
    vn, ns = strip(K.load(num))
    vd, ds = strip(K.load(den))
    return vn - vd, k._div(oracle_eval(rd, ns), oracle_eval(rd, ds))


def rand_poly(rng, F, deg):
    cs = [F.from_value(rng.randrange(F.order)) for _ in range(deg)]
    return Poly(F, cs + [F.from_value(rng.randrange(1, F.order))])


def fresh(P):
    """A ResidueData of P with no rows yet, kept out of residue_field's cache."""
    rd = residue_field(P)
    return ResidueData(P, rd.field, rd.embed, rd.root)


def fractions(rng, F, P):
    """(num, den) pairs with a zero, a pole, a common power of the carrier
    and a common factor at P, and lengths from 1 to well past 20."""
    out = []
    for deg in (0, 1, 3, 6, 12, 20):
        g, h = rand_poly(rng, F, deg), rand_poly(rng, F, rng.randrange(deg + 2))
        k, j = rng.randrange(1, 4), rng.randrange(1, 3)
        out += [(g, h), (P.pi ** k * g, h), (g, P.pi ** k * h),
                (P.pi ** (k + j) * g, P.pi ** j * h), (g * h, h * P.pi ** k)]
    return out


def check_place(rng, F, P):
    rd, longest = fresh(P), 0
    for num, den in fractions(rng, F, P):
        expected = oracle_unit_residue_of(num, den, P)
        v, k, r = rd._unit_value(num.vals, den.vals)
        assert k is rd.field and (v, r) == expected, (P, num, den)
        got = unit_residue_of(num, den, P)
        assert (got[0], got[1].value) == expected, (P, num, den)
        longest = max(longest, len(num.vals), len(den.vals))
    assert rd._rows is None or len(rd._rows) == longest


SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (13, 1)]


@pytest.mark.parametrize("pm", SMALL, ids=[f"GF({p}^{m})" for p, m in SMALL])
def test_every_place_of_degree_at_most_two_matches_the_oracle(pm):
    F = field_make(*pm)
    rng = random.Random(3300 + F.order)
    places = [P for P in iter_places(func_field(F), 2) if not P.is_infinite]
    assert any(residue_field(P)._rows is not None for P in places)
    for P in places:
        check_place(rng, F, P)


def test_degree_two_places_of_gf17_take_the_horner_pass():
    F = field_make(17)
    rng = random.Random(3317)
    places = [P for P in iter_places(func_field(F), 2) if P.degree == 2]
    assert len(places) == (17 ** 2 - 17) // 2
    for P in places:
        assert residue_field(P)._rows is None
        check_place(rng, F, P)


@pytest.mark.parametrize("pm", [(3, 1), (2, 2), (5, 1)])
def test_rows_grow_to_the_longer_side_in_one_call(pm):
    """Each call asks for lengths beyond the rows grown so far, on either
    side; the rows then reach the longer list, never past it."""
    F = field_make(*pm)
    rng = random.Random(3400 + F.order)
    P = next(P for P in iter_places(func_field(F), 2) if P.degree == 2)
    rd = fresh(P)
    for n in (2, 5, 9, 14, 22, 30):
        for num, den in ((rand_poly(rng, F, n), rand_poly(rng, F, n // 2)),
                         (rand_poly(rng, F, n // 3), rand_poly(rng, F, n + 1))):
            before = len(rd._rows)
            v, _, r = rd._unit_value(num.vals, den.vals)
            assert (v, r) == oracle_unit_residue_of(num, den, P)
            assert len(rd._rows) == max(before, len(num.vals), len(den.vals))


# -- an empty denominator ----------------------------------------------------

F5 = field_make(5)
K5 = func_field(F5)
PLACES5 = [Place.infinity(K5), Place.finite(Poly.of_ints(F5, [2, 1])),
           Place.finite(Poly.of_ints(F5, [2, 0, 1]))]


@pytest.mark.parametrize("P", PLACES5, ids=["infinity", "degree-1", "degree-2"])
def test_an_empty_denominator_raises_zero_denominator(P):
    num = Poly.of_ints(F5, [1, 3, 1])
    with pytest.raises(ZeroDenominator):
        unit_residue_of(num, Poly(F5, []), P)
    with pytest.raises(ZeroDenominator):
        _unit_residue_value(num, Poly(F5, []), P)


# -- the bound division --------------------------------------------------------

DIV_FIELDS = [(7, 1), (2, 4), (3, 2), (5, 2)]


@pytest.mark.parametrize("pm", DIV_FIELDS, ids=[f"GF({p}^{m})" for p, m in DIV_FIELDS])
def test_div_is_mul_by_the_inverse_on_every_pair(pm):
    F = field_make(*pm)
    div, mul, pw = F._div, F._mul, F._pow
    for a in range(F.order):
        for b in range(1, F.order):
            assert div(a, b) == mul(a, pw(b, -1)), (a, b)
    assert "_div" in type(F).__slots__ and F._div is div  # a bound closure, not a method


@pytest.mark.parametrize("pm", [(7, 1), (2, 4), (3, 2)], ids=["GF(p)", "GF(2^m)", "odd GF(p^m)"])
def test_div_by_zero_raises_on_each_field_shape(pm):
    F = field_make(*pm)
    for a in (0, 1, F.order - 1):
        with pytest.raises(DivisionByZero):
            F._div(a, 0)
    with pytest.raises(DivisionByZero):
        F.one / F.zero
