"""Residue evaluation: one Horner pass in the residue field against the
earlier reduce-then-combine evaluation, the embedding's image table against
the digit Horner, the field check at every entry point, and the place hash.
"""
import random

import pytest

from cubicext.errors import FieldMismatch
from cubicext.ffield import FieldElem, _digits, _divmod, _horner, _kernel, field_make
from cubicext.places import (Place, places_up_to, reduce_at, residue_field, unit_residue,
                             unit_residue_of, valuation)
from cubicext.polyring import Poly, embedding, func_field


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


def finite_places(F, dmax, dmin=1):
    return [P for P in places_up_to(func_field(F), dmax)
            if not P.is_infinite and P.degree >= dmin]


CASES = [((2, 1), 2, 1), ((3, 1), 2, 1), ((2, 2), 2, 1), ((5, 1), 2, 1), ((7, 1), 2, 1),
         ((2, 3), 2, 1), ((3, 2), 2, 1), ((13, 1), 2, 1), ((2, 4), 2, 1),
         ((2, 1), 3, 3), ((3, 1), 3, 3), ((2, 2), 3, 3)]


@pytest.mark.parametrize("pm,dmax,dmin", CASES, ids=[f"GF({p}^{m})-deg{lo}..{hi}"
                                                      for (p, m), hi, lo in CASES])
def test_horner_pass_matches_reduce_then_combine(pm, dmax, dmin):
    F = field_make(*pm)
    rng = random.Random(20 * 1000 + F.order * 10 + dmax)
    for P in finite_places(F, dmax, dmin):
        rd = residue_field(P)
        for deg in range(13):
            f = rand_poly(rng, F, deg)
            got = rd.eval_poly(f)
            assert got.field is rd.field
            assert got.value == oracle_eval(rd, _kernel(F).load(f)), (P, f)


@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_unit_residue_of_strips_carrier_powers(pm):
    F = field_make(*pm)
    rng = random.Random(2000 + F.order)
    for P in finite_places(F, 2):
        for k in (2, 3):
            g, h = rand_poly(rng, F, rng.randrange(4)), rand_poly(rng, F, rng.randrange(4))
            if g.gcd(h).degree > 0 or not g.gcd(P.pi).degree == h.gcd(P.pi).degree == 0:
                continue
            deep = P.pi ** k * g
            for num, den in ((deep, h.monic()), (h, deep.monic())):
                v, r = unit_residue_of(num, den, P)
                assert (v, r.value) == oracle_unit_residue_of(num, den, P)
                assert abs(v) == k


@pytest.mark.parametrize("src,dst", [((2, 2), (2, 4)), ((2, 2), (2, 6)), ((2, 3), (2, 6)),
                                     ((3, 2), (3, 4)), ((5, 2), (5, 4))])
def test_value_image_table_matches_digit_horner(src, dst):
    emb = embedding(field_make(*src), field_make(*dst))
    assert len(emb.images) == emb.src.order
    for v in range(emb.src.order):
        assert emb.value_image(v) == oracle_value_image(emb, v)


def test_identity_embeddings_have_no_table():
    F4, F5 = field_make(2, 2), field_make(5)
    assert embedding(F4, F4).images is None
    assert embedding(F5, field_make(5, 3)).images is None
    assert all(embedding(F4, F4).value_image(v) == v for v in range(4))


# -- a function from another function field -------------------------------

F5, F7 = field_make(5), field_make(7)
A5 = func_field(F5).rat(Poly.of_ints(F5, [1, 2]), Poly.of_ints(F5, [3, 1]))
P7 = Place.finite(Poly.of_ints(F7, [2, 1]))


@pytest.mark.parametrize("P", [P7, Place.infinity(func_field(F7))], ids=["x+2", "infinity"])
def test_valuation_refuses_another_fields_function(P):
    with pytest.raises(FieldMismatch):
        valuation(A5, P)


@pytest.mark.parametrize("P", [P7, Place.infinity(func_field(F7))], ids=["x+2", "infinity"])
def test_unit_residue_refuses_another_fields_function(P):
    with pytest.raises(FieldMismatch):
        unit_residue(A5, P)
    with pytest.raises(FieldMismatch):
        unit_residue_of(A5.num, A5.den, P)


def test_reduce_at_refuses_another_fields_function():
    with pytest.raises(FieldMismatch):
        reduce_at(A5, P7)


def test_eval_poly_refuses_another_fields_polynomial():
    with pytest.raises(FieldMismatch):
        residue_field(P7).eval_poly(Poly.of_ints(F5, [1, 2]))


# -- the place hash --------------------------------------------------------

@pytest.mark.parametrize("pm", [(3, 1), (2, 2), (5, 1)])
def test_equal_places_hash_equal_and_share_a_residue_field(pm):
    F = field_make(*pm)
    for P in finite_places(F, 2):
        Q = Place.finite(Poly(F, [FieldElem(F, c.value) for c in P.pi.coeffs]))
        assert Q is not P and Q.pi is not P.pi
        assert Q == P and hash(Q) == hash(P)
        rd = residue_field(P)
        misses = residue_field.cache_info().misses
        assert residue_field(Q) is rd
        assert residue_field.cache_info().misses == misses
    inf = Place.infinity(func_field(F))
    assert hash(inf) == hash(places_up_to(func_field(F), 1)[0])
