import math
import random

import pytest

from cubicext.errors import DomainMismatch, NegativeValuation, ZeroInput
from cubicext.ffield import field_make
from cubicext.places import (
    INFINITE_VALUATION,
    Place,
    divisor_of,
    places_up_to,
    reduce_at,
    residue_field,
    uniformizer,
    unit_residue,
    valuation,
)
from cubicext.polyring import Poly, RatFunc, func_field, monic_polys

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
F9 = field_make(3, 2)
F4 = field_make(2, 2)
F13 = field_make(13)
K5 = func_field(F5)
K2 = func_field(F2)
K9 = func_field(F9)


def rand_rat(rng, K, dmax=4):
    F = K.field
    while True:
        num = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(rng.randrange(dmax) + 1)])
        den = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(rng.randrange(dmax) + 1)])
        if not num.is_zero() and not den.is_zero():
            return RatFunc(K, num, den)


def test_place_constructors():
    x = Poly.gen(F5)
    P = Place.finite(x + 2)
    assert P.degree == 1
    assert not P.is_infinite
    assert P.render() == "2+x"
    Pinf = Place.infinity(K5)
    assert Pinf.is_infinite
    assert Pinf.degree == 1
    assert Pinf.render() == "infinity"
    with pytest.raises(DomainMismatch):
        Place.finite(Poly.one(F5))       # constant carrier
    with pytest.raises(DomainMismatch):
        Place.finite(2 * x)              # not monic
    with pytest.raises(DomainMismatch):
        Place.finite(x * x)              # not irreducible


def test_places_up_to_counts():
    # degree-1 places: q finite + infinity
    for K, q in [(K2, 2), (K5, 5), (K9, 9)]:
        deg1 = [P for P in places_up_to(K, 1)]
        assert len(deg1) == q + 1
        assert deg1[0].is_infinite
    # number of monic irreducible quadratics over GF(q) is (q^2-q)/2
    deg2 = [P for P in places_up_to(K5, 2) if P.degree == 2]
    assert len(deg2) == (25 - 5) // 2
    # sorted: infinity first, then by (degree, counter order)
    allp = places_up_to(K5, 2)
    keys = [P.sort_key() for P in allp]
    assert keys == sorted(keys)


def test_valuation_basics():
    x = K5.x
    P0 = Place.finite(Poly.gen(F5))
    Pinf = Place.infinity(K5)
    assert valuation(x, P0) == 1
    assert valuation(x, Pinf) == -1
    assert valuation(K5.one / x, P0) == -1
    assert valuation(K5.from_int(3), P0) == 0
    assert valuation(K5.zero, P0) == INFINITE_VALUATION
    assert valuation(x ** 4 / (x + 1), Pinf) == -3


def test_valuation_is_a_valuation():
    rng = random.Random(60)
    places = list(places_up_to(K5, 2))
    for _ in range(60):
        a, b = rand_rat(rng, K5), rand_rat(rng, K5)
        P = rng.choice(places)
        assert valuation(a * b, P) == valuation(a, P) + valuation(b, P)
        s = a + b
        if not s.is_zero():
            assert valuation(s, P) >= min(valuation(a, P), valuation(b, P))


def test_uniformizer_valuations():
    for K in (K2, K5, K9):
        for P in places_up_to(K, 2):
            pi = uniformizer(P)
            assert valuation(pi, P) == 1
            if P.is_infinite:
                # 1/x: a simple pole at (x), a unit elsewhere
                assert valuation(pi, Place.finite(Poly.gen(K.field))) == -1
            else:
                # the carrier itself: a unit at other finite places, pole at infinity
                for Q in places_up_to(K, 2):
                    if Q != P and not Q.is_infinite:
                        assert valuation(pi, Q) == 0
                assert valuation(pi, Place.infinity(K)) == -P.degree


def test_degree_sum_of_principal_divisor_is_zero():
    """deg(div(a)) = 0: zeros and poles balance, counted with place degrees."""
    rng = random.Random(7331)
    for K in (K2, K5, K9):
        for _ in range(40):
            a = rand_rat(rng, K)
            if a.is_constant():
                continue
            total = sum(v * P.degree for P, v in divisor_of(a))
            assert total == 0


def test_divisor_of_zero_raises():
    with pytest.raises(ZeroInput):
        divisor_of(K5.zero)


def test_divisor_support_in_place_order():
    x = K5.x
    a = (x + 1) ** 2 / (x ** 3)
    div = divisor_of(a)
    keys = [P.sort_key() for P, _ in div]
    assert keys == sorted(keys)
    as_dict = {P.render(): v for P, v in div}
    assert as_dict == {"infinity": 1, "x": -3, "1+x": 2}


def test_residue_field_degree_and_reduction():
    # residue field at a degree-d place of GF(q)(x) is GF(q^d)
    P2 = [P for P in places_up_to(K5, 2) if P.degree == 2][0]
    rd = residue_field(P2)
    assert rd.field.order == 25
    x = K5.x
    v = rd.reduce(x)
    assert rd.eval_poly(P2.pi) == rd.field.zero
    # reduce is a ring homomorphism on integral elements
    rng = random.Random(99)
    for _ in range(30):
        a, b = rand_rat(rng, K5), rand_rat(rng, K5)
        if min(valuation(a, P2), valuation(b, P2)) < 0:
            continue
        assert rd.reduce(a + b) == rd.reduce(a) + rd.reduce(b)
        assert rd.reduce(a * b) == rd.reduce(a) * rd.reduce(b)


def test_reduce_at_pole_raises():
    x = K5.x
    P0 = Place.finite(Poly.gen(F5))
    with pytest.raises(NegativeValuation):
        reduce_at(K5.one / x, P0)


def test_residue_lift_round_trip():
    for K in (K5, K9, K2):
        for P in places_up_to(K, 2):
            rd = residue_field(P)
            for c in list(rd.field.elements())[:12]:
                lifted = rd.lift(c)
                assert lifted.degree < max(P.degree, 1) or P.is_infinite
                back = rd.reduce(K.from_poly(lifted)) if not P.is_infinite else \
                    rd.reduce(K.from_poly(lifted))
                assert back == c


def test_reduce_at_infinity_uses_leading_behavior():
    x = K5.x
    Pinf = Place.infinity(K5)
    a = (2 * x * x + 1) / (x * x + x)
    assert reduce_at(a, Pinf) == F5.from_int(2)
    b = (x + 1) / (x * x)
    assert reduce_at(b, Pinf) == F5.zero


def test_unit_residue_matches_ratfunc_reduction():
    """(v, r) against valuation and reduce_at of a * pi^(-v), built as a RatFunc."""
    rng = random.Random(2024)
    for F in (F2, F3, F4, F5, F9, F13):
        K = func_field(F)
        for P in places_up_to(K, 2):
            pi = uniformizer(P)
            for k in range(-4, 5):
                a = pi ** k * rand_rat(rng, K, dmax=3)
                v, r = unit_residue(a, P)
                assert v == valuation(a, P)
                assert r == reduce_at(a * pi ** (-v), P) and not r.is_zero()
    with pytest.raises(ZeroInput):
        unit_residue(K5.zero, Place.infinity(K5))
