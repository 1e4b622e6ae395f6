"""Trace-form signatures with the residue evaluated once at double roots.

At a place where the residual cubic of y^3 - 3y = a has a double root (odd p:
residue +-2), ``signature_depressed`` hands the residue it already has to
``_resolvent_odd`` instead of evaluating it again.  Its signatures are checked
against the earlier code, copied below, which called
``resolvent_place_behavior`` and so evaluated ``unit_residue(a, P)`` twice.
"""
import random

import pytest

from cubicext.arith import Extension, signature
from cubicext.canon import DepressedTrace
from cubicext.ffcubic import (Irreducible, LinTimesQuad, LinTimesSquare, ThreeDistinct,
                              bin_depressed, bin_pure)
from cubicext.ffield import Square, field_make, square_classify
from cubicext.places import places_up_to, unit_residue, unit_residue_of
from cubicext.polyring import Poly, RatFunc, func_field

# ---------------------------------------------------------------------------
# oracle: the earlier signature_depressed and odd-p resolvent, copied
# ---------------------------------------------------------------------------

RAMIFIED, SPLIT, MIXED, PARTIAL = ((3, 1),), ((1, 1),) * 3, ((1, 1), (1, 2)), ((2, 1), (1, 1))
UNRAMIFIED = {Irreducible: ((1, 3),), ThreeDistinct: SPLIT, LinTimesQuad: MIXED}


def oracle_resolvent(a, P):
    v, r = unit_residue(a, P)
    if v < 0:
        v, r = 2 * v, r * r
    elif v > 0:
        v, r = 0, r.field.from_int(-4)
    elif r * r == 4:
        two = 2 if r == 2 else -2
        v, r = unit_residue_of(a.num - a.den * two, a.den, P)
        r = r * (2 * two)
    else:
        r = r * r - 4
    if v % 2 == 1:
        return "ramified"
    return "split" if isinstance(square_classify(r * -27), Square) else "inert"


def oracle_signature(a, P):
    v, res = unit_residue(a, P)
    if v < 0:
        return RAMIFIED if v % 3 else UNRAMIFIED[bin_pure(res)]
    kind = bin_depressed(res if v == 0 else res.field.zero)
    if kind is not LinTimesSquare:
        return UNRAMIFIED[kind]
    return {"split": SPLIT, "inert": MIXED, "ramified": PARTIAL}[oracle_resolvent(a, P)]


# ---------------------------------------------------------------------------
# seeded trace forms, a = +-2 + pi^k h among them
# ---------------------------------------------------------------------------

def rand_poly(rng, F, deg, monic=False):
    top = F.one if monic else F.from_value(rng.randrange(1, F.order))
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg)] + [top])


def trace_params(K, count, seed):
    rng = random.Random(seed)
    F, finite = K.field, places_up_to(K, 2)[1:]
    out = []
    while len(out) < count:
        h = RatFunc(K, rand_poly(rng, F, rng.randint(0, 3)),
                    rand_poly(rng, F, rng.randint(0, 3), monic=True))
        if rng.randrange(3):  # residue +-2 at a chosen place, to order 1..3
            pi = K.from_poly(rng.choice(finite).pi)
            h = K.from_int(rng.choice((2, -2))) + pi ** rng.randint(1, 3) * h
        if not h.is_constant():
            out.append(h)
    return out


# GF(9) has characteristic 3, where the trace form is inseparable; GF(25) is
# the odd extension field in its place
@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (5, 2), (13, 1)], ids=str)
def test_trace_signatures_match_the_earlier_code(p, m):
    K = func_field(field_make(p, m))
    places = places_up_to(K, 2)
    double_roots = 0
    for a in trace_params(K, 14 if K.field.order < 13 else 6, seed=100 * p + m):
        ext = Extension(DepressedTrace(a))
        for P in places:
            assert signature(ext, P).pairs == oracle_signature(a, P), (a, P)
            v, r = unit_residue(a, P)
            double_roots += v == 0 and r * r == 4
    assert double_roots >= 10  # the shared-residue path was taken
