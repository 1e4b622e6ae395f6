"""Valuations read off the residue.

``places._unit_residue_value`` divides a side of num/den by the carrier pi
exactly while its residue at the carrier's root is 0, so the residue decides
divisibility and no trial division fails.  Checked against code that decides
it otherwise:

* v against ``valuation``, which strips pi by trial division;
* the residue against ``reduce_at(a * pi^(-v), P)``, with a * pi^(-v) formed
  in RatFunc arithmetic.

The parameters are seeded products with factors of multiplicity 1 to 5 on
both sides, pi among them on one side or neither, at places of degree 1, 2
and 3 over GF(2), GF(4), GF(5) and GF(13) (GF(13^3) is above the 2^8 bound
of the packed rows, so its residues take the Horner pass), and at degree-2
places of GF(17)(x) (17^2 > 2^8, Horner as well).
"""
import random

import pytest

from cubicext.ffield import FieldElem, field_make
from cubicext.places import (_ROW_MAX_ORDER, _unit_residue_value, places_up_to, reduce_at,
                             uniformizer, valuation)
from cubicext.polyring import Poly, func_field

CASES = [((2, 1), 3), ((2, 2), 3), ((5, 1), 3), ((13, 1), 3), ((17, 1), 2)]


def rand_unit(rng, F, pi):
    """A random monic of degree <= 3 prime to pi."""
    while True:
        deg = rng.randrange(4)
        f = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg)] + [F.one])
        if f.gcd(pi).degree == 0:
            return f


def parameter(rng, ff, P, others):
    """(a, e) with a = c * pi^e * u, u a unit at P: u is a product of a few
    other carriers to the powers 1..5 on either side and a random monic prime
    to pi on each side; e in -5..5."""
    F = ff.field
    c = Poly.const(F, F.from_value(rng.randrange(1, F.order)))
    num, den = c * rand_unit(rng, F, P.pi), rand_unit(rng, F, P.pi)
    for g in rng.sample(others, min(3, len(others))):
        if rng.random() < 0.5:
            num = num * g.pi ** rng.randrange(1, 6)
        else:
            den = den * g.pi ** rng.randrange(1, 6)
    e = rng.randrange(-5, 6)
    if e > 0:
        num = num * P.pi ** e
    elif e < 0:
        den = den * P.pi ** -e
    return ff.rat(num, den), e


@pytest.mark.parametrize("pm,dmax", CASES, ids=[f"GF({p}^{m})-deg<={d}" for (p, m), d in CASES])
def test_unit_residue_value_matches_valuation_and_reduce_at(pm, dmax):
    F = field_make(*pm)
    ff = func_field(F)
    rng = random.Random(2900 + F.order)
    finite = [P for P in places_up_to(ff, dmax) if not P.is_infinite]
    for d in range(1, dmax + 1):
        of_degree = [P for P in finite if P.degree == d]
        for P in rng.sample(of_degree, min(8, len(of_degree))):
            others = [Q for Q in finite[:40] if Q != P]
            for _ in range(6):
                a, e = parameter(rng, ff, P, others)
                v, k, r = _unit_residue_value(a.num, a.den, P)
                assert v == e == valuation(a, P), (P, a)
                assert r and FieldElem(k, r) == reduce_at(a * uniformizer(P) ** -v, P), (P, a)


def test_the_cases_cover_both_sides_of_the_row_bound():
    assert 13 ** 2 <= _ROW_MAX_ORDER < 13 ** 3 and _ROW_MAX_ORDER < 17 ** 2
