"""Signatures above the bin-table bound against a brute-force factorisation
of the residual cubic.

A residue field of more than ``places._ROW_MAX_ORDER`` elements has no bin
table, so each signature there asks ``ffcubic``'s family decomposition for
its one residue.  At a place P where the parameter a is a unit and the
residual cubic over F_P is separable, Hensel lifts each factor, and the
splitting type of P is the factorisation type of that cubic.  As in
``test_unramified_oracle.py``, the oracle shares no code with the bins: the
residue is a FieldElem Horner pass at the carrier's root, separability is
the discriminant -4f^3 - 27g^2 of X^3 + fX + g, and ``brute_factor`` scans
F_P.  It runs on seeded pure, trace and char-3 parameters at every place
whose residue field is above the bound: degree 1 over GF(2^9), GF(3^6) and
GF(257), degree 2 over GF(17) and GF(2^5), characteristic 2 included.
"""
import random

import pytest

from cubicext.arith import Extension, signature
from cubicext.canon import Char3, Cubic, DepressedTrace, Pure
from cubicext.ffcubic import Irreducible, LinTimesQuad, ThreeDistinct, brute_factor
from cubicext.ffield import field_make
from cubicext.places import _ROW_MAX_ORDER, places_up_to, residue_field
from cubicext.polyring import Poly, RatFunc, func_field

CASES = [((2, 9), 1), ((3, 6), 1), ((257, 1), 1), ((17, 1), 2), ((2, 5), 2)]
PAIRS = {Irreducible: ((1, 3),), LinTimesQuad: ((1, 1), (1, 2)),
         ThreeDistinct: ((1, 1), (1, 1), (1, 1))}


def residual(family, r):
    """The residual cubic's (f, g) in X^3 + fX + g for the unit residue r."""
    if family is Pure:
        return r.field.zero, -r
    if family is DepressedTrace:
        return r.field.from_int(-3), -r
    return r, r * r


def unit_residue(a, P):
    """The residue of a at P when a is a P-unit, else None."""
    if P.is_infinite:
        if a.num.degree != a.den.degree:
            return None
        return a.num.lc / a.den.lc
    rd = residue_field(P)
    values = []
    for f in (a.num, a.den):
        acc = rd.field.zero
        for c in reversed(f.coeffs):
            acc = acc * rd.root + rd.embed(c)
        values.append(acc)
    n, d = values
    return n / d if n and d else None


def rand_param(rng, F, K, family):
    while True:
        num = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(rng.randint(1, 4))])
        den = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(rng.randint(0, 3))]
                   + [F.one])
        if num.is_zero():
            continue
        a = RatFunc(K, num, den)
        if a.is_constant() or family is DepressedTrace and (a - 2 == 0 or a + 2 == 0):
            continue
        return a


@pytest.mark.parametrize("pm, degree", CASES,
                         ids=[f"GF({p}^{m})-deg{d}" for (p, m), d in CASES])
def test_untabled_signatures_match_the_brute_residual_cubic(pm, degree):
    F = field_make(*pm)
    K = func_field(F)
    rng = random.Random(2500 + F.order + degree)
    places = [P for P in places_up_to(K, degree) if P.degree == degree]
    assert F.order ** degree > _ROW_MAX_ORDER
    seen, checked = set(), 0
    for family in [Char3] if F.p == 3 else [Pure, DepressedTrace]:
        for _ in range(3):
            a = rand_param(rng, F, K, family)
            ext = Extension(family(a))
            for P in places:
                r = unit_residue(a, P)
                if r is None:
                    continue
                f, g = residual(family, r)
                if not (f * f * f * -4 - g * g * 27):
                    continue  # inseparable residual cubic
                kind = type(brute_factor(Cubic(r.field.zero, f, g)))
                assert signature(ext, P).pairs == PAIRS[kind], (family.__name__, a, P)
                seen.add(kind)
                checked += 1
    assert seen == set(PAIRS) and checked > 2 * len(places)
