"""has_rational_root's no-root certificate: a pole of order prime to 3.

Over K = GF(q)(x), a place P where a has a pole of order n prime to 3 is
fully ramified in the trace family y^3 - 3y = a and in the char-3 family
y^3 + ay + a^2 = 0, so neither cubic has a root in K.  ``has_rational_root``
answers None on such a parameter without asking ``canon._roots_in``; the
pole group comes from ``canon._certifying_pole``.  These tests check that the
certificate never fires on a cubic built with a root, that ``_roots_in``
(unchanged, and so an oracle here) finds no root wherever it fires, on both
the infinite and the finite branch, and that every place of the returned
group is a pole of order prime to 3 which the place arithmetic of ``arith``
reports fully ramified.
"""
import random

import pytest

from cubicext.arith import SIG_FULLY_RAMIFIED, Extension, ramification_report, signature
from cubicext.canon import Char3, DepressedTrace, _certifying_pole, _roots_in, has_rational_root
from cubicext.ffield import field_make
from cubicext.places import group_places, valuation
from cubicext.polyring import FACTOR_DEGREE_LIMIT, Poly, RatFunc, func_field


def rand_poly(F, d, rng, monic=False):
    cs = [F.from_value(rng.randrange(F.order)) for _ in range(d)]
    return Poly(F, cs + [F.one if monic else F.from_value(rng.randrange(1, F.order))])


def rand_rat(K, h, rng):
    F = K.field
    return RatFunc(K, rand_poly(F, rng.randint(0, h), rng),
                   rand_poly(F, rng.randint(0, h), rng, monic=True))


def rand_param(K, rng):
    """a = num/den with den a product of powers (exponent 1 to 4) of small
    monic polynomials, and deg num at most deg den + 3, so that both a pole
    at infinity of order prime to 3 and its absence are common."""
    F = K.field
    den = Poly.one(F)
    for _ in range(rng.randint(0, 3)):
        den = den * rand_poly(F, rng.randint(1, 2), rng, monic=True) ** rng.randint(1, 4)
    num = rand_poly(F, rng.randint(0, den.degree + 3), rng)
    return RatFunc(K, num, den)


FAMILIES = [(DepressedTrace, 2, 1), (DepressedTrace, 2, 2), (DepressedTrace, 5, 1),
            (DepressedTrace, 7, 1), (DepressedTrace, 13, 1), (Char3, 3, 1), (Char3, 3, 2)]
FAMILY_IDS = [f"{shape.__name__}-GF({p}^{m})" for shape, p, m in FAMILIES]


@pytest.mark.parametrize("shape,p,m", FAMILIES, ids=FAMILY_IDS)
def test_certificate_never_fires_on_a_cubic_with_a_root(shape, p, m):
    K = func_field(field_make(p, m))
    rng = random.Random(1300 + 10 * p + m)
    for h in (0, 1, 2, 3) * 5:
        if shape is Char3:  # y0 = s - s^2 is a root of y^3 + a*y + a^2 for a = -y0*s
            s = rand_rat(K, h, rng)
            y0 = s - s * s
            a = -y0 * s
        else:
            y0 = rand_rat(K, h, rng)
            a = y0 ** 3 - 3 * y0
        assert _certifying_pole(a) is None, (a, y0)
        r = has_rational_root(shape(a))
        assert r is not None and not shape(a).cubic()(r), (a, y0)


def certified_inputs(count=40):
    """(shape, group) for the seeded random parameters that the certificate
    decides, with the count of those decided at infinity and at finite
    poles; every parameter that it leaves to _roots_in is checked to give
    the same answer there."""
    out, at_infinity, finite = [], 0, 0
    for shape, p, m in FAMILIES:
        K = func_field(field_make(p, m))
        rng = random.Random(1310 + 10 * p + m)
        for _ in range(count):
            form = shape(rand_param(K, rng))
            group = _certifying_pole(form.a)
            roots = _roots_in(K, form.cubic().as_poly().coeffs)
            assert has_rational_root(form) == (roots[0] if roots else None), form
            if group is None:
                continue
            assert roots == [], form
            out.append((form, group))
            if group[0] is None:
                at_infinity += 1
            else:
                finite += 1
    return out, at_infinity, finite


def test_certified_parameters_have_no_root_by_roots_in():
    certified, at_infinity, finite = certified_inputs()
    assert at_infinity >= 20 and finite >= 20, (at_infinity, finite)


def test_every_place_of_the_certifying_group_is_a_fully_ramified_pole():
    certified, _, _ = certified_inputs(count=12)
    for form, (g, v) in certified:
        a = form.a
        ext = Extension(form)
        fully = {P for P, _ in ramification_report(ext).fully_ramified}
        for P in group_places(a.ff, g):
            assert valuation(a, P) == v and v < 0 and v % 3, (form, P)
            assert signature(ext, P) == SIG_FULLY_RAMIFIED, (form, P)
            assert P in fully, (form, P)


def test_certifying_pole_takes_infinity_first_then_the_denominator():
    K = func_field(field_make(5))
    x, one = K.x, K.one
    assert _certifying_pole(x ** 2 / (x + one)) == (None, -1)
    # infinity has order 3: the first denominator group of order prime to 3
    two = K.from_int(2)
    assert _certifying_pole((x + two) ** 8 / ((x + one) ** 3 * x ** 2)) == (x.num, -2)
    assert _certifying_pole(x ** 3) is None
    assert _certifying_pole(one / (x ** 3 * (x + one) ** 6)) is None
    assert _certifying_pole(K.zero) is None
    # a denominator above the squarefree decomposition's limit is left alone
    big = x ** (FACTOR_DEGREE_LIMIT + 1) + x + one
    assert _certifying_pole(one / big) is None
