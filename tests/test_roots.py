"""Roots in the base, and the isomorphism decisions that are built on them.

The exhaustive GF(q) loops that used to decide isom_depressed and isom_char3
are kept here as the reference: the root-finding decisions must give the
same verdict and the same witness (the least one in counter order).
"""
import itertools
import json
import random

import pytest

from cubicext import cli
from cubicext.canon import (
    Char3,
    DepressedTrace,
    Isomorphic,
    NotIsomorphic,
    _roots_in,
    has_rational_root,
    isom_char3,
    isom_depressed,
    value_key,
)
from cubicext.ffield import field_make
from cubicext.places import Place
from cubicext.polyring import Poly, RatFunc, func_field, monic_polys, poly_roots


# ---------------------------------------------------------------------------
# the reference: exhaustive witness loops over GF(q)
# ---------------------------------------------------------------------------

def _depressed_witness_ok(a1, a2, alpha, beta):
    if alpha * alpha + a2 * alpha * beta + beta * beta != a1.field.one:
        return False
    cand = (-3 * a2 * alpha * alpha * beta + a2 * beta ** 3 + 6 * alpha
            + alpha ** 3 * a2 * a2 - 8 * alpha ** 3)
    return cand == a1


def _char3_witness_ok(a1, a2, j, w):
    num = j * a1 * a1 + w ** 3 + a1 * w
    return a2 == num * num / a1 ** 3


def loop_isom_depressed(a1, a2):
    for alpha in a1.field.elements():
        for beta in a1.field.elements():
            if _depressed_witness_ok(a1, a2, alpha, beta):
                return Isomorphic((alpha, beta))
    return NotIsomorphic(None)


def loop_isom_char3(a1, a2):
    for j in (1, 2):
        for w in a1.field.elements():
            if _char3_witness_ok(a1, a2, j, w):
                return Isomorphic((j, w))
    return NotIsomorphic(None)


def irreducible_params(F, shape):
    return [a for a in F.elements() if not poly_roots(shape(a).cubic().as_poly())]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (5, 1), (7, 1), (2, 3), (11, 1), (13, 1)],
                         ids=str)
def test_isom_depressed_matches_the_loop_on_every_pair(p, m):
    F = field_make(p, m)
    params = irreducible_params(F, DepressedTrace)
    assert params
    for a1, a2 in itertools.product(params, repeat=2):
        assert isom_depressed(a1, a2) == loop_isom_depressed(a1, a2), (F, a1, a2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_isom_char3_matches_the_loop_on_every_pair(m):
    F = field_make(3, m)
    params = irreducible_params(F, Char3)
    assert params
    for a1, a2 in itertools.product(params, repeat=2):
        assert isom_char3(a1, a2) == loop_isom_char3(a1, a2), (F, a1, a2)


@pytest.mark.parametrize("p,m", [(2, 4), (5, 2), (7, 2), (3, 4)], ids=str)
def test_isom_matches_the_loop_on_seeded_pairs(p, m):
    F = field_make(p, m)
    shape, decide, loop = ((Char3, isom_char3, loop_isom_char3) if p == 3 else
                           (DepressedTrace, isom_depressed, loop_isom_depressed))
    params = irreducible_params(F, shape)
    rng = random.Random(p * 100 + m)
    for _ in range(6):
        a1, a2 = rng.choice(params), rng.choice(params)
        assert decide(a1, a2) == loop(a1, a2), (F, a1, a2)


def test_isom_depressed_decides_a_gf_2_16_pair():
    F = field_make(2, 16)
    rng = random.Random(216)
    params = []
    while len(params) < 2:
        a = F.from_value(rng.randrange(F.order))
        if not poly_roots(DepressedTrace(a).cubic().as_poly()):
            params.append(a)
    a1, a2 = params
    res = isom_depressed(a1, a2)
    assert isinstance(res, Isomorphic)  # GF(q) has one cubic extension
    assert _depressed_witness_ok(a1, a2, *res.witness)


# ---------------------------------------------------------------------------
# witnesses over GF(q)(x) for pairs built from a conic point or a twist
# ---------------------------------------------------------------------------

def rand_poly(F, d, rng, monic=False):
    lead = F.one if monic else F.from_value(rng.randrange(1, F.order))
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(d)] + [lead])


def rand_rat(K, h, rng):
    F = K.field
    return RatFunc(K, rand_poly(F, rng.randint(0, h), rng),
                   rand_poly(F, rng.randint(0, h), rng, monic=True))


@pytest.mark.parametrize("p", [2, 5, 7])
def test_isom_depressed_finds_chord_witnesses_of_height_4(p):
    K = func_field(field_make(p))
    rng = random.Random(400 + p)
    built = 0
    while built < 5:
        a2 = rand_rat(K, 2, rng)
        if a2.is_constant() or has_rational_root(DepressedTrace(a2)) is not None:
            continue
        t = rand_rat(K, 4, rng)
        den = t * t + a2 * t + 1
        if not den:
            continue
        alpha = -(a2 + 2 * t) / den
        beta = 1 + t * alpha
        a1 = (-3 * a2 * alpha * alpha * beta + a2 * beta ** 3 + 6 * alpha
              + alpha ** 3 * a2 * a2 - 8 * alpha ** 3)
        res = isom_depressed(a1, a2)
        assert isinstance(res, Isomorphic), (a1, a2)
        al, be = res.witness
        assert al * al + a2 * al * be + be * be == K.one
        assert (-3 * a2 * al * al * be + a2 * be ** 3 + 6 * al
                + al ** 3 * a2 * a2 - 8 * al ** 3) == a1
        # the least witness: the constructed one is never below it
        assert (value_key(al), value_key(be)) <= (value_key(alpha), value_key(beta))
        built += 1


def test_isom_char3_finds_twist_witnesses_of_height_4():
    K = func_field(field_make(3))
    rng = random.Random(403)
    built = 0
    while built < 8:
        a1 = rand_rat(K, 2, rng)
        if not a1 or has_rational_root(Char3(a1)) is not None:
            continue
        j, w = rng.choice((1, 2)), rand_rat(K, 4, rng)
        num = j * a1 * a1 + w ** 3 + a1 * w
        if not num:
            continue
        a2 = num * num / a1 ** 3
        res = isom_char3(a1, a2)
        assert isinstance(res, Isomorphic), (a1, a2)
        rj, rw = res.witness
        assert a2 == (rj * a1 * a1 + rw ** 3 + a1 * rw) ** 2 / a1 ** 3
        assert (rj, value_key(rw)) <= (j, value_key(w))
        built += 1


def test_isom_depressed_repro_is_decided_with_a_certificate():
    x = func_field(field_make(5)).x
    res = isom_depressed(x, x + 1)  # the default search_bound
    assert isinstance(res, NotIsomorphic)
    assert isinstance(res.witness, Place)


def test_isom_cli_repro_at_the_default_bound(capsys):
    code = cli.main(["isom", "--field", "5", "--json", "X^3-3*X-x", "X^3-3*X-x-1"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["isomorphic"] is False and res["witness"] is None


# ---------------------------------------------------------------------------
# has_rational_root over GF(q)(x) against a brute search
# ---------------------------------------------------------------------------

def polys_up_to(F, d):
    """Every polynomial over F of degree <= d, the zero polynomial included."""
    q = F.order
    for v in range(q ** (d + 1)):
        yield Poly(F, [F.from_value(v // q ** i % q) for i in range(d + 1)])


def brute_least_root(shape):
    """With y = z/B (B the denominator of a), z is a polynomial root of a
    monic cubic z^3 + c1*z + c0; every z up to the degree the leading term
    allows is tried."""
    a = shape.a
    A, B = a.num, a.den
    if isinstance(shape, DepressedTrace):
        c1, c0 = B * B * (-3), -A * B * B
    else:
        c1, c0 = A * B, A * A * B
    deg = max(-(-c1.degree // 2), -(-c0.degree // 3), 0)
    roots = [RatFunc(a.ff, z, B) for z in polys_up_to(A.dom, deg)
             if not (z ** 3 + c1 * z + c0)]
    return min(roots, key=value_key, default=None)


def params_of_height(K, h):
    """Every a in K with deg num, deg den <= h, each once."""
    F = K.field
    seen = set()
    for dd in range(h + 1):
        for den in monic_polys(F, dd):
            for num in polys_up_to(F, h):
                a = RatFunc(K, num, den)
                if a not in seen:
                    seen.add(a)
                    yield a


@pytest.mark.parametrize("p,shape,count", [(2, DepressedTrace, None), (3, Char3, None),
                                           (5, DepressedTrace, 120)], ids=str)
def test_has_rational_root_matches_brute_search_at_height_2(p, shape, count):
    K = func_field(field_make(p))
    params = list(params_of_height(K, 2))
    if count is not None:  # GF(5) has 3,000-odd: a seeded sample and the constants
        params = ([a for a in params if a.is_constant()]
                  + random.Random(52).sample(params, count))
    for a in params:
        assert has_rational_root(shape(a)) == brute_least_root(shape(a)), (p, a)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_has_rational_root_finds_roots_of_height_1(p):
    K = func_field(field_make(p))
    shape = Char3 if p == 3 else DepressedTrace
    rng = random.Random(70 + p)
    for _ in range(6):
        if p == 3:  # y = -u - u^2 is a root of y^3 + a*y + a^2 for a = y*u
            u = rand_rat(K, 1, rng)
            y = -u - u * u
            a = y * u
        else:
            y = rand_rat(K, 1, rng)
            a = y ** 3 - 3 * y
        r = has_rational_root(shape(a))
        assert r is not None and r == brute_least_root(shape(a)), (p, a)
        assert not shape(a).cubic()(r)


def test_has_rational_root_with_repeated_roots():
    # a = 2 gives (X + 1)^2 (X - 2) and a = -2 gives (X - 1)^2 (X + 2): no
    # place reduces squarefree, so the bounded place scan ends and
    # gcd(G, G') splits the cubic
    K5 = func_field(field_make(5))
    assert has_rational_root(DepressedTrace(K5.from_int(2))) == K5.from_int(2)
    assert has_rational_root(DepressedTrace(K5.from_int(-2))) == K5.from_int(1)
    K2 = func_field(field_make(2))
    assert has_rational_root(DepressedTrace(K2.zero)) == K2.zero  # X^3 + X = X (X + 1)^2


def test_roots_in_repeated_and_inseparable_factors():
    K5 = func_field(field_make(5))
    x = K5.x
    f = Poly(K5, (-x, K5.one)) ** 2 * Poly(K5, (-1 / x, K5.one))
    assert _roots_in(K5, f.coeffs) == sorted([x, 1 / x], key=value_key)
    K3 = func_field(field_make(3))
    x = K3.x
    t = Poly.gen(K3)
    assert _roots_in(K3, (t ** 3 - x ** 3).coeffs) == [x]             # (T - x)^3
    assert _roots_in(K3, (t ** 3 - x).coeffs) == []                   # x is no cube
    assert _roots_in(K3, ((t ** 3 - x) * (t - 1)).coeffs) == [K3.one]  # gcd(F, F') = T^3 - x
    assert _roots_in(K3, (t ** 3 * (x + 1) - x * x).coeffs) == []    # not monic, no cube
