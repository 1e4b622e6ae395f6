import random

import pytest

from cubicext.errors import DivisionByZero, DomainMismatch, ZeroDenominator, ZeroPolynomial
from cubicext.ffield import field_make
from cubicext.polyring import (
    Poly,
    PolyRing,
    RatFunc,
    _powmod_q,
    embedding,
    factor_fq,
    func_field,
    is_irreducible,
    monic_polys,
    poly_roots,
    quadratic_roots,
    xgcd,
)

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)
F4 = field_make(2, 2)
F9 = field_make(3, 2)


def rand_poly(rng, F, dmax):
    d = rng.randrange(dmax + 1)
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(d + 1)])


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------

def test_poly_constructors():
    f = Poly.of_ints(F5, [1, 0, 2])  # 1 + 2x^2
    assert f.degree == 2
    assert f.coeff(0) == F5.one
    assert f.coeff(1) == F5.zero
    assert f.coeff(2) == F5.from_int(2)
    assert f.coeff(17) == F5.zero
    assert Poly.zero(F5).is_zero()
    assert Poly.one(F5).degree == 0
    assert Poly.gen(F5).degree == 1
    # trailing zeros are stripped
    assert Poly(F5, [F5.one, F5.zero]).degree == 0


def test_poly_degree_of_zero():
    assert Poly.zero(F7).degree == -1


@pytest.mark.parametrize("F", [F2, F5, F9], ids=repr)
def test_poly_ring_laws_sampled(F):
    rng = random.Random(411)
    for _ in range(80):
        f, g, h = (rand_poly(rng, F, 5) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f - f == Poly.zero(F)


@pytest.mark.parametrize("F", [F3, F7, F4], ids=repr)
def test_divmod_invariant(F):
    rng = random.Random(599)
    for _ in range(120):
        f = rand_poly(rng, F, 7)
        g = rand_poly(rng, F, 4)
        if g.is_zero():
            with pytest.raises(DivisionByZero):
                divmod(f, g)
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_gcd_divides_both():
    rng = random.Random(16)
    for _ in range(60):
        f, g = rand_poly(rng, F5, 6), rand_poly(rng, F5, 6)
        if f.is_zero() and g.is_zero():
            continue
        d = f.gcd(g)
        if not f.is_zero():
            assert (f % d).is_zero()
        if not g.is_zero():
            assert (g % d).is_zero()
        assert d.is_monic()


def test_monic_and_zero():
    f = Poly.of_ints(F7, [2, 0, 4])
    m = f.monic()
    assert m.is_monic()
    assert m == Poly.of_ints(F7, [4, 0, 1])
    with pytest.raises(ZeroPolynomial):
        Poly.zero(F7).monic()


def test_derivative_char_p():
    # d/dx (x^7) = 0 over GF(7); product rule sampled
    x = Poly.gen(F7)
    assert (x ** 7).derivative().is_zero()
    rng = random.Random(8)
    for _ in range(40):
        f, g = rand_poly(rng, F7, 5), rand_poly(rng, F7, 5)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_compose_and_shift():
    x = Poly.gen(F5)
    f = x * x + 1
    g = x + 2
    assert f.compose(g) == (x + 2) * (x + 2) + 1
    assert f.shift(3) == f * x ** 3


def test_eval_horner():
    f = Poly.of_ints(F7, [3, 0, 1])  # x^2 + 3
    for v in F7.elements():
        assert f(v) == v * v + F7.from_int(3)


def test_poly_render():
    assert Poly.of_ints(F5, [2, 0, 1]).render() == "2+x^2"
    assert Poly.of_ints(F5, [0, 1]).render() == "x"
    assert Poly.zero(F5).render() == "0"
    assert Poly.of_ints(F5, [1, 3]).render("y") == "1+3*y"


def test_monic_polys_counter_order():
    got = list(monic_polys(F3, 1))
    assert [g.render() for g in got] == ["x", "1+x", "2+x"]
    got2 = list(monic_polys(F2, 2))
    assert [g.render() for g in got2] == ["x^2", "1+x^2", "x+x^2", "1+x+x^2"]
    assert all(g.is_monic() and g.degree == 2 for g in got2)


# ---------------------------------------------------------------------------
# irreducibility and factorization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F,dmax", [(F2, 4), (F3, 3), (F5, 2), (F4, 2)],
                         ids=["GF(2)", "GF(3)", "GF(5)", "GF(4)"])
def test_is_irreducible_vs_root_and_product_scan(F, dmax):
    """Cross-check against a product table of lower-degree monics."""
    reducible = set()
    for d1 in range(1, dmax):
        for d2 in range(1, dmax - d1 + 1):
            for a in monic_polys(F, d1):
                for b in monic_polys(F, d2):
                    prod = a * b
                    if prod.degree <= dmax:
                        reducible.add(prod.coeffs)
    for d in range(1, dmax + 1):
        for f in monic_polys(F, d):
            assert is_irreducible(f) == (f.coeffs not in reducible or d == 1)


@pytest.mark.parametrize("F", [F2, F3, F5, F4, F9], ids=repr)
def test_factor_fq_multiplies_back(F):
    rng = random.Random(2027)
    for _ in range(60):
        f = rand_poly(rng, F, 8)
        if f.is_zero():
            continue
        unit, factors = factor_fq(f)
        prod = Poly.const(F, unit)
        for g, m in factors:
            assert g.is_monic()
            assert is_irreducible(g)
            prod = prod * g ** m
        assert prod == f


def test_factor_fq_deterministic():
    f = Poly.of_ints(F5, [1, 1, 1, 1, 1, 1, 1])  # (x^7-1)/(x-1)
    runs = [factor_fq(f) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    _, factors = runs[0]
    # sorted by (degree, counter key)
    keys = [g.counter_key() for g, _ in factors]
    assert keys == sorted(keys)


def test_poly_roots_with_multiplicity_collapsed():
    x = Poly.gen(F7)
    f = (x - 1) * (x - 1) * (x - 3)
    assert poly_roots(f) == sorted([F7.one, F7.from_int(3)])


@pytest.mark.parametrize("F", [F2, F3, F5, F4, F9], ids=repr)
def test_quadratic_roots_exhaustive(F):
    for b in F.elements():
        for c in F.elements():
            f = Poly(F, (c, b, F.one))
            brute = sorted(x for x in F.elements() if f(x).is_zero())
            assert list(quadratic_roots(f)) == brute
    with pytest.raises(DomainMismatch):
        quadratic_roots(Poly.gen(F))


def test_xgcd_bezout():
    rng = random.Random(31)
    for _ in range(50):
        f, g = rand_poly(rng, F7, 6), rand_poly(rng, F7, 6)
        if f.is_zero() or g.is_zero():
            continue
        d, s, t = xgcd(f, g)
        assert s * f + t * g == d
        assert d == f.gcd(g)


def test_embedding_is_a_homomorphism():
    emb = embedding(F3, F9)
    for a in F3.elements():
        for b in F3.elements():
            assert emb(a + b) == emb(a) + emb(b)
            assert emb(a * b) == emb(a) * emb(b)
    assert emb(F3.one) == F9.one


# ---------------------------------------------------------------------------
# the coefficient-list kernel against an element-wise schoolbook
# ---------------------------------------------------------------------------

def _sb_trim(c):
    c = list(c)
    while c and c[-1].is_zero():
        c.pop()
    return c


def _sb_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _sb_trim(out)


def _sb_divmod(F, a, b):
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv = b[-1].inverse()
    while len(r) >= len(b):
        c = r[-1] * inv
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[d + i] = r[d + i] - c * y
        r = _sb_trim(r)
    return _sb_trim(q), r


def _sb_gcd(F, a, b):
    while b:
        a, b = b, _sb_divmod(F, a, b)[1]
    if not a:
        return a
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _sb_powmod(F, a, e, mod):
    result, base = [F.one], _sb_divmod(F, a, mod)[1]
    while e:
        if e & 1:
            result = _sb_divmod(F, _sb_mul(F, result, base), mod)[1]
        base = _sb_divmod(F, _sb_mul(F, base, base), mod)[1]
        e >>= 1
    return result


def _sb_eval(F, a, v):
    acc = F.zero
    for c in reversed(a):
        acc = acc * v + c
    return acc


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (13, 1), (2, 2), (3, 2), (5, 3), (2, 8)])
def test_kernel_matches_elementwise_schoolbook(p, m):
    F = field_make(p, m)
    rng = random.Random(f"kernel {p}^{m}")

    def elem(nonzero=False):
        return F.from_value(rng.randrange(1 if nonzero else 0, F.order))

    def rand(dmax=12):
        """Degree 0..dmax, leading coefficient usually not 1."""
        d = rng.randrange(dmax + 1)
        return [elem() for _ in range(d)] + [elem(nonzero=True)]

    zero = Poly.zero(F)
    for _ in range(60):
        a, b = rand(), rand()
        f, g = Poly(F, a), Poly(F, b)
        assert list((f * g).coeffs) == _sb_mul(F, a, b)
        q, r = divmod(f, g)
        assert [list(q.coeffs), list(r.coeffs)] == list(_sb_divmod(F, a, b))
        assert divmod(zero, g) == (zero, zero)
        c = [elem(nonzero=True)]  # a constant divisor leaves no remainder
        q, r = divmod(f, Poly(F, c))
        assert list(q.coeffs) == _sb_divmod(F, a, c)[0] and r.is_zero()
        assert list(f.gcd(g).coeffs) == _sb_gcd(F, a, b)
        assert list(f.gcd(zero).coeffs) == _sb_gcd(F, a, [])
        mod = rand(6) + [elem(nonzero=True)]  # degree >= 1
        for e in (0, 1, 2, F.order, rng.randrange(F.order ** 2)):
            got = _powmod_q(f, e, Poly(F, mod))
            assert list(got.coeffs) == _sb_powmod(F, a, e, mod)
        v = elem()
        assert f(v) == _sb_eval(F, a, v)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

K5 = func_field(F5)
K2 = func_field(F2)


def test_ratfunc_lowest_terms():
    x = Poly.gen(F5)
    r = RatFunc(K5, (x + 1) * (x + 2), (x + 1) * (x + 3))
    assert r.num == x + 2
    assert r.den == x + 3
    assert r.den.is_monic()
    # denominator normalized monic even when given scaled
    r2 = K5.rat([0, 2], [4])  # 2x / 4
    assert r2.den == Poly.one(F5)


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDenominator):
        K5.rat([1], [0])
    with pytest.raises(DivisionByZero):
        K5.one / K5.zero


def test_ratfunc_field_laws_sampled():
    rng = random.Random(9119)
    def rr():
        num = rand_poly(rng, F5, 3)
        den = rand_poly(rng, F5, 2)
        while den.is_zero():
            den = rand_poly(rng, F5, 2)
        return RatFunc(K5, num, den)
    for _ in range(80):
        a, b, c = rr(), rr(), rr()
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        if not b.is_zero():
            assert (a / b) * b == a
    a = rr()
    assert a + 1 == a + K5.one
    assert 2 * a == a + a


def test_ratfunc_height_and_constant():
    x = K5.x
    assert x.height == 1
    assert (x ** 3 / (x + 1)).height == 3
    assert K5.from_int(3).is_constant()
    assert K5.from_int(3).constant_value() == F5.from_int(3)
    assert not x.is_constant()


def test_ratfunc_render():
    x = K5.x
    assert x.render() == "x"
    assert ((x + 1) / x).render() == "(1+x)/x"
    assert (K5.from_int(2) / (x * x)).render() == "2/x^2"
    assert K5.zero.render() == "0"


def test_ratfunc_evaluate():
    x = K5.x
    r = (x * x + 1) / (x + 1)
    assert r.evaluate(F5.from_int(2)) == F5.from_int(5 * 1 + 0) / F5.from_int(3)


# ---------------------------------------------------------------------------
# polynomials over bigger coefficient domains (used by the symbolic tests)
# ---------------------------------------------------------------------------

def test_poly_over_polyring():
    inner = PolyRing(F5)
    # q(y) with coefficients polynomials in x: (x + y)^2 expanded
    x = Poly.gen(F5)
    f = Poly(inner, (x, Poly.one(F5)))           # y + x
    sq = f * f
    assert sq.coeff(0) == x * x
    assert sq.coeff(1) == x + x
    assert sq.coeff(2) == Poly.one(F5)


def test_poly_over_funcfield():
    f = Poly(K2, (K2.x, K2.one))                 # Y + x over GF(2)(x)
    g = f * f
    assert g.coeff(0) == K2.x * K2.x
    assert g.coeff(1) == K2.zero                 # char 2
    assert g.coeff(2) == K2.one
    h = g.monic()
    assert h == g
