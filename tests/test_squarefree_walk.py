"""Ramification, genus and the global power test read off squarefree parts.

``arith._ramified_groups`` yields groups of ramified places with their
different exponent straight from the squarefree parts of num, den and, for
odd p, num -+ 2 den; only characteristic-2 zeros of even order and
characteristic-3 poles of order divisible by 3 are split into places.
``canon._global_power_root`` and ``galois_denominator_check`` read the same
decomposition, which now runs on the list kernel.  Each is checked against
the earlier code, copied below, which factored every numerator and
denominator completely, on the kx-arith benchmark decks of seeds 1-10
(rebuilt here) and on constructed inputs that reach every branch.
"""
import random

import pytest

from cubicext import polyring
from cubicext.arith import (Constant, Extension, Geometric, RamificationReport,
                            as_local_reduce, char3_local_form, genus, is_constant_extension,
                            ramification_report)
from cubicext.canon import (Char3, DepressedTrace, Pure, galois_denominator_check,
                            global_cube_test, global_square_test, has_rational_root)
from cubicext.errors import (ConstantExtension, CubicExtError, NonIntegralGenus, ReducibleInput,
                             SizeExceeded)
from cubicext.ffield import Cube, NonCube, NonSquare, cube_classify, field_make, square_classify
from cubicext.places import Place, places_up_to, valuation
from cubicext.polyring import (FACTOR_DEGREE_LIMIT, FACTOR_SEED, Poly, RatFunc,
                               _distinct_degree, _equal_degree_split, _squarefree_decomposition,
                               factor_fq, func_field, poly_roots)

# ---------------------------------------------------------------------------
# oracle: the earlier squarefree decomposition, factorization, divisor,
# ramification report, genus, constant-field test and power root, copied
# ---------------------------------------------------------------------------


def oracle_pth_root(f):
    F = f.dom
    e = F.order // F.p
    return Poly(F, [f.coeff(i) ** e for i in range(0, f.degree + 1, F.p)])


def oracle_squarefree(f):
    p = f.dom.p
    out = []
    e = 1
    while f.degree > 0:
        df = f.derivative()
        if df.is_zero():
            f = oracle_pth_root(f)
            e *= p
            continue
        g = f.gcd(df)
        w = f // g
        i = 1
        while w.degree > 0:
            y = w.gcd(g)
            z = w // y
            if z.degree > 0:
                out.append((z, i * e))
            w = y
            g = g // y
            i += 1
        f = g
        e *= p
        if f.degree > 0:
            f = oracle_pth_root(f)
    return out


def oracle_factor(f):
    if f.degree > FACTOR_DEGREE_LIMIT:
        raise SizeExceeded(f"degree {f.degree} exceeds {FACTOR_DEGREE_LIMIT}")
    rng = random.Random(FACTOR_SEED)
    out = []
    for g, mult in oracle_squarefree(f.monic()):
        for gd, d in _distinct_degree(g):
            out += [(irr, mult) for irr in _equal_degree_split(gd, d, rng)]
    return f.lc, sorted(out, key=lambda t: t[0].counter_key())


def oracle_divisor(a):
    out = []
    v_inf = a.den.degree - a.num.degree
    if v_inf:
        out.append((Place.infinity(a.ff), v_inf))
    out += [(Place(a.ff, g), mult) for g, mult in oracle_factor(a.num)[1]]
    out += [(Place(a.ff, g), -mult) for g, mult in oracle_factor(a.den)[1]]
    out.sort(key=lambda t: t[0].sort_key())
    assert sum(v * P.degree for P, v in out) == 0
    return out


def oracle_report(ext):
    form, a, ff = ext.form, ext.form.a, ext.ff
    fully, partial = [], []
    if isinstance(form, Pure):
        fully = [(P, 2) for P, v in oracle_divisor(a) if v % 3 != 0]
    elif isinstance(form, DepressedTrace):
        fully = [(P, 2) for P, v in oracle_divisor(a) if v < 0 and v % 3 != 0]
        if ff.field.p != 2:
            for two in (2, -2):
                shifted = a.num - a.den * two
                v_inf = a.den.degree - shifted.degree
                if v_inf > 0 and v_inf % 2 == 1:
                    partial.append((Place.infinity(ff), 1))
                partial += [(Place(ff, g), 1) for g, v in oracle_factor(shifted)[1] if v % 2]
        else:
            u = ff.one / a + ff.one
            for P, v in oracle_divisor(a):
                if v <= 0:
                    continue
                ur, _ = as_local_reduce(u, P)
                m = valuation(ur, P)
                if isinstance(m, int) and m < 0:
                    partial.append((P, -m + 1))
    else:
        for P, v in oracle_divisor(a):
            if v > 0:
                if v % 2 == 1:
                    partial.append((P, 1))
            elif v % 3 != 0:
                fully.append((P, -v + 2))
            else:
                _, vstar, _ = char3_local_form(a, P)
                if vstar < 0:
                    fully.append((P, -vstar + 2))
                elif vstar > 0 and vstar % 2 == 1:
                    partial.append((P, 1))
    fully.sort(key=lambda pd: pd[0].sort_key())
    partial.sort(key=lambda pd: pd[0].sort_key())
    return RamificationReport(tuple(fully), tuple(partial))


def oracle_is_constant(ext):
    form = ext.form
    if isinstance(form, Pure):
        a = form.a
        for P, v in oracle_divisor(a):
            if v % 3 != 0:
                return Geometric(P)
        u = a.num.lc
        if isinstance(cube_classify(u), Cube):
            raise ReducibleInput("the parameter is a cube, so y^3 = a is reducible")
        return Constant(u)
    rep = oracle_report(ext)
    if rep.is_empty:
        return Constant(None)
    return Geometric((rep.fully_ramified or rep.partially_ramified)[0][0])


def oracle_genus(ext):
    rep = oracle_report(ext)
    if rep.is_empty:
        oracle_is_constant(ext)
        raise ConstantExtension(
            "the extension only enlarges the constant field; its genus over the"
            " larger constants is 0")
    deg = rep.different_degree
    if deg % 2 != 0 or deg < 4:
        if has_rational_root(ext.form) is not None:
            raise ReducibleInput("the defining cubic has a root in the base field")
        raise NonIntegralGenus(
            f"different degree {deg} is impossible for a geometric cubic extension")
    return deg // 2 - 2


def oracle_field_root(c, n):
    cls = square_classify(c) if n == 2 else cube_classify(c)
    return None if isinstance(cls, (NonSquare, NonCube)) else cls.roots[0]


def oracle_power_root(u, n):
    if u.is_zero():
        return u
    ff = u.ff
    unit = oracle_field_root(u.num.lc, n)
    if unit is None:
        return None
    root_num = Poly.const(ff.field, unit)
    root_den = Poly.one(ff.field)
    for p, mult in oracle_factor(u.num.monic())[1]:
        if mult % n:
            return None
        root_num = root_num * p ** (mult // n)
    for p, mult in oracle_factor(u.den)[1]:
        if mult % n:
            return None
        root_den = root_den * p ** (mult // n)
    return RatFunc(ff, root_num, root_den)


def oracle_denominator_check(a):
    return all(g.degree % 2 == 0 for g, _ in oracle_factor(a.den)[1])


# ---------------------------------------------------------------------------
# comparing the package with the oracle
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """fn's value, or the type and message of the package error it raised."""
    try:
        return fn(*args)
    except CubicExtError as err:
        return type(err).__name__, str(err)


def assert_matches_oracle(ext):
    assert outcome(ramification_report, ext) == outcome(oracle_report, ext), ext.form
    assert outcome(genus, ext) == outcome(oracle_genus, ext), ext.form
    assert outcome(is_constant_extension, ext) == outcome(oracle_is_constant, ext), ext.form
    if isinstance(ext.form, Pure):
        a = ext.form.a
        assert global_cube_test(a) == oracle_power_root(a, 3), a


def extension(form, a):
    return Extension(form(a))


# ---------------------------------------------------------------------------
# the kx-arith decks of seeds 1-10, rebuilt
# ---------------------------------------------------------------------------

KX_COMBOS = (
    (3, 1, "char3", 36), (3, 2, "char3", 2),
    (2, 2, "pure", 18), (2, 2, "trace", 4),
    (5, 1, "pure", 20), (5, 1, "trace", 7),
    (7, 1, "pure", 12), (7, 1, "trace", 4),
    (13, 1, "pure", 3), (13, 1, "trace", 4),
)
KX_HEIGHTS = (3, 4, 5, 6)
FORMS = {"pure": Pure, "trace": DepressedTrace, "char3": Char3}


def kx_deck(seed):
    rng = random.Random(f"kx-arith:{seed}")
    deck = []
    for r in range(max(c[3] for c in KX_COMBOS)):
        for h, (p, m, family, count) in ((h, c) for h in KX_HEIGHTS for c in KX_COMBOS):
            if r >= count:
                continue
            q = p ** m
            gap = rng.choice([g for g in (1, 2, 4, 5) if g <= h])
            num = [rng.randrange(q) for _ in range(h)] + [rng.randrange(1, q)]
            den = [rng.randrange(q) for _ in range(h - gap)] + [1]
            deck.append((p, m, family, num, den))
    return deck


def deck_extension(p, m, family, num, den):
    F = field_make(p, m)
    K = func_field(F)
    a = K.rat(Poly(F, [F.from_value(v) for v in num]), Poly(F, [F.from_value(v) for v in den]))
    return extension(FORMS[family], a)


@pytest.mark.parametrize("seed", range(1, 11))
def test_kx_arith_deck_matches_the_factoring_code(seed):
    deck = kx_deck(seed)
    assert len(deck) == 440
    for entry in deck:
        ext = deck_extension(*entry)
        assert_matches_oracle(ext)
        assert type(genus(ext)) is int  # the deck is geometric by construction


# ---------------------------------------------------------------------------
# constructed inputs
# ---------------------------------------------------------------------------

def rand_poly(rng, F, deg, monic=False):
    top = F.one if monic else F.from_value(rng.randrange(1, F.order))
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg)] + [top])


def finite_carriers(K, dmax=2):
    return [P.pi for P in places_up_to(K, dmax)[1:]]


def build(K, rng, factors, unit=True):
    """prod f^e over (f, e) in factors, times a random unit when asked."""
    F = K.field
    out = Poly.one(F)
    for f, e in factors:
        out = out * f ** e
    if unit:
        out = out * F.from_value(rng.randrange(1, F.order))
    return out


@pytest.mark.parametrize("m", [1, 2])
def test_char2_zeros_of_even_order(m):
    F = field_make(2, m)
    K = func_field(F)
    rng = random.Random(200 + m)
    carriers = finite_carriers(K)
    even_zeros, at_infinity = set(), set()
    for _ in range(40):
        zeros = [(rng.choice(carriers), rng.choice((2, 4, 6, 1, 3)))
                 for _ in range(rng.randint(1, 3))]
        num = build(K, rng, zeros)
        # one time in two, a zero of order 2 or 4 at infinity too
        deg = num.degree + rng.choice((2, 4)) if rng.randrange(2) else rng.randint(0, 3)
        a = K.rat(num, rand_poly(rng, F, deg, monic=True))
        even_zeros.update(v > 0 and v % 2 == 0 for _, v in oracle_divisor(a))
        at_infinity.add(a.den.degree - a.num.degree)
        assert_matches_oracle(extension(DepressedTrace, a))
    assert True in even_zeros and {2, 4} <= at_infinity


@pytest.mark.parametrize("m", [1, 2])
def test_char3_poles_of_order_divisible_by_three(m):
    F = field_make(3, m)
    K = func_field(F)
    rng = random.Random(300 + m)
    carriers = finite_carriers(K, 3 - m)
    deep_poles, at_infinity = set(), set()
    for _ in range(30):
        poles = [(rng.choice(carriers), rng.choice((3, 3, 6, 1, 2)))
                 for _ in range(rng.randint(1, 2))]
        den = build(K, rng, poles, unit=False)
        # one time in two, a pole of order 3 or 6 at infinity too
        deg = den.degree + rng.choice((3, 6)) if rng.randrange(2) else rng.randint(0, 4)
        a = K.rat(rand_poly(rng, F, deg), den)
        deep_poles.update(v < 0 and v % 3 == 0 for _, v in oracle_divisor(a))
        at_infinity.add(a.den.degree - a.num.degree)
        assert_matches_oracle(extension(Char3, a))
    assert True in deep_poles and {-3, -6} <= at_infinity


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (5, 1), (7, 1), (13, 1)])
def test_multiplicities_of_p_and_more_reach_the_pth_root_branch(p, m):
    F = field_make(p, m)
    K = func_field(F)
    rng = random.Random(400 + 10 * p + m)
    carriers = finite_carriers(K, 2 if p < 7 else 1)
    for _ in range(30):
        # p-th powers and multiplicities >= p in num and den
        num = build(K, rng, [(rng.choice(carriers), rng.choice((p, 2 * p, p + 1, 1)))
                             for _ in range(rng.randint(1, 2))])
        den = build(K, rng, [(rng.choice(carriers), rng.choice((p, p + 2, 3, 1)))
                             for _ in range(rng.randint(0, 2))], unit=False)
        a = K.rat(num, den)
        for u in (a, a * a, a ** 3, a ** 3 * K.x):
            assert outcome(global_cube_test, u) == outcome(oracle_power_root, u, 3), u
            assert outcome(global_square_test, u) == outcome(oracle_power_root, u, 2), u
            if F.order % 3 == 2:
                assert galois_denominator_check(u) is oracle_denominator_check(u), u
            try:
                ext = extension(Pure, u)
            except ReducibleInput:
                continue
            assert_matches_oracle(ext)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (13, 1), (5, 2)])
def test_odd_p_shifted_parameter_with_repeated_factors(p, m):
    F = field_make(p, m)
    K = func_field(F)
    rng = random.Random(500 + 10 * p + m)
    carriers = finite_carriers(K, 3 - m)
    for _ in range(40):
        den = rand_poly(rng, F, rng.randint(0, 3), monic=True)
        # num -+ 2 den = the chosen repeated factors times a random cofactor
        rep = build(K, rng, [(rng.choice(carriers), rng.choice((2, 3, 4, p, 1)))
                             for _ in range(rng.randint(1, 3))])
        rep = rep * rand_poly(rng, F, rng.randint(0, 2))
        two = rng.choice((2, -2))
        a = K.rat(rep + den * two, den)
        try:
            ext = extension(DepressedTrace, a)
        except ReducibleInput:
            continue
        assert_matches_oracle(ext)
        # also with the infinite place a zero of a -+ 2
        b = K.rat(den * two * Poly.gen(F) ** 3 + rng.choice(carriers) ** 2,
                  den * Poly.gen(F) ** 3)
        assert_matches_oracle(extension(DepressedTrace, b))


def test_a_degree_above_the_limit_raises_before_any_work():
    F = field_make(5)
    K = func_field(F)
    x = Poly.gen(F)
    big = x ** (FACTOR_DEGREE_LIMIT + 1) + x + 1
    for a in (K.rat(big, Poly.one(F)), K.rat(x, big)):
        for form in (Pure, DepressedTrace):
            ext = extension(form, a)
            expected = outcome(oracle_report, ext)
            assert expected[0] == "SizeExceeded"
            assert outcome(ramification_report, ext) == expected
            assert outcome(genus, ext) == expected
            assert outcome(is_constant_extension, ext) == expected
        assert outcome(global_cube_test, a) == outcome(oracle_power_root, a, 3)
    F7 = field_make(7)
    x7 = Poly.gen(F7)
    a = func_field(F7).from_poly((x7 ** (FACTOR_DEGREE_LIMIT + 1) + 1) * 2)
    # 2 is no cube mod 7, so the unit answers None before any degree is read
    assert global_cube_test(a) is None and oracle_power_root(a, 3) is None
    F2 = field_make(2)
    den = Poly.gen(F2) ** (FACTOR_DEGREE_LIMIT + 1) + Poly.one(F2)
    assert outcome(galois_denominator_check, func_field(F2).rat(Poly.one(F2), den))[0] == \
        "SizeExceeded"
    with pytest.raises(SizeExceeded):
        _squarefree_decomposition(big.monic())


def test_factor_fq_above_the_limit_raises_before_any_gcd(monkeypatch):
    def no_gcd(*args):
        raise AssertionError("a gcd ran above FACTOR_DEGREE_LIMIT")

    monkeypatch.setattr(polyring, "_gcd", no_gcd)
    F = field_make(5)
    x = Poly.gen(F)
    big = (x ** (FACTOR_DEGREE_LIMIT + 1) + x + 1) * 3
    for call in (factor_fq, poly_roots):
        with pytest.raises(SizeExceeded, match=f"^degree 513 exceeds {FACTOR_DEGREE_LIMIT}$"):
            call(big)


# ---------------------------------------------------------------------------
# the squarefree decomposition and the denominator check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (7, 1)])
def test_kernel_squarefree_decomposition_matches_the_poly_version(p, m):
    F = field_make(p, m)
    K = func_field(F)
    rng = random.Random(600 + 10 * p + m)
    carriers = finite_carriers(K, 2 if F.order < 8 else 1)
    for _ in range(60):
        f = build(K, rng, [(rng.choice(carriers), rng.choice((1, 2, 3, p, p + 1, 2 * p, p * p)))
                           for _ in range(rng.randint(0, 4))], unit=False)
        f = f * rand_poly(rng, F, rng.randint(0, 3), monic=True)
        assert _squarefree_decomposition(f) == oracle_squarefree(f), f


@pytest.mark.parametrize("p", [2, 5, 11])
def test_galois_denominator_check_matches_the_factoring_version(p):
    F = field_make(p)
    K = func_field(F)
    rng = random.Random(700 + p)
    carriers = finite_carriers(K, 3 if p == 2 else 2)
    seen = set()
    for _ in range(80):
        den = build(K, rng, [(rng.choice(carriers), rng.choice((1, 2, 3, p)))
                             for _ in range(rng.randint(0, 4))], unit=False)
        a = K.rat(rand_poly(rng, F, rng.randint(0, 3)), den)
        expected = oracle_denominator_check(a)
        assert galois_denominator_check(a) is expected, a
        seen.add(expected)
    assert seen == {True, False}
