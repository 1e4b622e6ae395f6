import itertools
import random

import pytest

from cubicext import arith
from cubicext.canon import (
    SEPARATION_PLACE_BUDGET,
    Char3,
    Cubic,
    DepressedTrace,
    FracLinear,
    InseparablePure,
    Isomorphic,
    NotIsomorphic,
    Pure,
    Reducible,
    Unknown,
    artin_schreier_normalize,
    base_of,
    cubic_of,
    galois_denominator_check,
    galois_param,
    global_cube_test,
    global_square_test,
    has_rational_root,
    is_galois,
    isom_char3,
    isom_depressed,
    isom_pure,
    purely_cubic_root,
    reduce_cubic,
    shanks_to_canonical,
    _separate_by_signature,
)
from cubicext.errors import (
    DegenerateParameter,
    FieldMismatch,
    PoleHit,
    ReducibleInput,
    SingularMatrix,
    WrongCharacteristic,
    WrongFieldClass,
)
from cubicext.ffield import field_make, _solve_quadratic
from cubicext.places import places_up_to
from cubicext.polyring import Poly, embedding, func_field, poly_roots

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)
F7 = field_make(7)
K5 = func_field(F5)
K7 = func_field(F7)
K3 = func_field(F3)


def all_cubics(F):
    for e in F.elements():
        for f in F.elements():
            for g in F.elements():
                yield Cubic(e, f, g)


def roots_in_cubic_closure(c: Cubic, E):
    """Roots of c in E, where E contains the base field F (deg 3 extension)."""
    emb = embedding(c.base, E)
    lifted = Poly(E, tuple(emb(v) for v in (c.g, c.f, c.e)) + (E.one,))
    return poly_roots(lifted), emb


# ---------------------------------------------------------------------------
# frac-linear maps
# ---------------------------------------------------------------------------

def test_frac_linear_group_ops():
    m = FracLinear(F5.one, F5.from_int(2), F5.from_int(3), F5.from_int(4))
    inv = m.inverse()
    y = F5.one
    assert inv.apply(m.apply(y)) == y
    comp = m.compose(inv)
    assert comp.is_identity()
    with pytest.raises(SingularMatrix):
        FracLinear(F5.one, F5.one, F5.one, F5.one)
    with pytest.raises(PoleHit):
        # pole of y -> (4y+3)/(2y+1) is y = -1/2 = 2
        m.apply(F5.from_int(2))


def test_frac_linear_normalized_first_pivot():
    m = FracLinear(F5.from_int(2), F5.zero, F5.zero, F5.from_int(3))
    # scaled so the first nonzero entry is 1
    assert m.m00 == F5.one
    assert m.m11 == F5.from_int(3) / F5.from_int(2)


# ---------------------------------------------------------------------------
# reduce_cubic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F,Ename", [(F2, (2, 3)), (F3, (3, 3)), (F5, (5, 3))],
                         ids=["GF(2)", "GF(3)", "GF(5)"])
def test_reduce_cubic_transport_exhaustive(F, Ename):
    """Mapped roots of the input are roots of the canonical shape, and the
    root counts in the cubic closure agree."""
    E = field_make(*Ename)
    for c in all_cubics(F):
        shape, mob = reduce_cubic(c)
        assert shape.base is F
        target = shape.cubic() if not isinstance(shape, Reducible) else shape.cubic()
        troots, emb = roots_in_cubic_closure(c, E)
        sroots, _ = roots_in_cubic_closure(target, E)
        assert len(troots) == len(sroots)
        if isinstance(shape, InseparablePure):
            continue  # inseparable: the triple root maps by cube roots, not by mob
        m00, m01, m10, m11 = (emb(v) for v in mob.entries())
        for y in troots:
            den = m01 * y + m00
            if den.is_zero():
                continue  # the map has a pole there; count equality covers it
            z = (m11 * y + m10) / den
            assert z in sroots


def test_reduce_cubic_char3_families():
    for c in all_cubics(F3):
        shape, _ = reduce_cubic(c)
        assert isinstance(shape, (Char3, InseparablePure, Reducible))
        if isinstance(shape, Char3):
            cc = shape.cubic()
            assert cc.f == shape.a and cc.g == shape.a * shape.a


def test_reduce_cubic_shape_templates():
    # X^3 - 3X - a stays put
    c = Cubic(F7.zero, F7.from_int(-3), F7.from_int(-2))
    shape, mob = reduce_cubic(c)
    assert shape == DepressedTrace(F7.from_int(2))
    assert mob.is_identity()
    # X^3 - a is recognized through the 3eg = f^2 route only when e != 0;
    # plain X^3 - a has e = f = 0
    shape2, _ = reduce_cubic(Cubic(F7.zero, F7.zero, F7.from_int(-3)))
    assert shape2 == Pure(F7.from_int(3))


def test_reduce_cubic_reducible_short_circuits():
    # g = 0: root 0 splits off with cofactor X^2 + eX + f
    shape, _ = reduce_cubic(Cubic(F5.from_int(2), F5.one, F5.zero))
    assert isinstance(shape, Reducible)
    assert shape.root == F5.zero
    assert shape.quad == (F5.from_int(2), F5.one)
    # detected rational root -3g/f (the 27g^2 + 2f^3 = 9efg shortcut)
    c = Cubic(F5.one, F5.one, F5.one)  # 27+2-9 = 20 = 0 mod 5; root -3 = 2
    shape2, _ = reduce_cubic(c)
    assert isinstance(shape2, Reducible)
    assert c(shape2.root).is_zero()
    assert shape2.root == F5.from_int(2)


def test_cubic_of_round_trip():
    for shape in (Pure(F7.from_int(3)), DepressedTrace(F7.from_int(2)),
                  Char3(F3.from_int(1)), InseparablePure(K3.x),
                  Reducible(F5.one, (F5.from_int(2), F5.from_int(3)))):
        c = cubic_of(shape)
        assert c == shape.cubic()


def test_reduce_cubic_over_function_field():
    x = K5.x
    c = Cubic(K5.zero, K5.from_int(-3), -x)
    shape, mob = reduce_cubic(c)
    assert shape == DepressedTrace(x)
    assert mob.is_identity()
    # a generic K-cubic lands somewhere canonical with a working map
    c2 = Cubic(x, x + 1, x * x + 1)
    shape2, mob2 = reduce_cubic(c2)
    assert isinstance(shape2, (Pure, DepressedTrace, Reducible))


# ---------------------------------------------------------------------------
# global power tests
# ---------------------------------------------------------------------------

def test_global_square_and_cube_tests():
    x = K5.x
    u = (x + 1) ** 2 * (x + 2) ** 4 / x ** 2
    r = global_square_test(u)
    assert r is not None and r * r == u
    assert global_square_test(u * x) is None
    v = (x + 3) ** 3 / (x ** 6)
    s = global_cube_test(v)
    assert s is not None and s ** 3 == v
    assert global_cube_test(v * (x + 1)) is None
    # constants defer to the coefficient field
    assert global_cube_test(K5.from_int(2)) is None or F5.from_int(2) in {e ** 3 for e in F5.elements()}


def test_global_tests_random_round_trip():
    from cubicext.polyring import RatFunc
    rng = random.Random(515)
    for F, n in [(F5, 2), (F7, 3), (F4, 2), (F4, 3)]:
        K = func_field(F)
        for _ in range(25):
            num = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(3)])
            den = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(2)])
            if num.is_zero() or den.is_zero():
                continue
            u = RatFunc(K, num, den) ** n
            tester = global_square_test if n == 2 else global_cube_test
            r = tester(u)
            assert r is not None and r ** n == u


# ---------------------------------------------------------------------------
# purely cubic detection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F", [F5, F7, F4], ids=repr)
def test_purely_cubic_root_exhaustive(F):
    for a in F.elements():
        c = purely_cubic_root(a)
        roots = _solve_quadratic(F, a, F.one)
        if roots:
            assert c == roots[0]
            assert c * c + a * c + F.one == F.zero
        else:
            assert c is None


def test_purely_cubic_root_over_K():
    x = K5.x
    # X^2 + aX + 1 with root x: a = -(x + 1/x) = -(x^2+1)/x
    a = -(x * x + 1) / x
    c = purely_cubic_root(a)
    assert c is not None
    assert c * c + a * c + 1 == K5.zero
    assert purely_cubic_root(x) is None


# ---------------------------------------------------------------------------
# Galois detection and the Galois family
# ---------------------------------------------------------------------------

def test_is_galois_finite_irreducible_always():
    """Finite fields: every irreducible cubic is Galois (cyclic extensions)."""
    from cubicext.ffcubic import Irreducible, decompose_any
    for F in (F2, F3, F4, F5, F7):
        for c in all_cubics(F):
            shape, _ = reduce_cubic(c)
            if isinstance(shape, (Reducible, InseparablePure)):
                continue
            if not isinstance(decompose_any(c), Irreducible):
                continue
            assert is_galois(shape)


def test_is_galois_over_K():
    x5, x7, x3 = K5.x, K7.x, K3.x
    assert not is_galois(DepressedTrace(x5))            # disc -27(x^2-4) not a square
    assert is_galois(Pure(x7))                          # 7 = 1 mod 3
    assert not is_galois(Pure(func_field(F2).x))        # 2 = -1 mod 3
    assert is_galois(Char3(-x3 * x3))                   # -a = x^2
    assert not is_galois(Char3(x3))
    assert not is_galois(InseparablePure(x3))
    with pytest.raises(ReducibleInput):
        is_galois(Reducible(K5.one, (K5.zero, K5.one)))


def test_galois_param_produces_galois_forms():
    rng = random.Random(1205)
    for q in (2, 5, 7):
        F = field_make(q)
        K = func_field(F)
        hits = 0
        while hits < 12:
            A = Poly(F, [F.from_value(rng.randrange(q)) for _ in range(rng.randrange(3) + 1)])
            B = Poly(F, [F.from_value(rng.randrange(q)) for _ in range(rng.randrange(3) + 1)])
            if A.is_zero() or B.is_zero():
                continue
            try:
                a = galois_param(K.from_poly(A), K.from_poly(B))
            except DegenerateParameter:
                continue
            if (a * a - 4).is_zero():
                continue
            hits += 1
            assert is_galois(DepressedTrace(a))


def test_galois_param_degenerate():
    # over GF(7), 1 + B + B^2 = 0 at B in {2, 4}
    with pytest.raises(DegenerateParameter):
        galois_param(F7.one, F7.from_int(2))


def test_galois_denominator_check():
    x = K5.x
    assert not galois_denominator_check(K5.one / x)
    a = galois_param(K5.from_poly(Poly.of_ints(F5, [1, 1])), K5.x)
    assert galois_denominator_check(a)
    with pytest.raises(WrongFieldClass):
        galois_denominator_check(K7.x)


# ---------------------------------------------------------------------------
# family conversions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F,Ename", [(F5, (5, 3)), (F7, (7, 3))], ids=repr)
def test_shanks_round_trip_finite(F, Ename):
    """Roots of X^3 + aX^2 - (a+3)X + 1 map onto roots of the depressed form."""
    E = field_make(*Ename)
    for a in F.elements():
        d = a * a + 3 * a + 9
        if d.is_zero():
            with pytest.raises(DegenerateParameter):
                shanks_to_canonical(a)
            continue
        if (2 * a + 3).is_zero():
            # that member is reducible (root 2) and its root map is singular
            with pytest.raises(ReducibleInput):
                shanks_to_canonical(a)
            continue
        dep, mob = shanks_to_canonical(a)
        source = Cubic(a, -(a + F.from_int(3)), F.one)
        target = dep.cubic()
        sroots, emb = roots_in_cubic_closure(source, E)
        troots, _ = roots_in_cubic_closure(target, E)
        assert len(sroots) == len(troots)
        m00, m01, m10, m11 = (emb(v) for v in mob.entries())
        for y in sroots:
            den = m01 * y + m00
            if den.is_zero():
                continue
            assert (m11 * y + m10) / den in troots


def test_shanks_char3_refused():
    with pytest.raises(WrongCharacteristic):
        shanks_to_canonical(F3.one)


def test_shanks_over_K():
    x = K5.x
    dep, _ = shanks_to_canonical(x)
    assert dep == DepressedTrace((2 * x * x + 6 * x - 9) / (x * x + 3 * x + 9))
    assert is_galois(dep)


def test_artin_schreier_normalize():
    x = K3.x
    shape = Char3(-x * x)
    h, mob = artin_schreier_normalize(shape)
    assert h * h == x * x
    # y^3 + ay + a^2 = -h^3 (w^3 - w - h) under y = -h w: check on samples
    rng = random.Random(3)
    for _ in range(20):
        num = Poly(F3, [F3.from_value(rng.randrange(3)) for _ in range(3)])
        from cubicext.polyring import RatFunc
        w = K3.from_poly(num)
        y = -h * w
        lhs = y ** 3 + shape.a * y + shape.a * shape.a
        rhs = -h ** 3 * (w ** 3 - w - h)
        assert lhs == rhs
        assert mob.apply(y) == w or (y == K3.zero and mob.apply(y) == w)
    with pytest.raises(DegenerateParameter):
        artin_schreier_normalize(Char3(x))


# ---------------------------------------------------------------------------
# isomorphism deciders
# ---------------------------------------------------------------------------

def test_isom_pure_cube_twists():
    assert isom_pure(F7.from_int(3), F7.from_int(4))
    x = K7.x
    assert isom_pure(x, x * (x + 1) ** 3)
    assert isom_pure(x, x * x)                 # a vs a^2: same field
    assert not isom_pure(x, x + 1)
    with pytest.raises(FieldMismatch):
        isom_pure(F7.one, F5.one)
    with pytest.raises(ReducibleInput):
        isom_pure(K7.zero, x)


def test_isom_depressed_constructed_witness():
    x = K5.x
    rng = random.Random(88)
    for _ in range(6):
        a2 = K5.from_poly(Poly(F5, [F5.from_value(rng.randrange(5)) for _ in range(2)]))
        if (a2 * a2 - 4).is_zero() or a2.is_constant():
            continue
        # conic point (alpha, beta) = (0, 1) is trivial; use the chord at t = x
        t = x
        den = t * t + a2 * t + 1
        if den.is_zero():
            continue
        alpha = -(a2 + 2 * t) / den
        beta = 1 + t * alpha
        a1 = (-3 * a2 * alpha * alpha * beta + a2 * beta ** 3 + 6 * alpha
              + alpha ** 3 * a2 * a2 - 8 * alpha ** 3)
        res = isom_depressed(a1, a2, search_bound=3)
        assert isinstance(res, Isomorphic)
        al, be = res.witness
        assert al * al + a2 * al * be + be * be == K5.one


def test_isom_depressed_not_isomorphic_has_certificate():
    x = K5.x
    res = isom_depressed(x, x + 1, search_bound=1)
    assert isinstance(res, NotIsomorphic)
    assert res.witness is not None  # a separating place


def test_lazy_separation_scan_matches_the_place_table():
    x3, x5, x7 = K3.x, K5.x, K7.x
    cases = [
        (DepressedTrace(x5), DepressedTrace(x5 + 1)),
        (Pure(x7), Pure((4 + 4 * x7 * x7) / x7)),     # first separated at 1+x^2
        (Char3(x3), Char3(x3 + 1)),
        (DepressedTrace(x7), DepressedTrace(x7)),     # the budget ends the scan
    ]
    for s1, s2 in cases:
        e1, e2 = arith.Extension(s1), arith.Extension(s2)
        table = places_up_to(s1.base, 4)[:SEPARATION_PLACE_BUDGET]
        expected = next((P for P in table
                         if arith.signature(e1, P) != arith.signature(e2, P)), None)
        assert _separate_by_signature(s1, s2, 4) == expected


def test_isom_char3_twist():
    x = K3.x
    # w = x, j = 1: a2 = (a1^2 + w^3 + a1 w)^2 / a1^3 with a1 = x
    a2 = (x * x + x ** 3 + x * x) ** 2 / x ** 3
    res = isom_char3(x, a2, search_bound=3)
    assert isinstance(res, Isomorphic)
    j, w = res.witness
    assert a2 == (j * x * x + w ** 3 + x * w) ** 2 / x ** 3


def test_isom_char3_finite():
    # over GF(3): a = 2 is the irreducible parameter (y^3+2y+1 has no roots);
    # reflexivity must produce a witness
    res = isom_char3(F3.from_int(2), F3.from_int(2))
    assert isinstance(res, Isomorphic)
    j, w = res.witness
    a = F3.from_int(2)
    assert a == (j * a * a + w ** 3 + a * w) ** 2 / a ** 3
    # a twist constructed over GF(9)
    F9 = field_make(3, 2)
    t = F9.gen()
    a1 = t
    w = t + F9.one
    num = a1 * a1 + w ** 3 + a1 * w
    if not num.is_zero():
        a2 = num * num / a1 ** 3
        res2 = isom_char3(a1, a2)
        assert isinstance(res2, Isomorphic)


# ---------------------------------------------------------------------------
# rational roots of shapes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("F", [F2, F3, F4, F5], ids=repr)
def test_has_rational_root_exhaustive_finite(F):
    p = F.p
    shapes = []
    for a in F.elements():
        if not a.is_zero():
            if p != 3:
                shapes.append(Pure(a))
            else:
                shapes.append(InseparablePure(a))
                shapes.append(Char3(a))
        if p not in (3,):
            shapes.append(DepressedTrace(a))
    for shape in shapes:
        got = has_rational_root(shape)
        brute = poly_roots(shape.cubic().as_poly())
        if brute:
            assert got is not None
            assert shape.cubic()(got).is_zero()
        else:
            assert got is None


def test_has_rational_root_over_K():
    x = K5.x
    assert has_rational_root(Pure(x)) is None
    r = has_rational_root(Pure(x ** 3))
    assert r is not None and r ** 3 == x ** 3
    a = x ** 3 - 3 * x
    r2 = has_rational_root(DepressedTrace(a))
    assert r2 is not None
    assert r2 ** 3 - 3 * r2 - a == K5.zero
    assert has_rational_root(DepressedTrace(x)) is None
    assert has_rational_root(Char3(K3.x)) is None


# ---------------------------------------------------------------------------
# reduce_cubic and FracLinear against element-operator formulas
# ---------------------------------------------------------------------------

def _normalized_entries(ms):
    """First nonzero entry scaled to 1, on element operators."""
    pivot = next(m for m in ms if not m.is_zero())
    return tuple(m / pivot for m in ms)


def _reduce_cubic_oracle(T):
    """(shape, map entries) by reduce_cubic's formulas on FieldElem/RatFunc
    operators, independent of the kernel it runs on."""
    b = T.base
    e, f, g = T.e, T.f, T.g
    ident = (b.one, b.zero, b.zero, b.one)
    if g.is_zero():
        return Reducible(b.zero, (e, f)), ident
    p = b.p if hasattr(b, "p") else b.field.p
    if p == 3:
        n = g * e ** 3 + f ** 3 - f * f * e * e
        if not e.is_zero() and n.is_zero():
            r = f / e
            return Reducible(r, (e + r, f + r * (e + r))), ident
        if e.is_zero() and f.is_zero():
            return InseparablePure(-g), ident
        if e.is_zero():
            return Char3(g * g / f ** 3), _normalized_entries(
                (b.one, b.zero, b.zero, g / (f * f)))
        return Char3(n / e ** 6), _normalized_entries((-f * e ** 4, e ** 5, n, b.zero))
    if (27 * g * g + 2 * f ** 3 - 9 * e * f * g).is_zero():
        r = -3 * g / f
        return Reducible(r, (e + r, f + r * (e + r))), ident
    if e.is_zero() and f == b.from_int(-3):
        return DepressedTrace(-g), ident
    if 3 * e * g == f * f:
        a = 27 * g ** 3 / (f ** 3 - 27 * g * g)
        return Pure(a), _normalized_entries((3 * g, f, b.zero, 3 * g))
    d = 3 * e * g - f * f
    a = -2 - (27 * g * g - 9 * e * f * g + 2 * f ** 3) ** 2 / d ** 3
    return DepressedTrace(a), _normalized_entries(
        (3 * g * d, f * d, 3 * g * d, f ** 3 + 27 * g * g - 6 * e * f * g))


def _branch_cubics(b, rand, count):
    """count seeded cubics over b: random ones, and ones built to reach the
    g = 0, depressed, pure, inseparable and char-3 reducible branches."""
    char3 = (b.p if hasattr(b, "p") else b.field.p) == 3
    for i in range(count):
        e, f, g = rand(), rand(), rand()
        kind = i % 5
        if kind == 1:
            g = b.zero
        elif kind == 2:
            e = b.zero
            f = b.zero if char3 else b.from_int(-3)
        elif kind == 3 and char3:
            e = b.zero
        elif kind == 3 and not g.is_zero():
            e = f * f / (3 * g)
        elif kind == 4 and char3 and not e.is_zero():
            g = (f * f * e * e - f ** 3) / e ** 3
        yield Cubic(e, f, g)


def _rand_elem(F, rng):
    return lambda: F.from_value(rng.randrange(F.order))


def _rand_ratfunc(K, rng):
    from cubicext.polyring import RatFunc
    F = K.field

    def rand():
        num = Poly(F, [F.from_value(rng.randrange(F.order))
                       for _ in range(rng.randint(0, 4))])
        den = Poly(F, [F.from_value(rng.randrange(F.order))
                       for _ in range(rng.randint(0, 3))] + [F.one])
        return RatFunc(K, num, den)
    return rand


def _reduce_cubic_cases():
    for F in (F2, F3, F4, F5, F7):
        yield from all_cubics(F)
    rng = random.Random(7070)
    for p, m in ((3, 2), (3, 4), (5, 3), (101, 1), (2, 8)):
        F = field_make(p, m)
        yield from _branch_cubics(F, _rand_elem(F, rng), 300)
    for F in (F3, F4, F5):
        K = func_field(F)
        yield from _branch_cubics(K, _rand_ratfunc(K, rng), 40)


def test_reduce_cubic_matches_elementwise_formulas():
    kinds = set()
    for c in _reduce_cubic_cases():
        shape, mob = reduce_cubic(c)
        want_shape, want_entries = _reduce_cubic_oracle(c)
        assert shape == want_shape, c
        assert mob.entries() == want_entries, c
        assert all(base_of(v) is c.base for v in mob.entries())
        kinds.add((type(c.base).__name__, type(shape).__name__, mob.is_identity()))
    # every branch is reached over both kinds of base
    for dom in ("Field", "FuncField"):
        for shape_name, ident in (("Reducible", True), ("DepressedTrace", True),
                                  ("DepressedTrace", False), ("Pure", False),
                                  ("Char3", False), ("InseparablePure", True)):
            assert (dom, shape_name, ident) in kinds, (dom, shape_name, ident)


@pytest.mark.parametrize("base", [F7, field_make(3, 2), K5], ids=repr)
def test_frac_linear_normalizes_on_the_first_pivot(base):
    one, zero, two = base.one, base.zero, base.from_int(2)
    x = base.x if hasattr(base, "x") else base.from_value(base.order - 2)
    c = x + one  # x, c and 2 are nonzero on every base here
    # pivot m00, not 1: every entry divided by it
    ms = (two, x, zero, c)
    m = FracLinear(*ms)
    assert m.entries() == tuple(v / two for v in ms)
    assert all(type(v) is type(one) for v in m.entries())
    # pivot m01 (m00 = 0)
    ms = (zero, two, x, c)
    assert FracLinear(*ms).entries() == tuple(v / two for v in ms)
    # a pivot already 1 keeps every entry
    ms = (one, x, zero, c)
    assert FracLinear(*ms).entries() == ms
    # a pivot in m10 or m11 leaves the first row zero: singular
    with pytest.raises(SingularMatrix):
        FracLinear(zero, zero, two, x)
    with pytest.raises(SingularMatrix):
        FracLinear(zero, zero, zero, two)
    with pytest.raises(SingularMatrix):
        FracLinear(two, two * x, one, x)
    # the identity is one constant of the base
    ident = FracLinear.identity(base)
    assert ident is FracLinear.identity(base)
    assert ident.is_identity() and ident.entries() == (one, zero, zero, one)


def test_reduce_cubic_and_frac_linear_refuse_mixed_fields():
    with pytest.raises(FieldMismatch):
        reduce_cubic(Cubic(F5.one, F7.from_int(3), F7.one))
    with pytest.raises(FieldMismatch):
        FracLinear(F5.one, F7.one, F5.zero, F7.from_int(3))
