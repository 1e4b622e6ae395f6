import random

import pytest

from cubicext.arith import (
    Constant,
    Extension,
    Geometric,
    RamificationReport,
    ResolventBehavior,
    Signature,
    artin_schreier_solve,
    as_local_reduce,
    char3_local_form,
    genus,
    is_constant_extension,
    pure_local_form,
    ramification_report,
    resolvent_place_behavior,
    signature,
)
from cubicext.canon import Char3, DepressedTrace, InseparablePure, Pure, Reducible
from cubicext.errors import (
    ConstantExtension,
    ReducibleInput,
    WrongCharacteristic,
    WrongFieldClass,
)
from cubicext.ffcubic import brute_factor
from cubicext.ffield import field_make, trace_to_prime
from cubicext.places import Place, places_up_to, residue_field, valuation
from cubicext.polyring import Poly, RatFunc, func_field, is_irreducible

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)
F7 = field_make(7)
K2 = func_field(F2)
K3 = func_field(F3)
K4 = func_field(F4)
K5 = func_field(F5)
K7 = func_field(F7)


def sig_of_decomp(d):
    """Unramified signature from a residue-field factorization."""
    name = type(d).__name__
    return {
        "Irreducible": ((1, 3),),
        "LinTimesQuad": ((1, 1), (1, 2)),
        "ThreeDistinct": ((1, 1), (1, 1), (1, 1)),
    }[name]


def rand_rat(rng, K, deg=3):
    F = K.field
    while True:
        num = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg + 1)])
        den = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg)])
        if not num.is_zero() and not den.is_zero():
            return RatFunc(K, num, den)


# ---------------------------------------------------------------------------
# Extension guards
# ---------------------------------------------------------------------------

def test_extension_guards():
    with pytest.raises(ReducibleInput):
        Extension(Pure(K5.zero))
    with pytest.raises(ReducibleInput):
        Extension(DepressedTrace(K5.from_int(2)))   # a = 2: root 2... wait, reducible
    with pytest.raises(ReducibleInput):
        Extension(Reducible(K5.one, (K5.zero, K5.one)))
    with pytest.raises(WrongCharacteristic):
        Extension(InseparablePure(K3.x))
    with pytest.raises(WrongFieldClass):
        Extension(Pure(F5.from_int(2)))             # finite-field parameter
    ext = Extension(Pure(K5.x))
    assert ext.family == "pure"
    assert ext.field is F5


def test_signature_invariants():
    s = Signature(((1, 1), (2, 1)))
    assert s.pairs == ((2, 1), (1, 1))              # sorted, ramified first
    assert s.render() == "(2,1;1,1)"
    assert s.is_ramified
    with pytest.raises(AssertionError):
        Signature(((1, 1),))                         # sum e*f != 3


# ---------------------------------------------------------------------------
# signatures vs residue-field brute force at unramified places
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K,family", [
    (K5, "pure"), (K7, "pure"), (K4, "pure"),
    (K5, "dep"), (K2, "dep"), (K4, "dep"),
    (K3, "char3"),
], ids=lambda v: getattr(v, "field", v) and str(v))
def test_signature_matches_residue_factorization(K, family):
    rng = random.Random(hash((K.field.order, family)) & 0xFFFF)
    shapes = []
    for _ in range(8):
        a = rand_rat(rng, K)
        if a.is_zero() or a.is_constant():
            continue
        if family == "pure":
            shapes.append(Pure(a))
        elif family == "dep":
            if not (a * a - 4).is_zero():
                shapes.append(DepressedTrace(a))
        else:
            shapes.append(Char3(a))
    for shape in shapes:
        ext = Extension(shape)
        for P in places_up_to(K, 2):
            if valuation(shape.a, P) != 0:
                continue
            rd = residue_field(P)
            abar = rd.reduce(shape.a)
            residue_shape = {"pure": Pure, "dep": DepressedTrace, "char3": Char3}[family](abar)
            try:
                expected = sig_of_decomp(brute_factor(residue_shape.cubic()))
            except KeyError:
                continue  # residue cubic not squarefree: the place ramifies
            assert signature(ext, P).pairs == tuple(sorted(expected, key=lambda t: (-t[0], t[1])))


# ---------------------------------------------------------------------------
# hand-computed local goldens
# ---------------------------------------------------------------------------

def test_pure_local_form():
    x = K5.x
    P = Place.finite(Poly.gen(F5))
    u, c = pure_local_form(x ** 7 / (x + 1), P)
    assert valuation(u, P) == 1                     # 7 = 3*2 + 1
    assert u * c ** 3 == x ** 7 / (x + 1)


def test_signature_goldens_pure():
    ext = Extension(Pure(K5.x))
    inf = Place.infinity(K5)
    x_place = Place.finite(Poly.gen(F5))
    assert signature(ext, inf).render() == "(3,1)"
    assert signature(ext, x_place).render() == "(3,1)"
    # at x=1: residue 1 is a cube with three roots? cubes of GF(5) are all of
    # GF(5), one root each (q = 2 mod 3): split as (1,1;1,2)? no: X^3-1 over
    # GF(5) has the single root 1, quadratic cofactor irreducible
    one_place = Place.finite(Poly.of_ints(F5, [-1, 1]))
    assert signature(ext, one_place).render() == "(1,1;1,2)"


def test_signature_goldens_char3():
    ext = Extension(Char3(K3.x))
    rows = {}
    for P in places_up_to(K3, 1):
        rows[P.render()] = signature(ext, P).render()
    assert rows == {
        "infinity": "(3,1)",
        "x": "(2,1;1,1)",
        "1+x": "(1,3)",
        "2+x": "(1,1;1,2)",
    }


def test_signature_depressed_deep_pole_is_pure_residual():
    # a = 1/x^3 over GF(2): at (x) the pole depth is divisible by 3, and the
    # leading coefficient 1 is a cube with a single cube root in GF(2):
    # unramified, split as (1,1;1,2)
    x = K2.x
    ext = Extension(DepressedTrace(1 / x ** 3))
    P = Place.finite(Poly.gen(F2))
    assert signature(ext, P).render() == "(1,1;1,2)"
    # at infinity: v(a) = 3 > 0, residue 0: X^3 + X = X(X+1)^2, and the
    # resolvent u = 1/a^2 + 1 reduces to an odd-order pole: ramified
    assert signature(ext, Place.infinity(K2)).render() == "(2,1;1,1)"


def test_resolvent_behavior_odd_char():
    x = K5.x
    # Delta = -27(a^2-4) = -27(x-2)(x+2): odd order at both zeros of a^2-4
    P = Place.finite(Poly.of_ints(F5, [-2, 1]))
    assert resolvent_place_behavior(x, P) == ResolventBehavior.RAMIFIED
    # at x = 1: Delta(1) = -27*(-3) = 81 = 1 mod 5: square: split
    Q = Place.finite(Poly.of_ints(F5, [-1, 1]))
    assert resolvent_place_behavior(x, Q) == ResolventBehavior.SPLIT
    # at x = 0: Delta(0) = -27*(-4) = 108 = 3 mod 5: nonsquare: inert
    Z = Place.finite(Poly.gen(F5))
    assert resolvent_place_behavior(x, Z) == ResolventBehavior.INERT


def test_resolvent_behavior_char2():
    x = K2.x
    # a = x: u = 1/x^2 + 1 = (x^2+1)/x^2 = ((x+1)/x)^2: reduce once, constant
    # residual 0 (w = (x+1)/x solves w^2 + w = u when ...): trace 0: split?
    P = Place.finite(Poly.gen(F2))
    got = resolvent_place_behavior(x, P)
    assert got in (ResolventBehavior.SPLIT, ResolventBehavior.INERT,
                   ResolventBehavior.RAMIFIED)
    # golden: computed independently below via artin_schreier_solve
    u = 1 / (x * x) + 1
    w = artin_schreier_solve(u)
    if w is not None:
        assert got == ResolventBehavior.SPLIT or valuation(w, P) >= 0


# ---------------------------------------------------------------------------
# Artin-Schreier machinery
# ---------------------------------------------------------------------------

def test_as_local_reduce_properties():
    rng = random.Random(1312)
    for K in (K2, K4):
        places = [P for P in places_up_to(K, 2)]
        for _ in range(25):
            u = rand_rat(rng, K)
            P = rng.choice(places)
            u2, w = as_local_reduce(u, P)
            assert u2 == u + w * w + w
            v = valuation(u2, P)
            assert v >= 0 or v % 2 == 1


def test_artin_schreier_solve_round_trip():
    rng = random.Random(77)
    for K in (K2, K4):
        for _ in range(40):
            w = rand_rat(rng, K, deg=2)
            u = w * w + w
            got = artin_schreier_solve(u)
            assert got is not None
            assert got * got + got == u
            # the two solutions differ by GF(2): w or w+1
            assert got in (w, w + 1)


def test_artin_schreier_solve_unsolvable():
    x = K2.x
    # u = x has an odd pole at infinity: no global solution
    assert artin_schreier_solve(x) is None
    # constant with nonzero trace
    t = K4.from_elem(F4.gen())
    if trace_to_prime(F4.gen()).value == 1:
        assert artin_schreier_solve(t) is None


def test_char3_local_form_terminates_and_witnesses():
    x = K3.x
    P = Place.infinity(K3)
    # a = x^4: v_inf = -4, not divisible by 3... pick a = 1/x^6 shape instead
    a = x ** 6 + x          # v_inf(a) = -6: one reduction step at least
    astar, vstar, steps = char3_local_form(a, P)
    assert valuation(astar, P) == vstar
    assert not (vstar < 0 and vstar % 3 == 0)


# ---------------------------------------------------------------------------
# ramification reports and genus
# ---------------------------------------------------------------------------

def test_report_depressed_golden():
    ext = Extension(DepressedTrace(K5.x))
    rep = ramification_report(ext)
    assert [(P.render(), d) for P, d in rep.fully_ramified] == [("infinity", 2)]
    assert [(P.render(), d) for P, d in rep.partially_ramified] == [("2+x", 1), ("3+x", 1)]
    assert rep.different_degree == 4
    assert genus(ext) == 0


def test_report_pure_goldens():
    assert genus(Extension(Pure(K5.x))) == 0
    x7 = K7.x
    ext = Extension(Pure(x7 * (x7 - 1)))
    rep = ramification_report(ext)
    # x, x-1 and infinity (v = -2) are the fully ramified places, d = 2 each
    assert [(P.render(), d) for P, d in rep.fully_ramified] == \
        [("infinity", 2), ("x", 2), ("6+x", 2)]
    assert rep.partially_ramified == ()
    assert genus(ext) == 1


def test_report_char3_goldens():
    assert genus(Extension(Char3(K3.x))) == 0
    # Galois example: -a square, wild at infinity
    ext = Extension(Char3(-K3.x ** 2))
    rep = ramification_report(ext)
    assert genus(ext) == 0
    assert all(d >= 2 for _, d in rep.fully_ramified)


def test_genus_depressed_rational_family():
    a = K5.rat((4, 2, 2), (1, 1, 1))  # (2x^2+2x-1)/(x^2+x+1)
    assert genus(Extension(DepressedTrace(a))) == 0


def test_genus_rejects_constant_extension():
    with pytest.raises(ConstantExtension):
        genus(Extension(Pure(K7.from_int(2))))
    with pytest.raises(ConstantExtension):
        genus(Extension(DepressedTrace(K2.one)))    # X^3+X+1 over GF(2)


def test_genus_diagnoses_reducible():
    x = K5.x
    with pytest.raises(ReducibleInput):
        genus(Extension(DepressedTrace(x ** 3 - 3 * x)))


def test_is_constant_extension_cases():
    assert is_constant_extension(Extension(Pure(K7.from_int(2)))) == Constant(K7.from_int(2))
    got = is_constant_extension(Extension(Pure(K7.x)))
    assert isinstance(got, Geometric)
    assert got.certificate.render() == "infinity"
    # pure parameter that is a cube times a constant cube: reducible, not constant
    x = K5.x
    with pytest.raises(ReducibleInput):
        is_constant_extension(Extension(Pure(3 * (x + 1) ** 3)))
    # depressed constant parameter over GF(2)
    got2 = is_constant_extension(Extension(DepressedTrace(K2.one)))
    assert got2 == Constant(None)
    # geometric depressed
    got3 = is_constant_extension(Extension(DepressedTrace(K5.x)))
    assert isinstance(got3, Geometric)


def test_genus_small_random_integrality():
    """Sampled version of the big integrality sweep."""
    from cubicext.canon import has_rational_root
    rng = random.Random(5150)
    count = 0
    for K, fam in [(K5, Pure), (K5, DepressedTrace), (K3, Char3), (K2, DepressedTrace)]:
        tried = 0
        while tried < 15:
            a = rand_rat(rng, K, deg=2)
            if a.is_zero() or a.is_constant():
                continue
            if fam is DepressedTrace and (a * a - 4).is_zero():
                continue
            shape = fam(a)
            if has_rational_root(shape) is not None:
                continue
            ext = Extension(shape)
            if isinstance(is_constant_extension(ext), Constant):
                continue
            g = genus(ext)
            assert isinstance(g, int) and g >= 0
            tried += 1
            count += 1
    assert count == 60


def test_char3_simple_pole_needs_no_residue_field():
    """x^2/f over GF(9), f irreducible of degree d: f is a simple pole, fully
    ramified with d = 3, and infinity (v = d - 2, odd) carries the tame
    quadratic, so 2g - 2 = -6 + 3d + 1.  At d = 7 the residue field would
    be GF(3^14), beyond the field-size cap."""
    F9 = field_make(3, 2)
    K9 = func_field(F9)
    for d, g in ((5, 6), (7, 9)):
        f = next(f for f in (Poly(F9, [F9.from_value(v // 9 ** i % 9) for i in range(d)] + [F9.one])
                             for v in range(9 ** d)) if is_irreducible(f))
        ext = Extension(Char3(K9.x ** 2 / K9.from_poly(f)))
        rep = ramification_report(ext)
        assert [(P.render(), e) for P, e in rep.fully_ramified] == [(f.render(), 3)]
        assert [(P.render(), e) for P, e in rep.partially_ramified] == [("infinity", 1)]
        assert genus(ext) == g


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_artin_schreier_solve_of_constants_follows_the_trace(m):
    F = field_make(2, m)
    K = func_field(F)
    for u in F.elements():
        y = artin_schreier_solve(K.from_elem(u))
        if trace_to_prime(u).value:
            assert y is None
        else:
            assert y is not None and y * y + y == K.from_elem(u)
