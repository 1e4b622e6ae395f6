"""One Decomp constructor, one wrap boundary.

reduce_cubic is a wrapper over canon's value-level core, and decompose_any
reduces, pulls every root back and builds its Decomp with one _from_roots
call.  The reduction that wrapped its values on every line is copied below
as the oracle; brute_factor is the oracle of every decomposition.
"""
import ast
import inspect
import random

import pytest

from cubicext import ffcubic
from cubicext.canon import (Char3, Cubic, DepressedTrace, FracLinear, InseparablePure, Pure,
                            Reducible, char_of, reduce_cubic)
from cubicext.errors import WrongCharacteristic
from cubicext.ffcubic import (Irreducible, LinTimesQuad, LinTimesSquare, ThreeDistinct,
                              Triple, brute_factor, decompose_any)
from cubicext.ffield import _kernel, field_make
from cubicext.polyring import func_field


# ---------------------------------------------------------------------------
# the oracle: reduce_cubic as it wrapped and unwrapped on every line
# ---------------------------------------------------------------------------

def oracle_reduce_cubic(T: Cubic):
    b = T.base
    ident = FracLinear.identity(b)
    if not T.g:
        return Reducible(b.zero, (T.e, T.f)), ident
    K = _kernel(b)
    e, f, g = K.value(T.e), K.value(T.f), K.value(T.g)
    if char_of(b) == 3:
        return oracle_reduce_char3(K, e, f, g, ident)
    add, sub, mul, n = K.add, K.sub, K.mul, K.of_int
    g2, f2 = mul(g, g), mul(f, f)
    f3, efg, g27 = mul(f2, f), mul(mul(e, f), g), mul(n(27), g2)
    t = sub(add(g27, mul(n(2), f3)), mul(n(9), efg))
    if not t:
        r = mul(mul(n(-3), g), K.inv(f))
        er = add(e, r)
        return Reducible(K.elem(r), (K.elem(er), K.elem(add(f, mul(r, er))))), ident
    if not e and f == n(-3):
        return DepressedTrace(K.elem(sub(K.zero, g))), ident
    eg3 = mul(n(3), mul(e, g))
    if eg3 == f2:
        a = mul(mul(g27, g), K.inv(sub(f3, g27)))
        g3 = K.elem(mul(n(3), g))
        return Pure(K.elem(a)), FracLinear(g3, T.f, b.zero, g3)
    d = sub(eg3, f2)
    a = sub(n(-2), mul(mul(t, t), K.inv(mul(mul(d, d), d))))
    gd3 = K.elem(mul(mul(n(3), g), d))
    return DepressedTrace(K.elem(a)), FracLinear(
        gd3, K.elem(mul(f, d)), gd3, K.elem(sub(add(f3, g27), mul(n(6), efg))))


def oracle_reduce_char3(K, e, f, g, ident):
    b, mul = K.dom, K.mul
    e2, f2 = mul(e, e), mul(f, f)
    e3 = mul(e2, e)
    n = K.sub(K.add(mul(g, e3), mul(f2, f)), mul(f2, e2))
    if e and not n:
        r = mul(f, K.inv(e))
        er = K.add(e, r)
        return Reducible(K.elem(r), (K.elem(er), K.elem(K.add(f, mul(r, er))))), ident
    if not e and not f:
        return InseparablePure(K.elem(K.sub(K.zero, g))), ident
    if not e:
        a = mul(mul(g, g), K.inv(mul(f2, f)))
        return Char3(K.elem(a)), FracLinear(b.one, b.zero, b.zero,
                                            K.elem(mul(g, K.inv(f2))))
    e4, a = mul(e2, e2), mul(n, K.inv(mul(e3, e3)))
    return Char3(K.elem(a)), FracLinear(K.elem(K.sub(K.zero, mul(f, e4))),
                                        K.elem(mul(e4, e)), K.elem(n), b.zero)


def assert_same_reduction(c):
    shape, mob = reduce_cubic(c)
    want_shape, want_mob = oracle_reduce_cubic(c)
    assert type(shape) is type(want_shape) and shape == want_shape, c
    assert mob == want_mob and mob.entries() == want_mob.entries(), c


# ---------------------------------------------------------------------------
# cubic pools: every branch of the reduction is drawn on purpose
# ---------------------------------------------------------------------------

def from_roots(r1, r2, r3) -> Cubic:
    return Cubic(-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3))


def shaped_cubics(rng, draw, base, count):
    """Random cubics, cubics from chosen roots (distinct, double, triple),
    cubics with 3eg = f^2 (the pure branch) and, in characteristic 3, with
    e = 0 and with e = f = 0."""
    zero = base.zero
    out = []
    for _ in range(count):
        e, f, g, r, s, t = (draw() for _ in range(6))
        out += [Cubic(e, f, g), from_roots(r, s, t), from_roots(r, s, s),
                from_roots(r, r, r), Cubic(zero, f, g), Cubic(zero, zero, g)]
        if char_of(base) != 3 and e:
            out.append(Cubic(e, f, f * f / (3 * e)))  # 3eg = f^2
    return out


SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


@pytest.mark.parametrize("p,m", SMALL, ids=str)
def test_reduce_cubic_equals_the_oracle_on_every_monic_cubic(p, m):
    F = field_make(p, m)
    elems = list(F.elements())
    for e in elems:
        for f in elems:
            for g in elems:
                assert_same_reduction(Cubic(e, f, g))


@pytest.mark.parametrize("p,m", [(101, 1), (3, 4), (2, 8)], ids=str)
def test_reduce_cubic_equals_the_oracle_on_seeded_cubics(p, m):
    F = field_make(p, m)
    rng = random.Random(19 * p + m)
    for c in shaped_cubics(rng, lambda: F.from_value(rng.randrange(F.order)), F, 300):
        assert_same_reduction(c)


@pytest.mark.parametrize("p", [5, 3])
def test_reduce_cubic_equals_the_oracle_over_the_function_field(p):
    F = field_make(p)
    K = func_field(F)
    rng = random.Random(p)

    def draw():
        num = [rng.randrange(p) for _ in range(rng.randrange(4))]
        den = [rng.randrange(p) for _ in range(rng.randrange(3))] + [1]
        return K.rat(num, den)

    cubics = shaped_cubics(rng, draw, K, 60)
    assert {type(reduce_cubic(c)[0]) for c in cubics} == (
        {Char3, InseparablePure, Reducible} if p == 3 else {Pure, DepressedTrace, Reducible})
    for c in cubics:
        assert_same_reduction(c)


# ---------------------------------------------------------------------------
# decompose_any against the scan
# ---------------------------------------------------------------------------

FF_FIELDS = [(7, 1), (101, 1), (3, 4), (5, 3), (2, 8), (2, 16)]
BINS = {Irreducible, LinTimesQuad, ThreeDistinct, LinTimesSquare, Triple}


@pytest.mark.parametrize("p,m", FF_FIELDS, ids=str)
def test_decompose_any_equals_brute_factor_in_every_bin(p, m):
    F = field_make(p, m)
    rng = random.Random(1900 + p * m)

    def draw():
        return F.from_value(rng.randrange(F.order))

    count = 4 if F.order > 1 << 12 else 40
    cubics = []
    for _ in range(count):
        r, s, t, b, c = (draw() for _ in range(5))
        cubics += [from_roots(r, s, t), from_roots(r, s, s), from_roots(r, r, r),
                   Cubic(b - r, c - r * b, -(r * c)), Cubic(*(draw() for _ in range(3)))]
    if F.p != 3:  # pure cubics: X^3 - a and a moved copy, 3eg = f^2
        cubics += [Cubic(F.zero, F.zero, draw()) for _ in range(count)]
        cubics += [Cubic(e, f, f * f / (3 * e)) for e, f in
                   ((draw() or F.one, draw()) for _ in range(count))]
    seen = set()
    for c in cubics:
        d = decompose_any(c)
        assert d == brute_factor(c), c
        seen.add(type(d))
    assert seen == BINS


@pytest.mark.parametrize("p,m", [(7, 1), (2, 3), (3, 2), (5, 2)], ids=str)
def test_hand_built_reducible_shapes_equal_brute_factor(p, m):
    F = field_make(p, m)
    elems = list(F.elements())
    rng = random.Random(p + m)
    seen = set()
    for r in rng.sample(elems, min(len(elems), 5)):
        for u in elems:
            # (X - u)^2, (X - r)(X - u) and random quadratics
            shapes = [Reducible(r, (-(u + u), u * u)), Reducible(r, (-(r + u), r * u))]
            shapes += [Reducible(r, (u, v)) for v in rng.sample(elems, min(len(elems), 4))]
            for shape in shapes:
                d = decompose_any(shape)
                assert d == brute_factor(shape.cubic()), shape
                seen.add(type(d))
    assert seen == BINS - {Irreducible}


def test_a_hand_built_triple_and_inseparable_shape_equal_brute_factor():
    F7, F27 = field_make(7), field_make(3, 3)
    r = F7.from_int(3)
    triple = Reducible(r, (-(r + r), r * r))
    assert decompose_any(triple) == brute_factor(triple.cubic()) == Triple(r)
    for a in F27.elements():
        shape = InseparablePure(a)
        d = decompose_any(shape)
        assert isinstance(d, Triple) and d == brute_factor(shape.cubic())


def test_a_hand_built_pure_shape_over_gf9_raises():
    F9 = field_make(3, 2)
    with pytest.raises(WrongCharacteristic):
        decompose_any(Pure(F9.from_value(4)))
    with pytest.raises(WrongCharacteristic):
        decompose_any(DepressedTrace(F9.one))


def test_family_shapes_equal_their_decomposers():
    for F, families in ((field_make(7), (Pure, DepressedTrace)),
                        (field_make(2, 4), (Pure, DepressedTrace)),
                        (field_make(3, 3), (Char3,))):
        for cls in families:
            decompose = {Pure: ffcubic.decompose_pure, DepressedTrace: ffcubic.decompose_depressed,
                         Char3: ffcubic.decompose_char3}[cls]
            for a in F.elements():
                assert decompose_any(cls(a)) == decompose(a) == brute_factor(cls(a).cubic())


# ---------------------------------------------------------------------------
# one constructor
# ---------------------------------------------------------------------------

def test_decomps_are_built_only_in_from_roots_lin_times_quad_and_brute_factor():
    tree = ast.parse(inspect.getsource(ffcubic))
    builders = {cls.__name__ for cls in BINS}
    sites = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in builders):
                    sites[fn.name] = sites.get(fn.name, 0) + 1
    assert set(sites) == {"_from_roots", "_lin_times_quad", "brute_factor"}
    assert sites["_from_roots"] == 4 and sites["_lin_times_quad"] == 1
