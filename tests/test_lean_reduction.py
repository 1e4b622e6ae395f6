"""A lean reduction map: the value core and the map's normaliser, on named values.

``canon._reduce_values`` takes 3g once in characteristic != 3 and reuses it
for 3eg, for the pure map and for 3g*d, and takes 9efg and 6efg from one
product 3efg.  ``FracLinear._normalise`` takes its four entries by name,
finds its pivot as ``m00 or m01`` (past the determinant check both cannot be
0) and stores four named products.  Neither may change a value, so both are
checked against the earlier code, copied below, on:

* (a) every monic cubic over GF(2), GF(3), GF(4), GF(5), GF(7), GF(8) and GF(9);
* (b) 2,000 seeded cubics over each field of the ``ff-decompose`` workload,
  drawn to reach every branch of the reduction;
* (c) a seeded pool over GF(5)(x);
* (d) direct ``_normalise`` calls on seeded 4-tuples, m00 = 0 among them,
  and singular ones, which both sides refuse.
"""
import functools
import itertools
import random

import pytest

from cubicext.canon import (Char3, Cubic, DepressedTrace, FracLinear, InseparablePure, Pure,
                            Reducible, _reduce_values, char_of, reduce_cubic)
from cubicext.errors import SingularMatrix
from cubicext.ffield import _kernel, field_make
from cubicext.polyring import Poly, func_field

SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
WORKLOAD = [(7, 1), (101, 1), (3, 4), (5, 3), (2, 8), (2, 16)]


def field_id(pm):
    p, m = pm
    return f"GF({p}^{m})" if m > 1 else f"GF({p})"


# ---------------------------------------------------------------------------
# oracle: the earlier value core and normaliser, copied
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def oracle_constants(K) -> tuple:
    """The kernel values of 2, 3, 6, 9, 27, -2, -3: _reduce_values' constants."""
    return tuple(map(K.of_int, (2, 3, 6, 9, 27, -2, -3)))


def oracle_reduce_values(K, e, f, g) -> tuple:
    add, sub, mul = K.add, K.sub, K.mul
    if not g:
        return Reducible, (K.zero, e, f), None
    f2 = mul(f, f)
    f3 = mul(f2, f)
    if char_of(K.dom) == 3:
        e2 = mul(e, e)
        e3 = mul(e2, e)
        t = sub(add(mul(g, e3), f3), mul(f2, e2))  # g e^3 + f^3 - f^2 e^2
        if e and not t:
            r = mul(f, K.inv(e))
        elif not e and not f:
            return InseparablePure, (sub(K.zero, g),), None
        elif not e:
            a = mul(mul(g, g), K.inv(f3))
            return Char3, (a,), (K.one, K.zero, K.zero, mul(g, K.inv(f2)))
        else:
            e4 = mul(e2, e2)
            a = mul(t, K.inv(mul(e3, e3)))
            return Char3, (a,), (sub(K.zero, mul(f, e4)), mul(e4, e), t, K.zero)
    else:
        two, three, six, nine, n27, minus2, minus3 = oracle_constants(K)
        efg, g27 = mul(mul(e, f), g), mul(n27, mul(g, g))
        # a detected rational root ends the reduction
        t = sub(add(g27, mul(two, f3)), mul(nine, efg))
        if not t:
            r = mul(mul(minus3, g), K.inv(f))  # f != 0 here, else g would be 0
        elif not e and f == minus3:
            return DepressedTrace, (sub(K.zero, g),), None
        else:
            eg3 = mul(three, mul(e, g))
            if eg3 == f2:
                g3 = mul(three, g)
                a = mul(mul(g27, g), K.inv(sub(f3, g27)))
                return Pure, (a,), (g3, f, K.zero, g3)
            d = sub(eg3, f2)
            a = sub(minus2, mul(mul(t, t), K.inv(mul(mul(d, d), d))))
            gd3 = mul(mul(three, g), d)
            return DepressedTrace, (a,), (gd3, mul(f, d), gd3,
                                          sub(add(f3, g27), mul(six, efg)))
    er = add(e, r)
    return Reducible, (r, er, add(f, mul(r, er))), None


def oracle_normalise(self, K, *ms) -> "FracLinear":
    """Store the kernel values ms = (m00, m01, m10, m11), scaled so the
    first nonzero one is 1, wrapped once; SingularMatrix on det 0."""
    m00, m01, m10, m11 = ms
    if not K.sub(K.mul(m00, m11), K.mul(m01, m10)):
        raise SingularMatrix("zero determinant")
    pivot = next(m for m in ms if m)
    if pivot != K.one:
        inv = K.inv(pivot)
        ms = [K.mul(m, inv) for m in ms]
    for name, m in zip(("m00", "m01", "m10", "m11"), ms):
        object.__setattr__(self, name, K.elem(m))
    return self


def oracle_reduce_cubic(T: Cubic):
    b = T.base
    K = _kernel(b)
    cls, params, m = oracle_reduce_values(K, K.value(T.e), K.value(T.f), K.value(T.g))
    w = K.elem
    shape = (Reducible(w(params[0]), (w(params[1]), w(params[2]))) if cls is Reducible
             else cls(w(params[0])))
    if m is None:
        return shape, FracLinear.identity(b)
    return shape, oracle_normalise(object.__new__(FracLinear), K, *m)


def check(cubics, base):
    """Both value cores and both reduce_cubic agree on every cubic; the
    classes reached, for the coverage asserts."""
    K = _kernel(base)
    reached = set()
    for c in cubics:
        vals = (K.value(c.e), K.value(c.f), K.value(c.g))
        got = _reduce_values(K, *vals)
        assert got == oracle_reduce_values(K, *vals), c
        shape, mob = reduce_cubic(c)
        want_shape, want_mob = oracle_reduce_cubic(c)
        assert shape == want_shape and mob == want_mob, c
        assert mob.entries() == want_mob.entries() and hash(mob) == hash(want_mob), c
        reached.add((got[0], got[2] is None))
    return reached


# ---------------------------------------------------------------------------
# (a) every monic cubic over the small fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pm", SMALL, ids=map(field_id, SMALL))
def test_every_monic_cubic_over_a_small_field(pm):
    F = field_make(*pm)
    elems = [F.from_value(v) for v in range(F.order)]
    reached = check([Cubic(e, f, g) for e, f, g in itertools.product(elems, repeat=3)], F)
    if F.p == 3:
        want = {(Reducible, True), (InseparablePure, True), (Char3, False)}
    else:
        want = {(Reducible, True), (Pure, False), (DepressedTrace, False)}
    assert want <= reached


# ---------------------------------------------------------------------------
# (b) seeded cubics over the workload's fields
# ---------------------------------------------------------------------------

def seeded_cubics(F, rng, count):
    """count cubics: random, from roots (distinct, double, triple), e = 0,
    e = f = 0, f = 0, g = 0, the e = 0, f = -3 shortcut, and 3eg = f^2."""
    draw = lambda: F.from_value(rng.randrange(F.order))  # noqa: E731
    zero, three = F.zero, F.from_int(3)
    out = []
    while len(out) < count:
        e, f, g, r, s, t = (draw() for _ in range(6))
        out += [Cubic(e, f, g), Cubic(zero, f, g), Cubic(zero, zero, g), Cubic(e, zero, g),
                Cubic(e, f, zero),
                Cubic(-(r + s + t), r * s + r * t + s * t, -(r * s * t)),
                Cubic(-(r + s + s), r * s + r * s + s * s, -(r * s * s)),
                Cubic(-(r + r + r), r * r * three, -(r * r * r))]
        if F.p != 3:
            out.append(Cubic(zero, -three, g))
            if e:
                out.append(Cubic(e, f, f * f / (three * e)))
    return out[:count]


@pytest.mark.parametrize("pm", WORKLOAD, ids=map(field_id, WORKLOAD))
def test_seeded_cubics_over_a_workload_field(pm):
    F = field_make(*pm)
    reached = check(seeded_cubics(F, random.Random(3600 + F.order), 2000), F)
    if F.p == 3:
        want = {(Reducible, True), (InseparablePure, True), (Char3, False)}
    else:
        want = {(Reducible, True), (Pure, False), (DepressedTrace, False), (DepressedTrace, True)}
    assert want <= reached


# ---------------------------------------------------------------------------
# (c) GF(5)(x)
# ---------------------------------------------------------------------------

def test_seeded_cubics_over_a_function_field():
    F5 = field_make(5, 1)
    ff = func_field(F5)
    rng = random.Random(3605)

    def poly(deg):
        return Poly(F5, [F5.from_int(rng.randrange(5)) for _ in range(deg)] + [F5.one])

    def draw():
        if rng.random() < 0.2:
            return ff.zero
        num = poly(rng.randrange(3)) * F5.from_int(rng.randrange(1, 5))
        return ff.rat(num, poly(rng.randrange(2)))

    zero, three = ff.zero, ff.from_int(3)
    cubics = []
    for _ in range(30):
        e, f, g, r, s = (draw() for _ in range(5))
        cubics += [Cubic(e, f, g), Cubic(zero, f, g), Cubic(zero, zero, g),
                   Cubic(-(r + s + s), r * s + r * s + s * s, -(r * s * s))]
        if e:
            cubics.append(Cubic(e, f, f * f / (three * e)))
    reached = check(cubics, ff)
    assert {(Reducible, True), (Pure, False), (DepressedTrace, False)} <= reached


# ---------------------------------------------------------------------------
# (d) _normalise on its own
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", [field_make(7, 1), field_make(2, 8), field_make(3, 4),
                                  func_field(field_make(5, 1))],
                         ids=["GF(7)", "GF(2^8)", "GF(3^4)", "GF(5)(x)"])
def test_normalise_on_seeded_tuples(base):
    K = _kernel(base)
    rng = random.Random(3606)
    if hasattr(base, "order"):
        draw = lambda: K.value(base.from_value(rng.randrange(base.order)))  # noqa: E731
    else:
        draw = lambda: base.rat([rng.randrange(5) for _ in range(rng.randrange(3))],  # noqa: E731
                                [rng.randrange(5), 1])
    pivots_zero = singular = 0
    for i in range(400):
        ms = [draw() for _ in range(4)]
        if i % 4 == 0:
            ms[0] = K.zero
        if i % 8 == 1:
            ms[0], ms[1] = K.zero, K.zero
        try:
            want = oracle_normalise(object.__new__(FracLinear), K, *ms)
        except SingularMatrix:
            singular += 1
            with pytest.raises(SingularMatrix):
                object.__new__(FracLinear)._normalise(K, *ms)
            continue
        got = object.__new__(FracLinear)._normalise(K, *ms)
        assert got.entries() == want.entries() and got == FracLinear(*map(K.elem, ms)), ms
        pivots_zero += not ms[0]
    assert pivots_zero >= 40 and singular >= 40
