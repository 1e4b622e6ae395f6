"""One map: reduce_cubic normalises its substitution on kernel values and wraps once.

_reduce_values returns the four raw entries of the map; reduce_cubic scales
them so the first nonzero one is 1 and wraps each entry once, without going
through FracLinear's public constructor.  The map must be the one that
constructor builds from the same entries, its entries must be normalised as
the element operators would normalise them, and it must still transport roots.
"""
import ast
import inspect
import random

import pytest

from cubicext import canon
from cubicext.canon import Cubic, FracLinear, _reduce_values, reduce_cubic
from cubicext.errors import SingularMatrix
from cubicext.ffield import Field, _kernel, field_make
from cubicext.polyring import Poly, func_field, poly_roots

FIELDS = [(7, 1), (101, 1), (3, 4), (5, 3), (2, 8), (2, 16)]


def from_roots(r, s, t) -> Cubic:
    return Cubic(-(r + s + t), r * s + r * t + s * t, -(r * s * t))


def seeded_cubics(rng, draw, base, count):
    """(cubic, a root or None): random cubics, cubics from chosen roots
    (distinct, double, triple), e = 0, e = f = 0, and 3eg = f^2."""
    zero = base.zero
    out = []
    for _ in range(count):
        e, f, g, r, s, t = (draw() for _ in range(6))
        out += [(Cubic(e, f, g), None), (from_roots(r, s, t), r), (from_roots(r, s, s), s),
                (from_roots(r, r, r), r), (Cubic(zero, f, g), None),
                (Cubic(zero, zero, g), None)]
        if canon.char_of(base) != 3 and e:
            out.append((Cubic(e, f, f * f / (3 * e)), None))  # the pure branch
    return out


def field_pool(p, m, count=40):
    F = field_make(p, m)
    rng = random.Random(1000 * p + m)
    return F, seeded_cubics(rng, lambda: F.from_value(rng.randrange(F.order)), F, count)


def func_pool(count=25):
    F5 = field_make(5, 1)
    ff = func_field(F5)
    rng = random.Random(55)

    def poly(deg):
        return Poly(F5, [F5.from_int(rng.randrange(5)) for _ in range(deg)] + [F5.one])

    def draw():
        if rng.random() < 0.2:
            return ff.zero
        num = poly(rng.randrange(3)) * F5.from_int(rng.randrange(1, 5))
        return ff.rat(num, poly(rng.randrange(2)))
    return ff, seeded_cubics(rng, draw, ff, count)


POOLS = [pytest.param(lambda p=p, m=m: field_pool(p, m), id=f"GF({p}^{m})" if m > 1 else f"GF({p})")
         for p, m in FIELDS]
POOLS.append(pytest.param(func_pool, id="GF(5)(x)"))


@pytest.mark.parametrize("pool", POOLS)
def test_map_is_the_public_constructors_map_on_the_same_entries(pool):
    base, cubics = pool()
    K = _kernel(base)
    maps = 0
    for c, _ in cubics:
        _, _, raw = _reduce_values(K, K.value(c.e), K.value(c.f), K.value(c.g))
        _, mob = reduce_cubic(c)
        if raw is None:
            assert mob is FracLinear.identity(base)
            continue
        maps += 1
        want = FracLinear(*map(K.elem, raw))
        assert mob == want and hash(mob) == hash(want), c
        # the normalisation, by the element operators: first nonzero entry 1
        wrapped = [K.elem(v) for v in raw]
        pivot = next(w for w in wrapped if w)
        assert mob.entries() == tuple(w / pivot for w in wrapped), c
        assert all(canon.base_of(v) is base for v in mob.entries())
    assert maps >= 20


@pytest.mark.parametrize("pool", POOLS)
def test_map_sends_a_root_of_the_input_to_a_root_of_the_shape(pool):
    base, cubics = pool()
    checked = 0
    for c, root in cubics:
        shape, mob = reduce_cubic(c)
        if root is not None:
            roots = [root]
        else:  # over GF(5)(x) only the chosen roots are known
            roots = poly_roots(c.as_poly()) if isinstance(base, Field) else []
        target = shape.cubic()
        for y in roots:
            assert not c(y), c
            den = mob.m01 * y + mob.m00
            if not den:
                continue  # the root sits at the map's pole
            assert not target(mob.apply(y)), (c, y)
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("base", [field_make(7, 1), field_make(2, 8), func_field(field_make(5, 1))],
                         ids=["GF(7)", "GF(2^8)", "GF(5)(x)"])
def test_value_path_raises_singular_matrix_on_zero_determinant(base):
    K = _kernel(base)
    two = K.of_int(2)
    for entries in [(K.one, K.one, K.one, K.one), (K.zero, K.zero, K.one, two),
                    (two, K.one, K.mul(two, two), two)]:
        with pytest.raises(SingularMatrix):
            object.__new__(FracLinear)._normalise(K, *entries)
        with pytest.raises(SingularMatrix):
            FracLinear(*map(K.elem, entries))


def test_reduce_cubic_builds_its_map_without_the_public_constructor():
    tree = ast.parse(inspect.getsource(canon.reduce_cubic))
    calls = [n.func for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert not any(isinstance(f, ast.Name) and f.id == "FracLinear" for f in calls)
    assert any(isinstance(f, ast.Attribute) and f.attr == "_normalise" for f in calls)
