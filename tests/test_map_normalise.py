"""The reduction map, normalised once: ``FracLinear._normalise`` divides the
raw entries by the pivot it already knows (m00, else m01) and stores the
pivot's entry and every zero entry as the base's shared ``one`` and
``zero``.

``reduce_cubic``'s map must equal the public constructor's,
``FracLinear(*entries)`` through ``__post_init__``, on the wrapped raw
entries of ``_reduce_values``, with the same ``hash`` and ``repr``, and its
entries must be the raw ones divided by the first nonzero one, computed here
with ``FieldElem`` (or ``RatFunc``) division.  Checked on every monic cubic
over GF(4), GF(5), GF(7), GF(8) and GF(9), on seeded cubics over the six
fields of the ``ff-decompose`` workload and over GF(5)(x).  A zero
determinant raises ``SingularMatrix`` on both branches of the pivot.
"""
import itertools
import random

import pytest

from cubicext.canon import Cubic, FracLinear, _reduce_values, char_of, reduce_cubic
from cubicext.errors import SingularMatrix
from cubicext.ffield import Field, _kernel, field_make
from cubicext.polyring import Poly, func_field

SMALL = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
WORKLOAD = [(7, 1), (101, 1), (3, 4), (5, 3), (2, 8), (2, 16)]


def field_id(pm):
    p, m = pm
    return f"GF({p}^{m})" if m > 1 else f"GF({p})"


def check_maps(cubics, base) -> int:
    """Each cubic's map against the constructor's and the division oracle;
    the number of maps whose pivot is m01."""
    K = _kernel(base)
    m01_pivots = 0
    for c in cubics:
        raw = _reduce_values(K, K.value(c.e), K.value(c.f), K.value(c.g))[2]
        _, mob = reduce_cubic(c)
        if raw is None:
            assert mob is FracLinear.identity(base), c
            continue
        entries = tuple(map(K.elem, raw))
        built = FracLinear(*entries)
        assert mob == built and hash(mob) == hash(built) and repr(mob) == repr(built), c
        k = 0 if raw[0] else 1  # the pivot's index
        assert mob.entries() == tuple(m / entries[k] for m in entries), c
        for i, (got, m) in enumerate(zip(mob.entries(), entries)):
            if i == k:
                assert got is base.one, c
            elif not m:
                assert got is base.zero, c
        m01_pivots += not raw[0]
    return m01_pivots


def seeded_cubics(base, draw, rng, count) -> list:
    """Random cubics, cubics from roots, and ones with e, f or g zero."""
    zero, three = base.zero, base.from_int(3)
    out = []
    while len(out) < count:
        e, f, g, r, s = (draw() for _ in range(5))
        out += [Cubic(e, f, g), Cubic(zero, f, g), Cubic(e, zero, g), Cubic(zero, zero, g),
                Cubic(-(r + s + s), r * s + r * s + s * s, -(r * s * s))]
        if char_of(base) != 3:
            out.append(Cubic(zero, -three, g))
            if e:
                out.append(Cubic(e, f, f * f / (three * e)))
    return out[:count]


@pytest.mark.parametrize("pm", SMALL, ids=map(field_id, SMALL))
def test_every_monic_cubic_over_a_small_field(pm):
    F = field_make(*pm)
    elems = [F.from_value(v) for v in range(F.order)]
    check_maps([Cubic(e, f, g) for e, f, g in itertools.product(elems, repeat=3)], F)


@pytest.mark.parametrize("pm", WORKLOAD, ids=map(field_id, WORKLOAD))
def test_seeded_cubics_over_a_workload_field(pm):
    F = field_make(*pm)
    rng = random.Random(3900 + F.order)
    cubics = seeded_cubics(F, lambda: F.from_value(rng.randrange(F.order)), rng, 1500)
    check_maps(cubics, F)


def test_seeded_cubics_over_a_function_field():
    F5 = field_make(5, 1)
    ff = func_field(F5)
    rng = random.Random(3905)

    def poly(deg):
        return Poly(F5, [F5.from_int(rng.randrange(5)) for _ in range(deg)] + [F5.one])

    def draw():
        if rng.random() < 0.2:
            return ff.zero
        return ff.rat(poly(rng.randrange(3)) * F5.from_int(rng.randrange(1, 5)),
                      poly(rng.randrange(2)))

    check_maps(seeded_cubics(ff, draw, rng, 150), ff)


def test_the_char3_maps_reach_the_m01_pivot():
    # X^3 + eX^2 + fX + g with e != 0 in characteristic 3 maps to Char3 by
    # (-f e^4, e^5, t, 0): m00 = 0 when f = 0
    F = field_make(3, 2)
    elems = [F.from_value(v) for v in range(F.order)]
    cubics = [Cubic(e, F.zero, g) for e, g in itertools.product(elems[1:], repeat=2)]
    assert check_maps(cubics, F) > 0


@pytest.mark.parametrize("base", [field_make(7, 1), field_make(2, 8), field_make(3, 4),
                                  func_field(field_make(5, 1))],
                         ids=["GF(7)", "GF(2^8)", "GF(3^4)", "GF(5)(x)"])
def test_a_zero_determinant_is_refused_on_both_pivots(base):
    K = _kernel(base)
    one, zero = base.one, base.zero
    v = base.from_value(2) if isinstance(base, Field) else base.rat([0, 1], [1])  # t, 2 or x
    singular = [
        (v, one, v * v, v),  # pivot m00
        (v, zero, one, zero),  # pivot m00 with m01 = 0
        (zero, v, zero, one),  # pivot m01 with m00 = 0
        (zero, zero, one, v),  # no pivot
        (zero, zero, zero, zero),
    ]
    for entries in singular:
        with pytest.raises(SingularMatrix):
            FracLinear(*entries)
        with pytest.raises(SingularMatrix):
            object.__new__(FracLinear)._normalise(K, *map(K.value, entries))
