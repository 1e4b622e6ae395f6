"""Root questions in the base, all answered by ``canon._roots_in``.

The purely cubic test (a root of X^2 + aX + 1), the characteristic-2
resolvent y^2 + y = u and the Galois test built on both are checked against
a copy of their earlier form, kept below: the Artin-Schreier solver that
walks the divisor of u and strips its poles, the square-root and
Artin-Schreier branches of ``purely_cubic_root`` and ``is_galois``, and the
cube-class cofactor that ``is_constant_extension`` read its unit off.
Verdicts and least roots (in value_key order) must agree.
"""
import random

import pytest

from cubicext.arith import (
    Constant,
    Extension,
    artin_schreier_solve,
    as_local_reduce,
    is_constant_extension,
)
from cubicext.canon import (
    Char3,
    DepressedTrace,
    Pure,
    global_square_test,
    is_galois,
    purely_cubic_root,
    value_key,
)
from cubicext.errors import ReducibleInput
from cubicext.ffield import (Cube, Field, FieldElem, NonSquare, cube_classify, field_make,
                             square_classify, trace_to_prime, _artin_schreier_value,
                             _solve_quadratic)
from cubicext.places import divisor_of, places_up_to, residue_field
from cubicext.polyring import Poly, RatFunc, factor_fq, func_field

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                (2, 4)]


def rand_rat(rng, K, deg=3):
    F = K.field
    while True:
        num = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg + 1)])
        den = Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg)])
        if not num.is_zero() and not den.is_zero():
            return RatFunc(K, num, den)


# ---------------------------------------------------------------------------
# the earlier root questions, kept as the reference
# ---------------------------------------------------------------------------

def ref_artin_schreier_solve(u):
    ff = u.ff
    w = ff.zero
    if u.is_zero():
        return w
    for P, v in divisor_of(u):
        if v < 0:
            u, wp = as_local_reduce(u, P)
            w = w + wp
            if u.is_zero():
                return w
    if any(v < 0 for _, v in divisor_of(u)):
        return None
    y = _artin_schreier_value(ff.field, u.constant_value().value)  # None: trace 1
    return None if y is None else w + ff.from_elem(FieldElem(ff.field, y))


def ref_square_root_in(base, v):
    if isinstance(base, Field):
        cls = square_classify(v)
        return None if isinstance(cls, NonSquare) else cls.roots[0]
    return global_square_test(v)


def ref_purely_cubic_root(a):
    base = a.field if isinstance(a, FieldElem) else a.ff
    if isinstance(base, Field):
        roots = _solve_quadratic(base, a, base.one)
        return roots[0] if roots else None
    if base.field.p != 2:
        d = ref_square_root_in(base, a * a - 4)
        if d is None:
            return None
        return min([(-a + d) / 2, (-a - d) / 2], key=value_key)
    if a.is_zero():
        return base.one
    y0 = ref_artin_schreier_solve(1 / (a * a))
    if y0 is None:
        return None
    return min((a * y0, a * y0 + a), key=value_key)


def ref_is_galois(shape):
    base = shape.base
    if isinstance(shape, Char3):
        return ref_square_root_in(base, -shape.a) is not None
    a = shape.a
    p = base.p if isinstance(base, Field) else base.field.p
    if p != 2:
        return ref_square_root_in(base, -27 * (a * a - 4)) is not None
    if a.is_zero():
        raise ReducibleInput("X^3 - 3X is reducible")
    u = 1 / (a * a) + 1
    if isinstance(base, Field):
        return trace_to_prime(u).is_zero()
    return ref_artin_schreier_solve(u) is not None


def ref_cube_class_cofactor(a):
    ff = a.ff
    h = ff.one
    for f, e in factor_fq(a.num)[1]:
        assert e % 3 == 0
        h = h * ff.from_poly(f) ** (e // 3)
    for f, e in factor_fq(a.den)[1]:
        assert e % 3 == 0
        h = h / ff.from_poly(f) ** (e // 3)
    return h


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ReducibleInput:
        return ReducibleInput


def _galois_shape(a):
    p = a.field.p if isinstance(a, FieldElem) else a.ff.field.p
    if p != 3:
        return DepressedTrace(a)
    return Char3(a) if a else None


def _check_parameter(a):
    assert purely_cubic_root(a) == ref_purely_cubic_root(a), a
    shape = _galois_shape(a)
    if shape is not None:
        assert _outcome(is_galois, shape) == _outcome(ref_is_galois, shape), a


# ---------------------------------------------------------------------------
# y^2 + y = u over GF(2^m)(x)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_artin_schreier_solve_gives_the_least_root_of_the_divisor_walk(m):
    K = func_field(field_make(2, m))
    rng = random.Random(4100 + m)
    inputs = [K.zero] + [K.from_elem(c) for c in K.field.elements()]
    for _ in range(20):
        w = rand_rat(rng, K, deg=2)
        inputs += [w * w + w, rand_rat(rng, K)]
    solved = 0
    for u in inputs:
        got, ref = artin_schreier_solve(u), ref_artin_schreier_solve(u)
        if ref is None:
            assert got is None, u
        else:
            assert got == min(ref, ref + 1, key=value_key), u
            solved += 1
    assert 20 < solved < len(inputs)


# ---------------------------------------------------------------------------
# X^2 + aX + 1 and the Galois test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", SMALL_FIELDS, ids=lambda v: str(v))
def test_root_questions_on_every_element_of_small_fields(p, m):
    for a in field_make(p, m).elements():
        _check_parameter(a)


@pytest.mark.parametrize("p,m", [(2, 8), (3, 4), (2, 16)], ids=lambda v: str(v))
def test_root_questions_on_seeded_elements_of_larger_fields(p, m):
    F = field_make(p, m)
    rng = random.Random(4200 + p * m)
    for _ in range(150):
        _check_parameter(F.from_value(rng.randrange(F.order)))


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (13, 1), (2, 1), (2, 2), (2, 4)],
                         ids=lambda v: str(v))
def test_root_questions_over_rational_function_fields(p, m):
    K = func_field(field_make(p, m))
    rng = random.Random(4300 + p * m)
    found = 0
    for _ in range(25):
        c = rand_rat(rng, K, deg=2)
        for a in (-(c + 1 / c), c + 1 / c, rand_rat(rng, K)):
            _check_parameter(a)
            found += purely_cubic_root(a) is not None
    assert found >= 25  # every a = -(c + 1/c) has the root c


def test_zero_parameter_in_characteristic_two():
    for m in (1, 2, 3):
        F = field_make(2, m)
        for zero in (F.zero, func_field(F).zero):
            assert purely_cubic_root(zero) == ref_purely_cubic_root(zero) == zero + 1
            with pytest.raises(ReducibleInput):
                is_galois(DepressedTrace(zero))


# ---------------------------------------------------------------------------
# constant extensions: the unit of a = u * h^3
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (2, 2), (5, 2), (2, 1)], ids=lambda v: str(v))
def test_constant_extension_unit_matches_the_cube_class_cofactor(p, m):
    F = field_make(p, m)
    K = func_field(F)
    rng = random.Random(4400 + p * m)
    constant = 0
    for _ in range(25):
        u = F.from_value(rng.randrange(1, F.order))
        a = K.from_elem(u) * rand_rat(rng, K, deg=2) ** 3
        ref = (a / ref_cube_class_cofactor(a) ** 3).constant_value()
        expected = ReducibleInput if isinstance(cube_classify(ref), Cube) else Constant(ref)
        assert _outcome(is_constant_extension, Extension(Pure(a))) == expected, a
        constant += expected is not ReducibleInput
    assert constant > 0 or F.order % 3 != 1


# ---------------------------------------------------------------------------
# lifting out of residue fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (3, 2)], ids=lambda v: str(v))
def test_lift_reduces_back_at_every_place(p, m):
    K = func_field(field_make(p, m))
    for P in places_up_to(K, 2):
        rd = residue_field(P)
        for c in rd.field.elements():
            f = rd.lift(c)
            assert f.degree < max(P.degree, 1)
            assert rd.reduce(K.from_poly(f)) == c, (P, c)
