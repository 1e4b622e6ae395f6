"""Field arithmetic on counter values against the schoolbook oracle.

``Field._build_tables`` keeps exp, log and zech as lists for fields of at
most ``ffield._ROW_MAX_ORDER`` elements and as ``array('i')`` above, and
``Field._bind_ops`` binds ``_inv`` beside ``_div`` on every field shape.
The two representations and the bound ops must give the same answers, so
``_mul``, ``_add``, ``_sub``, ``_div``, ``_inv`` and ``_pow`` are checked
against ``ffield._pmul``/``_pmod`` on the digits of their counter values
(polynomials in t modulo the field's modulus), on every pair for the fields
at or below the bound and on seeded pairs above it.
"""
import functools
import random
from array import array

import pytest

from cubicext import arith, ffcubic, ffield, places
from cubicext.errors import DivisionByZero
from cubicext.ffield import _ROW_MAX_ORDER, FieldElem, _counter, _digits, _kernel, _pmod, \
    _pmul, field_make

FIELDS = [(7, 1), (101, 1), (2, 2), (2, 8), (3, 4), (5, 3), (2, 9), (3, 6)]
SEEDED_PAIRS = 3000


def field_id(pm):
    p, m = pm
    return f"GF({p}^{m})" if m > 1 else f"GF({p})"


def oracle_mul(F, a: int, b: int) -> int:
    prod = _pmul(_digits(a, F.p, F.m), _digits(b, F.p, F.m), F.p)
    return _counter(_pmod(prod, F.modulus, F.p), F.p)


def oracle_add(F, a: int, b: int, sign: int = 1) -> int:
    return _counter([(x + sign * y) % F.p for x, y in
                     zip(_digits(a, F.p, F.m), _digits(b, F.p, F.m))], F.p)


@functools.lru_cache(maxsize=None)
def oracle_table(pm) -> list:
    """The oracle's multiplication table of a field at or below the bound."""
    F = field_make(*pm)
    return [[oracle_mul(F, a, b) for b in range(F.order)] for a in range(F.order)]


def pairs(F) -> list:
    if F.order <= _ROW_MAX_ORDER:
        return [(a, b) for a in range(F.order) for b in range(F.order)]
    rng = random.Random(F.order)
    return ([(0, 0), (0, 1), (1, 0), (F.order - 1, F.order - 1)]
            + [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(SEEDED_PAIRS)])


def mul_of(F):
    if F.order <= _ROW_MAX_ORDER:
        table = oracle_table((F.p, F.m))
        return lambda a, b: table[a][b]
    return functools.partial(oracle_mul, F)


@pytest.mark.parametrize("pm", FIELDS, ids=field_id)
def test_ring_ops_match_the_schoolbook_oracle(pm):
    F = field_make(*pm)
    omul = mul_of(F)
    for a, b in pairs(F):
        assert F._mul(a, b) == omul(a, b), (a, b)
        assert F._add(a, b) == oracle_add(F, a, b), (a, b)
        assert F._sub(a, b) == oracle_add(F, a, b, -1), (a, b)


@pytest.mark.parametrize("pm", FIELDS, ids=field_id)
def test_division_and_inverse_match_the_schoolbook_oracle(pm):
    F = field_make(*pm)
    omul = mul_of(F)
    for a, b in pairs(F):
        if b:
            q = F._div(a, b)
            assert 0 <= q < F.order and omul(q, b) == a, (a, b)
    units = range(1, F.order) if F.order <= _ROW_MAX_ORDER else {b for _, b in pairs(F)} - {0}
    for a in units:
        inv = F._inv(a)
        assert 0 < inv < F.order and omul(inv, a) == 1, a
        assert F._inv(a) == F._div(1, a) == F._pow(a, -1), a


@pytest.mark.parametrize("pm", FIELDS, ids=field_id)
def test_powers_match_repeated_oracle_products(pm):
    F = field_make(*pm)
    omul = mul_of(F)
    n = F.order - 1
    if F.order <= _ROW_MAX_ORDER:
        bases, exps = range(F.order), range(-2, 2 * n + 2)
    else:
        rng = random.Random(F.order)
        bases, exps = [0, 1] + [rng.randrange(2, F.order) for _ in range(40)], range(-2, 60)
    for a in bases:
        power = {0: 1}
        for e in range(1, max(exps) + 1):
            power[e] = omul(power[e - 1], a)
        for e in exps:
            if e >= 0:
                assert F._pow(a, e) == power[e], (a, e)
            elif a:  # a^e is the inverse of a^(-e)
                assert omul(F._pow(a, e), power[-e]) == 1, (a, e)


@pytest.mark.parametrize("pm", FIELDS, ids=field_id)
def test_zero_has_no_inverse_on_every_field_shape(pm):
    F = field_make(*pm)
    with pytest.raises(DivisionByZero):
        F._inv(0)
    for a in (0, 1, F.order - 1):
        with pytest.raises(DivisionByZero):
            F._div(a, 0)
    with pytest.raises(DivisionByZero):
        F.zero.inverse()
    with pytest.raises(DivisionByZero):
        F.one / F.zero
    with pytest.raises(DivisionByZero):
        _kernel(F).inv(0)
    with pytest.raises(DivisionByZero):
        _kernel(F).div(1, 0)


@pytest.mark.parametrize("pm", FIELDS, ids=field_id)
def test_field_elements_invert_through_the_bound_inverse(pm):
    F = field_make(*pm)
    for v in (1, 2 % F.order, F.order - 1, F.p % F.order):
        if v:
            x = FieldElem(F, v)
            assert x.inverse().value == F._inv(v) and (x * x.inverse()).value == 1


@pytest.mark.parametrize("pm", FIELDS, ids=field_id)
def test_the_kernel_reads_the_fields_bound_ops(pm):
    F = field_make(*pm)
    K = _kernel(F)
    assert K.inv is F._inv and K.div is F._div and K.mul is F._mul


@pytest.mark.parametrize("pm", [pm for pm in FIELDS if pm[1] > 1], ids=field_id)
def test_tables_are_lists_at_or_below_the_bound_and_arrays_above(pm):
    F = field_make(*pm)
    kind = list if F.order <= _ROW_MAX_ORDER else array
    tables = (F.exp, F.log) + ((F.zech,) if F.p != 2 else ())
    assert all(type(t) is kind for t in tables), [type(t) for t in tables]
    if kind is array:
        assert all(t.typecode == "i" for t in tables)
    n = F.order - 1
    assert len(F.exp) == 2 * n and F.exp[n:] == F.exp[:n] and len(F.log) == F.order
    assert F.zech is None if F.p == 2 else len(F.zech) == n


def test_one_bound_for_every_per_field_table():
    assert _ROW_MAX_ORDER == 1 << 8
    assert places._ROW_MAX_ORDER is arith._ROW_MAX_ORDER is ffcubic._ROW_MAX_ORDER is \
        ffield._ROW_MAX_ORDER
