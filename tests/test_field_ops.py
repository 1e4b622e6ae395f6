"""The arithmetic on counter values that each field binds once, for its
shape (GF(p), GF(2^m), odd GF(p^m)): the five ops called directly, zero
operands included, against the schoolbook _pmul/_pmod/_ppowmod oracle on
digit lists; then when the ops are bound, and that kernels and pickled
fields get the bound ops."""
import pickle
import random

import pytest

from cubicext.errors import DivisionByZero
from cubicext.ffield import Field, _kernel, _mul, _pmod, _pmul, _ppowmod, field_make

SMALL = [(2, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (5, 3)]  # every pair
LARGE = [(101, 1), (3, 4), (13, 2), (2, 16)]  # 2,000 seeded pairs
SHAPES = [(7, 1), (2, 8), (3, 4)]


def _digits(F, v):
    return [v // F.p ** i % F.p for i in range(F.m)]


def _value(F, digits):
    return sum(d * F.p ** i for i, d in enumerate(digits))


def _schoolbook_mul(F, a, b):
    p = F.p
    return _value(F, _pmod(_pmul(_digits(F, a), _digits(F, b), p), list(F.modulus), p))


def _is_set(F, name):
    """Whether the slot holds a value, read past Field.__getattr__."""
    try:
        getattr(Field, name).__get__(F, Field)
    except AttributeError:
        return False
    return True


def _check_pairs(F, pairs):
    p, q = F.p, F.order
    for a, b in pairs:
        x, y = _digits(F, a), _digits(F, b)
        assert F._add(a, b) == _value(F, [(u + w) % p for u, w in zip(x, y)]), (a, b)
        assert F._sub(a, b) == _value(F, [(u - w) % p for u, w in zip(x, y)]), (a, b)
        assert F._neg(a) == _value(F, [-u % p for u in x]), a
        assert F._mul(a, b) == _schoolbook_mul(F, a, b), (a, b)
        e = b - q // 2  # negative exponents too
        if a:
            want = _value(F, _ppowmod(x, e % (q - 1), list(F.modulus), p))
            assert F._pow(a, e) == want, (a, e)
        elif e >= 0:
            assert F._pow(a, e) == (0 if e else 1), e


@pytest.mark.parametrize("p, m", SMALL)
def test_ops_match_the_schoolbook_on_every_pair(p, m):
    F = field_make(p, m)
    _check_pairs(F, [(a, b) for a in range(F.order) for b in range(F.order)])


@pytest.mark.parametrize("p, m", LARGE)
def test_ops_match_the_schoolbook_on_seeded_pairs(p, m):
    F = field_make(p, m)
    rng = random.Random(20261019 + p * 100 + m)
    pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
    _check_pairs(F, pairs + [(0, 0), (0, 1), (1, 0), (F.order - 1, 0)])


@pytest.mark.parametrize("p, m", SMALL + LARGE)
def test_zero_to_the_zero_is_one_and_zero_has_no_inverse(p, m):
    F = field_make(p, m)
    assert F._pow(0, 0) == 1
    with pytest.raises(DivisionByZero):
        F._pow(0, -1)
    with pytest.raises(DivisionByZero):
        F._div(1, 0)


def test_a_directly_built_field_builds_nothing_until_an_op_is_read():
    F = Field(3, 9)
    for name in ("exp", "log", "zech", "_add", "_sub", "_neg", "_mul", "_pow"):
        assert not _is_set(F, name), name
    add = F._add
    for name in ("exp", "log", "zech", "_add", "_sub", "_neg", "_mul", "_pow"):
        assert _is_set(F, name), name
    assert F._add is add and len(F.exp) == 2 * (F.order - 1)
    g = F.p  # the generator t
    assert F._mul(g, F._pow(g, -1)) == 1
    assert add(g, F._neg(g)) == 0


def test_a_kernel_made_before_any_op_computes():
    F = Field(5, 2)
    assert not _is_set(F, "_mul") and not _is_set(F, "exp")
    K = _kernel(F)
    a, b = [3, 7, 1, 24], [24, 0, 5]
    want = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            xy = _digits(F, _schoolbook_mul(F, x, y))
            want[i + j] = _value(F, [(u + w) % 5 for u, w in zip(_digits(F, want[i + j]), xy)])
    assert _mul(K, a, b) == want
    assert all(_schoolbook_mul(F, c, K.inv(c)) == 1 for c in range(1, F.order))


@pytest.mark.parametrize("p, m", SHAPES)
def test_a_pickled_field_is_the_same_field_and_computes(p, m):
    F = field_make(p, m)
    F._mul  # bind the ops first: closures do not pickle, the field does
    G = pickle.loads(pickle.dumps(F))
    assert G is F
    x = pickle.loads(pickle.dumps(F.from_value(F.order - 2)))
    assert x.field is F
    assert (x * x).value == _schoolbook_mul(F, x.value, x.value)
    assert (x * x.inverse()).value == 1
