"""One-frame Euclid over GF(p).

Over a prime field ``ffield._gcd`` runs the whole remainder sequence in one
frame: it copies both inputs, inverts each divisor's leading coefficient
once, reduces in place keeping entries in [0, p), trims, and scales the
last divisor monic.  Tabled GF(p^m) kernels keep the ``_divmod`` loop.
Checked here:

* (a) _gcd equals the earlier ``_divmod`` Euclid, copied below, over GF(2),
  GF(3), GF(5), GF(7), GF(13), GF(101), GF(4) and GF(9), on seeded pairs of
  every degree 0-16, non-monic ones included, on common factors built by
  multiplication, on equal operands, and on a zero operand on either side;
* (b) both operands zero give [];
* (c) tuple inputs (a Poly's values) give the same gcd, and no input list
  is changed;
* (d) over GF(p) the remainder sequence calls no _divmod, while GF(4) and
  GF(9) still do.
"""
import random

import pytest

from cubicext import ffield
from cubicext.ffield import _gcd, _kernel, _mul, _trim, field_make

PRIMES = (2, 3, 5, 7, 13, 101)
FIELDS = [(p, 1) for p in PRIMES] + [(2, 2), (3, 2)]
IDS = [f"GF({p}^{m})" for p, m in FIELDS]


# ---------------------------------------------------------------------------
# oracle: the earlier Euclid, one _divmod per remainder step, copied
# ---------------------------------------------------------------------------

def oracle_divmod(K, a, b):
    n = len(b) - 1
    if len(a) <= n:
        return [], list(a)
    inv = None if b[-1] == K.one else K.inv(b[-1])
    r = list(a)
    q = [K.zero] * (len(a) - n)
    low = b[:n]
    mul, sub = K.mul, K.sub
    for d in range(len(q) - 1, -1, -1):
        c = r[d + n] if inv is None else mul(r[d + n], inv)
        if c:
            q[d] = c
            for i, y in enumerate(low, d):
                r[i] = sub(r[i], mul(c, y))
    return q, _trim(r[:n])


def oracle_gcd(K, a, b):
    while b:
        a, b = b, oracle_divmod(K, a, b)[1]
    if not a or a[-1] == K.one:
        return list(a)
    inv = K.inv(a[-1])
    return [K.mul(v, inv) for v in a]


def random_poly(rng, q, d):
    """A trimmed kernel list of degree d, its top entry a random unit."""
    return [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]


def kernel(p, m):
    return _kernel(field_make(p, m))


# ---------------------------------------------------------------------------
# (a) the one-frame Euclid matches the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_random_pairs_of_every_degree(p, m):
    K, q = kernel(p, m), p ** m
    rng = random.Random(3500 + q)
    for da in range(17):
        for db in range(17):
            a, b = random_poly(rng, q, da), random_poly(rng, q, db)
            assert _gcd(K, a, b) == oracle_gcd(K, a, b), (a, b)


@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_common_factors_built_by_multiplication(p, m):
    K, q = kernel(p, m), p ** m
    rng = random.Random(3600 + q)
    for _ in range(60):
        g = random_poly(rng, q, rng.randrange(1, 7))
        a = _mul(K, g, random_poly(rng, q, rng.randrange(0, 10)))
        b = _mul(K, g, random_poly(rng, q, rng.randrange(0, 10)))
        got = _gcd(K, a, b)
        assert got == oracle_gcd(K, a, b)
        assert len(got) >= len(g) and got[-1] == 1


@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_squares_and_their_derivatives(p, m):
    """gcd(f, f') on f = g^2 h, the shape the squarefree walk asks for."""
    K, q = kernel(p, m), p ** m
    rng = random.Random(3700 + q)
    for d in range(1, 9):
        g, h = random_poly(rng, q, d), random_poly(rng, q, rng.randrange(0, 5))
        f = _mul(K, _mul(K, g, g), h)
        df = _trim([K.mul(f[i], i % p) for i in range(1, len(f))])
        assert _gcd(K, f, df) == oracle_gcd(K, f, df)


@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_equal_operands_and_a_zero_side(p, m):
    K, q = kernel(p, m), p ** m
    rng = random.Random(3800 + q)
    for d in range(17):
        a = random_poly(rng, q, d)
        monic = oracle_gcd(K, a, [])
        assert monic[-1] == 1 and len(monic) == d + 1
        assert _gcd(K, a, list(a)) == monic
        assert _gcd(K, a, []) == monic
        assert _gcd(K, [], a) == monic


# ---------------------------------------------------------------------------
# (b) both zero, (c) tuples and untouched inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_both_operands_zero(p, m):
    assert _gcd(kernel(p, m), [], []) == []
    assert list(_gcd(kernel(p, m), (), ())) == []


@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_tuple_inputs_and_no_caller_list_changes(p, m):
    K, q = kernel(p, m), p ** m
    rng = random.Random(3900 + q)
    for da in range(0, 17, 3):
        for db in range(0, 17, 2):
            a, b = random_poly(rng, q, da), random_poly(rng, q, db)
            a0, b0 = list(a), list(b)
            want = oracle_gcd(K, a0, b0)
            got = _gcd(K, a, b)
            assert (a, b) == (a0, b0)
            assert got == want
            # the _divmod loop may hand a monic tuple back as it is
            assert list(_gcd(K, tuple(a), tuple(b))) == want


# ---------------------------------------------------------------------------
# (d) which branch runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", FIELDS, ids=IDS)
def test_prime_fields_call_no_divmod(p, m, monkeypatch):
    K, q = kernel(p, m), p ** m
    rng = random.Random(4000 + q)
    a, b = random_poly(rng, q, 9), random_poly(rng, q, 6)
    want = oracle_gcd(K, a, b)
    calls = []

    def counting_divmod(K, a, b):
        calls.append(len(a))
        return oracle_divmod(K, a, b)
    monkeypatch.setattr(ffield, "_divmod", counting_divmod)
    assert _gcd(K, a, b) == want
    assert bool(calls) == (m > 1)
