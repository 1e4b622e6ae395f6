"""The squarefree decomposition stops at gcd(f, f') = 1.

When f is coprime to its derivative, ``_squarefree_decomposition`` appends
(f, e) and returns instead of walking on with a unit gcd.  It is checked
against the full walk, copied below, on seeded products of powers, with
p-th and higher p-power factors in characteristics 2 and 3 (where the
derivative vanishes on them), and on squarefree inputs, which make one gcd.
"""
import random

import pytest

from cubicext import polyring
from cubicext.ffield import _divmod, _gcd, _kernel, _trim, field_make
from cubicext.polyring import Poly, _pth_root, _squarefree_decomposition, _store


def oracle_squarefree(f):
    """_squarefree_decomposition before the shortcut: the full walk."""
    K = _kernel(f.dom)
    p, mul = K.field.p, K.mul
    f = f.vals
    out = []
    e = 1
    while len(f) > 1:
        df = _trim([mul(f[i], i % p) for i in range(1, len(f))])
        if not df:
            f = _pth_root(K, f)
            e *= p
            continue
        g = _gcd(K, f, df)
        w = _divmod(K, f, g)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(K, w, g)
            z = _divmod(K, w, y)[0]
            if len(z) > 1:
                out.append((_store(K, z), i * e))
            w = y
            g = _divmod(K, g, y)[0]
            i += 1
        f = g
        e *= p
        if len(f) > 1:
            f = _pth_root(K, f)
    return out


def rand_monic(rng, F, deg):
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg)] + [F.one])


FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]


@pytest.mark.parametrize("pm", FIELDS, ids=[f"GF({p}^{m})" for p, m in FIELDS])
def test_shortcut_matches_the_full_walk(pm):
    F = field_make(*pm)
    p = F.p
    rng = random.Random(2330 + F.order)
    exponents = (1, 2, 3, p, p + 1, 2 * p, p * p, p * p + 1)
    for _ in range(60):
        f = Poly.one(F)
        for _ in range(rng.randint(1, 3)):
            f = f * rand_monic(rng, F, rng.randint(1, 3)) ** rng.choice(exponents)
        got = _squarefree_decomposition(f)
        assert got == oracle_squarefree(f), f
        prod = Poly.one(F)
        for g, e in got:
            prod = prod * g ** e
        assert prod == f


@pytest.mark.parametrize("pm", FIELDS, ids=[f"GF({p}^{m})" for p, m in FIELDS])
def test_squarefree_input_takes_one_gcd(pm, monkeypatch):
    F = field_make(*pm)
    rng = random.Random(2340 + F.order)
    calls = []

    def counting_gcd(K, a, b):
        calls.append(1)
        return _gcd(K, a, b)
    monkeypatch.setattr(polyring, "_gcd", counting_gcd)
    checked = 0
    while checked < 20:
        f = rand_monic(rng, F, rng.randint(1, 8))
        want = oracle_squarefree(f)
        if want != [(f, 1)]:
            continue
        calls.clear()
        assert _squarefree_decomposition(f) == want
        assert len(calls) == 1
        checked += 1
