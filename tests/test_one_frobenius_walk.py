"""One Frobenius walk and one torus ring, against oracles that share no code
with them.

``ffield._distinct_degree`` is the package's one walk gcd(x^(q^i) - x, f):
``_irreducible`` reads its first group (Ben-Or's test) and
``polyring._distinct_degree`` wraps its groups for ``factor_fq``.
``ffcubic._lucas`` and ``_quad_ring`` run one body on the field's bound ops
over every field.  Checked:

* the walk's groups equal the products of the factors of each degree found
  by trial division, on every squarefree monic f of degree <= 6 over GF(2)
  and <= 4 over GF(3), GF(4) and GF(5);
* factor_fq equals the squarefree decomposition followed by a Poly-level
  distinct-degree loop (copied below, on Poly operators and _powmod_q) and
  the equal-degree split, on seeded polynomials of degree <= 60 over GF(2),
  GF(4) and GF(101);
* _irreducible makes exactly one _powmod call on a candidate with a linear
  factor, and answers True for the constant 1;
* _lucas and _quad_ring's power equal the inline % p formulas over GF(p)
  (copied below), for every a and e <= 2(p + 1) over GF(5), GF(7) and
  GF(13), and on a seeded sample over GF(101);
* residue_field of a Place on a reducible carrier of degree 3 over GF(251),
  whose residue field would exceed MAX_ORDER, raises Place.finite's
  DomainMismatch without asking for GF(251^3) or calling poly_roots, while
  an irreducible one still raises SizeExceeded.
"""
import random

import pytest

from cubicext import ffield, places
from cubicext.errors import DomainMismatch, SizeExceeded
from cubicext.ffcubic import _lucas, _quad_ring
from cubicext.ffield import _digits, _irreducible, _kernel, field_make
from cubicext.places import Place, residue_field
from cubicext.polyring import (FACTOR_SEED, Poly, _equal_degree_split, _powmod_q,
                               _squarefree_decomposition, factor_fq, func_field)

WALK_SWEEPS = [((2, 1), 6), ((3, 1), 4), ((2, 2), 4), ((5, 1), 4)]


# ---------------------------------------------------------------------------
# schoolbook polynomials on the field's own ops, counter-value lists
# ---------------------------------------------------------------------------

def monics(F, d):
    q = F.order
    return (_digits(i, q, d) + [1] for i in range(q ** d))


def exact_quotient(F, f, g):
    """f / g for monic g, or None when g does not divide f."""
    r, n = list(f), len(g) - 1
    quo = [0] * (len(f) - n)
    for top in range(len(r) - 1, n - 1, -1):
        c = r[top]
        quo[top - n] = c
        if c:
            for i, y in enumerate(g):
                r[top - n + i] = F._sub(r[top - n + i], F._mul(c, y))
    return None if any(r[:n]) else quo


def product(F, fs):
    out = [1]
    for g in fs:
        acc = [0] * (len(out) + len(g) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(g):
                acc[i + j] = F._add(acc[i + j], F._mul(x, y))
        out = acc
    return out


def trial_factors(F, f):
    """The monic irreducible factors of the monic f with multiplicity: the
    least-degree monic divisor is irreducible, and f is when it has none of
    degree <= deg f / 2."""
    out = []
    while len(f) > 1:
        g = next((g for e in range(1, (len(f) - 1) // 2 + 1) for g in monics(F, e)
                  if exact_quotient(F, f, g) is not None), f)
        out.append(g)
        f = exact_quotient(F, f, g)
    return out


@pytest.mark.parametrize("pm,dmax", WALK_SWEEPS,
                         ids=[f"GF({p}^{m})-deg<={d}" for (p, m), d in WALK_SWEEPS])
def test_walk_groups_equal_trial_division(pm, dmax):
    F = field_make(*pm)
    K = _kernel(F)
    checked = 0
    for d in range(dmax + 1):
        for f in monics(F, d):
            factors = trial_factors(F, f)
            if len(set(map(tuple, factors))) < len(factors):
                continue  # not squarefree
            degrees = sorted({len(g) - 1 for g in factors})
            want = [(product(F, [g for g in factors if len(g) - 1 == e]), e) for e in degrees]
            assert list(ffield._distinct_degree(K, f)) == want, f
            checked += 1
    assert checked > F.order ** dmax // 2


# ---------------------------------------------------------------------------
# factor_fq against a Poly-level distinct-degree loop
# ---------------------------------------------------------------------------

def poly_distinct_degree(f):
    """[(product of irreducible factors of degree d, d)] for squarefree monic
    f, on Poly operators: one Frobenius power of h a degree."""
    F = f.dom
    out = []
    x = h = Poly.gen(F)
    g = f
    d = 0
    while g.degree > 2 * (d + 1) - 1 and g.degree > 0:
        d += 1
        h = _powmod_q(h, F.order, g)
        gd = g.gcd(h - x)
        if gd.degree > 0:
            out.append((gd, d))
            g = g // gd
            h = h % g
    if g.degree > 0:
        out.append((g, g.degree))
    return out


def oracle_factor_fq(f):
    rng = random.Random(FACTOR_SEED)
    out = []
    for g, mult in _squarefree_decomposition(f.monic()):
        for gd, d in poly_distinct_degree(g):
            out += [(irr, mult) for irr in _equal_degree_split(gd, d, rng)]
    return f.lc, sorted(out, key=lambda t: t[0].counter_key())


def seeded_poly(rng, F, deg):
    cs = [F.from_value(rng.randrange(F.order)) for _ in range(deg)]
    return Poly(F, cs + [F.from_value(rng.randrange(1, F.order))])


@pytest.mark.parametrize("pm", [(2, 1), (2, 2), (101, 1)], ids=str)
def test_factor_fq_equals_the_poly_level_walk(pm):
    F = field_make(*pm)
    rng = random.Random(3000 + F.order)
    degrees = [1, 2, 3, 5, 8, 13, 21, 34, 60] if F.order < 100 else [1, 2, 4, 9, 20, 60]
    for deg in degrees:
        f = seeded_poly(rng, F, deg)
        # a square and a cube factor make the squarefree parts nontrivial
        for g in (f, f * seeded_poly(rng, F, 2) ** 2 * seeded_poly(rng, F, 1) ** 3):
            if g.degree <= 60:
                assert factor_fq(g) == oracle_factor_fq(g), (deg, g)


# ---------------------------------------------------------------------------
# Ben-Or's test is the walk's first group
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2)], ids=str)
def test_a_candidate_with_a_root_costs_one_power(pm, monkeypatch):
    F = field_make(*pm)
    K = _kernel(F)
    calls = []
    powmod = ffield._powmod

    def counted(*args):
        calls.append(args)
        return powmod(*args)
    monkeypatch.setattr(ffield, "_powmod", counted)
    rng = random.Random(7 * F.order)
    for d in range(2, 9):
        for _ in range(5):
            cofactor = _digits(rng.randrange(F.order ** (d - 1)), F.order, d - 1) + [1]
            f = product(F, [[rng.randrange(F.order), 1], cofactor])
            calls.clear()
            assert _irreducible(K, f) is False, f
            assert len(calls) == 1, f


@pytest.mark.parametrize("pm", [(2, 1), (5, 1), (2, 3)], ids=str)
def test_one_is_irreducible(pm):
    assert _irreducible(_kernel(field_make(*pm)), [1]) is True


# ---------------------------------------------------------------------------
# one torus ring: the GF(p) formulas, inline % p
# ---------------------------------------------------------------------------

def inline_lucas(p, a, e):
    two = lo = 2 % p
    hi = a
    for bit in bin(e)[2:]:
        x = (lo * hi - a) % p
        lo, hi = (x, (hi * hi - two) % p) if bit == "1" else ((lo * lo - two) % p, x)
    return lo


def inline_tpow(p, a, u, e):
    def tmul(u, v):
        x = u[1] * v[1]
        return ((u[0] * v[0] - x) % p, (u[0] * v[1] + u[1] * v[0] + a * x) % p)
    acc = (1, 0)
    while e:
        if e & 1:
            acc = tmul(acc, u)
        u = tmul(u, u)
        e >>= 1
    return acc


@pytest.mark.parametrize("p", [5, 7, 13])
def test_torus_ring_equals_the_inline_formulas(p):
    F = field_make(p)
    units = [(0, 1), (1, 1), (2, p - 1), (p - 1, 3)]
    for a in range(p):
        tpow = _quad_ring(F, a)[1]
        for e in range(2 * (p + 1) + 1):
            assert _lucas(F, a, e) == inline_lucas(p, a, e), (a, e)
            for u in units:
                assert tpow(u, e) == inline_tpow(p, a, u, e), (a, u, e)


def test_torus_ring_equals_the_inline_formulas_on_a_sample_of_gf101():
    p = 101
    F = field_make(p)
    rng = random.Random(101)
    for _ in range(400):
        a, e, u = rng.randrange(p), rng.randrange(4 * p * p), (rng.randrange(p), rng.randrange(p))
        assert _lucas(F, a, e) == inline_lucas(p, a, e), (a, e)
        assert _quad_ring(F, a)[1](u, e) == inline_tpow(p, a, u, e), (a, u, e)


# ---------------------------------------------------------------------------
# residue_field tests the carrier before it builds a field above the bound
# ---------------------------------------------------------------------------

def carrier(F, cs):
    return Poly(F, [F.from_int(c) for c in cs])


def test_reducible_carrier_above_max_order_raises_place_finites_error(monkeypatch):
    F = field_make(251)
    pi = carrier(F, [1, 0, 0, 1])  # x^3 + 1 = (x + 1)(x^2 - x + 1)
    with pytest.raises(DomainMismatch) as finite:
        Place.finite(pi)
    asked = []
    make = places.field_make

    def recorded(p, m=1):
        asked.append((p, m))
        return make(p, m)

    def no_roots(f):
        raise AssertionError("poly_roots called for a reducible carrier")
    monkeypatch.setattr(places, "field_make", recorded)
    monkeypatch.setattr(places, "poly_roots", no_roots)
    with pytest.raises(DomainMismatch) as err:
        residue_field(Place(func_field(F), pi))
    assert str(err.value) == str(finite.value)
    assert (251, 3) not in asked


def test_irreducible_carrier_above_max_order_still_raises_size_exceeded():
    F = field_make(251)
    pi = carrier(F, [4, 1, 0, 1])  # x^3 + x + 4 has no root mod 251
    with pytest.raises(SizeExceeded):
        residue_field(Place.finite(pi))
