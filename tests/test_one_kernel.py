"""The one list kernel, irreducibility criterion and scan of irreducibles.

``least_irreducible``, ``is_irreducible``, ``iter_places`` and ``monic_polys``
all run on ffield's kernel, ``_irreducible`` and ``_irreducibles``.  They are
checked against code that shares none of it:

  * the earlier modulus search, copied below: ``_pirreducible`` on the
    schoolbook ``_ptrim``/``_pmod``/``_ppowmod`` that ffield keeps as the
    tests' oracle, with its own gcd;
  * a sieve: the monic polynomials of degree d that are no product of two
    monic polynomials of lower degree;
  * the earlier place scan, copied below: Poly-level Frobenius powers over
    every monic polynomial written out digit by digit.
"""
import itertools
import random

import pytest

from cubicext.ffield import _pmod, _ppowmod, _ptrim, field_make, least_irreducible
from cubicext.places import Place, iter_places
from cubicext.polyring import Poly, _powmod_q, func_field, is_irreducible, monic_polys

# ---------------------------------------------------------------------------
# oracles: the earlier code, copied
# ---------------------------------------------------------------------------


def _prime_divisors(n):
    return [f for f in range(2, n + 1) if n % f == 0 and all(f % g for g in range(2, f))]


def _zipl(a, b):
    n = max(len(a), len(b))
    return zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


def _pirreducible(f, p):
    d = len(f) - 1
    if d == 1:
        return True
    x = [0, 1]
    h = list(x)
    powers = {}
    for i in range(1, d + 1):
        h = _ppowmod(h, p, f, p)
        powers[i] = list(h)
    if _ptrim([(a - b) % p for a, b in _zipl(powers[d], x)]):
        return False
    for ell in _prime_divisors(d):
        diff = _ptrim([(a - b) % p for a, b in _zipl(powers[d // ell], x)])
        if len(_pgcd(f, diff, p)) != 1:
            return False
    return True


def oracle_least_irreducible(p, d):
    for i in range(p ** d):
        cand = [i // p ** j % p for j in range(d)] + [1]
        if _pirreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible found")


def oracle_monic_polys(F, d):
    q = F.order
    for i in range(q ** d):
        digits, k = [], i
        for _ in range(d):
            digits.append(F.from_value(k % q))
            k //= q
        yield Poly(F, digits + [F.one])


def oracle_is_irreducible(f):
    d, F = f.degree, f.dom
    if d == 1:
        return True
    g, x = f.monic(), Poly.gen(F)
    h, frob = x, {}
    for i in range(1, d + 1):
        h = _powmod_q(h, F.order, g)
        frob[i] = h
    if frob[d] != x % g:
        return False
    for ell in _prime_divisors(d):
        if frob[d // ell] == x % g or g.gcd(frob[d // ell] - x).degree != 0:
            return False
    return True


def oracle_places(ff, dmax):
    yield Place.infinity(ff)
    for d in range(1, dmax + 1):
        for f in oracle_monic_polys(ff.field, d):
            if oracle_is_irreducible(f):
                yield Place(ff, f)


def _primes(n):
    return [p for p in range(2, n + 1) if all(p % g for g in range(2, int(p ** 0.5) + 1))]


# ---------------------------------------------------------------------------
# field moduli
# ---------------------------------------------------------------------------

def test_least_irreducible_matches_the_earlier_search_up_to_2_20():
    pairs = [(p, m) for p in _primes(1 << 10) for m in range(2, 21) if p ** m <= 1 << 20]
    assert len(pairs) == 242
    for p, m in pairs:
        assert least_irreducible(p, m) == oracle_least_irreducible(p, m), (p, m)


# ---------------------------------------------------------------------------
# is_irreducible against a sieve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_is_irreducible_matches_a_sieve(q):
    p = 2 if q == 4 else q
    F = field_make(p, 2 if q == 4 else 1)
    monics = {d: list(monic_polys(F, d)) for d in range(1, 5)}
    for d in range(1, 5):
        products = {(g * h).coeffs for i in range(1, d // 2 + 1)
                    for g, h in itertools.product(monics[i], monics[d - i])}
        for f in monics[d]:
            assert is_irreducible(f) == (f.coeffs not in products), f
            assert is_irreducible(f * F.from_value(q - 1)) == is_irreducible(f)


def test_monic_polys_lists_every_monic_in_counter_order():
    for F in (field_make(3), field_make(2, 2)):
        for d in range(4):
            assert list(monic_polys(F, d)) == list(oracle_monic_polys(F, d))


# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_iter_places_matches_the_earlier_scan(q):
    p = {4: 2, 9: 3}.get(q, q)
    ff = func_field(field_make(p, 2 if q in (4, 9) else 1))
    for dmax in (1, 2):
        new, old = list(iter_places(ff, dmax)), list(oracle_places(ff, dmax))
        assert new == old
        assert [P.sort_key() for P in new] == sorted(P.sort_key() for P in new)
        assert all(P.pi.dom is ff.field for P in new[1:])


# ---------------------------------------------------------------------------
# Field.elem reduces long coefficient lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (2, 5), (3, 4), (5, 3), (7, 2), (101, 2)])
def test_elem_of_long_lists_matches_schoolbook_reduction(p, m):
    F = field_make(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(60):
        cs = [rng.randrange(-p, 2 * p) for _ in range(rng.randint(m + 1, 3 * m + 2))]
        red = _pmod([c % p for c in cs], list(F.modulus), p)
        assert F.elem(cs).value == sum(c * p ** i for i, c in enumerate(red))
