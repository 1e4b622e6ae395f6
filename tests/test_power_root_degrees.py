"""The global square and cube test reads the degrees before any decomposition.

``canon._global_power_root(u, n)`` answers None when n does not divide deg
num or deg den: u = c^n with den monic forces num = lc * r^n and den = s^n.
Every other input goes through the squarefree decompositions as before.  The
oracle is the earlier ``_global_power_root``, copied below; n-th powers
u * c^n over GF(4), GF(5), GF(7), GF(9) and GF(13) get its root, non-powers
with both degrees divisible by n still reach the decomposition, and pure
parameters whose degrees differ by 1, 2, 4 or 5, as in the kx-arith deck,
answer None with no decomposition at all.
"""
import random

import pytest

from cubicext import canon
from cubicext.canon import Pure, _global_power_root, has_rational_root
from cubicext.ffield import NonCube, NonSquare, cube_classify, field_make, square_classify
from cubicext.polyring import Poly, RatFunc, _squarefree_decomposition, func_field

FIELDS = ((2, 2), (5, 1), (7, 1), (3, 2), (13, 1))


def oracle_power_root(u, n):
    """The earlier _global_power_root: the unit, then every multiplicity."""
    ff = u.ff
    cls = square_classify(u.num.lc) if n == 2 else cube_classify(u.num.lc)
    if isinstance(cls, (NonSquare, NonCube)):
        return None
    unit = cls.roots[0]
    parts = []
    for f in (u.num.monic(), u.den):
        root = Poly.one(ff.field)
        for g, e in _squarefree_decomposition(f):
            if e % n:
                return None
            root = root * g ** (e // n)
        parts.append(root)
    root = RatFunc(ff, parts[0] * unit, parts[1])
    assert root ** n == u
    return root


def _poly(F, rng, degree, monic=False):
    top = F.one if monic else F.from_value(rng.randrange(1, F.order))
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(degree)] + [top])


def _rat(F, rng, dn, dd):
    ff = func_field(F)
    return ff.rat(_poly(F, rng, dn), _poly(F, rng, dd, monic=True))


def _powers(seed, count):
    """(field, n, u * c^n) for seeded units u and c of height <= 4."""
    rng, out = random.Random(seed), []
    for i in range(count):
        F, n = field_make(*FIELDS[i % len(FIELDS)]), 2 + i % 2
        c = _rat(F, rng, rng.randint(0, 4), rng.randint(0, 4))
        u = F.from_value(rng.randrange(1, F.order))
        out.append((F, n, c.ff.from_poly(Poly.const(F, u)) * c ** n))
    return out


@pytest.mark.parametrize("n", (2, 3))
def test_powers_get_the_earlier_root(n):
    powers = [(F, u) for F, m, u in _powers(38, 200) if m == n]
    found = 0
    for F, u in powers:
        expected = oracle_power_root(u, n)
        assert _global_power_root(u, n) == expected, (F, u)
        found += expected is not None
    # a unit that is no n-th power leaves some None, and some roots are found
    assert 0 < found < len(powers)


def test_non_powers_with_both_degrees_divisible_still_decompose(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return _squarefree_decomposition(f)
    monkeypatch.setattr(canon, "_squarefree_decomposition", counting)
    rng, seen = random.Random(39), 0
    for i in range(150):
        F, n = field_make(*FIELDS[i % len(FIELDS)]), 2 + i % 2
        u = _rat(F, rng, n * rng.randint(1, 3), n * rng.randint(0, 2))
        if u.num.degree % n or u.den.degree % n or oracle_power_root(u, n) is not None:
            continue  # reduction may have cancelled a common factor
        before = len(calls)
        assert _global_power_root(u, n) is None, (F, u)
        seen += len(calls) > before
    assert seen > 50


def _pure_deck(seed, count):
    """Pure parameters num/den with deg num - deg den in {1, 2, 4, 5}, built
    as the kx-arith deck builds them, over GF(4), GF(5), GF(7) and GF(13)."""
    rng, out = random.Random(seed), []
    for i in range(count):
        F = field_make(*FIELDS[(0, 1, 2, 4)[i % 4]])
        h = rng.choice((3, 4, 5, 6))
        gap = rng.choice([g for g in (1, 2, 4, 5) if g <= h])
        out.append(_rat(F, rng, h, h - gap))
    return out


def test_kx_arith_pure_parameters_decompose_nothing(monkeypatch):
    def refuse(f):
        raise AssertionError("decomposed")
    deck = _pure_deck(40, 200)
    monkeypatch.setattr(canon, "_squarefree_decomposition", refuse)
    for a in deck:
        assert has_rational_root(Pure(a)) is None, a
