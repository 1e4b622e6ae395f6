"""The cubic core over GF(p) on plain ints against the kernel's closures.

Over a prime field other than GF(3), ``canon._reduce_values`` and
``ffcubic.decompose_any``'s pull-back follow the ``_Kernel`` convention: they
compute on ints and reduce % p only where a value is compared or kept.  The
closure branch stays for GF(3), GF(p^m) and GF(q)(x).  A fresh ``_Kernel(F)``
whose ``p`` is cleared runs the closure branch on the same prime field, so
both sides of the fork are compared here on one input: every (e, f, g) of
GF(2), GF(5), GF(7) and GF(11), and seeded triples over GF(101), GF(65521)
and GF(1048573), the largest prime below 2^20.  Over GF(65521), seeded cubics
of every bin go through ``decompose_any`` against the ``brute_factor`` scan.

The divisions of both sides go through the field's ``_div``, which up to
``ffield._ROW_MAX_ORDER`` reads a list of inverses; it is checked against
``pow`` on both sides of that bound.  ``canon._cubic_values`` reads a cubic's
values once for ``reduce_cubic`` and ``decompose_any``; the errors it raises
are checked here too.
"""
import itertools
import random

import pytest

from cubicext.canon import Cubic, DepressedTrace, Pure, Reducible, _reduce_values, reduce_cubic
from cubicext.errors import DivisionByZero, DomainMismatch, FieldMismatch, WrongFieldClass
from cubicext.ffcubic import (Irreducible, LinTimesQuad, LinTimesSquare, ThreeDistinct, Triple,
                              brute_factor, decompose_any)
from cubicext.ffield import _ROW_MAX_ORDER, _Kernel, _kernel, field_make
from cubicext.polyring import func_field

EXHAUSTIVE = (2, 5, 7, 11)
SEEDED = (101, 65521, 1048573)
SEEDED_TRIPLES = 2000


def closure_kernel(F) -> _Kernel:
    """A kernel of F whose p is cleared: _reduce_values takes its closure branch."""
    K = _Kernel(F)
    K.p = 0
    return K


def both_sides(F, triples) -> set:
    """Assert that the int branch and the closure branch agree on every triple;
    return the (class, identity map) kinds the int branch reached."""
    K, K0 = _kernel(F), closure_kernel(F)
    assert K.p == F.p and not K0.p
    kinds = set()
    for e, f, g in triples:
        got = _reduce_values(K, e, f, g)
        assert got == _reduce_values(K0, e, f, g), (F, e, f, g)
        cls, params, m = got
        assert all(0 <= v < F.p for v in params + (m or ())), (F, e, f, g, got)
        kinds.add((cls, m is None))
    return kinds


# the int branch's five exits: g = 0, t = 0, the e = 0, f = -3 shortcut, the
# pure form (3eg = f^2) and the mapped trace form
ALL_KINDS = {(Reducible, True), (DepressedTrace, True), (Pure, False), (DepressedTrace, False)}


@pytest.mark.parametrize("p", EXHAUSTIVE)
def test_every_cubic_of_a_small_prime_field_reduces_alike_on_both_sides(p):
    F = field_make(p)
    assert both_sides(F, itertools.product(range(p), repeat=3)) == ALL_KINDS


@pytest.mark.parametrize("p", SEEDED)
def test_seeded_cubics_of_large_prime_fields_reduce_alike_on_both_sides(p):
    F = field_make(p)
    rng = random.Random(p)
    triples = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(SEEDED_TRIPLES)]
    # the rarer exits, which random triples miss: t = 0 (for (X - r)^3, whose
    # root is -3g/f), the shortcut and the pure form (e = f = 0)
    for _ in range(20):
        r, g = rng.randrange(1, p), rng.randrange(1, p)
        triples += [(-3 * r % p, 3 * r * r % p, -r ** 3 % p), (0, p - 3, g), (0, 0, g)]
    assert both_sides(F, triples) == ALL_KINDS


def cubic_of_roots(F, roots):
    r1, r2, r3 = map(F.from_int, roots)
    return Cubic(-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3))


def test_decompose_any_matches_the_brute_scan_over_gf_65521():
    F = field_make(65521)
    p = F.p
    rng = random.Random(65521)
    cubics = [Cubic(*(F.from_int(rng.randrange(p)) for _ in range(3))) for _ in range(6)]
    cubics += [Cubic(F.zero, F.zero, F.from_int(rng.randrange(1, p))) for _ in range(2)]
    cubics += [Cubic(F.zero, F.from_int(-3), F.from_int(rng.randrange(p))) for _ in range(2)]
    for _ in range(2):
        r, s, u = (rng.randrange(p) for _ in range(3))
        cubics += [cubic_of_roots(F, (r, s, u)), cubic_of_roots(F, (r, s, s)),
                   cubic_of_roots(F, (r, r, r))]
    bins = set()
    for c in cubics:
        d = decompose_any(c)
        assert d == brute_factor(c), c
        bins.add(type(d))
    assert bins == {Irreducible, LinTimesQuad, ThreeDistinct, LinTimesSquare, Triple}


@pytest.mark.parametrize("p", (2, 7, 251, 257))
def test_prime_field_division_agrees_with_pow_on_both_sides_of_the_bound(p):
    F = field_make(p)
    assert (p <= _ROW_MAX_ORDER) == (p < 257)
    for b in range(1, p):
        inv = pow(b, -1, p)
        assert F._inv(b) == inv
        assert [F._div(a, b) for a in range(p)] == [a * inv % p for a in range(p)]
    with pytest.raises(DivisionByZero):
        F._inv(0)
    with pytest.raises(DivisionByZero):
        F._div(1, 0)


def test_one_read_of_a_cubics_values_raises_as_the_kernel_does():
    F7, F5 = field_make(7), field_make(5)
    for c in (Cubic(F7.one, F5.one, F7.one), Cubic(F7.one, F7.one, F5.one)):
        with pytest.raises(FieldMismatch):
            reduce_cubic(c)
        with pytest.raises(FieldMismatch):
            decompose_any(c)
    with pytest.raises(DomainMismatch):
        reduce_cubic(Cubic(3, F7.one, F7.one))
    K = func_field(F7)
    with pytest.raises(WrongFieldClass):
        decompose_any(Cubic(K.x, K.one, K.one))
