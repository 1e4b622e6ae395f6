"""Every signature branch on counter values, against the earlier code.

At a place of degree 1, ``ResidueData._unit_value`` strips the carrier
X - root from a side whose residue is 0 with the partial sums of the Horner
pass that found the 0 (``ffield._deflate``), not by a division.  The odd-p
resolvent forms a -+ 2 on kernel lists and reads the square class by Euler's
test; a characteristic-2 zero of odd order is (2,1;1,1) at once; the char-3
square class of -r is Euler's test too.  Each is checked against the
earlier code, copied below: the strip by _divmod and a second evaluation,
and signature_depressed, _resolvent_odd and signature_char3 on FieldElem
residues.  The deck forces every rewritten branch, and each test asserts
that its branches were taken (HITS counts them):

* 1-3 powers of the carrier on each side at the degree-1 places of GF(2),
  GF(3), GF(4), GF(5), GF(7), GF(9) and GF(13);
* residues +-2 with a -+ 2 of odd and of even order, at places of degree 1
  and 2 and at infinity, over GF(5), GF(7), GF(13) and GF(25);
* characteristic-2 zeros of odd and of even order, over GF(2) and GF(4);
* characteristic-3 zeros of even order with -r a square and a non-square,
  over GF(3) and GF(9).

Every WrongCharacteristic that a signature raises for the four forms of
tests/test_family_characteristic.py, at the places of degree <= 2, carries
the family's message, the one decompose_pure or decompose_char3 gives; a
char-3 pole of order divisible by 3 over GF(5) used to raise the local
form's own message instead.
"""
import collections
import random

import pytest

from cubicext.arith import (SIG_FULLY_RAMIFIED, SIG_MIXED, SIG_PARTIAL, SIG_SPLIT, _UNRAMIFIED,
                            Extension, Inert, Ramified, Split, _bin, char3_local_form,
                            resolvent_place_behavior, signature)
from cubicext.canon import Char3, DepressedTrace, Pure
from cubicext.errors import CubicExtError, WrongCharacteristic
from cubicext.ffcubic import (LinTimesSquare, _bin_char3, _bin_depressed, _bin_pure,
                              _family_field, decompose_char3, decompose_pure)
from cubicext.ffield import FieldElem, Square, _divmod, field_make, square_classify
from cubicext.places import Place, iter_places, places_up_to, residue_field
from cubicext.polyring import Poly, func_field

HITS = collections.Counter()  # branch -> times the oracle took it

# ---------------------------------------------------------------------------
# oracle: the earlier strip and signatures, copied; each records its branch
# ---------------------------------------------------------------------------


def oracle_unit_value(rd, ns, ds):
    """ResidueData._unit_value's strip before deflation: evaluate a side and,
    while its residue is 0, divide it by the carrier and evaluate again."""
    pi, v = rd.place.pi.vals, 0
    n, d = rd._eval(ns), rd._eval(ds)
    while not n:
        ns = _divmod(rd._kernel, ns, pi)[0]
        v, n = v + 1, rd._eval(ns)
    while not d:
        ds = _divmod(rd._kernel, ds, pi)[0]
        v, d = v - 1, rd._eval(ds)
    return v, rd.field, rd.field._div(n, d)


def oracle_unit_residue_value(num, den, P):
    ns, ds = num.vals, den.vals
    if P.is_infinite:
        return len(ds) - len(ns), P.ff.field, P.ff.field._div(ns[-1], ds[-1])
    return oracle_unit_value(residue_field(P), ns, ds)


def kind(P):
    return "infinity" if P.is_infinite else f"degree {P.degree}"


def oracle_resolvent_odd(a, P, v, r):
    if v < 0:
        v, r = 2 * v, r * r
    elif v > 0:
        v, r = 0, r.field.from_int(-4)
    elif r * r == 4:
        two = 2 if r == 2 else -2
        shifted = a.num - a.den * two
        assert not shifted.is_zero()
        v, k, r = oracle_unit_residue_value(shifted, a.den, P)
        r = FieldElem(k, r) * (2 * two)
        if v % 2:
            HITS["resolvent +-2, odd order, " + kind(P)] += 1
        else:
            square = isinstance(square_classify(r * -27), Square)
            HITS[f"resolvent +-2, even order, {kind(P)}, {'split' if square else 'inert'}"] += 1
    else:
        r = r * r - 4
    if v % 2 == 1:
        return Ramified
    return Split if isinstance(square_classify(r * -27), Square) else Inert


def oracle_depressed(a, P):
    v, k, r = oracle_unit_residue_value(a.num, a.den, P)
    if v < 0:
        if v % 3 != 0:
            return SIG_FULLY_RAMIFIED
        return _UNRAMIFIED[_bin(_bin_pure, k, r)]
    bin_ = _bin(_bin_depressed, k, r if v == 0 else 0)
    if bin_ is not LinTimesSquare:
        return _UNRAMIFIED[bin_]
    if k.p == 2:
        HITS[f"char-2 zero, {'odd' if v % 2 else 'even'} order, {kind(P)}"] += 1
    return {Split: SIG_SPLIT, Inert: SIG_MIXED, Ramified: SIG_PARTIAL}[
        oracle_resolvent_odd(a, P, v, k.from_value(r)) if k.p != 2
        else resolvent_place_behavior(a, P)]


def oracle_char3(a, P):
    v, k, r = oracle_unit_residue_value(a.num, a.den, P)
    if v < 0:
        if v % 3 != 0:
            return SIG_FULLY_RAMIFIED
        astar, v, _ = char3_local_form(a, P)
        if v < 0:
            return SIG_FULLY_RAMIFIED
        v, k, r = oracle_unit_residue_value(astar.num, astar.den, P)
    if v == 0:
        return _UNRAMIFIED[_bin(_bin_char3, _family_field(k, Char3), r)]
    if v % 2 == 1:
        return SIG_PARTIAL
    square = isinstance(square_classify(k.from_value(k._neg(r))), Square)
    HITS[f"char-3 even zero, -r {'square' if square else 'non-square'}, {kind(P)}"] += 1
    return SIG_SPLIT if square else SIG_MIXED


def oracle_pure(a, P):
    v, k, r = oracle_unit_residue_value(a.num, a.den, P)
    return SIG_FULLY_RAMIFIED if v % 3 else _UNRAMIFIED[_bin(_bin_pure, k, r)]


ORACLES = {Pure: oracle_pure, DepressedTrace: oracle_depressed, Char3: oracle_char3}

# ---------------------------------------------------------------------------
# the deck
# ---------------------------------------------------------------------------


def rand_poly(rng, F, deg, monic=False):
    top = F.one if monic else F.from_value(rng.randrange(1, F.order))
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg)] + [top])


def families(F):
    return (Char3,) if F.p == 3 else (Pure, DepressedTrace)


def check_signatures(a, P):
    """signature against the oracle for every family that takes a over its field."""
    for family in families(a.ff.field):
        try:
            ext = Extension(family(a))
        except CubicExtError:
            continue
        assert signature(ext, P) == ORACLES[family](a, P), (family.__name__, a, P)


def sample(rng, K, count):
    """Infinity, then up to count places each of degree 1 and 2."""
    ones = [P for P in iter_places(K, 1) if not P.is_infinite]
    twos = [P for P in places_up_to(K, 2) if P.degree == 2]
    return ([Place.infinity(K)] + rng.sample(ones, min(count, len(ones)))
            + rng.sample(twos, min(count, len(twos))))


def with_order(rng, K, P, k, lead=None):
    """A function of order exactly k at P (a pole for k < 0) whose unit part
    is random, plus the constant lead if one is given."""
    F = K.field
    while True:
        h, g = rand_poly(rng, F, rng.randint(0, 3)), rand_poly(rng, F, rng.randint(0, 3), True)
        if P.is_infinite:  # v_infinity = deg den - deg num
            g = g * K.x.num ** max(0, k + h.degree - g.degree)
            h = h * K.x.num ** max(0, g.degree - h.degree - k)
            s = K.rat(h, g)
        else:
            pi = K.from_poly(P.pi)
            s = K.rat(h, g) * pi ** k
        if s.is_zero() or oracle_unit_residue_value(s.num, s.den, P)[0] != k:
            continue
        a = s if lead is None else s + K.from_int(lead)
        if not a.is_constant():
            return a


STRIP_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (13, 1)]


@pytest.mark.parametrize("pm", STRIP_FIELDS, ids=[f"GF({p}^{m})" for p, m in STRIP_FIELDS])
def test_degree_one_strips_match_the_division_strip(pm):
    HITS.clear()
    F = field_make(*pm)
    K, rng = func_field(F), random.Random(3400 + F.order)
    for P in iter_places(K, 1):
        if P.is_infinite:
            continue
        rd = residue_field(P)
        for i in range(4):
            for j in range(4):
                num = P.pi ** i * rand_poly(rng, F, rng.randint(0, 5))
                den = P.pi ** j * rand_poly(rng, F, rng.randint(0, 5))
                want = oracle_unit_value(rd, num.vals, den.vals)
                assert rd._unit_value(num.vals, den.vals) == want, (P, num, den)
                vn = oracle_unit_value(rd, num.vals, [1])[0]
                vd = -oracle_unit_value(rd, [1], den.vals)[0]
                HITS[f"numerator strip {min(vn, 4)}"] += 1
                HITS[f"denominator strip {min(vd, 4)}"] += 1
                check_signatures(K.rat(num, den), P)
    for side in ("numerator", "denominator"):
        for n in (1, 2, 3):
            assert HITS[f"{side} strip {n}"] >= 2, (side, n)


RESOLVENT_FIELDS = [(5, 1), (7, 1), (13, 1), (5, 2)]


@pytest.mark.parametrize("pm", RESOLVENT_FIELDS, ids=[f"GF({p}^{m})" for p, m in RESOLVENT_FIELDS])
def test_odd_resolvent_at_residues_plus_minus_two(pm):
    HITS.clear()
    F = field_make(*pm)
    K, rng = func_field(F), random.Random(3500 + F.order)
    places = sample(rng, K, 4)
    for P in places:
        for k in (1, 2, 3, 4):
            for two in (2, -2, 2, -2):
                a = with_order(rng, K, P, k, two)
                check_signatures(a, P)
                # every resolvent branch, at every sampled place
                for Q in places:
                    v, k_, r = oracle_unit_residue_value(a.num, a.den, Q)
                    assert resolvent_place_behavior(a, Q) == \
                        oracle_resolvent_odd(a, Q, v, FieldElem(k_, r)), (a, Q)
    for where in ("infinity", "degree 1", "degree 2"):
        assert HITS["resolvent +-2, odd order, " + where], where
        assert HITS[f"resolvent +-2, even order, {where}, split"] + \
            HITS[f"resolvent +-2, even order, {where}, inert"], where
    assert sum(n for b, n in HITS.items() if b.endswith("split"))
    assert sum(n for b, n in HITS.items() if b.endswith("inert"))


@pytest.mark.parametrize("pm", [(2, 1), (2, 2)], ids=["GF(2^1)", "GF(2^2)"])
def test_char2_zeros_of_odd_and_even_order(pm):
    HITS.clear()
    F = field_make(*pm)
    K, rng = func_field(F), random.Random(3600 + F.order)
    for P in sample(rng, K, 3):
        for k in (1, 2, 3, 4, 5, 6):
            for _ in range(3):
                a = with_order(rng, K, P, k)
                ext = Extension(DepressedTrace(a))
                assert signature(ext, P) == oracle_depressed(a, P), (a, P)
    for where in ("infinity", "degree 1", "degree 2"):
        for parity in ("odd", "even"):
            assert HITS[f"char-2 zero, {parity} order, {where}"], (parity, where)


@pytest.mark.parametrize("pm", [(3, 1), (3, 2)], ids=["GF(3^1)", "GF(3^2)"])
def test_char3_even_zeros_by_square_class(pm):
    HITS.clear()
    F = field_make(*pm)
    K, rng = func_field(F), random.Random(3700 + F.order)
    for P in sample(rng, K, 3):
        for k in (2, 4, 1, -3):
            for _ in range(4):
                a = with_order(rng, K, P, k)
                ext = Extension(Char3(a))
                assert signature(ext, P) == oracle_char3(a, P), (a, P)
    for where in ("infinity", "degree 1", "degree 2"):
        for cls in ("square", "non-square"):
            assert HITS[f"char-3 even zero, -r {cls}, {where}"], (cls, where)


# ---------------------------------------------------------------------------
# the family's message
# ---------------------------------------------------------------------------

K3, K5 = func_field(field_make(3, 1)), func_field(field_make(5, 1))
x3, x5 = K3.x, K5.x
WRONG_P = {"pure x^2+x over GF(3)": Pure(x3 ** 2 + x3),
           "pure x^5+2x over GF(3)": Pure(x3 ** 5 + x3 * 2),
           "char3 x over GF(5)": Char3(x5),
           "char3 x^3+3x^2+2x over GF(5)": Char3(x5 ** 3 + x5 ** 2 * 3 + x5 * 2)}


@pytest.mark.parametrize("form", WRONG_P.values(), ids=WRONG_P.keys())
def test_every_wrong_characteristic_signature_has_the_family_message(form):
    ext = Extension(form)
    with pytest.raises(WrongCharacteristic) as err:
        (decompose_pure if isinstance(form, Pure) else decompose_char3)(ext.field.one)
    raised = []
    for P in places_up_to(ext.ff, 2):
        try:
            signature(ext, P)
        except WrongCharacteristic as exc:
            raised.append(str(exc))
    assert raised and set(raised) == {str(err.value)}


def test_a_char3_surgery_pole_over_gf5_has_the_family_message():
    ext = Extension(WRONG_P["char3 x^3+3x^2+2x over GF(5)"])
    with pytest.raises(WrongCharacteristic) as err:
        signature(ext, Place.infinity(K5))  # v = -3: the surgery's pole
    with pytest.raises(WrongCharacteristic) as family:
        decompose_char3(K5.field.one)
    assert str(err.value) == str(family.value)
