"""Signatures on counter values, from the unit residue to the bin.

``places._unit_residue_value`` gives (v, residue field, counter value), and
``arith.signature_*`` hand that value to ``ffcubic``'s value-level bin cores
``_bin_pure``, ``_bin_depressed`` and ``_bin_char3``, wrapping it only on
the rare branches (the odd-p resolvent at a residual double root, the
characteristic-3 surgery and square class).  Checked here:

* each core against its public wrapper and against ``brute_factor``, on
  every element of every GF(q) with q <= 27, in characteristics 2, 3 and odd;
* ``_unit_residue_value`` against the wrapped ``unit_residue_of``;
* every signature against the earlier path, copied below, which asked the
  public ``bin_*`` on the wrapped residue, on seeded extensions over GF(2),
  GF(3), GF(4), GF(5), GF(7) and GF(9) at every place of degree <= 2, the
  characteristic errors of a pure form in characteristic 3 and of a char-3
  form elsewhere included;
* ``FieldMismatch`` at another field's place, in all three families.
"""
import random

import pytest

from cubicext.arith import (Extension, char3_local_form, resolvent_place_behavior, signature,
                            signature_char3, signature_depressed, signature_pure)
from cubicext.canon import Char3, DepressedTrace, Pure
from cubicext.errors import CubicExtError, FieldMismatch, WrongCharacteristic, ZeroInput
from cubicext.ffcubic import (Irreducible, LinTimesQuad, LinTimesSquare, ThreeDistinct,
                              _bin_char3, _bin_depressed, _bin_pure, bin_char3, bin_depressed,
                              bin_pure, brute_factor)
from cubicext.ffield import FieldElem, Square, field_make, square_classify
from cubicext.places import (Place, _unit_residue_value, places_up_to, unit_residue,
                             unit_residue_of)
from cubicext.polyring import Poly, RatFunc, func_field

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1),
                (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)]


@pytest.mark.parametrize("pm", SMALL_FIELDS, ids=[f"GF({p}^{m})" for p, m in SMALL_FIELDS])
def test_value_bins_match_the_wrapped_bins_and_brute_force(pm):
    F = field_make(*pm)
    if F.p == 3:
        cases = [(_bin_char3, bin_char3, Char3)]
    else:
        cases = [(_bin_pure, bin_pure, Pure), (_bin_depressed, bin_depressed, DepressedTrace)]
    for v in range(F.order):
        a = FieldElem(F, v)
        for core, public, family in cases:
            kind = core(F, v)
            assert kind is public(a), (family.__name__, a)
            assert kind is type(brute_factor(family(a).cubic())), (family.__name__, a)


# ---------------------------------------------------------------------------
# the unit residue on values
# ---------------------------------------------------------------------------

def rand_poly(rng, F, deg, monic=False):
    top = F.one if monic else F.from_value(rng.randrange(1, F.order))
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(deg)] + [top])


def rand_params(K, count, seed):
    """Nonconstant a = num/den, with a carrier power forced in now and then."""
    rng = random.Random(seed)
    F, finite = K.field, places_up_to(K, 2)[1:]
    out = []
    while len(out) < count:
        a = RatFunc(K, rand_poly(rng, F, rng.randint(0, 4)),
                    rand_poly(rng, F, rng.randint(0, 4), monic=True))
        if rng.randrange(2):
            a = a * K.from_poly(rng.choice(finite).pi) ** rng.choice((-6, -3, -2, -1, 1, 2, 3))
        if not a.is_constant():
            out.append(a)
    return out


@pytest.mark.parametrize("pm", [(2, 2), (3, 1), (5, 1), (3, 2)])
def test_unit_residue_value_is_the_unwrapped_unit_residue(pm):
    K = func_field(field_make(*pm))
    for a in rand_params(K, 12, 2310 + K.field.order):
        for P in places_up_to(K, 2):
            v, k, r = _unit_residue_value(a.num, a.den, P)
            v1, r1 = unit_residue_of(a.num, a.den, P)
            assert (v, k, r) == (v1, r1.field, r1.value)
            assert (v, r1) == unit_residue(a, P)


def test_unit_residue_value_checks_its_inputs():
    F5, F7 = field_make(5), field_make(7)
    num, den = Poly.of_ints(F5, [1, 2]), Poly.of_ints(F5, [3, 1])
    for P in (Place.finite(Poly.of_ints(F7, [2, 1])), Place.infinity(func_field(F7))):
        with pytest.raises(FieldMismatch):
            _unit_residue_value(num, den, P)
    with pytest.raises(ZeroInput):
        _unit_residue_value(Poly.zero(F5), den, Place.infinity(func_field(F5)))


# ---------------------------------------------------------------------------
# oracle: the earlier signatures on the wrapped residue, copied
# ---------------------------------------------------------------------------

RAMIFIED, INERT, SPLIT = ((3, 1),), ((1, 3),), ((1, 1),) * 3
MIXED, PARTIAL = ((1, 1), (1, 2)), ((2, 1), (1, 1))
UNRAMIFIED = {Irreducible: INERT, ThreeDistinct: SPLIT, LinTimesQuad: MIXED}
BEHAVIOR = {"split": SPLIT, "inert": MIXED, "ramified": PARTIAL}


def oracle_pure(a, P):
    v, res = unit_residue(a, P)
    return RAMIFIED if v % 3 else UNRAMIFIED[bin_pure(res)]


def oracle_depressed(a, P):
    v, res = unit_residue(a, P)
    if v < 0:
        return RAMIFIED if v % 3 else UNRAMIFIED[bin_pure(res)]
    kind = bin_depressed(res if v == 0 else res.field.zero)
    if kind is not LinTimesSquare:
        return UNRAMIFIED[kind]
    return BEHAVIOR[resolvent_place_behavior(a, P).value]


def oracle_char3(a, P):
    v, res = unit_residue(a, P)
    if v < 0:
        if v % 3:
            return RAMIFIED
        astar, v, _ = char3_local_form(a, P)
        if v < 0:
            return RAMIFIED
        v, res = unit_residue(astar, P)
    if v == 0:
        return UNRAMIFIED[bin_char3(res)]
    if v % 2:
        return PARTIAL
    return SPLIT if isinstance(square_classify(-res), Square) else MIXED


ORACLES = {Pure: oracle_pure, DepressedTrace: oracle_depressed, Char3: oracle_char3}


def outcome(fn, *args):
    try:
        return fn(*args)
    except CubicExtError as e:
        return type(e).__name__, str(e)


CASES = [((2, 1), Pure), ((2, 1), DepressedTrace), ((2, 2), Pure), ((2, 2), DepressedTrace),
         ((5, 1), Pure), ((5, 1), DepressedTrace), ((7, 1), DepressedTrace),
         ((3, 1), Char3), ((3, 2), Char3),
         ((3, 1), Pure), ((3, 2), Pure), ((5, 1), Char3)]  # the last three raise


@pytest.mark.parametrize("pm,family", CASES,
                         ids=[f"GF({p}^{m})-{f.__name__}" for (p, m), f in CASES])
def test_value_signatures_match_the_wrapped_path(pm, family):
    K = func_field(field_make(*pm))
    exts = []
    for a in rand_params(K, 10, 2320 + K.field.order):
        try:
            exts.append(Extension(family(a)))
        except CubicExtError:
            continue
    assert len(exts) >= 5
    raised = set()
    for ext in exts:
        for P in places_up_to(K, 2):
            got = outcome(signature, ext, P)
            want = outcome(ORACLES[family], ext.form.a, P)
            assert (got if isinstance(got, tuple) else got.pairs) == want, (ext, P)
            if isinstance(got, tuple):
                raised.add(got[0])
    wrong_p = (K.field.p == 3) != (family is Char3)
    assert raised <= {"WrongCharacteristic"}
    assert bool(raised) == wrong_p


# ---------------------------------------------------------------------------
# FieldMismatch at another field's place
# ---------------------------------------------------------------------------

F3, F5, F7 = field_make(3), field_make(5), field_make(7)
K3, K5 = func_field(F3), func_field(F5)
OTHER_PLACES = [Place.finite(Poly.of_ints(F7, [2, 1])), Place.infinity(func_field(F7))]


@pytest.mark.parametrize("ext,fn", [
    (Extension(Pure(K5.x)), signature_pure),
    (Extension(DepressedTrace(K5.x)), signature_depressed),
    (Extension(Char3(K3.x)), signature_char3),
], ids=["pure", "depressed", "char3"])
@pytest.mark.parametrize("P", OTHER_PLACES, ids=["x+2", "infinity"])
def test_signature_refuses_another_fields_place(ext, fn, P):
    with pytest.raises(FieldMismatch):
        signature(ext, P)
    with pytest.raises(FieldMismatch):
        fn(ext, P)


def test_wrong_characteristic_is_raised_where_the_bin_is_read():
    pure3 = Extension(Pure(K3.x ** 3 + K3.x + K3.one))
    assert signature(pure3, Place.finite(Poly.of_ints(F3, [2, 1]))).pairs == RAMIFIED
    with pytest.raises(WrongCharacteristic):
        signature(pure3, Place.infinity(K3))
    with pytest.raises(WrongCharacteristic):
        signature(Extension(Char3(K5.x + K5.one)), Place.finite(Poly.of_ints(F5, [0, 1])))
