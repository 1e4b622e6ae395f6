"""The Galois test and the trace resolvent refuse a family outside its
characteristic.

X^3 - 3X - a is inseparable in characteristic 3, X^3 - a too, and
X^3 + aX + a^2 is the characteristic-3 family.  ``canon.is_galois`` and
``arith.resolvent_place_behavior`` raise ``WrongCharacteristic`` for such a
form, with the message that ``decompose_depressed``, ``decompose_pure`` or
``decompose_char3`` gives over the constants, before any formula runs: a
formula would answer for a cubic that is not in its family (the trace test
read X^3 - 3X - x over GF(3)(x) as Galois, and the resolvent read
x^2 + x + 2 as inert at every place of degree <= 1).
"""
import pytest

from cubicext.arith import resolvent_place_behavior
from cubicext.canon import Char3, DepressedTrace, Pure, is_galois
from cubicext.errors import WrongCharacteristic
from cubicext.ffcubic import decompose_char3, decompose_depressed, decompose_pure
from cubicext.ffield import Field, field_make
from cubicext.places import places_up_to
from cubicext.polyring import func_field

F7, F9 = field_make(7), field_make(3, 2)
K3, K5 = func_field(field_make(3)), func_field(field_make(5))
DECOMPOSE = {Pure: decompose_pure, DepressedTrace: decompose_depressed, Char3: decompose_char3}

WRONG = {
    "trace x over GF(3)(x)": DepressedTrace(K3.x),
    "trace t over GF(9)": DepressedTrace(F9.gen()),
    "pure x over GF(3)(x)": Pure(K3.x),
    "pure t over GF(9)": Pure(F9.gen()),
    "char3 x over GF(5)(x)": Char3(K5.x),
    "char3 3 over GF(7)": Char3(F7.from_int(3)),
}


def _message(shape):
    """decompose_*'s error for the shape's family over its constant field."""
    base = shape.base
    F = base if isinstance(base, Field) else base.field
    with pytest.raises(WrongCharacteristic) as err:
        DECOMPOSE[type(shape)](F.one)
    return str(err.value)


@pytest.mark.parametrize("shape", WRONG.values(), ids=WRONG.keys())
def test_is_galois_refuses_a_family_outside_its_characteristic(shape):
    with pytest.raises(WrongCharacteristic) as err:
        is_galois(shape)
    assert str(err.value) == _message(shape)


def test_the_resolvent_refuses_characteristic_three():
    a = K3.x ** 2 + K3.x + 2
    message = _message(DepressedTrace(a))
    places = places_up_to(K3, 1)
    assert len(places) == 4
    for P in places:
        with pytest.raises(WrongCharacteristic) as err:
            resolvent_place_behavior(a, P)
        assert str(err.value) == message


def test_the_same_families_answer_in_their_characteristic():
    assert is_galois(DepressedTrace(K5.x)) is False
    assert is_galois(Pure(K5.x)) is False  # 5 = 2 mod 3
    assert is_galois(Char3(K3.x)) is False  # -x is not a square
    assert is_galois(Char3(-K3.x ** 2)) is True
    assert is_galois(Pure(F7.from_int(3))) is True  # 7 = 1 mod 3
    a = K5.x ** 2 + K5.x + 2
    assert all(resolvent_place_behavior(a, P) is not None for P in places_up_to(K5, 1))
