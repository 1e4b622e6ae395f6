"""A Poly over GF(q)(x) holds RatFuncs, whatever constants it was given.

Poly.__init__ coerces each coefficient of a non-Field domain through
polyring._as_domain_elem: a GF(q) constant becomes a RatFunc, so the Poly
built from it is the same key as one built from RatFuncs, and an element of
another field is refused at construction.
"""
import pytest

from cubicext.errors import FieldMismatch
from cubicext.ffield import field_make
from cubicext.polyring import Poly, PolyRing, RatFunc, func_field

F5, F7 = field_make(5, 1), field_make(7, 1)
K7 = func_field(F7)


def test_a_field_constant_and_its_ratfunc_give_one_key():
    a = Poly(K7, [F7.from_int(3), K7.one])
    b = Poly(K7, [K7.from_int(3), K7.one])
    assert all(isinstance(v, RatFunc) for v in a.vals)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_const_coerces_a_field_constant():
    c = Poly.const(K7, F7.from_int(4))
    assert c.vals == (K7.from_int(4),) and isinstance(c.vals[0], RatFunc)
    assert hash(c) == hash(Poly.const(K7, K7.from_int(4)))


@pytest.mark.parametrize("foreign", [F5.from_int(3), func_field(F5).from_int(3)],
                         ids=["GF(5) constant", "GF(5)(x) element"])
def test_another_fields_element_is_refused_at_construction(foreign):
    with pytest.raises(FieldMismatch):
        Poly(K7, [foreign, K7.one])


def test_poly_ring_refuses_a_poly_over_another_field():
    R = PolyRing(F7)
    with pytest.raises(FieldMismatch):
        Poly(R, [Poly(F5, [F5.one]), R.one])
