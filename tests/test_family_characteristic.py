"""Place arithmetic refuses a family in the wrong characteristic.

``Extension`` accepts ``Pure(a)`` over GF(3^m)(x) and ``Char3(a)`` over
GF(q)(x) with q prime to 3.  A signature raises ``WrongCharacteristic``
where it reads the bin; ``genus``, ``ramification_report`` and
``is_constant_extension`` raise the same error before any formula runs,
with the message that ``decompose_pure`` or ``decompose_char3`` gives over
the constants.  Over GF(3)(x), y^3 = a is purely inseparable and
L = GF(3)(x^(1/3)) has genus 0, so the tame pure formula's genus 1 for
a = x^2 + x, or 4 for a = x^5 + 2x, would be wrong.
"""
import pytest

from cubicext.arith import Extension, genus, is_constant_extension, ramification_report, signature
from cubicext.canon import Char3, Pure
from cubicext.errors import WrongCharacteristic
from cubicext.ffcubic import decompose_char3, decompose_pure
from cubicext.ffield import field_make
from cubicext.places import places_up_to
from cubicext.polyring import func_field

K3 = func_field(field_make(3, 1))
K5 = func_field(field_make(5, 1))
x3, x5 = K3.x, K5.x

CASES = {"pure x^2+x over GF(3)": Pure(x3 ** 2 + x3),
         "pure x^5+2x over GF(3)": Pure(x3 ** 5 + x3 * 2),
         "char3 x over GF(5)": Char3(x5),
         "char3 x^3+3x^2+2x over GF(5)": Char3(x5 ** 3 + x5 ** 2 * 3 + x5 * 2)}


@pytest.mark.parametrize("form", CASES.values(), ids=CASES.keys())
def test_global_answers_raise_the_signature_error(form):
    ext = Extension(form)
    with pytest.raises(WrongCharacteristic) as err:
        (decompose_pure if isinstance(form, Pure) else decompose_char3)(ext.field.one)
    message = str(err.value)
    raised = set()
    for P in places_up_to(ext.ff, 2):
        try:
            signature(ext, P)
        except WrongCharacteristic as exc:
            raised.add(str(exc))
    assert message in raised
    for ask in (genus, ramification_report, is_constant_extension):
        with pytest.raises(WrongCharacteristic) as err:
            ask(ext)
        assert str(err.value) == message, ask.__name__
