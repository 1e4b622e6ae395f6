"""``ffield._gcd`` returns a new list, never one of its arguments.

Over tabled GF(p^m) fields and GF(q)(x) the gcd runs the ``_divmod`` loop,
whose last divisor may be an argument itself: b when b divides a, a when b is
zero.  When that divisor is already monic the result must still be a fresh
list, so that a caller who changes it changes nothing of its own.
"""
import pytest

from cubicext.ffield import _gcd, _kernel, field_make
from cubicext.polyring import func_field

DOMAINS = [field_make(2, 2), field_make(3, 2), func_field(field_make(5, 1))]
IDS = ["GF(4)", "GF(9)", "GF(5)(x)"]


def element(dom, n):
    """The n-th small element: a counter value over a Field, a RatFunc else."""
    return n % dom.order if hasattr(dom, "order") else dom.rat([n % 5, 1], [1])


def cases(dom):
    """(a, b, monic gcd) with the last divisor an argument, monic or not."""
    K = _kernel(dom)
    one, two, y = K.one, K.add(K.one, K.one), element(dom, 3)
    unit = two if two else element(dom, 2)          # neither 0 nor 1, in characteristic 2 too
    lin = [y, one]                                  # monic x + y
    scaled = [K.mul(y, unit), unit]                 # unit * (x + y)
    quad = [K.mul(y, y), K.add(y, y), one]          # (x + y)^2
    return [
        (quad, lin, lin),        # b divides a, b monic
        (quad, scaled, lin),     # b divides a, b not monic
        (lin, [], lin),          # b zero, a monic
        (scaled, [], lin),       # b zero, a not monic
        ([one], [one], [one]),   # equal monic constants
        (lin, lin, lin),         # equal monic operands
        ([], [], []),            # both zero
    ]


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_the_result_is_a_new_list(dom):
    K = _kernel(dom)
    for a, b, want in cases(dom):
        for args in ((a, b), (list(a), list(b)), (tuple(a), tuple(b))):
            before = [list(v) for v in args]
            got = _gcd(K, *args)
            assert type(got) is list and got == want, (args, got)
            assert got is not args[0] and got is not args[1]
            got.append(K.one)
            assert [list(v) for v in args] == before
