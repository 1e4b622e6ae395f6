"""The Lucas/Dickson ladder against powers in GF(s)[W]/(W^2 - aW + 1)."""
import pytest

from cubicext.ffcubic import _lucas, _quad_ring
from cubicext.ffield import field_make

FIELDS = [(2, 1), (2, 2), (5, 1), (7, 1), (2, 3), (2, 4), (5, 2), (7, 2)]


@pytest.mark.parametrize("pm", FIELDS, ids=[f"GF({p}^{m})" for p, m in FIELDS])
def test_lucas_ladder_is_the_trace_of_powers_of_w(pm):
    F = field_make(*pm)
    s = F.order
    for a in range(s):
        tpow = _quad_ring(F, a)[1]
        for e in range(2 * (s + 1) + 1):
            c0, c1 = tpow((0, 1), e)
            assert _lucas(F, a, e) == F._add(F._add(c0, c0), F._mul(a, c1)), (a, e)
