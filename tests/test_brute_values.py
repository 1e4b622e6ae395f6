"""brute_factor on counter values against its earlier form on FieldElem
operators, copied here unchanged as the oracle: every cubic over q <= 9 and
2,000 seeded cubics over each of GF(16), GF(25), GF(27), GF(49), GF(64) and
GF(81)."""
import random

import pytest

from cubicext.canon import Cubic
from cubicext.errors import SizeExceeded
from cubicext.ffcubic import (
    BRUTE_LIMIT,
    Irreducible,
    LinTimesQuad,
    LinTimesSquare,
    ThreeDistinct,
    Triple,
    _require_finite,
    brute_factor,
)
from cubicext.ffield import field_make

SIZES = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
         16: (2, 4), 25: (5, 2), 27: (3, 3), 49: (7, 2), 64: (2, 6), 81: (3, 4)}


def _brute_factor_on_elements(c: Cubic):
    """The earlier brute_factor: the scan and the synthetic division on
    FieldElem operators."""
    F = _require_finite(c.base)
    if F.order > BRUTE_LIMIT:
        raise SizeExceeded(f"brute_factor scans the field; |F| = {F.order} > {BRUTE_LIMIT}")
    roots = []
    for x in F.elements():
        if c(x).is_zero():
            roots.append(x)
    if not roots:
        return Irreducible()
    # multiplicities by repeated synthetic division
    mults = []
    for r in roots:
        e1 = c.e + r
        f1 = c.f + r * e1
        # cofactor X^2 + e1 X + f1; r is a double root iff it kills the cofactor
        m = 1
        if (r * (r + e1) + f1).is_zero():
            m = 2
            if (r + r + e1).is_zero():  # cofactor = (X - r)^2
                m = 3
        mults.append(m)
    total = sum(mults)
    if total == 1:  # one simple root: e1, f1 are its cofactor
        return LinTimesQuad(roots[0], (e1, f1))
    assert total == 3, "a cubic root count off the scan must be 1 or 3"
    if len(roots) == 3:
        return ThreeDistinct(tuple(roots))
    if len(roots) == 1:
        return Triple(roots[0])
    simple, double = (roots[0], roots[1]) if mults[0] == 1 else (roots[1], roots[0])
    return LinTimesSquare(simple=simple, double=double)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_brute_factor_matches_the_element_scan_on_every_cubic(q):
    F = field_make(*SIZES[q])
    elems = list(F.elements())
    for e in elems:
        for f in elems:
            for g in elems:
                c = Cubic(e, f, g)
                assert brute_factor(c) == _brute_factor_on_elements(c), (q, e, f, g)


@pytest.mark.parametrize("q", [16, 25, 27, 49, 64, 81])
def test_brute_factor_matches_the_element_scan_on_seeded_cubics(q):
    F = field_make(*SIZES[q])
    rng = random.Random(20261019 + q)
    for _ in range(2000):
        c = Cubic(*(F.from_value(rng.randrange(q)) for _ in range(3)))
        assert brute_factor(c) == _brute_factor_on_elements(c), (q, c)



def test_brute_factor_refuses_a_field_above_its_limit():
    F = field_make(2, 17)  # 2^17 > BRUTE_LIMIT: refused before any table is built
    with pytest.raises(SizeExceeded):
        brute_factor(Cubic(F.one, F.one, F.one))
