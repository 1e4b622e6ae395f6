"""Ben-Or's irreducibility test against trial division.

``ffield._irreducible`` decides irreducibility over GF(q) by
gcd(x^(q^i) - x, f) = 1 for i = 1 ... d // 2, stopping at the first factor.
The oracle here shares no Frobenius code: f is irreducible exactly when no
monic polynomial of degree 1 ... d // 2 divides it, found by schoolbook long
division on the field's own multiply and subtract.  Checked:

* _irreducible equals the oracle on every monic polynomial of degree <= 8
  over GF(2), <= 5 over GF(3), <= 4 over GF(4) and GF(5), and <= 3 over GF(7),
  GF(8) and GF(9);
* least_irreducible(p, m), every field modulus, is the oracle's first hit in
  counter order, for the fields of the ff-decompose deck and for the largest
  fields of characteristic 2, 3, 7 and 13 under MAX_ORDER.
"""
import pytest

from cubicext.ffield import _digits, _irreducible, _kernel, field_make, least_irreducible

# the fields of the ff-decompose benchmark deck (bench/workloads.py)
FF_FIELDS = [(7, 1), (101, 1), (3, 4), (5, 3), (2, 8), (2, 16)]
SWEEPS = [((2, 1), 8), ((3, 1), 5), ((2, 2), 4), ((5, 1), 4), ((7, 1), 3), ((2, 3), 3),
          ((3, 2), 3)]


def monics(F, d):
    """Every monic polynomial of degree d over F, as counter-value lists, in
    counter order."""
    q = F.order
    return (_digits(i, q, d) + [1] for i in range(q ** d))


def divides(F, g, f):
    """Does the monic g divide f?  Schoolbook long division."""
    r, n = list(f), len(g) - 1
    for top in range(len(r) - 1, n - 1, -1):
        c = r[top]
        if c:
            for i, y in enumerate(g):
                r[top - n + i] = F._sub(r[top - n + i], F._mul(c, y))
    return not any(r[:n])


def oracle(F, f):
    d = len(f) - 1
    return not any(divides(F, g, f) for e in range(1, d // 2 + 1) for g in monics(F, e))


@pytest.mark.parametrize("pm,dmax", SWEEPS, ids=[f"GF({p}^{m})-deg<={d}" for (p, m), d in SWEEPS])
def test_ben_or_equals_trial_division(pm, dmax):
    F = field_make(*pm)
    K = _kernel(F)
    for d in range(1, dmax + 1):
        found = 0
        for f in monics(F, d):
            want = oracle(F, f)
            assert _irreducible(K, f) is want, f
            found += want
        assert found > 0  # every degree has an irreducible


@pytest.mark.parametrize("p,m", FF_FIELDS + [(2, 20), (3, 12), (7, 7), (13, 5)], ids=str)
def test_least_irreducible_is_the_first_hit_of_trial_division(p, m):
    F = field_make(p)
    first = next(f for f in monics(F, m) if oracle(F, f))
    assert least_irreducible(p, m) == tuple(first)
