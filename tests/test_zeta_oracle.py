"""A zeta-function oracle: the signatures at every place agree with the genus.

For a geometric cubic extension L of K = GF(q)(x) of genus g, the places of
L of degree d number B_d, and a place P of K whose signature holds the pair
(e, f) lies under one place of L of degree deg P * f.  So the signatures at
every place of K of degree <= R give B_1 ... B_R, and with them

* N_r = sum_{d | r} d B_d, the GF(q^r)-points of L, and
  S_r = N_r - q^r - 1;
* the L-polynomial L(t) = sum a_k t^k of degree 2g, from Newton's
  identities k a_k = sum_{i <= k} S_i a_{k-i} (Z(t) = L(t)/((1-t)(1-qt)));
* the functional equation a_{2g-k} = q^(g-k) a_k, the Hasse-Weil bound
  |S_r| <= 2g q^(r/2), and L(1) > 0, the class number (Stichtenoth,
  Algebraic Function Fields and Codes, ch. 5).

The check needs no second implementation: a wrong signature moves some N_r,
and a wrong genus the degree that the functional equation and the bound
assume.  Every a_k must be an integer; the functional equation is asserted
wherever both sides have k <= R, and L(1) > 0 with a_k for k > R from the
functional equation.  R = 2g where q^(2g) <= SCAN, else g + 1.

The deck holds seeded parameters in all three families over GF(2), GF(3),
GF(4), GF(5), GF(7) and GF(9), and constructed ones that reach the branches
random ones rarely do: deep poles of trace forms, residual double roots
(a = 2 + u pi^e for odd p, zeros of a for p = 2), a - 2 with a simple
zero at infinity, and characteristic-3 zeros and poles whose order 3
divides.  Each (ext, P) with deg P <= 2 is filed under the branch of
signature_* that decides it, and every branch is asserted to be reached.  The B_d come from
places_up_to, so the roots the scanned places carry are read too.
"""
import collections
import functools
import random

import pytest

from cubicext.arith import Extension, char3_local_form, genus, signature
from cubicext.canon import Char3, DepressedTrace, Pure
from cubicext.errors import ConstantExtension, ReducibleInput
from cubicext.ffield import field_make
from cubicext.places import places_up_to, reduce_at, valuation
from cubicext.polyring import Poly, RatFunc, func_field

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2)}
CASES = [(family, q) for q in PRIME_POWERS
         for family in ((Char3,) if q % 3 == 0 else (Pure, DepressedTrace))]
SCAN = 1 << 12  # q^R, the places of K this test visits per parameter

# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def place_counts(ext, R):
    """[B_1, ..., B_R] off the signatures of every place of degree <= R."""
    B = [0] * (R + 1)
    for P in places_up_to(ext.ff, R):
        for _, f in signature(ext, P).pairs:
            if P.degree * f <= R:
                B[P.degree * f] += 1
    return B[1:]


def l_polynomial(q, B):
    """(S, a): S_r = N_r - q^r - 1 and a_0 ... a_R by Newton's identities,
    with every a_k asserted integral."""
    R = len(B)
    S = [None] + [sum(d * B[d - 1] for d in range(1, r + 1) if r % d == 0) - q ** r - 1
                  for r in range(1, R + 1)]
    a = [1]
    for k in range(1, R + 1):
        s = sum(S[i] * a[k - i] for i in range(1, k + 1))
        assert s % k == 0, f"a_{k} = {s}/{k} is not an integer"
        a.append(s // k)
    return S, a


def check_zeta(ext, g):
    """The oracle's assertions on ext of genus g."""
    q = ext.field.order
    R = 2 * g if q ** (2 * g) <= SCAN else g + 1
    S, a = l_polynomial(q, place_counts(ext, R))
    for r in range(1, R + 1):
        assert S[r] ** 2 <= 4 * g * g * q ** r, f"|S_{r}| = |{S[r]}| > 2g q^({r}/2)"
    for k in range(max(0, 2 * g - R), min(R, 2 * g) + 1):
        assert a[2 * g - k] * q ** k == a[k] * q ** g, f"a_{2 * g - k} != q^{g - k} a_{k}"
    for k in range(R + 1, 2 * g + 1):
        a.append(a[2 * g - k] * q ** (k - g))
    assert all(c == 0 for c in a[2 * g + 1:]), "L(t) has degree above 2g"
    assert sum(a[:2 * g + 1]) > 0, "L(1), the class number, must be positive"


# ---------------------------------------------------------------------------
# which branch of signature_* decides a place
# ---------------------------------------------------------------------------


def branch(ext, P):
    """The signature_* branch that decides P, mirrored from the valuations."""
    a, p = ext.form.a, ext.field.p
    v = valuation(a, P)
    if isinstance(ext.form, Pure):
        return "pure: v prime to 3" if v % 3 else "pure: residual bin"
    if isinstance(ext.form, DepressedTrace):
        if v < 0:
            return "trace: pole prime to 3" if v % 3 else "trace: deep pole, pure bin"
        if p == 2 and v > 0:
            return "trace: double root, char-2 resolvent"
        if p != 2 and v == 0 and reduce_at(a, P) ** 2 == 4:
            return "trace: double root, odd resolvent"
        return "trace: residual bin"
    prefix = "char 3: "
    if v < 0:
        if v % 3:
            return "char 3: pole prime to 3"
        v = char3_local_form(a, P)[1]
        if v < 0:
            return "char 3: surgery leaves a pole"
        prefix = "char 3: surgery, "
    if v == 0:
        return prefix + "residual bin"
    return prefix + ("odd zero" if v % 2 else "even zero, square class")


# every (branch, signature) the deck must reach; after a char-3 surgery the
# bin is read by the same code as without one, so two of its three
# signatures are asked for there
REACHED = {
    Pure: {("pure: v prime to 3", "(3,1)"), ("pure: residual bin", "(1,3)"),
           ("pure: residual bin", "(1,1;1,1;1,1)"), ("pure: residual bin", "(1,1;1,2)")},
    DepressedTrace: {
        ("trace: pole prime to 3", "(3,1)"),
        ("trace: deep pole, pure bin", "(1,3)"),
        ("trace: deep pole, pure bin", "(1,1;1,1;1,1)"),
        ("trace: deep pole, pure bin", "(1,1;1,2)"),
        ("trace: residual bin", "(1,3)"), ("trace: residual bin", "(1,1;1,1;1,1)"),
        ("trace: residual bin", "(1,1;1,2)"),
        ("trace: double root, odd resolvent", "(1,1;1,1;1,1)"),
        ("trace: double root, odd resolvent", "(1,1;1,2)"),
        ("trace: double root, odd resolvent", "(2,1;1,1)"),
        ("trace: double root, char-2 resolvent", "(1,1;1,1;1,1)"),
        ("trace: double root, char-2 resolvent", "(1,1;1,2)"),
        ("trace: double root, char-2 resolvent", "(2,1;1,1)")},
    Char3: {("char 3: pole prime to 3", "(3,1)"), ("char 3: surgery leaves a pole", "(3,1)"),
            ("char 3: residual bin", "(1,3)"), ("char 3: residual bin", "(1,1;1,1;1,1)"),
            ("char 3: residual bin", "(1,1;1,2)"), ("char 3: odd zero", "(2,1;1,1)"),
            ("char 3: even zero, square class", "(1,1;1,1;1,1)"),
            ("char 3: even zero, square class", "(1,1;1,2)"),
            ("char 3: surgery, residual bin", "(1,3)"),
            ("char 3: surgery, residual bin", "(1,1;1,2)"), ("char 3: surgery, odd zero", "(2,1;1,1)")},
}

# ---------------------------------------------------------------------------
# the deck
# ---------------------------------------------------------------------------


def random_poly(rng, F, deg, monic=False):
    cs = [F.from_value(rng.randrange(F.order)) for _ in range(deg)]
    return Poly(F, cs + [F.one if monic else F.from_value(rng.randrange(1, F.order))])


def random_rat(rng, K, height):
    num = random_poly(rng, K.field, rng.randint(0, height))
    den = random_poly(rng, K.field, rng.randint(0, height), monic=True)
    return RatFunc(K, num, den)


def deck(family, q, rng):
    """Sixteen seeded parameters of height <= 3, and six of each constructed
    kind: a pole of order 3 (a deep trace pole, a char-3 surgery that
    leaves a pole), a residual double root (a zero of a for p = 2, else
    a = 2 + u pi^e), a - 2 = u/(x + c), which often has a simple zero at
    infinity (p odd), a
    char-2 zero of order 2 that as_local_reduce strips to a unit, a char-3
    zero of order 1 or 2, and a char-3 pole of order 6 that the surgery
    strips away."""
    K = func_field(field_make(*PRIME_POWERS[q]))
    x, p = K.x, K.field.p
    out = [random_rat(rng, K, 2 + i % 2) for i in range(16)]
    finite = places_up_to(K, 2)[1:]
    for i in range(6):
        P, u, h = rng.choice(finite), random_rat(rng, K, 1), random_rat(rng, K, 1)
        pi = K.from_poly(P.pi)
        if family is DepressedTrace:
            out.append(u / pi ** 3)
            out.append(2 + u * pi ** rng.randint(1, 2) if p != 2 else u * pi ** rng.randint(1, 2))
            if p != 2:
                out.append(2 + u / (x + rng.randrange(q)))
            elif valuation(h, P) >= 0:  # 1/a + 1 = w^2 + w + h, w = 1/pi: h is left
                out.append(1 / (1 / pi ** 2 + 1 / pi + 1 + h))
        elif family is Char3:
            out.append(u / pi ** 3)
            out.append(u * pi ** rng.randint(1, 2))
            # b -> (b^2 + w^3 + b w)^2 / b^3 keeps L, and with w = 1/pi it turns
            # the P-unit b = c + pi h into a pole of order 6 that
            # char3_local_form strips; c runs through the constants, so the
            # residual cubic y^3 + c y + c^2 takes each of its bins
            w = 1 / K.from_poly(rng.choice(finite[:q]).pi)
            c = K.from_elem(K.field.from_value(1 + i % (q - 1)))
            b = c + K.from_poly(random_poly(rng, K.field, 1)) / w
            out.append((b * b + w ** 3 + b * w) ** 2 / b ** 3)
    return out


@functools.lru_cache(maxsize=None)
def deck_outcomes(family, q):
    """[(ext, genus)] over the deck's geometric extensions within SCAN."""
    rng = random.Random(3200 + 10 * q + (family is Pure))
    out = []
    for a in deck(family, q, rng):
        try:
            ext = Extension(family(a))
            g = genus(ext)
        except (ConstantExtension, ReducibleInput):
            continue
        if g >= 1 and q ** (g + 1) <= SCAN:
            out.append((ext, g))
    return out


@pytest.mark.parametrize("family,q", CASES, ids=[f"{f.__name__}-GF({q})" for f, q in CASES])
def test_signatures_give_an_l_polynomial_of_the_genus(family, q):
    cases = deck_outcomes(family, q)
    assert len(cases) >= 4
    for ext, g in cases:
        check_zeta(ext, g)


def test_the_deck_reaches_every_signature_branch():
    counts = collections.Counter()
    for family, q in CASES:
        for ext, _ in deck_outcomes(family, q):
            for P in places_up_to(ext.ff, 2):
                counts[family, branch(ext, P), signature(ext, P).render()] += 1
    for family, wanted in REACHED.items():
        got = {(b, s) for f, b, s in counts if f is family}
        assert wanted <= got, sorted(wanted - got)
