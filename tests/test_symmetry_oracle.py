"""A symmetry oracle: automorphisms of K = GF(q)(x) move places, not splitting.

An automorphism phi of K sends the form with parameter a to the form with
parameter phi(a), which defines phi(L).  So the splitting type of phi(L) at
a place P is that of L at the place P' with v_P(phi(f)) = v_P'(f), and both
genera are equal (Stichtenoth, Algebraic Function Fields and Codes, 3.1).
The oracle needs no second implementation, only substitution and a map of
places; it checks every place of degree <= 2 and the genus under:

* x -> (alpha x + beta)/(gamma x + delta) over GF(q), fixing GF(q): the
  three generators of PGL2(GF(q)) (x + c, lambda x, 1/x) and one general
  map.  A finite place with root theta goes to the place of
  sigma(theta), whose carrier is the monic multiple of
  sum c_i (delta X - beta)^i (alpha - gamma X)^(d - i), or infinity when that
  drops degree; infinity goes to alpha/gamma, or stays when gamma = 0;
* the Frobenius twist c -> c^p of a's coefficients, which moves places only
  when q = p^m with m > 1: P' has the carrier's coefficients c^(q/p);
* a change of parameter that leaves L as it is, P' = P: a -> a c^3 for pure
  forms, a -> -a for trace forms of odd characteristic, and the surgery
  a -> (a^2 + w^3 + a w)^2 / a^3 for characteristic-3 forms.

The deck holds seeded parameters in all three families over GF(2), GF(3),
GF(4), GF(5), GF(7) and GF(9), and constructed ones: characteristic-2 trace
parameters with a zero of even order and characteristic-3 parameters with a
pole of order divisible by 3, at places of degree 1 and 2.  Those run
arith.as_local_reduce and arith.char3_local_form, and so ResidueData.lift,
at places of degree 1 and 2 under every map, which the test asserts.  It
cannot see which root of a carrier a residue field uses: conjugate roots
give Frobenius-conjugate residues, and bins do not change under Frobenius.
"""
import collections
import random

import pytest

from cubicext import places
from cubicext.arith import Extension, genus, signature
from cubicext.canon import Char3, DepressedTrace, Pure
from cubicext.errors import CubicExtError
from cubicext.ffield import field_make
from cubicext.places import Place, places_up_to
from cubicext.polyring import Poly, RatFunc, func_field

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2)}
CASES = [(family, q) for q in PRIME_POWERS
         for family in ((Char3,) if q % 3 == 0 else (Pure, DepressedTrace))]


def outcome(fn, *args):
    """fn's value, or the type of the package error it raised."""
    try:
        return fn(*args)
    except CubicExtError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# the maps: each returns (phi(a), P -> P')
# ---------------------------------------------------------------------------

def substitute(f, s):
    """f(s) for a Poly f over GF(q) and a RatFunc s, by Horner."""
    acc = s.ff.zero
    for c in reversed(f.coeffs):
        acc = acc * s + c
    return acc


def moebius(alpha, beta, gamma, delta):
    def apply(a):
        K = a.ff
        s = (K.x * alpha + beta) / (K.x * gamma + delta)
        return substitute(a.num, s) / substitute(a.den, s)

    def place(P):
        K, F = P.ff, P.ff.field
        X = Poly.gen(F)
        if P.is_infinite:
            return P if not gamma else Place(K, X - alpha / gamma)
        d = P.degree
        f = sum(((X * delta - beta) ** i * (X * -gamma + alpha) ** (d - i) * c
                 for i, c in enumerate(P.pi.coeffs)), Poly.zero(F))
        return Place.infinity(K) if f.degree < d else Place(K, f.monic())
    return apply, place


def frobenius(F):
    p, root = F.p, F.order // F.p

    def twist(f, e):
        return Poly(F, [c ** e for c in f.coeffs])

    def apply(a):
        return RatFunc(a.ff, twist(a.num, p), twist(a.den, p))

    def place(P):
        return P if P.is_infinite else Place(P.ff, twist(P.pi, root))
    return apply, place


def same_extension(family, a, rng):
    """A parameter of the same family defining the same L, or None."""
    K = a.ff
    if family is Pure:
        c = random_rat(rng, K, 2)
        return a * c ** 3
    if family is DepressedTrace:
        return -a if K.field.p != 2 else None
    if a.height > 1:
        return None
    while True:
        w = K.from_elem(K.field.from_value(rng.randrange(1, K.field.order)))
        n = a * a + w ** 3 + a * w
        if not n.is_zero():
            return n * n / a ** 3


def maps(F, rng):
    """[(name, apply, place)]: the three generators, one general map, the
    Frobenius twist when F is not prime."""
    els = list(F.elements())
    c = rng.choice(els[1:])
    lam = rng.choice(els[2:]) if F.order > 2 else F.one
    while True:
        alpha, beta, gamma, delta = (rng.choice(els) for _ in range(4))
        if gamma and alpha * delta - beta * gamma:
            break
    out = [("x+c", *moebius(F.one, c, F.zero, F.one)),
           ("1/x", *moebius(F.zero, F.one, F.one, F.zero)),
           ("general", *moebius(alpha, beta, gamma, delta))]
    if F.order > 2:
        out.append(("lambda x", *moebius(lam, F.zero, F.zero, F.one)))
    if F.m > 1:
        out.append(("frobenius", *frobenius(F)))
    return out


# ---------------------------------------------------------------------------
# the deck
# ---------------------------------------------------------------------------

def random_poly(rng, F, deg, monic=False):
    cs = [F.from_value(rng.randrange(F.order)) for _ in range(deg)]
    return Poly(F, cs + [F.one if monic else F.from_value(rng.randrange(1, F.order))])


def random_rat(rng, K, height):
    while True:
        num = random_poly(rng, K.field, rng.randint(0, height))
        den = random_poly(rng, K.field, rng.randint(0, height), monic=True)
        a = RatFunc(K, num, den)
        if not a.is_constant():
            return a


def deck(family, q, rng):
    """Eight seeded parameters of height <= 3, one with a unit of degree-2
    numerator at infinity, and for the surgeries a zero of even order
    (characteristic-2 trace) or a pole of order divisible by 3
    (characteristic 3) at a place of degree 1 and at one of degree 2."""
    F = field_make(*PRIME_POWERS[q])
    K = func_field(F)
    out = [random_rat(rng, K, 3) for _ in range(8)]
    out.append(K.rat(random_poly(rng, F, 2), random_poly(rng, F, 2, monic=True)))
    surgery = (family is DepressedTrace and F.p == 2) or family is Char3
    carriers = [P.pi for P in places_up_to(K, 2) if not P.is_infinite]
    for d, e in ((1, 1), (2, 1), (1, 2), (2, 2)) if surgery else ():
        pi = K.from_poly(rng.choice([f for f in carriers if f.degree == d]))
        u = random_rat(rng, K, 1)
        out.append(u * pi ** (2 * e) if family is DepressedTrace else u / pi ** (3 * e))
    return [a for a in out if not isinstance(outcome(Extension, family(a)), type)]


# A local surgery lifts once a pass, and each call on this deck takes at most
# one pass.  A surgery that does not terminate (a wrong residue fails to cancel
# the leading term) trips this bound before its parameter's height, which a
# characteristic-3 pass triples, makes the test hang.
LIFTS_PER_CALL = 3


@pytest.mark.parametrize("family,q", CASES, ids=[f"{f.__name__}-GF({q})" for f, q in CASES])
def test_automorphisms_move_places_not_splitting(family, q, monkeypatch):
    lifts, left = collections.Counter(), collections.Counter()
    lift = places.ResidueData.lift

    def counted(self, c):
        lifts[left["map"], self.place.degree] += 1
        left["lifts"] -= 1
        assert left["lifts"] >= 0, "a local surgery does not terminate"
        return lift(self, c)

    def run(fn, ext, *args):
        left["lifts"] = LIFTS_PER_CALL
        return outcome(fn, ext, *args)

    monkeypatch.setattr(places.ResidueData, "lift", counted)
    F = field_make(*PRIME_POWERS[q])
    K = func_field(F)
    rng = random.Random(1100 + 10 * q + (family is Pure))
    table = places_up_to(K, 2)
    params = deck(family, q, rng)
    assert len(params) >= 8
    checked = 0
    for a in params:
        ext = Extension(family(a))
        left["map"] = None
        before = {P: run(signature, ext, P) for P in table}
        g = run(genus, ext)
        moved = maps(F, rng)
        other = same_extension(family, a, rng)
        if other is not None:
            moved.append(("same L", lambda b, other=other: other, lambda P: P))
        for name, apply, place in moved:
            left["map"] = name
            image = Extension(family(apply(a)))
            for P in table:
                Q = place(P)
                assert Q.degree == P.degree
                assert run(signature, image, P) == before[Q], (name, a, P, Q)
                checked += 1
            assert run(genus, image) == g, (name, a)
    assert checked >= 8 * 3 * len(table)
    if (family is DepressedTrace and F.p == 2) or family is Char3:
        # the surgeries, and so the lift, ran at both degrees under every map
        for name, _, _ in moved:
            assert lifts[name, 1] and lifts[name, 2], (name, dict(lifts))
