"""Witness-free bins and the signature layer built on them.

The bins are checked against ``brute_factor`` on every element of a range of
fields.  The signatures, the quadratic resolvent and the ramification report
are checked against a copy of their earlier form, kept below: signatures from
``decompose_*`` witnesses, residues by Horner's rule in the residue field,
the odd-p resolvent on the RatFunc -27(a^2 - 4), the characteristic-2
resolvent parameter 1/a^2 + 1 and the partial places from ``divisor_of(a -+ 2)``.
"""
import random

import pytest

from cubicext.arith import (
    Extension,
    as_local_reduce,
    char3_local_form,
    ramification_report,
    resolvent_place_behavior,
    signature,
)
from cubicext.canon import Char3, DepressedTrace, Pure
from cubicext.ffcubic import (
    Irreducible,
    LinTimesQuad,
    LinTimesSquare,
    ThreeDistinct,
    bin_char3,
    bin_depressed,
    bin_pure,
    brute_factor,
    decompose_char3,
    decompose_depressed,
    decompose_pure,
)
from cubicext.ffield import Square, field_make, square_classify, trace_to_prime
from cubicext.places import (Place, divisor_of, places_up_to, residue_field, unit_residue,
                             unit_residue_of, valuation)
from cubicext.polyring import (FACTOR_SEED, Poly, RatFunc, _distinct_degree,
                               _equal_degree_split, _kernel, _squarefree_decomposition,
                               factor_fq, func_field, is_irreducible, monic_polys)

BIN_FIELDS = ([(2, m) for m in range(1, 7)] + [(3, m) for m in range(1, 6)]
              + [(p, 1) for p in (5, 7, 11, 13, 17, 19)] + [(5, 2), (7, 2), (13, 2)])


# ---------------------------------------------------------------------------
# bins against the brute oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", BIN_FIELDS, ids=lambda v: str(v))
def test_every_bin_matches_brute_factor(p, m):
    F = field_make(p, m)
    for a in F.elements():
        if p == 3:
            assert bin_char3(a) is type(brute_factor(Char3(a).cubic())), a
        else:
            assert bin_pure(a) is type(brute_factor(Pure(a).cubic())), a
            assert bin_depressed(a) is type(brute_factor(DepressedTrace(a).cubic())), a


# ---------------------------------------------------------------------------
# the earlier signature layer, kept as the reference
# ---------------------------------------------------------------------------

def _strip(f, pi):
    n = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero():
            return n, f
        f, n = q, n + 1


def ref_unit_residue(a, P):
    num, den = a.num, a.den
    if P.is_infinite:
        return den.degree - num.degree, num.lc / den.lc
    rd = residue_field(P)

    def ev(f):
        return Poly(rd.field, [rd.embed(c) for c in f.coeffs])(rd.root)

    n, d = ev(num), ev(den)
    if not n:
        v, num = _strip(num, P.pi)
        return v, ev(num) / d
    if not d:
        v, den = _strip(den, P.pi)
        return -v, n / ev(den)
    return 0, n / d


def ref_sig_unramified(d):
    return {Irreducible: ((1, 3),), ThreeDistinct: ((1, 1), (1, 1), (1, 1)),
            LinTimesQuad: ((1, 1), (1, 2))}[type(d)]


FULL, PARTIAL = ((3, 1),), ((2, 1), (1, 1))


def ref_resolvent(a, P):
    ff = a.ff
    if ff.field.p != 2:
        disc = ff.from_int(-27) * (a * a - ff.from_int(4))
        v, res = ref_unit_residue(disc, P)
        if v % 2 == 1:
            return "ramified"
        return "split" if isinstance(square_classify(res), Square) else "inert"
    u = ff.one / (a * a) + ff.one
    if u.is_zero():
        return "split"
    ur, _ = as_local_reduce(u, P)
    v = valuation(ur, P)
    if isinstance(v, int) and v < 0:
        return "ramified"
    if ur.is_zero():
        return "split"
    return "inert" if trace_to_prime(residue_field(P).reduce(ur)).value else "split"


def ref_signature(ext, P):
    form, a = ext.form, ext.form.a
    v, res = ref_unit_residue(a, P)
    if isinstance(form, Pure):
        return FULL if v % 3 else ref_sig_unramified(decompose_pure(res))
    if isinstance(form, DepressedTrace):
        if v < 0:
            return FULL if v % 3 else ref_sig_unramified(decompose_pure(res))
        d = decompose_depressed(res if v == 0 else res.field.zero)
        if not isinstance(d, LinTimesSquare):
            return ref_sig_unramified(d)
        return {"split": ((1, 1), (1, 1), (1, 1)), "inert": ((1, 1), (1, 2)),
                "ramified": PARTIAL}[ref_resolvent(a, P)]
    if v < 0:
        if v % 3:
            return FULL
        astar, v, _ = char3_local_form(a, P)
        if v < 0:
            return FULL
        v, res = ref_unit_residue(astar, P)
    if v == 0:
        return ref_sig_unramified(decompose_char3(res))
    if v % 2:
        return PARTIAL
    return ((1, 1), (1, 1), (1, 1)) if isinstance(square_classify(-res), Square) else ((1, 1), (1, 2))


def ref_report(ext):
    form, a, ff = ext.form, ext.form.a, ext.ff
    fully, partial = [], []
    if isinstance(form, Pure):
        fully = [(P, 2) for P, v in divisor_of(a) if v % 3]
    elif isinstance(form, DepressedTrace):
        fully = [(P, 2) for P, v in divisor_of(a) if v < 0 and v % 3]
        if ff.field.p != 2:
            two = ff.from_int(2)
            for shifted in (a - two, a + two):
                partial += [(P, 1) for P, v in divisor_of(shifted) if v > 0 and v % 2]
        else:
            u = ff.one / (a * a) + ff.one
            for P, v in divisor_of(a):
                if v > 0:
                    m = valuation(as_local_reduce(u, P)[0], P)
                    if isinstance(m, int) and m < 0:
                        partial.append((P, -m + 1))
    else:
        for P, v in divisor_of(a):
            if v > 0:
                if v % 2:
                    partial.append((P, 1))
                continue
            if v % 3:
                fully.append((P, -v + 2))
                continue
            _, vstar, _ = char3_local_form(a, P)
            if vstar < 0:
                fully.append((P, -vstar + 2))
            elif vstar > 0 and vstar % 2:
                partial.append((P, 1))
    return (sorted(fully, key=lambda t: t[0].sort_key()),
            sorted(partial, key=lambda t: t[0].sort_key()))


# ---------------------------------------------------------------------------
# seeded parameters
# ---------------------------------------------------------------------------

def rand_poly(rng, F, deg, monic=False):
    cs = [F.from_value(rng.randrange(F.order)) for _ in range(deg)]
    top = F.one if monic else F.from_value(rng.randrange(1, F.order))
    return Poly(F, cs + [top])


def built_param(rng, K, shift):
    """shift + c * prod(pi_i^k_i) / D over two random places of degree <= 2,
    D a product of such carriers with deg D - deg of the product in -2..3:
    the residue is shift at those places, with zeros of a - shift of every
    order 1..4, at infinity too, and every zero and pole of a - shift has
    degree <= 2."""
    F = K.field
    finite = places_up_to(K, 2)[1:]
    N = Poly.const(F, F.from_value(rng.randrange(1, F.order)))
    for P in rng.sample(finite, 2):
        N = N * P.pi ** rng.randint(1, 4)
    D, target = Poly.one(F), max(0, N.degree + rng.randint(-2, 3))
    while D.degree < target:
        D = D * rng.choice([P.pi for P in finite if P.degree <= target - D.degree])
    return K.from_int(shift) + RatFunc(K, N, D)


def params(K, family, count, seed):
    rng = random.Random(seed)
    p = K.field.p
    out = []
    while len(out) < count:
        kind = rng.randrange(3)
        if kind == 0:  # random height-3 fraction
            a = RatFunc(K, rand_poly(rng, K.field, rng.randint(1, 4)),
                        rand_poly(rng, K.field, rng.randint(0, 3), monic=True))
        elif family == "trace" and p != 2:  # residue +-2 at chosen places
            a = built_param(rng, K, rng.choice((2, -2)))
        else:  # zeros and poles of chosen orders, even ones included
            a = built_param(rng, K, 0)
            if kind == 2:
                a = 1 / a
        if a.is_constant():
            continue
        if family == "trace" and p != 2 and ((a - 2).is_zero() or (a + 2).is_zero()):
            continue
        out.append(a)
    return out


CASES = [(3, 1, "char3"), (3, 2, "char3"),
         (2, 2, "pure"), (2, 2, "trace"), (2, 3, "pure"), (2, 3, "trace"),
         (5, 1, "pure"), (5, 1, "trace"), (7, 1, "pure"), (7, 1, "trace"),
         (13, 1, "pure"), (13, 1, "trace")]


@pytest.mark.parametrize("p,m,family", CASES, ids=lambda v: str(v))
def test_signatures_resolvent_and_report_match_the_reference(p, m, family):
    K = func_field(field_make(p, m))
    form = {"pure": Pure, "trace": DepressedTrace, "char3": Char3}[family]
    places = places_up_to(K, 2)
    residues_pm2 = 0
    for a in params(K, family, 16 if p < 13 else 10, seed=1000 * p + m):
        ext = Extension(form(a))
        for P in places:
            assert signature(ext, P).pairs == ref_signature(ext, P), (a, P)
            if family == "trace":
                assert resolvent_place_behavior(a, P).value == ref_resolvent(a, P), (a, P)
                v, r = unit_residue(a, P)
                residues_pm2 += p != 2 and v == 0 and r * r == 4
        rep = ramification_report(ext)
        assert (list(rep.fully_ramified), list(rep.partially_ramified)) == ref_report(ext), a
    if family == "trace" and p != 2:
        assert residues_pm2 > 0  # the resolvent shift was exercised


def test_report_keeps_a_partial_place_at_infinity():
    # a - 2 = 1/x^3 has a zero of order 3 at infinity and a + 2 = 4 + 1/x^3 none
    K5 = func_field(field_make(5))
    a = K5.from_int(2) + 1 / K5.x ** 3
    rep = ramification_report(Extension(DepressedTrace(a)))
    assert (Place.infinity(K5), 1) in rep.partially_ramified
    assert resolvent_place_behavior(a, Place.infinity(K5)).value == "ramified"


def test_even_order_zero_in_char_2_reduces_the_resolvent():
    # a = x^2 (x + 1): at x the resolvent parameter 1 + 1/a has a pole of
    # order 2, which as_local_reduce must strip before reading it
    K4 = func_field(field_make(2, 2))
    x = K4.x
    ext = Extension(DepressedTrace(x * x * (x + 1)))
    for P in places_up_to(K4, 2):
        assert signature(ext, P).pairs == ref_signature(ext, P)
    assert (list(ramification_report(ext).fully_ramified),
            list(ramification_report(ext).partially_ramified)) == ref_report(ext)


def test_char2_simple_zero_needs_no_residue_field():
    # 1 + 1/a has a pole of odd order 1 at a simple zero of a, so nothing is
    # stripped: a degree-7 zero over GF(8) (residue field 2^21, above the
    # table limit) is classified, with d = 1 + 1
    F = field_make(2, 3)
    K = func_field(F)
    f = next(g for g in monic_polys(F, 7) if is_irreducible(g))
    rep = ramification_report(Extension(DepressedTrace(K.from_poly(f) / K.x ** 8)))
    assert (Place(K, f), 2) in rep.partially_ramified
    assert rep.different_degree == 18


def test_unit_residue_of_matches_the_reference():
    K7 = func_field(field_make(7))
    rng = random.Random(77)
    for _ in range(20):
        a = RatFunc(K7, rand_poly(rng, K7.field, 4), rand_poly(rng, K7.field, 3, monic=True))
        for P in places_up_to(K7, 2):
            assert unit_residue_of(a.num, a.den, P) == ref_unit_residue(a, P)


# ---------------------------------------------------------------------------
# factor_fq draws and the kernel's integer constants
# ---------------------------------------------------------------------------

def eager_factor_fq(f):
    rng = random.Random(FACTOR_SEED)
    out = []
    for g, mult in _squarefree_decomposition(f.monic()):
        for gd, d in _distinct_degree(g):
            out += [(irr, mult) for irr in _equal_degree_split(gd, d, rng)]
    return sorted(out, key=lambda t: t[0].counter_key())


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)], ids=str)
def test_factor_fq_draws_as_with_an_eager_generator(p, m):
    F = field_make(p, m)
    rng = random.Random(31 * p + m)
    for _ in range(30):
        f = Poly.one(F)
        for _ in range(rng.randint(1, 4)):  # products with repeated degrees
            f = f * rand_poly(rng, F, rng.randint(1, 3)) ** rng.randint(1, 2)
        assert factor_fq(f)[1] == eager_factor_fq(f)


def test_kernel_of_int_keeps_at_most_p_constants():
    K5 = func_field(field_make(5))
    kern = _kernel(K5)
    for n in range(-40, 40):
        assert kern.of_int(n) == K5.from_int(n)
    assert kern.of_int(27) is kern.of_int(2)
    assert len(kern.ints) <= 5
