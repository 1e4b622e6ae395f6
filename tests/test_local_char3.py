"""The characteristic-3 surgery read at the place, on units mod pi^N.

``arith._char3_surgery`` answers what ``char3_local_form`` followed by
``places._unit_residue_value`` answers, without the global parameter: v* when
it is <= 0, v*'s parity when it is > 0, and the residue of a* pi^(-v*) (its
square class when v* > 0).  The oracle is that earlier pair, copied below,
on seeded char-3 parameters with several poles of order 3-12 at places of
degree 1 and 2 and at infinity, over GF(3), GF(9) and GF(27).  Every case of
the precision argument is reached: v* < 0 after one step, a step that
continues, v* = 0, and v* > 0 with k odd and with k even.  The inputs whose
global surgery tripled the parameter's height now answer in milliseconds.
"""
import ast
import functools
import pathlib
import random
import time

import pytest

from cubicext import arith
from cubicext.arith import (SIG_FULLY_RAMIFIED, SIG_MIXED, SIG_PARTIAL, SIG_SPLIT, _UNRAMIFIED,
                            Extension, _char3_surgery, genus, ramification_report, signature)
from cubicext.canon import Char3
from cubicext.errors import ReducibleInput, SizeExceeded
from cubicext.ffcubic import _bin_char3
from cubicext.ffield import cube_classify, field_make
from cubicext.places import (Place, _unit_residue_value, divisor_of, places_up_to, residue_field,
                             uniformizer, unit_residue)
from cubicext.polyring import Poly, func_field

# ---------------------------------------------------------------------------
# oracle: the earlier global surgery, copied, and what the signature read off it
# ---------------------------------------------------------------------------


def oracle_local_form(a, P):
    ff = a.ff
    pi = uniformizer(P)
    steps = []
    while True:
        v, res = unit_residue(a, P)
        if v >= 0 or v % 3 != 0:
            break
        rd = residue_field(P)
        k = (-v) // 3
        w1 = cube_classify(-(res * res)).roots[0]
        w2 = ff.from_poly(rd.lift(w1)) * pi ** (-2 * k)
        n = a * a + w2 ** 3 + a * w2
        if n.is_zero():
            raise ReducibleInput("the characteristic-3 cubic has a root in the base field")
        a = n * n / a ** 3
        steps.append(w2)
    return a, v, tuple(steps)


@functools.lru_cache(maxsize=None)
def oracle(a, P):
    """(v*, residue field, residue value of a* pi^(-v*), number of steps)."""
    astar, vstar, steps = oracle_local_form(a, P)
    _, k, r = _unit_residue_value(astar.num, astar.den, P)
    return vstar, k, r, len(steps)


def oracle_signature(a, P):
    v, k, r = _unit_residue_value(a.num, a.den, P)
    if v < 0 and v % 3 == 0:
        v, k, r, _ = oracle(a, P)
    if v < 0:
        return SIG_FULLY_RAMIFIED
    if v == 0:
        return _UNRAMIFIED[_bin_char3(k, r)]
    if v % 2:
        return SIG_PARTIAL
    return SIG_SPLIT if k._pow(k._neg(r), (k.order - 1) // 2) == 1 else SIG_MIXED


def oracle_report(a):
    """(fully, partially) ramified [(place, d)], in place order."""
    fully, partial = [], []
    for P, v in divisor_of(a):
        if v < 0 and v % 3 == 0:
            v = oracle(a, P)[0]
        if v < 0:
            fully.append((P, -v + 2))
        elif v % 2:
            partial.append((P, 1))
    return tuple(fully), tuple(partial)


# ---------------------------------------------------------------------------
# the deck
# ---------------------------------------------------------------------------

def _random_poly(F, rng, degree, monic=False):
    top = F.one if monic else F.from_value(rng.randrange(1, F.order))
    return Poly(F, [F.from_value(rng.randrange(F.order)) for _ in range(degree)] + [top])


def _places(ff):
    return ([P for P in places_up_to(ff, 2) if P.pi is not None and P.degree == d]
            for d in (1, 2))


def _lone_poles(seed, count):
    """Over GF(3) (two in three) and GF(9): one pole of order 6, 9 or 12 at infinity or at a
    place of degree 1 or 2, a numerator of lower degree (any degree at
    infinity); cheap for the oracle, so there are enough to reach the rare
    outcomes."""
    rng, out = random.Random(seed), []
    for i in range(count):
        F = field_make(3, 1 + (i % 3 == 2))
        ff = func_field(F)
        e, where = rng.choice((6, 6, 9, 12)), rng.choice((None, 0, 1))
        if where is None:
            a, P = ff.from_poly(_random_poly(F, rng, e)), Place.infinity(ff)
        else:
            P = rng.choice(list(_places(ff))[where])
            num = _random_poly(F, rng, rng.randrange(e * P.degree))
            a = ff.rat(num, P.pi ** e)
        out.append((a, [P]))
    return out


def _several_poles(seed, count):
    """Over GF(3), GF(9) and GF(27): two or three poles of order 3-12 (most
    divisible by 3; at most 9 over GF(9) and 6 over GF(27), where the global
    oracle grows costly) among infinity and places of degree 1 and 2."""
    rng, out = random.Random(seed), []
    for i in range(count):
        F = field_make(3, 1 + i % 3)
        ff = func_field(F)
        ones, twos = _places(ff)
        poles = rng.sample(ones, rng.randint(1, 2)) + rng.sample(twos, 1)
        orders = {3: (3, 6, 9, 12, 4, 5), 9: (3, 6, 9, 4), 27: (3, 6, 4)}[F.order]
        den = Poly.one(F)
        for P in poles:
            den = den * P.pi ** rng.choice(orders)
        gap = rng.choice((3, 6, 1) if F.order < 27 else (3, 1))
        a = ff.rat(_random_poly(F, rng, den.degree + gap), den)
        out.append((a, poles + [Place.infinity(ff)]))
    return out


# lone poles with the rarer outcomes, found by a seeded search like
# _lone_poles': (m, num, carrier or None for infinity, e) over GF(3^m), with
# a = num / carrier^e (num of degree e at infinity); v* = 0 after one step and
# after two, v* > 0 of either parity after one step and after two
RARE = ((1, (0, 1, 2), (1, 1), 6), (1, (0, 0, 0, 2, 0, 2), (0, 1), 9),
        (1, (0, 1, 1, 2, 2), (2, 2, 1), 6), (1, (0, 1, 0, 0, 2, 0, 2), None, 6),
        (1, (2, 2, 1, 1, 1, 1, 1, 1, 2, 1, 0, 0, 1), None, 12),
        (2, (3, 4, 1, 0, 2, 0, 1), None, 6), (1, (0, 2, 2, 1, 2, 2), (1, 1), 9),
        (1, (1, 0, 0, 2), (2, 2, 1), 9), (2, (8, 3, 4, 3, 6, 0, 5, 5, 4), (6, 1), 9),
        (1, (0, 1, 2, 1, 1), (2, 1), 6), (2, (5, 0, 1, 2, 6), (7, 1), 6),
        (1, (1, 0, 0, 1, 1, 0, 0, 2, 2, 2, 0, 0, 1), None, 12),
        (2, (0, 0, 8, 4, 2, 0, 1), None, 6))


def _poly_of(F, values):
    return Poly(F, [F.from_value(v) for v in values])


def _rare():
    out = []
    for m, num, carrier, e in RARE:
        F = field_make(3, m)
        ff = func_field(F)
        if carrier is None:
            out.append((ff.from_poly(_poly_of(F, num)), [Place.infinity(ff)]))
        else:
            pi = _poly_of(F, carrier)
            out.append((ff.rat(_poly_of(F, num), pi ** e), [Place.finite(pi)]))
    return out


LONE, SEVERAL = _lone_poles(38, 150) + _rare(), _several_poles(38, 30)
DECK = LONE + SEVERAL


def _surgery_cases():
    for a, poles in DECK:
        for P in poles:
            v, _, _ = _unit_residue_value(a.num, a.den, P)
            if v < 0 and v % 3 == 0:
                yield a, P, v


CASES = list(_surgery_cases())


def test_the_surgery_at_the_place_answers_as_the_global_one():
    reached = set()
    for a, P, v in CASES:
        vstar, k, r, steps = oracle(a, P)
        got_v, got_r = _char3_surgery(a, P, v)
        if vstar < 0:
            assert got_v == vstar, (a, P)
        elif vstar == 0:
            assert (got_v, got_r) == (0, r), (a, P)
        else:
            euler = (k.order - 1) // 2
            assert got_v > 0 and got_v % 2 == vstar % 2, (a, P)
            assert k._pow(k._neg(got_r), euler) == k._pow(k._neg(r), euler), (a, P)
        reached.add("one step, v* < 0" if vstar < 0 and steps == 1 else None)
        reached.add("a step that continues" if steps > 1 else None)
        reached.add("v* = 0" if vstar == 0 else None)
        reached.add(f"v* > 0, k {'odd' if vstar % 2 else 'even'}" if vstar > 0 else None)
        reached.add("infinity" if P.is_infinite else f"degree {P.degree}")
    assert reached - {None} == {"one step, v* < 0", "a step that continues", "v* = 0",
                                "v* > 0, k odd", "v* > 0, k even", "infinity",
                                "degree 1", "degree 2"}


def test_signatures_at_the_poles_and_at_places_of_degree_1_are_the_oracles():
    for a, poles in DECK:
        ext = Extension(Char3(a))
        for P in set(poles) | set(places_up_to(a.ff, 1)):
            assert signature(ext, P) == oracle_signature(a, P), (a, P)


def test_genus_and_report_are_the_oracles():
    for a, _ in SEVERAL:
        ext = Extension(Char3(a))
        fully, partial = oracle_report(a)
        report = ramification_report(ext)
        assert (report.fully_ramified, report.partially_ramified) == (fully, partial), a
        deg = sum(d * P.degree for P, d in fully + partial)
        assert genus(ext) == deg // 2 - 2, a


# ---------------------------------------------------------------------------
# the inputs whose global surgery tripled the height
# ---------------------------------------------------------------------------

F9, F3 = field_make(3, 2), field_make(3, 1)
K9, K3 = func_field(F9), func_field(F3)


def _quadratic_poles(n, e):
    """(1 + x)/prod pi_i^e over the first n monic irreducible quadratics of
    GF(9)[x] in place order."""
    quads = [P.pi for P in places_up_to(K9, 2) if P.pi is not None and P.pi.degree == 2]
    den = Poly.one(F9)
    for pi in quads[:n]:
        den = den * pi ** e
    return (K9.one + K9.x) / K9.from_poly(den)


EDGES = {"1 pole of order 6": (_quadratic_poles(1, 6), 5),
         "2 poles of order 6": (_quadratic_poles(2, 6), 11),
         "3 poles of order 6": (_quadratic_poles(3, 6), 17),
         "5 poles of order 6": (_quadratic_poles(5, 6), 29),
         "4 poles of order 9": (_quadratic_poles(4, 9), 35),
         "(1+x)/x^243 over GF(3)": ((K3.one + K3.x) / K3.x ** 243, 120)}


@pytest.mark.parametrize("name", EDGES)
def test_deep_poles_answer_in_milliseconds(name):
    a, expected = EDGES[name]
    ext = Extension(Char3(a))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        g = genus(ext)
        best = min(best, time.perf_counter() - start)
    assert g == expected
    assert best < 0.05, f"{name}: {best * 1e3:.1f} ms"


def test_the_precision_bound_is_checked_before_the_work():
    # a pole of order 1026 at infinity needs N = 514 digits of x, above
    # FACTOR_DEGREE_LIMIT = 512; order 1023 needs 512
    ext = Extension(Char3(K3.one + K3.x ** 1026))
    with pytest.raises(SizeExceeded):
        signature(ext, Place.infinity(K3))
    assert arith.FACTOR_DEGREE_LIMIT == 512


def test_no_package_code_calls_the_global_surgery():
    src = pathlib.Path(arith.__file__).resolve().parent
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                assert name != "char3_local_form", path.name
