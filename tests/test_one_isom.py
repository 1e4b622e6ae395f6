"""One isomorphism decision in canon: require_irreducible is the one gate,
isom_depressed and isom_char3 refuse reducible input, over GF(q) every
irreducible pair is isomorphic with a checked witness, and canon.isom makes
the decision the CLI used to make itself (its dispatch is copied below as
the oracle)."""
import itertools
import random

import pytest

from cubicext import canon
from cubicext.canon import (Char3, Cubic, DepressedTrace, InseparablePure, Isomorphic,
                            NotIsomorphic, Pure, Reducible, _char3_witness_ok,
                            _depressed_witness_ok, isom_char3, isom_depressed, isom_pure,
                            reduce_cubic)
from cubicext.errors import DomainMismatch, ReducibleInput, WrongCharacteristic
from cubicext.ffield import field_make
from cubicext.polyring import Poly, func_field

F3, F7 = field_make(3), field_make(7)


# ---------------------------------------------------------------------------
# the library refuses reducible input
# ---------------------------------------------------------------------------

def test_isom_depressed_refuses_a_cubic_with_a_simple_root():
    assert F7.from_int(4) ** 3 - 3 * F7.from_int(4) == F7.from_int(3)
    for pair in ((F7.from_int(1), F7.from_int(3)), (F7.from_int(3), F7.from_int(1))):
        with pytest.raises(ReducibleInput):
            isom_depressed(*pair)


def test_isom_char3_refuses_a_cubic_with_a_root():
    one = F3.one
    assert one ** 3 + one * one + one * one == 0  # X^3 + X + 1 at X = 1
    with pytest.raises(ReducibleInput):
        isom_char3(one, one)


def test_isom_depressed_refuses_a_root_over_the_function_field():
    K5 = func_field(field_make(5))
    x = K5.x
    y = x + 1 / x
    assert y ** 3 - 3 * y == x ** 3 + 1 / x ** 3
    with pytest.raises(ReducibleInput):
        isom_depressed(x ** 3 + 1 / x ** 3, x)


# ---------------------------------------------------------------------------
# over GF(q) every irreducible pair is isomorphic
# ---------------------------------------------------------------------------

def _irreducible_shapes(F):
    families = (Char3,) if F.p == 3 else (Pure, DepressedTrace)
    return [fam(a) for fam in families for a in F.elements()
            if all(fam(a).cubic()(y) for y in F.elements())]


def _witness_checks_out(s1, s2, witness):
    if type(s1) is type(s2):
        if isinstance(s1, Pure):
            return witness is None
        ok = _depressed_witness_ok if isinstance(s1, DepressedTrace) else _char3_witness_ok
        return ok(s1.a, s2.a, *witness)
    pure, trace = (s1, s2) if isinstance(s1, Pure) else (s2, s1)
    c = witness
    return c * c + trace.a * c + 1 == 0 and isom_pure(pure.a, c)


@pytest.mark.parametrize("p,m", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1)], ids=str)
def test_every_irreducible_pair_over_gf_q_is_isomorphic(p, m, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a place scan over GF(q)")

    monkeypatch.setattr(canon, "_separate_by_signature", unreachable)
    shapes = _irreducible_shapes(field_make(p, m))
    assert shapes
    mixed = 0
    for s1, s2 in itertools.product(shapes, repeat=2):  # both argument orders
        res = canon.isom(s1, s2)
        assert isinstance(res, Isomorphic), (s1, s2)
        assert _witness_checks_out(s1, s2, res.witness), (s1, s2, res)
        mixed += type(s1) is not type(s2)
    # irreducible pure shapes exist exactly when 3 divides q - 1
    assert (mixed > 0) == ((p ** m - 1) % 3 == 0 and p != 3)


# ---------------------------------------------------------------------------
# canon.isom against the CLI's former dispatch
# ---------------------------------------------------------------------------

def oracle_isom(s1, s2, search_bound):
    """The isom subcommand's decision as the CLI made it before canon.isom."""
    for s in (s1, s2):
        if isinstance(s, InseparablePure):
            raise WrongCharacteristic("inseparable cubics are outside the comparison")
        if isinstance(s, Reducible) or canon.has_rational_root(s) is not None:
            raise ReducibleInput("the cubic has a root in the base field")
    if isinstance(s1, Pure) and isinstance(s2, Pure):
        ok = canon.isom_pure(s1.a, s2.a)
        return canon.Isomorphic(None) if ok else canon.NotIsomorphic(None)
    if isinstance(s1, DepressedTrace) and isinstance(s2, DepressedTrace):
        return canon.isom_depressed(s1.a, s2.a, search_bound=search_bound)
    if isinstance(s1, Char3) and isinstance(s2, Char3):
        return canon.isom_char3(s1.a, s2.a, search_bound=search_bound)
    pure, other = (s1, s2) if isinstance(s1, Pure) else (s2, s1)
    assert isinstance(other, DepressedTrace)
    c = canon.purely_cubic_root(other.a)
    if c is None:
        return canon.NotIsomorphic(None)
    ok = canon.isom_pure(pure.a, c)
    return canon.Isomorphic(c) if ok else canon.NotIsomorphic(None)


def _outcome(decide, s1, s2):
    try:
        return decide(s1, s2, 2)
    except (ReducibleInput, WrongCharacteristic) as err:
        return type(err)


def _shape_pool(K, rng):
    """Shapes of every family over K, reducible and inseparable ones and
    isomorphic partners (a pure shape with its trace form, a char-3 twist)
    among them."""
    F = K.field
    elems = list(F.elements())

    def small():
        num = Poly(F, [rng.choice(elems) for _ in range(rng.randrange(3))] + [rng.choice(elems[1:])])
        den = Poly(F, [rng.choice(elems) for _ in range(rng.randrange(2))] + [F.one])
        return K.from_poly(num) / K.from_poly(den)

    pool = []
    for _ in range(5):
        u, v = small(), small()
        r, b = small(), small()
        pool.append(reduce_cubic(Cubic(b - r, -r * b, K.zero))[0])  # (X - r)(X^2 + bX)
        if F.p == 3:
            twist = (u * u + v ** 3 + u * v) ** 2 / u ** 3
            pool += [Char3(u), Char3(twist), Char3(K.one), InseparablePure(u)]
        else:
            pool += [Pure(u), DepressedTrace(u + 1 / u), Pure(u * v ** 3), DepressedTrace(u),
                     DepressedTrace(v ** 3 - 3 * v)]
    return pool


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (2, 2), (3, 1)], ids=str)
def test_isom_matches_the_former_cli_dispatch(p, m):
    K = func_field(field_make(p, m))
    rng = random.Random(1700 + 10 * p + m)
    pool = _shape_pool(K, rng)
    pairs = list(zip(pool, pool[1:])) + [tuple(rng.sample(pool, 2)) for _ in range(20)]
    seen = set()
    for s1, s2 in pairs:
        got = _outcome(canon.isom, s1, s2)
        assert got == _outcome(oracle_isom, s1, s2), (s1, s2)
        seen.add(got if isinstance(got, type) else type(got))
    assert {ReducibleInput, Isomorphic, NotIsomorphic} <= seen


def test_refusals_keep_the_argument_order():
    K3 = func_field(F3)
    x = K3.x
    reducible, inseparable = reduce_cubic(Cubic(K3.zero, x, K3.zero))[0], InseparablePure(x)
    assert isinstance(reducible, Reducible)
    with pytest.raises(ReducibleInput):
        canon.isom(reducible, inseparable)
    with pytest.raises(WrongCharacteristic):
        canon.isom(inseparable, reducible)


def test_families_of_different_characteristics_are_not_compared():
    # a char-3 shape built by hand over GF(7): irreducible, so it passes the gate
    char3, trace = Char3(F7.one), DepressedTrace(F7.one)
    for pair in ((char3, trace), (trace, char3)):
        with pytest.raises(DomainMismatch):
            canon.isom(*pair)
