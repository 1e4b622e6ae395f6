"""One place enumerator: ``iter_places`` carries the roots its walk found.

``iter_places`` reads each degree d >= 2 with q^d <= PLACE_SCAN_LIMIT off
one Frobenius walk of GF(q^d) (``places._orbit_places``), and each place it
yields there carries its carrier's least root; ``places_up_to`` is that
iterator run to the end.  A place built on its own carries no root, and
``residue_field`` factors its carrier.  Checked here against code that
shares none of the walk:

* the places equal a test-local scan of ``ffield._irreducibles``, one
  irreducibility test per candidate, below the bound and above it;
* every root a place carries is ``poly_roots`` of the lifted carrier, its
  least root;
* lone places from ``Place.finite`` and ``group_places`` get that same root
  with no walk, on both sides of the bound, and the same residue data as
  the equal place that carries a root, in either order;
* a lone place on a reducible carrier is refused before it is factored;
* ``isom`` and ``has_rational_root`` over GF(101)(x), decided at a place of
  degree 1, start no walk.
"""
import itertools

import pytest

from cubicext import places
from cubicext.canon import DepressedTrace, Isomorphic, NotIsomorphic, has_rational_root, isom
from cubicext.errors import DomainMismatch
from cubicext.ffield import _irreducibles, _kernel, field_make
from cubicext.places import (PLACE_SCAN_LIMIT, Place, group_places, iter_places, places_up_to,
                             residue_field)
from cubicext.polyring import Poly, embedding, func_field, poly_roots

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
                9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4)}
# test_orbit_places.py's cases
CASES = [(q, 2) for q in PRIME_POWERS] + [(q, 3) for q in PRIME_POWERS if q <= 7]


def ff_of(p, m=1):
    return func_field(field_make(p, m))


def scan(ff, d):
    """The places of degree d, one irreducibility test per candidate."""
    F = ff.field
    for f in _irreducibles(_kernel(F), d):
        yield Place(ff, Poly(F, [F.from_value(v) for v in f]))


def least_root(P):
    k = field_make(P.ff.field.p, P.ff.field.m * P.degree)
    emb = embedding(P.ff.field, k)
    return poly_roots(Poly(k, [emb(c) for c in P.pi.coeffs]))[0]


@pytest.fixture
def walks(monkeypatch):
    """The (base, d) of every _orbit_places call."""
    calls = []
    walk = places._orbit_places

    def counted(base, d):
        calls.append((base, d))
        return walk(base, d)
    monkeypatch.setattr(places, "_orbit_places", counted)
    return calls


# ---------------------------------------------------------------------------
# the enumerator against an independent scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,d", CASES)
def test_the_enumerator_equals_the_irreducibles_scan(q, d):
    ff = ff_of(*PRIME_POWERS[q])
    oracle = [Place.infinity(ff)] + [P for e in range(1, d + 1) for P in scan(ff, e)]
    lazy = list(iter_places(ff, d))
    assert lazy == oracle
    assert [P.sort_key() for P in lazy] == [P.sort_key() for P in oracle]
    assert places_up_to(ff, d) == tuple(oracle)


@pytest.mark.parametrize("p,d", [(257, 2), (2, 17)])
def test_the_first_places_above_the_bound_equal_the_scan(p, d):
    ff = ff_of(p)
    assert p ** d > PLACE_SCAN_LIMIT >= p ** (d - 1)
    above = itertools.islice(itertools.dropwhile(lambda P: P.degree < d, iter_places(ff, d)), 50)
    got = list(above)
    assert got == list(itertools.islice(scan(ff, d), 50))
    assert all(P._root is None for P in got)


# ---------------------------------------------------------------------------
# the roots the walk hands out
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,d", CASES)
def test_every_carried_root_is_the_least_root_of_the_lifted_carrier(q, d):
    ff = ff_of(*PRIME_POWERS[q])
    carried = [P for P in places_up_to(ff, d) if P.degree >= 2]
    assert carried and all(P._root is not None for P in carried)
    for P in carried:
        assert P._root == least_root(P).value, P


def test_the_root_is_invisible_to_eq_hash_and_repr():
    ff = ff_of(3)
    P = next(P for P in iter_places(ff, 2) if P.degree == 2)
    lone = Place.finite(P.pi)
    assert P._root is not None and lone._root is None
    assert P == lone and hash(P) == hash(lone) and repr(P) == repr(lone)


# ---------------------------------------------------------------------------
# lone places: the same root, and no walk
# ---------------------------------------------------------------------------

# (p, m, d, n): the n-th monic irreducible of degree d over GF(p^m)
LONE = [(2, 8, 2, 5), (13, 1, 4, 7), (3, 2, 3, 3), (2, 1, 4, 1),
        (257, 1, 2, 3), (41, 1, 3, 2), (17, 1, 4, 1), (2, 9, 2, 4)]


def lone_carriers(p, m, d, n):
    """The n-th and (n+1)-th monic irreducibles of degree d, as Polys."""
    F = field_make(p, m)
    fs = itertools.islice(_irreducibles(_kernel(F), d), n, n + 2)
    return [Poly(F, [F.from_value(v) for v in f]) for f in fs]


def test_the_lone_places_cover_both_sides_and_degrees():
    sides = {(d, (p ** m) ** d > PLACE_SCAN_LIMIT) for p, m, d, _ in LONE}
    assert sides == {(d, above) for d in (2, 3, 4) for above in (False, True)}


@pytest.mark.parametrize("p,m,d,n", LONE)
def test_a_lone_place_gets_the_least_root_and_walks_nothing(p, m, d, n, walks):
    pi, rho = lone_carriers(p, m, d, n)
    residue_field.cache_clear()
    mine = [Place.finite(pi)] + group_places(func_field(pi.dom), pi * rho)
    assert [P.pi for P in mine] == [pi, pi, rho]
    for P in mine:
        assert P._root is None
        assert residue_field(P).root == least_root(P), P
    assert walks == []


@pytest.mark.parametrize("q,d", [(4, 2), (2, 4), (3, 3), (9, 2)])
@pytest.mark.parametrize("carried_first", [True, False])
def test_a_carried_and_a_lone_place_get_the_same_residue_data(q, d, carried_first):
    ff = ff_of(*PRIME_POWERS[q])
    probe = ff.x ** (d + 2) + ff.x + 1
    for P in [P for P in places_up_to(ff, d) if P.degree == d]:
        lone = Place.finite(P.pi)
        residue_field.cache_clear()
        first, second = (P, lone) if carried_first else (lone, P)
        a = residue_field(first)
        residue_field.cache_clear()
        b = residue_field(second)
        assert (a.field, a.embed, a.root) == (b.field, b.embed, b.root), P
        assert a.reduce(probe) == b.reduce(probe)


# reducible carriers of degree 2 to 4 on both sides of the bound: each has a
# root in GF(q^d), so only the irreducibility test refuses it
REDUCIBLE = [((7, 1), [6, 0, 1]), ((2, 2), [0, 0, 1]), ((5, 1), [4, 0, 0, 1]),
             ((3, 1), [1, 0, 2, 0, 1]), ((257, 1), [256, 0, 1]), ((41, 1), [40, 0, 0, 1]),
             ((17, 1), [1, 0, 2, 0, 1])]


@pytest.mark.parametrize("pm,ints", REDUCIBLE, ids=[f"GF({p}^{m})-{c}" for (p, m), c in REDUCIBLE])
def test_a_lone_reducible_carrier_is_refused_before_factoring(pm, ints, monkeypatch, walks):
    F = field_make(*pm)
    pi = Poly.of_ints(F, ints)
    factored = []
    monkeypatch.setattr(places, "poly_roots", lambda f: factored.append(f) or poly_roots(f))
    residue_field.cache_clear()
    with pytest.raises(DomainMismatch):
        residue_field(Place(func_field(F), pi))
    assert factored == [] and walks == []


# ---------------------------------------------------------------------------
# questions a degree-1 place decides start no walk
# ---------------------------------------------------------------------------

def test_root_questions_decided_at_degree_one_walk_nothing(walks):
    ff = ff_of(101)
    x = ff.x
    residue_field.cache_clear()
    assert has_rational_root(DepressedTrace(x ** 3 - 3 * x)) == x
    assert has_rational_root(DepressedTrace(x ** 3 + x)) is None
    assert walks == []


def test_isom_decided_at_degree_one_walks_nothing(walks):
    ff = ff_of(101)
    x = ff.x
    a, b = DepressedTrace(x ** 3 + x), DepressedTrace(x ** 3 + x + 1)
    residue_field.cache_clear()
    assert isinstance(isom(a, a), Isomorphic)
    apart = isom(a, b)
    assert isinstance(apart, NotIsomorphic) and apart.witness.degree == 1
    assert walks == []
