"""Places of degree d >= 2 from Frobenius orbits.

``places_up_to`` reads its places of degree d >= 2 off one walk of
GF(q^d) under v -> v^q (``places._orbit_places``), and ``residue_field``
takes a carrier's least root from the same walk while q^d is at most
PLACE_SCAN_LIMIT.  Checked here against code that shares none of it:

* the places equal the lazy counter-order scan ``iter_places``, which tests
  each candidate carrier for irreducibility;
* every root is ``poly_roots`` of the lifted carrier, its least root;
* a place built on its own by ``Place.finite`` gets the same residue data;
* the scan bound is checked before any walk starts;
* no residue field of a scanned place factors its carrier;
* a Place built on a reducible carrier gets Place.finite's DomainMismatch
  from residue_field, on both sides of the bound, and nothing is factored.
"""
import pytest

from cubicext import places
from cubicext.errors import DomainMismatch, SizeExceeded
from cubicext.ffield import field_make
from cubicext.places import (PLACE_SCAN_LIMIT, Place, iter_places, places_up_to,
                             residue_field)
from cubicext.polyring import Poly, embedding, func_field, poly_roots

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
                9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4)}
CASES = [(q, 2) for q in PRIME_POWERS] + [(q, 3) for q in PRIME_POWERS if q <= 7]


def ff_of(q):
    return func_field(field_make(*PRIME_POWERS[q]))


@pytest.mark.parametrize("q,d", CASES)
def test_places_equal_the_counter_order_scan(q, d):
    ff = ff_of(q)
    assert places_up_to(ff, d) == tuple(iter_places(ff, d))


@pytest.mark.parametrize("q,d", CASES)
def test_every_root_is_the_least_root_of_the_lifted_carrier(q, d):
    ff = ff_of(q)
    for P in places_up_to(ff, d):
        if P.degree < 2:
            continue
        rd = residue_field(P)
        k = field_make(ff.field.p, ff.field.m * P.degree)
        emb = embedding(ff.field, k)
        lifted = Poly(k, [emb(c) for c in P.pi.coeffs])
        assert rd.field is k and rd.embed is emb
        assert rd.root == poly_roots(lifted)[0], P


@pytest.mark.parametrize("q,d", [(2, 3), (4, 2), (9, 2), (5, 3)])
def test_a_place_built_on_its_own_gets_the_same_residue_data(q, d):
    ff = ff_of(q)
    scanned = [(P, residue_field(P)) for P in places_up_to(ff, d) if P.degree == d]
    residue_field.cache_clear()
    places._orbit_places.cache_clear()
    F = ff.field
    for P, rd in scanned:
        own = Place.finite(Poly(F, [F.from_value(v) for v in P.pi.vals]))
        assert own == P and hash(own) == hash(P) and own.ff is ff
        mine = residue_field(own)
        assert (mine.field, mine.embed, mine.root) == (rd.field, rd.embed, rd.root)
        probe = ff.x ** (d + 1) + ff.x + 1
        assert mine.reduce(probe) == rd.reduce(probe)


@pytest.mark.parametrize("q,d", [(2, 17), (2, 20), (16, 5), (13, 5), (251, 3)])
def test_the_scan_bound_is_checked_before_any_walk(q, d, monkeypatch):
    p, m = PRIME_POWERS.get(q, (q, 1))
    ff = func_field(field_make(p, m))
    assert q ** d > PLACE_SCAN_LIMIT

    def walk(base, e):
        raise AssertionError(f"walked GF({q}^{e})")
    monkeypatch.setattr(places, "_orbit_places", walk)
    with pytest.raises(SizeExceeded):
        places_up_to(ff, d)


def test_scanned_residue_fields_factor_no_carrier(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return poly_roots(f)
    monkeypatch.setattr(places, "poly_roots", counted)
    residue_field.cache_clear()
    for q, d in CASES:
        for P in places_up_to(ff_of(q), d):
            residue_field(P)
    assert calls == []
    # above the bound the carrier is still factored, so the count can move
    F = field_make(2)
    big = Place.finite(Poly.of_ints(F, [1, 0, 0, 1] + [0] * 13 + [1]))  # x^17 + x^3 + 1
    assert F.order ** big.degree > PLACE_SCAN_LIMIT
    assert residue_field(big).root is not None
    assert len(calls) == 1


# reducible carriers of degree 2 and 3: below the bound the walk has no such
# carrier, above it the carrier is tested before it is factored
REDUCIBLE = [((7, 1), [6, 0, 1]), ((7, 1), [1, 2, 1]), ((7, 1), [6, 0, 0, 1]), ((2, 2), [0, 0, 1]),
             ((257, 1), [256, 0, 1]), ((2, 9), [0, 1, 1]), ((41, 1), [40, 0, 0, 1]),
             ((41, 1), [1, 3, 3, 1])]


@pytest.mark.parametrize("pm,ints", REDUCIBLE, ids=[f"GF({p}^{m})-{c}" for (p, m), c in REDUCIBLE])
def test_a_reducible_carrier_has_no_residue_field(pm, ints, monkeypatch):
    F = field_make(*pm)
    pi = Poly.of_ints(F, ints)
    with pytest.raises(DomainMismatch) as refused:
        Place.finite(pi)
    factored = []
    monkeypatch.setattr(places, "poly_roots", factored.append)
    with pytest.raises(DomainMismatch) as raised:
        residue_field(Place(func_field(F), pi))
    assert str(raised.value) == str(refused.value)
    assert factored == []


def test_the_reducible_carriers_cover_both_sides_and_degrees():
    sides = {(len(c) - 1, (p ** m) ** (len(c) - 1) > PLACE_SCAN_LIMIT) for (p, m), c in REDUCIBLE}
    assert sides == {(2, False), (3, False), (2, True), (3, True)}
