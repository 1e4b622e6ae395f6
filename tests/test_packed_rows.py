"""The packed evaluation table of a place of degree >= 2.

At a place of degree >= 2 whose residue field has at most 2^8 elements,
``ResidueData._eval`` sums one packed row entry per coefficient and unpacks
the sum to a counter value; every other place keeps the Horner pass.  Both
are checked against the single Horner pass in the residue field on the
coefficients' images that the table replaced, copied below, at every place
of degree 2 and 3 over GF(2) ... GF(16) and at some places of degree 2 over
GF(1021), with lengths 0-40 asked in random order so that the rows grow
between calls.  The width bound len(rows) * p < 2^W is asserted when the
rows grow; with a small W it fires exactly past the bound, and every length
below it still evaluates correctly.
"""
import itertools
import random

import pytest

from cubicext import places
from cubicext.ffield import _horner, _kernel, field_make
from cubicext.places import ResidueData, iter_places, residue_field
from cubicext.polyring import func_field

MAX_LEN = 40


def oracle_eval(rd, f):
    """ResidueData._eval before the table: one Horner pass in the residue
    field on the coefficients' images under the embedding."""
    return _horner(_kernel(rd.field), [rd.embed.value_image(c) for c in f], rd.root.value)


def fresh(P):
    """A ResidueData of P with no rows yet, kept out of residue_field's cache."""
    rd = residue_field(P)
    return ResidueData(P, rd.field, rd.embed, rd.root)


def places_of_degree(F, d, limit=None):
    ff = func_field(F)
    found = (P for P in iter_places(ff, d) if not P.is_infinite and P.degree == d)
    return list(itertools.islice(found, limit))


def check_lengths(rng, F, P, lengths):
    rd = fresh(P)
    tabled = rd.field.order <= places._ROW_MAX_ORDER
    assert rd._rows == ([] if tabled else None)
    for n in lengths:
        f = [rng.randrange(F.order) for _ in range(n)]
        if n and rng.random() < 0.3:
            f[-1] = F.order - 1  # the largest coefficient value at the top
        assert rd._eval(f) == oracle_eval(rd, f), (P, f)
        if tabled:
            assert len(rd._rows) == max(lengths[:lengths.index(n) + 1])
    assert rd._rows is None or all(len(row) == F.order for row in rd._rows)


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4)]


@pytest.mark.parametrize("pm", FIELDS, ids=[f"GF({p}^{m})" for p, m in FIELDS])
@pytest.mark.parametrize("d", [2, 3])
def test_every_place_matches_the_horner_pass(pm, d):
    F = field_make(*pm)
    rng = random.Random(2300 + 10 * F.order + d)
    for P in places_of_degree(F, d):
        lengths = list(range(MAX_LEN + 1))
        rng.shuffle(lengths)
        check_lengths(rng, F, P, lengths)


def test_degree_two_places_over_gf1021():
    F = field_make(1021)
    rng = random.Random(2301)
    for P in places_of_degree(F, 2, limit=3):
        lengths = list(range(MAX_LEN + 1))
        rng.shuffle(lengths)
        check_lengths(rng, F, P, lengths[:12])


@pytest.mark.parametrize("pm,d,tabled", [((2, 16), 1, False), ((2, 1), 8, True),
                                         ((2, 4), 2, True), ((17, 1), 2, False),
                                         ((3, 1), 5, True), ((3, 1), 6, False)])
def test_rows_only_for_small_residue_fields_of_degree_two_or_more(pm, d, tabled):
    F = field_make(*pm)
    P = places_of_degree(F, d, limit=1)[0]
    rd = fresh(P)
    f = [c % F.order for c in (1, 2, 3, F.order - 1)]
    assert (rd._rows is not None) == tabled
    assert rd._eval(f) == oracle_eval(rd, f)


@pytest.mark.parametrize("pm,W", [((2, 1), 4), ((3, 1), 4), ((2, 2), 5), ((5, 1), 6)])
def test_width_bound_holds_and_is_asserted(monkeypatch, pm, W):
    """With W bits a length n evaluates while n * p < 2^W, even with every
    coefficient at its largest value; the next length trips the assertion."""
    monkeypatch.setattr(places, "_ROW_BITS", W)
    F = field_make(*pm)
    P = places_of_degree(F, 2, limit=1)[0]
    rd = fresh(P)
    top = ((1 << W) - 1) // F.p  # the largest n with n * p < 2^W
    rng = random.Random(2302 + F.order)
    for n in range(top + 1):
        for f in ([F.order - 1] * n, [rng.randrange(F.order) for _ in range(n)]):
            assert rd._eval(f) == oracle_eval(rd, f), (n, f)
    with pytest.raises(AssertionError, match="carry"):
        rd._eval([F.order - 1] * (top + 1))

