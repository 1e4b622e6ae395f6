"""One GF(p)-linear inverse for the field constants and the residue lifts.

``Field._inverse_columns`` is the package's one GF(p) elimination: it gives
the inverse of a GF(p)-linear bijection on the basis.  ``_linear_inverse``
spans those columns into lookup lists for ``as_section`` and
``char3_maps``; ``ResidueData.lift`` keeps the bare columns.  At a place of
degree d >= 2, lift inverts f -> f(root) on the polynomials of degree < d,
written as counter values sum c_i q^i, once per place, and reads each
lift's coefficients off the base-q digits of the inverse's value.  Checked
here:

* (a) lift equals the earlier lift, copied below with its own copy of the
  earlier solve_modp, on seeded residues at places of degree 1-5 over
  GF(2), GF(3), GF(4), GF(5), GF(9) and GF(13), on both sides of
  _ROW_MAX_ORDER, and at x^17 + x^3 + 1 over GF(2), above PLACE_SCAN_LIMIT;
* (b) the lift has degree < d and reduces back to the residue;
* (c) 20 lifts at one place invert one map and span no lookup lists, and a
  degree-1 place inverts none;
* (d) images that are not a basis raise SingularMatrix, and the inverse of
  a bijection undoes it on every counter value of small fields.
"""
import random

import pytest

from cubicext.errors import DomainMismatch, SingularMatrix
from cubicext.ffield import Field, FieldElem, _irreducible, _kernel, field_make
from cubicext.places import (PLACE_SCAN_LIMIT, _ROW_MAX_ORDER, Place, ResidueData,
                             residue_field)
from cubicext.polyring import Poly, func_field

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2), 13: (13, 1)}


# ---------------------------------------------------------------------------
# oracle: the earlier lift and its Gaussian elimination, copied
# ---------------------------------------------------------------------------

def oracle_solve_modp(matrix, rhss, p):
    n, k = len(matrix), len(rhss)
    m = len(matrix[0]) if n else 0
    aug = [[v % p for v in row] + [b[i] % p for b in rhss] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][col], -1, p)
        aug[r] = [(v * inv) % p for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    if any(v for row in aug[r:] for v in row[m:]):
        return None
    xs = [[0] * m for _ in range(k)]
    for i, col in enumerate(pivots):
        for x, v in zip(xs, aug[i][m:]):
            x[col] = v
    return xs


def digits(v, p, m):
    return [v // p ** i % p for i in range(m)]


def oracle_lift(rd, c):
    base = rd.place.ff.field
    if rd.place.is_infinite:
        return Poly.const(base, c)
    if c.field is not rd.field:
        raise DomainMismatch("element not in the residue field")
    m, k, image = base.m, rd.field, rd.embed.value_image
    cols = [digits(k._mul(image(base.p ** j), k._pow(rd.root.value, i)), k.p, k.m)
            for i in range(rd.place.degree) for j in range(m)]
    sol = oracle_solve_modp(list(zip(*cols)), [digits(c.value, k.p, k.m)], base.p)[0]
    coeffs = [FieldElem(base, sum(s * base.p ** j for j, s in enumerate(sol[i * m:(i + 1) * m])))
              for i in range(rd.place.degree)]
    return Poly(base, coeffs)


# ---------------------------------------------------------------------------
# the deck
# ---------------------------------------------------------------------------

def deck_places(q, d, rng):
    """The first place of degree d in counter order and one seeded one."""
    F = field_make(*PRIME_POWERS[q])
    ff, K = func_field(F), _kernel(F)
    first = next(f for f in (digits(i, q, d) + [1] for i in range(q ** d)) if _irreducible(K, f))
    while True:
        f = [rng.randrange(q) for _ in range(d)] + [1]
        if _irreducible(K, f):
            break
    return [Place(ff, Poly(F, [FieldElem(F, c) for c in g])) for g in (first, f)]


def seeded_residues(k, rng, n=12):
    return [FieldElem(k, v) for v in
            sorted({0, 1, k.order - 1} | {rng.randrange(k.order) for _ in range(n)})]


DECK = [(q, d) for q in PRIME_POWERS for d in range(1, 6)]


@pytest.mark.parametrize("q,d", DECK)
def test_lift_equals_the_earlier_lift_and_reduces_back(q, d):
    rng = random.Random(3100 + 10 * q + d)
    for P in deck_places(q, d, rng):
        rd = residue_field(P)
        for c in seeded_residues(rd.field, rng):
            f = rd.lift(c)
            assert f == oracle_lift(rd, c), (P, c)
            assert f.degree < d, (P, c)
            assert rd.reduce(P.ff.from_poly(f)) == c, (P, c)


def test_the_deck_lies_on_both_sides_of_the_row_bound():
    orders = [PRIME_POWERS[q][0] ** (PRIME_POWERS[q][1] * d) for q, d in DECK if d >= 2]
    assert min(orders) <= _ROW_MAX_ORDER < max(orders)


def test_lift_above_the_scan_limit_equals_the_earlier_lift():
    F = field_make(2)
    x = Poly.gen(F)
    P = Place.finite(x ** 17 + x ** 3 + 1)
    assert F.order ** P.degree > PLACE_SCAN_LIMIT
    rd = residue_field(P)
    for c in seeded_residues(rd.field, random.Random(3117), 40):
        f = rd.lift(c)
        assert f == oracle_lift(rd, c) and f.degree < 17
        assert rd.reduce(P.ff.from_poly(f)) == c


def test_infinity_and_another_field_keep_their_answers():
    F = field_make(3, 2)
    ff = func_field(F)
    rd = residue_field(Place.infinity(ff))
    c = FieldElem(F, 5)
    assert rd.lift(c) == oracle_lift(rd, c) == Poly.const(F, c)
    finite = residue_field(deck_places(9, 2, random.Random(1))[0])
    for other in (c, field_make(3, 3).one):
        with pytest.raises(DomainMismatch):
            finite.lift(other)
        with pytest.raises(DomainMismatch):
            oracle_lift(finite, other)


@pytest.mark.parametrize("q,d", [(4, 3), (13, 2), (2, 5), (9, 1)])
def test_lifts_at_one_place_invert_one_map(q, d, monkeypatch):
    calls = []
    for name in ("_inverse_columns", "_linear_inverse"):
        def counted(self, images, name=name, method=getattr(Field, name)):
            calls.append((name, self))
            return method(self, images)
        monkeypatch.setattr(Field, name, counted)
    P = deck_places(q, d, random.Random(7))[1]
    cached = residue_field(P)
    rd = ResidueData(P, cached.field, cached.embed, cached.root)  # nothing inverted yet
    rng = random.Random(3131)
    for _ in range(20):
        c = FieldElem(rd.field, rng.randrange(rd.field.order))
        assert rd.reduce(P.ff.from_poly(rd.lift(c))) == c
    assert calls == ([("_inverse_columns", rd.field)] if d > 1 else [])
    assert d == 1 or len(rd._inverse) == rd.field.m  # the m * d columns, no lookup lists


# ---------------------------------------------------------------------------
# the inverse itself
# ---------------------------------------------------------------------------

def apply(F, images, u):
    """f(u) for the GF(p)-linear f with f(p^j) = images[j], by field sums."""
    acc = 0
    for j, dj in enumerate(digits(u, F.p, F.m)):
        for _ in range(dj):
            acc = F._add(acc, images[j])
    return acc


@pytest.mark.parametrize("p,m", [(2, 1), (2, 4), (2, 7), (3, 1), (3, 3), (3, 4), (5, 2),
                                 (5, 3), (7, 2), (13, 2)])
def test_the_inverse_undoes_a_bijection(p, m):
    F = field_make(p, m)
    rng = random.Random(3200 + 10 * p + m)
    for trial in range(4):
        while True:
            images = [rng.randrange(1, F.order) for _ in range(m)]
            if len({apply(F, images, u) for u in range(F.order)}) == F.order:
                break
        if trial == 0:  # a permuted basis: every pivot needs a row swap
            images = [p ** ((j + 1) % m) for j in range(m)]
        inv = F._linear_inverse(images)
        assert all(inv(apply(F, images, u)) == u for u in range(F.order))
        assert F._inverse_columns(images) == [inv(p ** j) for j in range(m)]


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (13, 2)])
def test_images_that_are_not_a_basis_raise(p, m):
    F = field_make(p, m)
    basis = [p ** j for j in range(m)]
    dependent = [basis[:-1] + [0], basis[:-1] + [basis[0]], [1] * m,
                 basis[:-1] + [F._add(basis[0], basis[-2])]]
    for images in dependent:
        assert len({apply(F, images, u) for u in range(F.order)}) < F.order, images
        for invert in (F._inverse_columns, F._linear_inverse):
            with pytest.raises(SingularMatrix):
                invert(images)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_the_char3_inverse_still_undoes_its_map(m):
    F = field_make(3, m)
    inverse, n = F.char3_maps[1], F.nonsquare
    assert all(inverse(F._sub(F._pow(z, 3), F._mul(n, z))) == z for z in range(F.order))
