"""Places of the rational function field GF(q)(x).

A place is either a monic irreducible polynomial (the finite place it
generates) or the infinite place.  The infinite place sorts first, finite
places sort by (degree, counter key); every list of places this module
returns is in that order.

Valuation conventions: v_P(f) counts the power of the monic carrier dividing
f, and v_infinity(num/den) = deg den - deg num, so deg-degree bookkeeping
sums to zero on principal divisors (asserted in divisor_groups, which
groups the places by valuation without factoring, and in divisor_of).

residue_field returns a ResidueData bundle: the residue field GF(q^d)
itself, the embedding GF(q) -> GF(q^d), and the distinguished root of the
carrier (the least one), so that reduction is literally evaluation at the
root: one Horner pass on counter values in the residue field's kernel, over
the coefficients' images under the embedding's table.  ResidueData.lift
inverts reduction on polynomials of degree < d, which the local
Artin-Schreier machinery in arith relies on.  unit_residue gives v_P(a)
together with the residue of a * pi^(-v) from that evaluation.  Every entry
point that takes a function and a place raises FieldMismatch when the
function lives over another base field.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, Optional, Tuple, Union

from .errors import DomainMismatch, FieldMismatch, NegativeValuation, SizeExceeded, ZeroInput
from .ffield import FieldElem, _divmod, _horner, _irreducibles, _kernel, field_make, solve_modp
from .polyring import (Embedding, FuncField, Poly, RatFunc, _squarefree_decomposition, _store,
                       embedding, factor_fq, func_field, is_irreducible, poly_roots)

INFINITE_VALUATION = math.inf
PLACE_SCAN_LIMIT = 1 << 16  # places_up_to scans at most this many carriers per degree


class Place:
    """A place of GF(q)(x): finite (monic irreducible carrier) or infinite."""

    __slots__ = ("ff", "pi")

    def __init__(self, ff: FuncField, pi: Optional[Poly]):
        self.ff = ff
        self.pi = pi

    @staticmethod
    def finite(pi: Poly) -> "Place":
        if pi.degree < 1:
            raise DomainMismatch("a finite place needs a nonconstant carrier")
        if not pi.is_monic():
            raise DomainMismatch("the carrier of a finite place must be monic")
        if not is_irreducible(pi):
            raise DomainMismatch("the carrier of a finite place must be irreducible")
        return Place(func_field(pi.dom), pi)

    @staticmethod
    def infinity(ff: FuncField) -> "Place":
        return Place(ff, None)

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    @property
    def degree(self) -> int:
        return 1 if self.pi is None else self.pi.degree

    def sort_key(self):
        if self.pi is None:
            return (0, 0, ())
        return (1,) + self.pi.counter_key()

    def render(self) -> str:
        return "infinity" if self.pi is None else self.pi.render()

    def __repr__(self):
        return self.render()

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        if self.ff is not other.ff:
            return False
        if self.pi is None or other.pi is None:
            return self.pi is None and other.pi is None
        return self.pi == other.pi

    def __hash__(self):
        return hash((id(self.ff), None if self.pi is None else self.pi.vals))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def _strip(K, f: list, pi: list) -> Tuple[int, list]:
    """(n, f / pi^n) for the largest n with pi^n dividing f, on K's lists."""
    n = 0
    while True:
        q, r = _divmod(K, f, pi)
        if r:
            return n, f
        f = q
        n += 1


def valuation(a: RatFunc, P: Place) -> Union[int, float]:
    """v_P(a); +infinity for a = 0."""
    if a.ff is not P.ff:
        raise FieldMismatch("the function and the place are over different fields")
    if a.is_zero():
        return INFINITE_VALUATION
    if P.is_infinite:
        return a.den.degree - a.num.degree
    # the fraction is reduced, so at most one of num/den is divisible
    K, pi = _kernel(P.ff.field), P.pi.vals
    v = _strip(K, a.num.vals, pi)[0]
    return v if v else -_strip(K, a.den.vals, pi)[0]


def uniformizer(P: Place) -> RatFunc:
    """pi for a finite place, 1/x at infinity."""
    if P.is_infinite:
        return P.ff.one / P.ff.x
    return P.ff.from_poly(P.pi)


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------

class ResidueData:
    """Residue field of a place with the maps in and out of it.

    field  -- GF(q^d) (GF(q) itself at infinity)
    embed  -- the embedding GF(q) -> field
    root   -- the least root of the carrier in field (None at infinity)

    A finite place also keeps the base kernel, for stripping powers of the
    carrier, and the residue field's kernel, for evaluation on the images of
    embed's table.
    """

    __slots__ = ("place", "field", "embed", "root", "_kernel", "_rkernel")

    def __init__(self, place: Place, field, embed: Embedding, root):
        self.place = place
        self.field = field
        self.embed = embed
        self.root = root
        if root is not None:
            self._kernel = _kernel(place.ff.field)
            self._rkernel = _kernel(field)

    def eval_poly(self, f: Poly) -> FieldElem:
        """f(root) with coefficients pushed through the embedding."""
        if self.place.is_infinite:
            raise DomainMismatch("no carrier root at infinity")
        if f.dom is not self.place.ff.field:
            raise FieldMismatch("the polynomial is over another field than the place")
        return FieldElem(self.field, self._eval(f.vals))

    def _eval(self, f: list) -> int:
        """The counter value of f(root) for a base kernel list f: one Horner
        pass in the residue field on the coefficients' images."""
        images = self.embed.images
        if images is not None:
            f = [images[c] for c in f]
        return _horner(self._rkernel, f, self.root.value)

    def reduce(self, a: RatFunc) -> FieldElem:
        """The residue of a at the place; caller guarantees v_P(a) >= 0."""
        if self.place.is_infinite:
            return a.num.lc / a.den.lc if a.num.degree >= a.den.degree else self.field.zero
        return self.eval_poly(a.num) / self.eval_poly(a.den)

    def lift(self, c: FieldElem) -> Poly:
        """The unique polynomial of degree < d reducing to c at the place."""
        base = self.place.ff.field
        if self.place.is_infinite:
            return Poly.const(base, c)
        if c.field is not self.field:
            raise DomainMismatch("element not in the residue field")
        m, k, image = base.m, self.field, self.embed.value_image
        cols = [FieldElem(k, k._mul(image(base.p ** j), k._pow(self.root.value, i))).coeffs
                for i in range(self.place.degree) for j in range(m)]
        sol = solve_modp(list(zip(*cols)), c.coeffs, base.p)
        coeffs = [base.elem(sol[i * m:(i + 1) * m]) for i in range(self.place.degree)]
        return Poly(base, coeffs)


@functools.lru_cache(maxsize=None)
def residue_field(P: Place) -> ResidueData:
    base = P.ff.field
    if P.is_infinite:
        return ResidueData(P, base, embedding(base, base), None)
    d = P.degree
    k = field_make(base.p, base.m * d)
    emb = embedding(base, k)
    if d == 1:
        root = emb(-P.pi.coeff(0))
    else:
        lifted = _store(_kernel(k), map(emb.value_image, P.pi.vals))
        root = poly_roots(lifted)[0]
    return ResidueData(P, k, emb, root)


def unit_residue(a: RatFunc, P: Place) -> Tuple[int, FieldElem]:
    """(v, r): v = v_P(a) and r the (nonzero) residue of a * pi^(-v)."""
    return unit_residue_of(a.num, a.den, P)


def unit_residue_of(num: Poly, den: Poly, P: Place) -> Tuple[int, FieldElem]:
    """unit_residue of num/den for coprime num and den, with no RatFunc: at
    infinity lc(num)/lc(den); at a finite place pi, the minimal polynomial of
    the root, divides num or den exactly when it vanishes there, and that side
    is divided by pi until it does not before it is evaluated."""
    if num.dom is not P.ff.field or den.dom is not P.ff.field:
        raise FieldMismatch("the function and the place are over different fields")
    if not num:
        raise ZeroInput("the zero function has no unit part")
    if P.is_infinite:
        return den.degree - num.degree, num.lc / den.lc
    rd = residue_field(P)
    K, k, pi = rd._kernel, rd.field, P.pi.vals
    ns, ds = num.vals, den.vals
    v, n, d = 0, rd._eval(ns), rd._eval(ds)
    if not n:  # coprime, so at most one of n, d is zero
        v, ns = _strip(K, ns, pi)
        n = rd._eval(ns)
    elif not d:
        v, ds = _strip(K, ds, pi)
        v, d = -v, rd._eval(ds)
    return v, FieldElem(k, k._div(n, d))


def reduce_at(a: RatFunc, P: Place) -> FieldElem:
    """The image of a in the residue field; NegativeValuation at a pole."""
    v = valuation(a, P)
    if v < 0:
        raise NegativeValuation(f"v = {v} at {P.render()}")
    return residue_field(P).reduce(a)


# ---------------------------------------------------------------------------
# divisors and place enumeration
# ---------------------------------------------------------------------------

def divisor_groups(a: RatFunc) -> list:
    """The divisor of a, grouped by valuation and unfactored: [(g, v)] with
    g None for infinity, else the squarefree product of the finite places
    where v_P(a) = v, from the squarefree decompositions of a's numerator
    and denominator.  ZeroInput on 0; SizeExceeded as factor_fq's."""
    if a.is_zero():
        raise ZeroInput("the zero function has no divisor")
    v_inf = a.den.degree - a.num.degree
    out = [(None, v_inf)] if v_inf else []
    out += _squarefree_decomposition(a.num.monic())
    out += [(g, -e) for g, e in _squarefree_decomposition(a.den)]
    assert sum(v * (1 if g is None else g.degree) for g, v in out) == 0
    return out


def group_places(ff: FuncField, g: Optional[Poly]) -> list:
    """The places of a divisor_groups group: infinity for None, else the
    irreducible factors of g."""
    if g is None:
        return [Place.infinity(ff)]
    return [Place(ff, h) for h, _ in factor_fq(g)[1]]


def divisor_of(a: RatFunc) -> list:
    """[(Place, v_P(a))] over the support, in place order; ZeroInput on 0."""
    out = [(P, v) for g, v in divisor_groups(a) for P in group_places(a.ff, g)]
    out.sort(key=lambda t: t[0].sort_key())
    assert sum(v * P.degree for P, v in out) == 0
    return out


def iter_places(ff: FuncField, dmax: int) -> Iterator[Place]:
    """Infinity, then every finite place of degree <= dmax, in place order.

    Lazy: each carrier is built and tested when it is reached, so a caller
    that stops early pays only for the places it took.
    """
    yield Place.infinity(ff)
    K = _kernel(ff.field)
    for d in range(1, dmax + 1):
        for f in _irreducibles(K, d):
            yield Place(ff, _store(K, f))


@functools.lru_cache(maxsize=None)
def places_up_to(ff: FuncField, dmax: int) -> tuple:
    """Infinity plus every finite place of degree <= dmax, in place order.

    The q^d monic polynomials of each degree d are tested one by one, so
    SizeExceeded is raised up front when q^dmax exceeds PLACE_SCAN_LIMIT.
    """
    # q >= 2, so every dmax > 16 exceeds the 2^16 limit: no need for q^dmax
    if dmax > 16 or ff.field.order ** dmax > PLACE_SCAN_LIMIT:
        raise SizeExceeded(f"{ff.field.order}^{dmax} candidate places exceed {PLACE_SCAN_LIMIT}")
    return tuple(iter_places(ff, dmax))
