"""Places of the rational function field GF(q)(x).

A place is either a monic irreducible polynomial (the finite place it
generates) or the infinite place.  The infinite place sorts first, finite
places sort by (degree, counter key); every list of places this module
returns is in that order.

iter_places is the one place enumerator, lazy by degree; places_up_to
runs it to the end.  Degree 1 is the q carriers X + c.  A degree d >= 2
with q^d <= PLACE_SCAN_LIMIT comes whole off one walk of k = GF(q^d) under
the Frobenius v -> v^q (_orbit_places, cached per base field and degree):
the elements are visited in counter order and each unvisited one is
followed around its orbit.  The orbits of size exactly d are the root sets
of the monic irreducibles of degree d, (1/d) sum_{e | d} mu(d/e) q^e of
them (Rosen, Number Theory in Function Fields, Prop. 2.1), so the walk
visits each element once and tests no candidate.  A carrier is
prod (X - w) over its orbit, pulled back into GF(q) through the embedding,
and the orbit's first-visited element is its least root, which the place
carries for residue_field.  A larger degree is ffield's scan of monic
irreducibles, one irreducibility test each.  Its places, those of degree 1
and any place built alone (Place.finite, group_places) carry no root:
residue_field tests the carrier for irreducibility, so a reducible one
raises DomainMismatch before anything is factored, then takes -c for X + c
or the least of poly_roots of the lifted carrier, and walks nothing.

Valuation conventions: v_P(f) counts the power of the monic carrier dividing
f, and v_infinity(num/den) = deg den - deg num, so deg-degree bookkeeping
sums to zero on principal divisors (asserted in divisor_groups, which
groups the places by valuation without factoring, and in divisor_of).

residue_field returns a ResidueData bundle: the residue field GF(q^d)
itself, the embedding GF(q) -> GF(q^d), and the distinguished root of the
carrier (the least one), so that reduction is literally evaluation at the
root.  At a place of degree d >= 2 whose residue field has at most
_ROW_MAX_ORDER = 2^8 elements (ffield's bound), f -> f(root) is GF(p)-linear,
so it is one dot product: row i of a table holds, for every coefficient
value c, the GF(p)-coordinates of image(c) * root^i packed into one int,
W = _ROW_BITS bits per coordinate; f(root) is the sum of row i at f's i-th
coefficient, taken in one C-level pass, and each W-bit field of the sum,
reduced mod p, is a digit of the counter value.  The rows grow lazily to
the longest polynomial evaluated.  A row has q <= 2^4 entries
(q^2 <= q^d <= 2^8), and each coordinate sum of a polynomial of length n is
below n * p, so the rows grow only while len(rows) * p < 2^W, which is
asserted.  Every other place takes one Horner pass in the residue field on
the coefficients' images under the embedding's table.  The cache of residue
fields keeps every table, and the bound on the order keeps them few and
small: at most 120 places over any GF(q) qualify, where a scan over the
thousands of degree-2 places of a larger GF(q) would hold q entries a row
at each of them.
_ROW_MAX_ORDER bounds the package's three other per-field tables too, so
all four share one bound: ffield's exp, log and zech tables, which are
lists up to it and arrays above; arith's bin table per residue field and
family, [ffcubic._bin_*(k, v) for every v], built whole on first use; and
ffcubic's root table per field and family, whose entry for a parameter is
filled from the family's root core the first time it is read.  On a larger
field each signature and each decomposition runs the root core for its one
value.

ResidueData.lift inverts reduction on polynomials of degree < d (arith's
local normal forms, canon's Hensel roots): c itself at degree 1.  At d >= 2,
f -> f(root) on their counter values sum c_i q^i is GF(p)-linear onto
GF(q^d); the first lift at a place inverts it on the basis by the residue
field's _inverse_columns, ffield's one GF(p) elimination, and keeps the
m * d columns (a place lifts once a surgery pass or Hensel root, too rarely
for lookup lists).

unit_residue gives v_P(a) together with the residue of a * pi^(-v) from
the evaluation above; _unit_residue_value gives it as a counter value,
which arith's signatures read without wrapping.  At a finite place that is
one call, ResidueData._unit_value on the kernel lists of num and den: when
the rows already reach both lengths it sums both sides over them and
unpacks them inline, else _eval grows the rows (or runs Horner) side by
side; then it strips and divides with the residue field's bound _div.  The
residue decides divisibility: pi, the minimal polynomial of the root,
divides f exactly when f(root) = 0, so v_P(a) is found by exact divisions
by pi while the residue is 0, with no trial division that fails; num and
den need not be coprime.  At a place of degree 1, pi = X - root, so each
side is one Horner pass that keeps its partial sums (ffield._deflate): the
last is the residue and the others, read backwards, are the quotient by pi,
so a zero residue is stripped from the same pass, with no division and no
second evaluation.  An empty denominator raises ZeroDenominator
before anything is evaluated.  valuation, which has no residue field at
hand, strips pi by trial division.  Every entry point that takes a function
and a place raises FieldMismatch when the function lives over another base
field.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, Optional, Tuple, Union

from .errors import (DomainMismatch, FieldMismatch, NegativeValuation, SizeExceeded,
                     ZeroDenominator, ZeroInput)
from .ffield import (_ROW_MAX_ORDER, FieldElem, _deflate, _digits, _divmod, _horner, _irreducible,
                     _irreducibles, _kernel, _mul, _span, _trim, field_make)
from .polyring import (Embedding, FuncField, Poly, RatFunc, _squarefree_decomposition, _store,
                       embedding, factor_fq, func_field, is_irreducible, poly_roots)

INFINITE_VALUATION = math.inf
PLACE_SCAN_LIMIT = 1 << 16  # iter_places walks GF(q^d) up to this order, places_up_to no further
_ROW_BITS = 32  # W: the bits of one packed coordinate in a ResidueData row
_REDUCIBLE = "the carrier of a finite place must be irreducible"


class Place:
    """A place of GF(q)(x): finite (monic irreducible carrier) or infinite.
    _root is the counter value of the carrier's least root in GF(q^d) when
    iter_places' walk found it, else None; ==, hash and repr ignore it.  A
    place hashes its carrier's values once, when it is made."""

    __slots__ = ("ff", "pi", "_root", "_hash")

    def __init__(self, ff: FuncField, pi: Optional[Poly], _root: Optional[int] = None):
        self.ff, self.pi, self._root = ff, pi, _root
        self._hash = hash((id(ff), None if pi is None else pi.vals))

    @staticmethod
    def finite(pi: Poly) -> "Place":
        if pi.degree < 1:
            raise DomainMismatch("a finite place needs a nonconstant carrier")
        if not pi.is_monic():
            raise DomainMismatch("the carrier of a finite place must be monic")
        if not is_irreducible(pi):
            raise DomainMismatch(_REDUCIBLE)
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
        return self._hash

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def _strip(K, f: list, pi: list) -> int:
    """The largest n with pi^n dividing f, on K's lists."""
    n = 0
    while True:
        f, r = _divmod(K, f, pi)
        if r:
            return n
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
    v = _strip(K, a.num.vals, pi)
    return v if v else -_strip(K, a.den.vals, pi)


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
    carrier, and the residue field's kernel, for the Horner pass.  At degree
    d >= 2, with q^d <= _ROW_MAX_ORDER, it keeps the packed rows of the
    evaluation map instead (see the module docstring): rows[i][c] is
    image(c) * root^i with its GF(p)-coordinate j in bits [jW, jW + W),
    grown by _eval on demand while len(rows) * p < 2^W.  At degree 1 it
    keeps the root's counter value z as _line instead, as pi = X - z.
    _unit_value takes a unit residue in one call: both sides read off the
    rows inline, or at degree 1 off Horner passes whose partial sums also
    divide by pi; the strip by the carrier; one division (see the module
    docstring).  At
    degree d >= 2 the first lift keeps the inverse of f -> f(root) on the
    basis, m * d ints from the residue field's _inverse_columns, for every
    later lift.  Nothing is kept per input.
    """

    __slots__ = ("place", "field", "embed", "root", "_kernel", "_rkernel", "_line", "_rows",
                 "_unpack", "_inverse")

    def __init__(self, place: Place, field, embed: Embedding, root):
        self.place = place
        self.field = field
        self.embed = embed
        self.root = root
        if root is not None:
            self._kernel, self._rkernel = _kernel(place.ff.field), _kernel(field)
            self._inverse, self._line = None, root.value if place.degree == 1 else None
            tabled = place.degree > 1 and field.order <= _ROW_MAX_ORDER
            self._rows, self._unpack = ([], _unpacker(field.p, field.m)) if tabled else (None, None)

    def eval_poly(self, f: Poly) -> FieldElem:
        """f(root) with coefficients pushed through the embedding."""
        if self.place.is_infinite:
            raise DomainMismatch("no carrier root at infinity")
        if f.dom is not self.place.ff.field:
            raise FieldMismatch("the polynomial is over another field than the place")
        return FieldElem(self.field, self._eval(f.vals))

    def _eval(self, f) -> int:
        """The counter value of f(root) for a base kernel list f: one sum over
        the packed rows, grown first to len(f) by packing image(c) * root^i
        for every c, or without rows one Horner pass in the residue field."""
        rows = self._rows
        if rows is None:
            images = self.embed.images
            return _horner(self._rkernel, [images[c] for c in f] if images else f, self.root.value)
        if len(f) > len(rows):
            k, W, h = self.field, _ROW_BITS, (self.field.m + 1) // 2
            assert len(f) * k.p < 1 << W, "a coordinate sum would carry into the next"
            lo = _span([1 << j * W for j in range(h)], k.p, int.__add__)  # packed x, x < p^h
            hi, P = [x << h * W for x in lo], len(lo)
            for i in range(len(rows), len(f)):
                r = k._pow(self.root.value, i)
                xs = [k._mul(c, r) for c in self.embed.images or range(k.p)]
                rows.append([lo[x % P] + hi[x // P] for x in xs])
        return self._unpack(sum(map(list.__getitem__, rows, f)))

    def _unit_value(self, ns: list, ds: list) -> tuple:
        """(v, field, counter value of the residue of num/den * pi^(-v)) for
        the nonzero base kernel lists ns and ds of num and den, in one call.
        At degree 1 each side is one _deflate pass, and while its last
        partial sum, the residue, is 0, the others, read backwards, are the
        side divided by pi, deflated again.  Else, when the rows already
        reach both lengths, both sides are summed over them and unpacked
        inline, or _eval takes each side, growing the rows or running
        Horner; pi, the minimal polynomial of the root, divides a side
        exactly when its residue is 0, so while it is 0 the side is divided
        by pi, exactly, and evaluated again."""
        rows, z, K, v = self._rows, self._line, self._kernel, 0
        if z is not None:  # pi = X - z: Horner's partial sums hold the quotient by pi too
            n, d = _deflate(K, ns, z), _deflate(K, ds, z)
            while not n[-1]:
                v, n = v + 1, _deflate(K, n[-2::-1], z)
            while not d[-1]:
                v, d = v - 1, _deflate(K, d[-2::-1], z)
            return v, self.field, self.field._div(n[-1], d[-1])
        if rows is not None and len(ns) <= len(rows) >= len(ds):
            row, unpack = list.__getitem__, self._unpack
            n, d = unpack(sum(map(row, rows, ns))), unpack(sum(map(row, rows, ds)))
        else:
            n, d = self._eval(ns), self._eval(ds)
        while not n:
            ns = _divmod(K, ns, self.place.pi.vals)[0]
            v, n = v + 1, self._eval(ns)
        while not d:
            ds = _divmod(K, ds, self.place.pi.vals)[0]
            v, d = v - 1, self._eval(ds)
        return v, self.field, self.field._div(n, d)

    def reduce(self, a: RatFunc) -> FieldElem:
        """The residue of a at the place; caller guarantees v_P(a) >= 0."""
        if self.place.is_infinite:
            return a.num.lc / a.den.lc if a.num.degree >= a.den.degree else self.field.zero
        return self.eval_poly(a.num) / self.eval_poly(a.den)

    def lift(self, c: FieldElem) -> Poly:
        """The unique polynomial of degree < d reducing to c at the place: c
        itself at degree 1, else the base-q digits of f^-1(c) for f -> f(root)
        on counter values sum c_i q^i, the sum of c's base-p digit j times the
        kept column f^-1(p^j) (see the module docstring)."""
        base, d, k = self.place.ff.field, self.place.degree, self.field
        if not self.place.is_infinite and c.field is not k:
            raise DomainMismatch("element not in the residue field")
        if d == 1:  # infinity included
            return Poly.const(base, c)
        if self._inverse is None:
            image, r = self.embed.value_image, self.root.value
            self._inverse = k._inverse_columns([k._mul(image(base.p ** j), k._pow(r, i))
                                                for i in range(d) for j in range(base.m)])
        value = functools.reduce(k._add, map(k._mul, _digits(c.value, k.p, k.m), self._inverse), 0)
        return _store(self._kernel, _trim(_digits(value, base.order, d)))


def _unpacker(p: int, n: int):
    """The counter value of a packed sum of n coordinates, each reduced mod p:
    inline for two (a degree-2 place over GF(p)), else a loop over the W-bit
    fields from the top."""
    W, mask = _ROW_BITS, (1 << _ROW_BITS) - 1
    if n == 2:
        return lambda s: (s & mask) % p + (s >> W) % p * p
    shifts = range((n - 1) * W, -1, -W)

    def unpack(s):
        v = 0
        for sh in shifts:
            v = v * p + (s >> sh & mask) % p
        return v
    return unpack


@functools.lru_cache(maxsize=None)
def residue_field(P: Place) -> ResidueData:
    """The residue field of P, its embedding of GF(q) and the carrier's least
    root: the one P carries from iter_places' walk, else -c for X + c, else
    the least of poly_roots of the carrier lifted to GF(q^d).  A carrier
    with no root is tested for irreducibility first, so a Place built on a
    reducible carrier without Place.finite raises DomainMismatch before
    GF(q^d) is built."""
    base = P.ff.field
    if P.is_infinite:
        return ResidueData(P, base, embedding(base, base), None)
    root = P._root
    if root is None and not _irreducible(_kernel(base), P.pi.vals):
        raise DomainMismatch(_REDUCIBLE)
    k = field_make(base.p, base.m * P.degree)
    emb = embedding(base, k)
    if root is None:
        root = (emb.value_image(base._neg(P.pi.vals[0])) if P.degree == 1
                else poly_roots(_store(_kernel(k), map(emb.value_image, P.pi.vals)))[0].value)
    return ResidueData(P, k, emb, FieldElem(k, root))


def unit_residue(a: RatFunc, P: Place) -> Tuple[int, FieldElem]:
    """(v, r): v = v_P(a) and r the (nonzero) residue of a * pi^(-v)."""
    return unit_residue_of(a.num, a.den, P)


def unit_residue_of(num: Poly, den: Poly, P: Place) -> Tuple[int, FieldElem]:
    """unit_residue of num/den, with no RatFunc (_unit_residue_value,
    wrapped).  num and den need not be coprime: a common factor cancels,
    and a common power of pi gives v = v_P(num) - v_P(den)."""
    v, k, r = _unit_residue_value(num, den, P)
    return v, FieldElem(k, r)


def _unit_residue_value(num: Poly, den: Poly, P: Place) -> tuple:
    """(v, residue field, counter value of the residue) of num/den: at
    infinity lc(num)/lc(den); at a finite place one ResidueData._unit_value
    call on their kernel lists.  ZeroInput for num = 0, ZeroDenominator for
    den = 0, before anything is evaluated."""
    if num.dom is not P.ff.field or den.dom is not P.ff.field:
        raise FieldMismatch("the function and the place are over different fields")
    ns, ds = num.vals, den.vals
    if not ns:
        raise ZeroInput("the zero function has no unit part")
    if not ds:
        raise ZeroDenominator("the denominator is zero")
    if P.pi is None:
        return len(ds) - len(ns), P.ff.field, P.ff.field._div(ns[-1], ds[-1])
    return residue_field(P)._unit_value(ns, ds)


def reduce_at(a: RatFunc, P: Place) -> FieldElem:
    """The image of a in the residue field; NegativeValuation at a pole."""
    v = valuation(a, P)
    if v < 0:
        raise NegativeValuation(f"v = {v} at {P.render()}")
    return residue_field(P).reduce(a)


# ---------------------------------------------------------------------------
# divisors and place enumeration
# ---------------------------------------------------------------------------

def divisor_groups(a: RatFunc, zeros: bool = True) -> list:
    """The divisor of a, grouped by valuation and unfactored: [(g, v)] with
    g None for infinity, else the squarefree product of the finite places
    where v_P(a) = v, from the squarefree decompositions of a's numerator
    and denominator.  With zeros false only the poles: the numerator is not
    decomposed.  ZeroInput on 0; SizeExceeded as factor_fq's."""
    if a.is_zero():
        raise ZeroInput("the zero function has no divisor")
    v_inf = a.den.degree - a.num.degree
    out = [(None, v_inf)] if v_inf < 0 or v_inf and zeros else []
    out += _squarefree_decomposition(a.num.monic()) if zeros else []
    out += [(g, -e) for g, e in _squarefree_decomposition(a.den)]
    assert not zeros or sum(v * (1 if g is None else g.degree) for g, v in out) == 0
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

    Lazy by degree: degree 1 is the carriers X + c; a degree d >= 2 with
    q^d <= PLACE_SCAN_LIMIT is read whole off one Frobenius walk of GF(q^d)
    when the enumeration first reaches it, each place carrying its least
    root; a larger degree is ffield's scan of monic irreducibles.  A caller
    that stops early pays for no degree beyond the one it stopped in.
    """
    yield Place.infinity(ff)
    base, K = ff.field, _kernel(ff.field)
    for d in range(1, dmax + 1):
        if d > 1 and base.order ** d <= PLACE_SCAN_LIMIT:
            for f, root in _orbit_places(base, d):
                yield Place(ff, _store(K, f), root)
        else:
            for f in _irreducibles(K, d):
                yield Place(ff, _store(K, f))


@functools.lru_cache(maxsize=None)
def _orbit_places(base, d: int) -> tuple:
    """The carriers of the places of degree d >= 2 over base = GF(q), as
    (kernel value tuple, counter value of its least root in k = GF(q^d))
    pairs in place order: one walk of k in counter order follows each
    unvisited v through v -> v^q; an orbit of size d is the root set of one
    carrier, prod (X - w) pulled back into GF(q) through the embedding, and
    v, its first-visited element, is its least root."""
    k = field_make(base.p, base.m * d)
    K, pw, neg, q = _kernel(k), k._pow, k._neg, base.order
    back = {w: v for v, w in enumerate(embedding(base, k).images or range(q))}
    seen = bytearray(k.order)
    out = []
    for v in range(k.order):
        if seen[v]:
            continue
        orbit, w = [v], pw(v, q)
        while w != v:
            orbit.append(w)
            w = pw(w, q)
        for w in orbit:
            seen[w] = 1
        if len(orbit) == d:
            f = [neg(v), 1]
            for w in orbit[1:]:
                f = _mul(K, f, [neg(w), 1])
            out.append((tuple(map(back.__getitem__, f)), v))
    out.sort(key=lambda t: t[0][::-1])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def places_up_to(ff: FuncField, dmax: int) -> tuple:
    """Infinity plus every finite place of degree <= dmax, in place order:
    iter_places run to the end, so each degree d >= 2 is one Frobenius walk
    of GF(q^d), all q^d elements, and SizeExceeded is raised up front when
    q^dmax exceeds PLACE_SCAN_LIMIT.
    """
    # q >= 2, so every dmax > 16 exceeds the 2^16 limit: no need for q^dmax
    if dmax > 16 or ff.field.order ** dmax > PLACE_SCAN_LIMIT:
        raise SizeExceeded(f"{ff.field.order}^{dmax} candidate places exceed {PLACE_SCAN_LIMIT}")
    return tuple(iter_places(ff, dmax))
