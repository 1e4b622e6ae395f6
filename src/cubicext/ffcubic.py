"""Decomposition of cubic polynomials over finite fields.

A monic cubic over GF(s) lands in exactly one of five bins:

* ``Irreducible``     no roots in GF(s);
* ``LinTimesQuad``    one simple root times an irreducible quadratic;
* ``ThreeDistinct``   three distinct roots in GF(s);
* ``LinTimesSquare``  a simple root times the square of another linear factor;
* ``Triple``          one root of multiplicity three.

Each canonical shape has a root core that returns all its roots in GF(s)
with multiplicity (0, 1 or 3 counter values) from a closed form, with no
general factorizer: the cube roots of a (``_pure_roots``); y = c + 1/c over
the cube roots c of a root w of W^2 - aW + 1, in GF(s) or in the norm-1 torus
of GF(s^2) (``_depressed_roots``); one square root and the field's
Artin-Schreier solver or a fixed GF(3)-linear inverse (``_char3_roots``);
the inverse Frobenius (``_inseparable_roots``); the cofactor's quadratic
formula (``_reducible_roots``).  Square and cube roots come from
``ffield``'s one r-th root routine (``_root_values``, ``_rth_roots``).
``_BINS`` maps a list of roots to its bin by (roots with multiplicity,
distinct roots), the one multiplicity case analysis: ``_from_roots`` builds
every ``Decomp`` for the bin read there, and ``_lin_times_quad`` the
cofactor of a single root.  ``_family_decomp`` writes each family's cubic
once and makes one ``_from_roots`` call on its root core, read through
``_family_roots``; ``decompose_pure``, ``decompose_depressed`` and
``decompose_char3`` check their parameter and call it.  ``_bin_pure``,
``_bin_depressed`` and ``_bin_char3`` read the same roots' bin off
``_BINS`` on a counter value, building no ``Decomp`` (``arith``'s
signatures read them); the public ``bin_*`` take the class of
``decompose_*`` on a checked parameter.
``decompose_any`` reduces any monic cubic with canon's value-level core,
takes a family shape's roots from ``_family_roots`` and any other shape's
from its core, pulls them back through the inverse map and makes one
``_from_roots`` call.

From input to result everything computes on counter values with the field's
``_add/_sub/_mul/_pow/_neg`` and the counter-value solvers of ``ffield``; a
root is wrapped in ``FieldElem`` only when its ``Decomp`` is built.  The
torus questions that need only a trace (Tr W^e for one e; is W or z a cube)
run the Lucas/Dickson ladder V_e = Tr(W^e) on GF(s) alone (``_lucas``).
Only Adleman-Manders-Miller on the torus works on pairs mod W^2 - aW + 1
(``_quad_ring``, on the field's bound ops), and its non-cube (delta + W)^(s-1)
is built as conj(u)^2/N(u) with u = delta + W: one inverse in GF(s) per
candidate delta.  Nothing is cached per input; the constants that depend
only on the field live on the ``Field`` (the char-3 core's two maps too).
The tables are constants of the same kind, both for fields of at most
``places._ROW_MAX_ORDER`` = 2^8 elements.  ``_root_table`` keeps, per field
and family (Pure, DepressedTrace, Char3), one entry per counter value v:
the root core's tuple of roots, filled from the core the first time
``_family_roots`` reads that entry, so a table is never built whole and
holds at most one entry per element.  ``arith._bin_table`` keeps
[core(k, v) for every counter value v] for each ``_bin_*`` and residue
field k, built whole on first use.  Above the bound, and for the
Reducible and InseparablePure shapes, each call runs the core.

``brute_factor`` is an independent oracle: it scans every field element and
never consults the criteria.  Keep it dumb; the tests rely on that.
"""

import functools
from typing import ClassVar, Optional, Tuple, Union

from .canon import (
    Char3,
    Cubic,
    DepressedTrace,
    InseparablePure,
    Pure,
    Reducible,
    _reduce_values,
)
from .errors import SizeExceeded, WrongCharacteristic, WrongFieldClass
from .ffield import (
    Field,
    FieldElem,
    _artin_schreier_value,
    _kernel,
    _quad_values,
    _root_values,
    _rth_roots,
    record,
)
from .places import _ROW_MAX_ORDER

BRUTE_LIMIT = 1 << 16


# ---------------------------------------------------------------------------
# outcome types
# ---------------------------------------------------------------------------

@record
class Irreducible:
    kind: ClassVar[str] = "irreducible"


@record
class LinTimesQuad:
    """(X - root) * (X^2 + quad[0]*X + quad[1]), the quadratic irreducible."""

    root: FieldElem
    quad: Tuple[FieldElem, FieldElem]
    kind: ClassVar[str] = "linear_times_quadratic"


@record
class ThreeDistinct:
    roots: Tuple[FieldElem, FieldElem, FieldElem]  # ascending
    kind: ClassVar[str] = "three_distinct"


@record
class LinTimesSquare:
    """(X - simple) * (X - double)^2 with simple != double."""

    simple: FieldElem
    double: FieldElem
    kind: ClassVar[str] = "linear_times_square"


@record
class Triple:
    root: FieldElem
    kind: ClassVar[str] = "triple"


Decomp = Union[Irreducible, LinTimesQuad, ThreeDistinct, LinTimesSquare, Triple]

# a cubic's bin by (its roots in GF(s) with multiplicity, its distinct roots)
_BINS = {(0, 0): Irreducible, (1, 1): LinTimesQuad, (3, 3): ThreeDistinct,
         (3, 2): LinTimesSquare, (3, 1): Triple}


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _require_finite(F) -> Field:
    if not isinstance(F, Field):
        raise WrongFieldClass("decomposition types are defined over a finite field")
    return F


_WRONG_P = {Pure: "X^3 - a is inseparable in characteristic 3",
            DepressedTrace: "X^3 - 3X - a degenerates to a pure cubic in characteristic 3",
            Char3: "X^3 + aX + a^2 is the characteristic-3 family"}


def _family_field(F: Field, family: type) -> Field:
    """F, or the family's error: Char3 needs p = 3, the rest p != 3."""
    if (F.p == 3) != (family is Char3):
        raise WrongCharacteristic(_WRONG_P[family])
    return F


def _family_param(a: FieldElem, family: type) -> tuple:
    """(F, a.value) for a family parameter a, checked as _family_field."""
    return _family_field(_require_finite(getattr(a, "field", None)), family), a.value


def _lin_times_quad(F: Field, c: tuple, r: int) -> LinTimesQuad:
    """(X - r)(X^2 + bX + cc) for a root r of X^3 + eX^2 + fX + g, with
    c = (e, f, g) and r counter values."""
    e, f, g = c
    b = F._add(e, r)
    cc = F._add(f, F._mul(r, b))
    assert not F._add(F._mul(cc, r), g), "the cofactor needs a root"
    return LinTimesQuad(FieldElem(F, r), (FieldElem(F, b), FieldElem(F, cc)))


def _bin_of(roots) -> Optional[type]:
    """The bin of a cubic from all its roots in GF(s) with multiplicity, read
    off _BINS; None for a root count other than 0, 1 or 3."""
    return _BINS.get((len(roots), len(set(roots))))


def _from_roots(F: Field, c: tuple, roots) -> Decomp:
    """The Decomp of X^3 + eX^2 + fX + g, c = (e, f, g), from all its roots in
    GF(s) with multiplicity (0, 1 or 3 counter values), built for its bin."""
    cls = _bin_of(roots)
    assert cls, "a cubic has 0, 1 or 3 roots with multiplicity"
    if cls is Irreducible:
        return Irreducible()
    if cls is LinTimesQuad:
        return _lin_times_quad(F, c, roots[0])
    lo, mid, hi = roots = sorted(roots)
    if cls is Triple:
        return Triple(FieldElem(F, lo))
    if cls is LinTimesSquare:  # (simple, double): the middle of the sorted triple is double
        return LinTimesSquare(FieldElem(F, hi if lo == mid else lo), FieldElem(F, mid))
    return ThreeDistinct(tuple(FieldElem(F, r) for r in roots))


def _quad_ring(F: Field, a: int):
    """(mul, pow) of GF(s)[W]/(W^2 - aW + 1) on pairs c0 + c1 W of counter
    values, on the field's bound ops; pow takes exponents e >= 0."""
    add, sub, mul = F._add, F._sub, F._mul

    def tmul(u, v):
        x = mul(u[1], v[1])
        return (sub(mul(u[0], v[0]), x),
                add(add(mul(u[0], v[1]), mul(u[1], v[0])), mul(a, x)))

    def tpow(u, e):
        acc = (1, 0)
        while e:
            if e & 1:
                acc = tmul(acc, u)
            u = tmul(u, u)
            e >>= 1
        return acc

    return tmul, tpow


def _lucas(F: Field, a: int, e: int) -> int:
    """V_e(a) = Tr(W^e) = W^e + W^-e in GF(s)[W]/(W^2 - aW + 1), e >= 0, on
    counter values: the Lucas sequence V_0 = 2, V_1 = a, V_k+1 = a V_k - V_k-1,
    which is the Dickson polynomial D_e(a, 1).  The ladder keeps
    (V_k, V_k+1) over the bits of e, with V_2k = V_k^2 - 2 and
    V_2k+1 = V_k V_k+1 - a: two products and two differences a bit."""
    two = lo = 2 % F.p
    hi = a
    sub, mul = F._sub, F._mul
    for bit in bin(e)[2:]:
        x = sub(mul(lo, hi), a)  # V_2k+1
        lo, hi = (x, sub(mul(hi, hi), two)) if bit == "1" else (sub(mul(lo, lo), two), x)
    return lo


def _torus_roots(F: Field, a: int) -> list:
    """Tr(c) for every cube root c of W in GF(s)[W]/(W^2 - aW + 1), the
    quadratic irreducible, on counter values.

    W has norm 1, so it and its cube roots lie in the cyclic torus T of order
    n = s + 1, where an element z has z^k = 1 iff Tr(z^k) = 2 and Tr(z^k) is
    the Lucas/Dickson value V_k(Tr z) (_lucas).  3 not dividing n: cubing is
    a bijection on T, c = W^e with e = 3^-1 mod n, and Tr(c) = V_e(a).
    3 | n: W is a cube iff V_n/3(a) = 2, and then _rth_roots (r = 3) runs on
    T in _quad_ring's pairs c0 + c1 W, Tr = 2 c0 + a c1, with the non-cube
    z = (delta + W)^(s-1) for the least delta with V_n/3(Tr z) != 2.  The
    Frobenius sends W to its conjugate a - W, so with u = delta + W,
    z = conj(u)/u = conj(u)^2/N(u), N(u) = delta^2 + a delta + 1: one
    inverse in GF(s) per candidate instead of a power in T.
    """
    add, sub, mul = F._add, F._sub, F._mul
    n = F.order + 1
    if n % 3:
        return [_lucas(F, a, pow(3, -1, n))]
    two = 2 % F.p
    if _lucas(F, a, n // 3) != two:
        return []
    for delta in range(F.order):
        d = add(delta, a)  # conj(u) = d - W, conj(u)^2 = d^2 - 1 - (d + delta) W
        ninv = F._pow(add(mul(delta, d), 1), -1)
        z = (mul(sub(mul(d, d), 1), ninv), mul(F._neg(add(d, delta)), ninv))
        if _lucas(F, add(add(z[0], z[0]), mul(a, z[1])), n // 3) != two:
            break
    cs = _rth_roots((0, 1), 3, z, n, *_quad_ring(F, a))
    return [add(add(c0, c0), mul(a, c1)) for c0, c1 in cs]


# ---------------------------------------------------------------------------
# the brute oracle
# ---------------------------------------------------------------------------

def brute_factor(c: Cubic) -> Decomp:
    """Classify by scanning the whole field.  Independent of every criterion.

    The scan and the synthetic division run on counter values with the
    field's _add and _mul; roots are wrapped only in the returned Decomp.
    Refuses fields above 2^16 elements; the scan is the point, so there is no
    clever fallback.
    """
    F = _require_finite(c.base)
    if F.order > BRUTE_LIMIT:
        raise SizeExceeded(f"brute_factor scans the field; |F| = {F.order} > {BRUTE_LIMIT}")
    K, add, mul = _kernel(F), F._add, F._mul
    e, f, g = K.value(c.e), K.value(c.f), K.value(c.g)
    roots = [x for x in range(F.order) if not add(mul(add(mul(add(x, e), x), f), x), g)]
    if not roots:
        return Irreducible()
    # multiplicities by repeated synthetic division
    mults = []
    for r in roots:
        e1 = add(e, r)
        f1 = add(f, mul(r, e1))
        # cofactor X^2 + e1 X + f1; r is a double root iff it kills the cofactor
        m = 1
        if not add(mul(r, add(r, e1)), f1):
            m = 2
            if not add(add(r, r), e1):  # cofactor = (X - r)^2
                m = 3
        mults.append(m)
    total = sum(mults)
    if total == 1:  # one simple root: e1, f1 are its cofactor
        return LinTimesQuad(FieldElem(F, roots[0]), (FieldElem(F, e1), FieldElem(F, f1)))
    assert total == 3, "a cubic root count off the scan must be 1 or 3"
    roots = [FieldElem(F, r) for r in roots]
    if len(roots) == 3:
        return ThreeDistinct(tuple(roots))
    if len(roots) == 1:
        return Triple(roots[0])
    simple, double = (roots[0], roots[1]) if mults[0] == 1 else (roots[1], roots[0])
    return LinTimesSquare(simple=simple, double=double)


# ---------------------------------------------------------------------------
# canonical families
# ---------------------------------------------------------------------------

def _family_decomp(F: Field, v: int, family: type) -> Decomp:
    """The Decomp of the family's cubic with parameter v, a counter value:
    X^3 - v or X^3 - 3X - v (p != 3), X^3 + vX + v^2 (p = 3), from its root
    core, read through the family's root table (_family_roots)."""
    if family is Char3:
        c = (0, v, F._mul(v, v))
    else:
        c = (0, 0 if family is Pure else -3 % F.p, F._neg(v))
    return _from_roots(F, c, _family_roots(F, v, family))


def decompose_pure(a: FieldElem) -> Decomp:
    """X^3 - a over GF(s), p != 3 (_pure_roots)."""
    return _family_decomp(*_family_param(a, Pure), Pure)


def decompose_depressed(a: FieldElem) -> Decomp:
    """X^3 - 3X - a over GF(s), p != 3 (_depressed_roots)."""
    return _family_decomp(*_family_param(a, DepressedTrace), DepressedTrace)


def decompose_char3(a: FieldElem) -> Decomp:
    """X^3 + aX + a^2 over GF(3^m) (_char3_roots)."""
    return _family_decomp(*_family_param(a, Char3), Char3)


def bin_pure(a: FieldElem) -> type:
    """decompose_pure(a)'s outcome class."""
    return type(decompose_pure(a))


def bin_depressed(a: FieldElem) -> type:
    """decompose_depressed(a)'s outcome class."""
    return type(decompose_depressed(a))


def bin_char3(a: FieldElem) -> type:
    """decompose_char3(a)'s outcome class."""
    return type(decompose_char3(a))


def _bin_pure(F: Field, v: int) -> type:
    """The bin of X^3 - v, p != 3, on a counter value."""
    return _bin_of(_family_roots(F, v, Pure))


def _bin_depressed(F: Field, v: int) -> type:
    """The bin of X^3 - 3X - v, p != 3, on a counter value."""
    return _bin_of(_family_roots(F, v, DepressedTrace))


def _bin_char3(F: Field, v: int) -> type:
    """The bin of X^3 + vX + v^2 over GF(3^m), on a counter value."""
    return _bin_of(_family_roots(F, v, Char3))


def _pure_roots(F: Field, v: int) -> list:
    """The roots of X^3 - v, p != 3, with multiplicity.

    v = 0 is the triple root; s = 2 mod 3 makes cubing a bijection (one root,
    irreducible quadratic cofactor); s = 1 mod 3 is decided by the cube
    character of v.
    """
    return list(_root_values(F, v, 3) or ()) if v else [0, 0, 0]


def _depressed_roots(F: Field, v: int) -> list:
    """The roots of X^3 - 3X - v, p != 3, with multiplicity.

    v = +-2 (odd p) and v = 0 (p = 2) are the square cases.  Otherwise the
    cubic is separable and its roots are exactly y = c + 1/c over the c with
    c^3 = w, w a root of W^2 - vW + 1 (then y^3 - 3y = w + 1/w = v).  When w
    lies in GF(s) the c are its cube roots from _root_values: one for
    s = 2 mod 3, three or none for s = 1 mod 3.  Otherwise w lies in the
    norm-1 torus of GF(s^2), where 1/c is the conjugate of c and y = Tr(c)
    (_torus_roots).  One root leaves an irreducible quadratic cofactor.
    """
    p = F.p
    if (not v) if p == 2 else v in (2, p - 2):  # v = 2 sign: roots 2 sign, -sign, -sign
        sign = 1 if v == 2 else -1
        return [2 * sign % p, -sign % p, -sign % p]
    ws = _quad_values(F, F._neg(v), 1)
    if not ws:
        return _torus_roots(F, v)
    return [F._add(c, F._pow(c, -1)) for c in _root_values(F, ws[0], 3) or ()]


def _char3_roots(F: Field, v: int) -> list:
    """The roots of X^3 + vX + v^2 over GF(3^m), with multiplicity.

    v = 0 is the triple root.  Otherwise X = wZ, with one square root w.
    If -v = w^2 the cubic is w^3 (Z^3 - Z + w): it has roots iff Tr(w) = 0,
    and then they are wZ, wZ + w and wZ - w for Z = _artin_schreier_value(-w),
    which is None otherwise.  Else -v = n w^2, n = F.nonsquare, the cubic is
    w^3 (Z^3 - nZ + n^2 w), and Z -> Z^3 - nZ is a bijection (F.char3_maps[1]
    inverts it): one root.  A square factor never appears.
    """
    if not v:
        return [0, 0, 0]
    sub, mul, neg, n = F._sub, F._mul, F._neg, F.nonsquare
    sq = _root_values(F, neg(v), 2)
    if sq is None:
        w = _root_values(F, F._div(neg(v), n), 2)[0]
        return [mul(w, F.char3_maps[1](neg(mul(mul(n, n), w))))]
    w = sq[0]
    z = _artin_schreier_value(F, neg(w))
    if z is None:  # Tr(w) != 0
        return []
    r = mul(w, z)
    return [r, F._add(r, w), sub(r, w)]


def _inseparable_roots(F: Field, v: int) -> list:
    """X^3 - v in characteristic 3: the Frobenius is surjective, so this is
    always a triple root."""
    return [_root_values(F, v, 3)[0]] * 3


def _reducible_roots(F: Field, r: int, b: int, c: int) -> list:
    """The roots of (X - r)(X^2 + bX + c) with multiplicity: r and the
    quadratic's roots, a double one twice."""
    qroots = _quad_values(F, b, c)
    return [r, *qroots, *qroots] if len(qroots) == 1 else [r, *qroots]


# ---------------------------------------------------------------------------
# arbitrary cubics
# ---------------------------------------------------------------------------

_ROOTS = {Pure: _pure_roots, DepressedTrace: _depressed_roots, Char3: _char3_roots,
          InseparablePure: _inseparable_roots, Reducible: _reducible_roots}


@functools.lru_cache(maxsize=None)
def _root_table(F: Field, family: type) -> Optional[list]:
    """The root table of a family (Pure, DepressedTrace or Char3) over F:
    one entry per counter value v, None until _family_roots first reads it
    and then tuple(_ROOTS[family](F, v)).  None for F of more than
    places._ROW_MAX_ORDER elements.  Like arith._bin_table it depends on
    the field alone and holds at most one entry per element."""
    return [None] * F.order if F.order <= _ROW_MAX_ORDER else None


def _family_roots(F: Field, v: int, family: type):
    """The family's root core at v, read off its root table over F, which
    the first read of an entry fills; the core itself above the bound."""
    table = _root_table(F, family)
    if table is None:
        return _ROOTS[family](F, v)
    roots = table[v]
    if roots is None:
        roots = table[v] = tuple(_ROOTS[family](F, v))
    return roots


def decompose_any(c) -> Decomp:
    """Classify a monic cubic (or canonical shape, as its cubic) over GF(s).

    canon's value-level core reduces the cubic, and each root of the shape
    is pulled back through the inverse map z -> (m00 z - m10)/(m11 - m01 z).
    No root sits on its pole: the pole's image under the forward map is the
    image of infinity, never a root of the reduced cubic.  A shape's family
    parameter is checked as decompose_* check it.
    """
    if type(c) in _ROOTS:
        if type(c) in _WRONG_P:
            _family_param(c.a, type(c))
        c = c.cubic()
    elif not isinstance(c, Cubic):
        raise TypeError(f"expected a cubic or canonical shape, got {type(c).__name__}")
    F = _require_finite(c.base)
    K = _kernel(F)
    e, f, g = cv = (K.value(c.e), K.value(c.f), K.value(c.g))
    cls, params, m = _reduce_values(K, e, f, g)
    roots = _family_roots(F, *params, cls) if cls in _WRONG_P else _ROOTS[cls](F, *params)
    if m is not None:
        add, sub, mul = F._add, F._sub, F._mul
        m00, m01, m10, m11 = m
        pulled = []
        for z in roots:
            den = sub(m11, mul(m01, z))
            assert den, "no root sits on the pole"
            y = F._div(sub(mul(m00, z), m10), den)
            assert not add(mul(add(mul(add(y, e), y), f), y), g), \
                "a pulled-back root must be a root"
            pulled.append(y)
        roots = pulled
    return _from_roots(F, cv, roots)
