"""Canonical families of cubics and explicit root transport between them.

Every monic cubic X^3 + eX^2 + fX + g over a base B (a finite field or a
rational function field GF(q)(x)) reduces to exactly one of five shapes:

  Pure{a}              X^3 - a                    (characteristic != 3)
  DepressedTrace{a}    X^3 - 3X - a               (characteristic != 3)
  Char3{a}             X^3 + aX + a^2             (characteristic 3)
  InseparablePure{a}   X^3 - a                    (characteristic 3, e=f=0)
  Reducible{root, (b, c)}   (X - root)(X^2 + bX + c)

reduce_cubic returns the canonical shape together with the fractional-linear
substitution sending a root of the input to a root of the canonical form.
The substitution convention: FracLinear(m00, m01, m10, m11) acts as

    y  |->  (m11*y + m10) / (m01*y + m00),

i.e. as the matrix [[m00, m01], [m10, m11]] on the column (1, y); composition
of maps is then the matrix product.  Matrices are normalized projectively
(first nonzero entry scaled to 1), so equal maps have equal entries.

The reduction is one value-level core, _reduce_values, on the base's
ffield._Kernel (counter values over GF(q), plain ints reduced % p only where
compared or kept over GF(p) for p != 3, RatFuncs over GF(q)(x)); reduce_cubic
and ffcubic's decompose_any read a cubic's values once (_cubic_values) and
call it, and reduce_cubic is the one site that wraps its values:
it normalises the map's raw entries on values (FracLinear._normalise, the
normaliser the public constructor also ends in): one division by the pivot
per other nonzero entry, wrapped once, the base's shared one and zero for
the rest.

isom decides whether two canonical cubics define the same extension and
raises ReducibleInput through require_irreducible, the package's one
irreducibility gate; isom_pure, is_galois and arith.Extension stay ungated.
"""
from __future__ import annotations

import functools
import itertools
from typing import Optional, Union

from .errors import (DegenerateParameter, DomainMismatch, FieldMismatch,
                     PoleHit, ReducibleInput, SingularMatrix,
                     WrongCharacteristic, WrongFieldClass)
from .ffield import (Field, FieldElem, NonCube, NonSquare, _kernel, cube_classify, record,
                     square_classify)
from .polyring import (FACTOR_DEGREE_LIMIT, FuncField, Poly, RatFunc, _distinct_degree,
                       _pth_root_poly, _squarefree_decomposition, poly_roots,
                       quadratic_roots, xgcd)
from . import places as places_mod

Value = Union[FieldElem, RatFunc]


def base_of(v: Value):
    if isinstance(v, FieldElem):
        return v.field
    if isinstance(v, RatFunc):
        return v.ff
    raise DomainMismatch(f"not a field value: {v!r}")


def char_of(base) -> int:
    return base.p if isinstance(base, Field) else base.field.p


def value_key(v: Value):
    """Deterministic total order on values of one base."""
    if isinstance(v, FieldElem):
        return (v.value,)
    return (v.den.counter_key(), v.num.counter_key())


# ---------------------------------------------------------------------------
# the shapes
# ---------------------------------------------------------------------------

@record
class Cubic:
    """Monic cubic X^3 + eX^2 + fX + g; e, f, g in one base."""
    e: Value
    f: Value
    g: Value

    @property
    def base(self):
        return base_of(self.e)

    def as_poly(self) -> Poly:
        b = self.base
        return Poly(b, (self.g, self.f, self.e, b.one))

    def __call__(self, y):
        return ((y + self.e) * y + self.f) * y + self.g


class _Family:
    """A one-parameter shape: its base is that of its parameter a."""

    @property
    def base(self):
        return base_of(self.a)


@record
class Pure(_Family):
    a: Value

    def cubic(self) -> Cubic:
        b = self.base
        return Cubic(b.zero, b.zero, -self.a)


@record
class DepressedTrace(_Family):
    a: Value

    def cubic(self) -> Cubic:
        b = self.base
        return Cubic(b.zero, b.from_int(-3), -self.a)


@record
class Char3(_Family):
    a: Value

    def cubic(self) -> Cubic:
        b = self.base
        return Cubic(b.zero, self.a, self.a * self.a)


@record
class InseparablePure(_Family):
    a: Value

    def cubic(self) -> Cubic:
        b = self.base
        return Cubic(b.zero, b.zero, -self.a)


@record
class Reducible:
    root: Value
    quad: tuple  # (b, c): the cofactor X^2 + bX + c

    @property
    def base(self):
        return base_of(self.root)

    def cubic(self) -> Cubic:
        b, c = self.quad
        r = self.root
        return Cubic(b - r, c - r * b, -r * c)


CanonicalCubic = Union[Pure, DepressedTrace, Char3, InseparablePure, Reducible]

_WRONG_P = {Pure: "X^3 - a is inseparable in characteristic 3",
            DepressedTrace: "X^3 - 3X - a degenerates to a pure cubic in characteristic 3",
            Char3: "X^3 + aX + a^2 is the characteristic-3 family"}


def _family_field(F: Field, family: type) -> Field:
    """F, or the family's error: Char3 needs p = 3, the rest p != 3."""
    if (F.p == 3) != (family is Char3):
        raise WrongCharacteristic(_WRONG_P[family])
    return F


# ---------------------------------------------------------------------------
# fractional-linear maps
# ---------------------------------------------------------------------------

@record
class FracLinear:
    m00: Value
    m01: Value
    m10: Value
    m11: Value

    def __post_init__(self):
        K = _kernel(base_of(self.m00))
        self._normalise(K, *map(K.value, self.entries()))

    def _normalise(self, K, m00, m01, m10, m11) -> "FracLinear":
        """Store the kernel values m00, m01, m10, m11, divided by the first
        nonzero one, the pivot, and wrapped; SingularMatrix on det 0.  Past
        the determinant check (m00, m01) != (0, 0), so the pivot is m00 or
        m01.  The pivot's entry and every zero entry are stored as the
        domain's shared one and zero, so only the others are divided."""
        mul, div, elem, dom = K.mul, K.div, K.elem, K.dom
        if mul(m00, m11) == mul(m01, m10):  # det 0 on canonical values
            raise SingularMatrix("zero determinant")
        zero = dom.zero
        if m00:
            pivot, m00 = m00, dom.one
            m01 = elem(div(m01, pivot)) if m01 else zero
        else:
            pivot, m00, m01 = m01, zero, dom.one
        vars(self).update(m00=m00, m01=m01, m10=elem(div(m10, pivot)) if m10 else zero,
                          m11=elem(div(m11, pivot)) if m11 else zero)
        return self

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def identity(base) -> "FracLinear":
        return FracLinear(base.one, base.zero, base.zero, base.one)

    def is_identity(self) -> bool:
        return not self.m01 and not self.m10 and self.m00 == self.m11

    def apply(self, y: Value) -> Value:
        den = self.m01 * y + self.m00
        if not den:
            raise PoleHit("map evaluated at its pole")
        return (self.m11 * y + self.m10) / den

    def inverse(self) -> "FracLinear":
        return FracLinear(self.m11, -self.m01, -self.m10, self.m00)

    def compose(self, other: "FracLinear") -> "FracLinear":
        """self after other (matrix product self * other)."""
        return FracLinear(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    def entries(self) -> tuple:
        return (self.m00, self.m01, self.m10, self.m11)


# ---------------------------------------------------------------------------
# reduction to canonical form
# ---------------------------------------------------------------------------

def reduce_cubic(T: Cubic):
    """(canonical shape, map sending roots of T to roots of the shape)."""
    b, K, e, f, g = _cubic_values(T)
    cls, params, m = _reduce_values(K, e, f, g)
    w = K.elem
    shape = (Reducible(w(params[0]), (w(params[1]), w(params[2]))) if cls is Reducible
             else cls(w(params[0])))
    if m is None:
        return shape, FracLinear.identity(b)
    return shape, object.__new__(FracLinear)._normalise(K, *m)  # the map's one wrap


def _cubic_values(T: Cubic) -> tuple:
    """(base, kernel, e, f, g): T's base, its kernel and the kernel values of
    T's coefficients, read once for reduce_cubic and decompose_any.  As the
    kernel's value would, it raises FieldMismatch unless all three lie in
    the base."""
    b = T.base
    K = _kernel(b)
    e, f, g = T.e, T.f, T.g
    if not K.field:  # GF(q)(x): the values are the coefficients
        return b, K, e, f, g
    if f.field is not b or g.field is not b:
        raise FieldMismatch(f"{b} vs {(g if f.field is b else f).field}")
    return b, K, e.value, f.value, g.value


def _reduce_values(K, e, f, g) -> tuple:
    """reduce_cubic on the kernel values of X^3 + eX^2 + fX + g: (shape class,
    parameters, map entries).  The parameters are (a,) for a family and
    (root, b, c) for Reducible; the entries (m00, m01, m10, m11) stay raw
    kernel values, not normalised (decompose_any reads them as they are), and
    are None for the identity.

    Over GF(p), p != 3, it follows the _Kernel convention (K.p set): the same
    formulas run on plain ints, and only a value that is compared or kept is
    reduced % p, once.  f is compared with -3 % p, not p - 3: the two differ
    over GF(2).  Characteristic 3, GF(p^m) and GF(q)(x) run the kernel's ops."""
    add, sub, mul, div = K.add, K.sub, K.mul, K.div
    if not g:
        return Reducible, (K.zero, e, f), None
    p = K.p
    if p and p != 3:
        f2, g3, g27 = f * f % p, 3 * g, 27 * g * g
        eg3, f3 = e * g3 % p, f2 * f
        efg3 = eg3 * f
        t = (g27 + 2 * f3 - 3 * efg3) % p  # 9efg = 3 * 3efg
        if not t:
            r = div(-3 * g, f)  # f != 0 here, else g would be 0
            er = (e + r) % p
            return Reducible, (r, er, (f + r * er) % p), None
        if not e and f == -3 % p:
            return DepressedTrace, (-g % p,), None
        if eg3 == f2:  # f^3 - 27g^2 = -t != 0
            g3 %= p
            return Pure, (div(g27 * g, (f3 - g27) % p),), (g3, f, 0, g3)
        d = eg3 - f2
        d3, gd3 = d * d * d, g3 * d % p
        return DepressedTrace, (div(-2 * d3 - t * t, d3 % p),), (
            gd3, f * d % p, gd3, (f3 + g27 - 2 * efg3) % p)  # 6efg
    f2 = mul(f, f)
    f3 = mul(f2, f)
    p, two, three, n27, minus2, minus3 = _constants(K)
    if p == 3:
        e2 = mul(e, e)
        e3 = mul(e2, e)
        t = sub(add(mul(g, e3), f3), mul(f2, e2))  # g e^3 + f^3 - f^2 e^2
        if e and not t:
            r = div(f, e)
        elif not e and not f:
            return InseparablePure, (sub(K.zero, g),), None
        elif not e:
            a = div(mul(g, g), f3)
            return Char3, (a,), (K.one, K.zero, K.zero, div(g, f2))
        else:
            e4 = mul(e2, e2)
            a = div(t, mul(e3, e3))
            return Char3, (a,), (sub(K.zero, mul(f, e4)), mul(e4, e), t, K.zero)
    else:
        g3, g27 = mul(three, g), mul(n27, mul(g, g))
        eg3 = mul(e, g3)
        efg3 = mul(eg3, f)
        # a detected rational root ends the reduction
        t = sub(add(g27, mul(two, f3)), mul(three, efg3))  # 9efg = 3 * 3efg
        if not t:
            r = div(mul(minus3, g), f)  # f != 0 here, else g would be 0
        elif not e and f == minus3:
            return DepressedTrace, (sub(K.zero, g),), None
        elif eg3 == f2:
            a = div(mul(g27, g), sub(f3, g27))
            return Pure, (a,), (g3, f, K.zero, g3)
        else:
            d = sub(eg3, f2)
            a = sub(minus2, div(mul(t, t), mul(mul(d, d), d)))
            gd3 = mul(g3, d)
            return DepressedTrace, (a,), (gd3, mul(f, d), gd3,
                                          sub(add(f3, g27), mul(two, efg3)))  # 6efg
    er = add(e, r)
    return Reducible, (r, er, add(f, mul(r, er))), None


@functools.lru_cache(maxsize=None)
def _constants(K) -> tuple:
    """The characteristic, then the kernel values of 2, 3, 27, -2, -3:
    _reduce_values' constants."""
    return (char_of(K.dom),) + tuple(map(K.of_int, (2, 3, 27, -2, -3)))


def cubic_of(shape) -> Cubic:
    return shape.cubic()


# ---------------------------------------------------------------------------
# global square / cube tests over GF(q)(x)
# ---------------------------------------------------------------------------

def global_square_test(u: RatFunc) -> Optional[RatFunc]:
    """A square root of u in GF(q)(x), or None.  0 -> 0."""
    return _power_root_in(u.ff, u, 2)


def global_cube_test(u: RatFunc) -> Optional[RatFunc]:
    """A cube root of u in GF(q)(x), or None.  0 -> 0."""
    return _power_root_in(u.ff, u, 3)


def _power_root_in(base, v: Value, n: int) -> Optional[Value]:
    """An n-th root (n = 2 or 3) of v in base, or None.  Over GF(q)(x), 0 -> 0."""
    if isinstance(base, Field):
        cls = square_classify(v) if n == 2 else cube_classify(v)
        return None if isinstance(cls, (NonSquare, NonCube)) else cls.roots[0]
    return v if v.is_zero() else _global_power_root(v, n)


def _global_power_root(u: RatFunc, n: int) -> Optional[RatFunc]:
    """The n-th root of u from its unit and the squarefree parts of num and
    den: None unless n divides every multiplicity e, else prod g^(e/n).
    u = c^n with den monic forces num = lc r^n and den = s^n, so n must
    divide both degrees; that is checked first, before any decomposition."""
    if u.num.degree % n or u.den.degree % n:
        return None
    ff = u.ff
    unit = _power_root_in(ff.field, u.num.lc, n)  # den is monic
    if unit is None:
        return None
    parts = []
    for f in (u.num.monic(), u.den):
        root = Poly.one(ff.field)
        for g, e in _squarefree_decomposition(f):
            if e % n:
                return None
            root = root * g ** (e // n)
        parts.append(root)
    root = RatFunc(ff, parts[0] * unit, parts[1])
    assert root ** n == u
    return root


# ---------------------------------------------------------------------------
# purely cubic detection; Galois tests
# ---------------------------------------------------------------------------

def purely_cubic_root(a: Value) -> Optional[Value]:
    """The least root c of X^2 + aX + 1 over the base of a, or None.

    Such a c exists exactly when X^3 - 3X - a generates a purely cubic
    extension; the pure parameter is c itself.
    """
    base = base_of(a)
    roots = _roots_in(base, (base.one, a, base.one))
    return roots[0] if roots else None


def is_galois(shape: CanonicalCubic) -> bool:
    """Whether the (assumed irreducible) canonical cubic is Galois over its
    base; a family outside its characteristic raises WrongCharacteristic, as
    ffcubic's decompose_* do."""
    base = shape.base
    if isinstance(shape, Reducible):
        raise ReducibleInput("Galois test expects an irreducible cubic")
    if isinstance(shape, InseparablePure):
        return False
    F = _family_field(base if isinstance(base, Field) else base.field, type(shape))
    if isinstance(shape, Pure):
        return F.order % 3 == 1
    if isinstance(shape, Char3):
        return _power_root_in(base, -shape.a, 2) is not None
    # DepressedTrace
    a = shape.a
    if F.p != 2:
        return _power_root_in(base, -27 * (a * a - 4), 2) is not None
    if a.is_zero():
        raise ReducibleInput("X^3 - 3X is reducible")
    # the resolvent y^2 + y = u
    u = 1 / (a * a) + 1
    return bool(_roots_in(base, (u, base.one, base.one)))


def galois_param(A: Value, B: Value) -> Value:
    """(2A^2 + 2AB - B^2)/(A^2 + AB + B^2): a parameter whose depressed
    form is always Galois.  DegenerateParameter when the denominator is 0."""
    den = A * A + A * B + B * B
    if not den:
        raise DegenerateParameter("A^2 + AB + B^2 = 0")
    return (2 * A * A + 2 * A * B - B * B) / den


def galois_denominator_check(a: RatFunc) -> bool:
    """When q = -1 mod 3: every irreducible factor of a's denominator has
    even degree (a necessary condition for the depressed form to be Galois).
    """
    if not isinstance(a, RatFunc):
        raise DomainMismatch("expects a rational function")
    q = a.ff.field.order
    if q % 3 != 2:
        raise WrongFieldClass(f"needs |F| = -1 mod 3, got {q}")
    # the degrees of the irreducible factors, with no equal-degree splitting
    return all(d % 2 == 0 for g, _ in _squarefree_decomposition(a.den)
               for _, d in _distinct_degree(g))


def shanks_to_canonical(a: Value):
    """Rewrite X^3 + aX^2 - (a+3)X + 1 in depressed form.

    Returns (DepressedTrace, map); the map sends roots of the input family to
    roots of the depressed form.  Degenerates when a^2 + 3a + 9 = 0, and the
    family member at 2a + 3 = 0 is reducible (rational root 2), which makes
    the root map singular.
    """
    base = base_of(a)
    if char_of(base) == 3:
        raise WrongCharacteristic("the conversion degenerates in characteristic 3")
    d = a * a + 3 * a + 9
    if not d:
        raise DegenerateParameter("a^2 + 3a + 9 = 0")
    if not 2 * a + 3:
        raise ReducibleInput("2a + 3 = 0: that family member has the rational root 2")
    param = (2 * a * a + 6 * a - 9) / d
    m = FracLinear(base.from_int(3), -(a + 3), base.from_int(3), a)
    return DepressedTrace(param), m


def artin_schreier_normalize(shape: Char3):
    """Characteristic-3 Galois normal form.

    For Char3{a} with -a = h^2 a square, the substitution w = -y/h turns
    y^3 + ay + a^2 = 0 into w^3 - w - h = 0.  Returns (h, map).
    """
    if not isinstance(shape, Char3):
        raise DomainMismatch("expects a Char3 shape")
    base = shape.base
    h = _power_root_in(base, -shape.a, 2)
    if h is None:
        raise DegenerateParameter("-a is not a square: the form is not Galois")
    m = FracLinear(base.one, base.zero, base.zero, -1 / h)
    return h, m


# ---------------------------------------------------------------------------
# isomorphism of canonical families
# ---------------------------------------------------------------------------

@record
class Isomorphic:
    witness: tuple


@record
class NotIsomorphic:
    witness: Optional[object]  # a separating Place when one was found


@record
class Unknown:
    """No isomorphism decision returns this: isom decides every pair.  It
    stays because callers (the tests among them) import it."""


IsomResult = Union[Isomorphic, NotIsomorphic]


def require_irreducible(*shapes) -> None:
    """ReducibleInput unless each canonical cubic, in turn, is irreducible
    over its base.  has_rational_root returns a Reducible's root, so the one
    test covers that shape too."""
    for shape in shapes:
        if has_rational_root(shape) is not None:
            raise ReducibleInput("the cubic has a root in the base field")


def isom(shape1: CanonicalCubic, shape2: CanonicalCubic, search_bound: int = 6) -> IsomResult:
    """Decide whether two canonical cubics over one base define the same
    extension.  Each shape in argument order is refused with
    WrongCharacteristic if inseparable, then with ReducibleInput if it has a
    root in the base.  Pure pairs go to isom_pure (witness None), trace and
    char-3 pairs to the witness searches of isom_depressed and isom_char3.
    X^3 - 3X - a is purely cubic exactly when X^2 + aX + 1 has a root c, a
    pure parameter for it: the witness of a mixed pure/trace pair (other
    mixed pairs raise DomainMismatch).  Over GF(q) every answer is
    Isomorphic, as each irreducible cubic defines GF(q^3).
    """
    if shape1.base is not shape2.base:
        raise FieldMismatch("parameters live over different bases")
    for shape in (shape1, shape2):
        if isinstance(shape, InseparablePure):
            raise WrongCharacteristic("inseparable cubics are outside the comparison")
        require_irreducible(shape)
    if isinstance(shape1, Pure) and isinstance(shape2, Pure):
        return Isomorphic(None) if isom_pure(shape1.a, shape2.a) else NotIsomorphic(None)
    if type(shape1) is type(shape2):
        decide = _decide_depressed if isinstance(shape1, DepressedTrace) else _decide_char3
        return decide(shape1, shape2, search_bound)
    pure, other = (shape1, shape2) if isinstance(shape1, Pure) else (shape2, shape1)
    if not (isinstance(pure, Pure) and isinstance(other, DepressedTrace)):
        raise DomainMismatch("of two families, only pure and trace shapes are compared")
    c = purely_cubic_root(other.a)
    return Isomorphic(c) if c is not None and isom_pure(pure.a, c) else NotIsomorphic(None)


def isom_pure(a1: Value, a2: Value) -> bool:
    """K(y1)=K(y2) for y_i^3 = a_i (both assumed irreducible): a1/a2 or
    a1/a2^2 must be a cube in the base."""
    base = base_of(a1)
    if base is not base_of(a2):
        raise FieldMismatch("parameters live over different bases")
    if not a1 or not a2:
        raise ReducibleInput("pure parameter 0")
    return (_power_root_in(base, a1 / a2, 3) is not None
            or _power_root_in(base, a1 / (a2 * a2), 3) is not None)


def _depressed_witness_ok(a1: Value, a2: Value, alpha: Value, beta: Value) -> bool:
    if alpha * alpha + a2 * alpha * beta + beta * beta != base_of(a1).one:
        return False
    cand = (-3 * a2 * alpha * alpha * beta + a2 * beta ** 3 + 6 * alpha
            + alpha ** 3 * a2 * a2 - 8 * alpha ** 3)
    return cand == a1


def _char3_witness_ok(a1: Value, a2: Value, j: int, w: Value) -> bool:
    num = j * a1 * a1 + w ** 3 + a1 * w
    return a2 == num * num / a1 ** 3


SEPARATION_PLACE_BUDGET = 240


def _separate_by_signature(shape1, shape2, search_bound: int):
    """The first of SEPARATION_PLACE_BUDGET places of GF(q)(x) of degree
    <= min(search_bound, 4) with differing splitting signatures, or None;
    never reached over GF(q), where every irreducible pair is isomorphic."""
    from . import arith
    e1 = arith.Extension(shape1)
    e2 = arith.Extension(shape2)
    places = places_mod.iter_places(shape1.base, max(1, min(search_bound, 4)))
    for P in itertools.islice(places, SEPARATION_PLACE_BUDGET):
        if arith.signature(e1, P) != arith.signature(e2, P):
            return P
    return None


def isom_depressed(a1: Value, a2: Value, search_bound: int = 6) -> IsomResult:
    """Decide K(y1) = K(y2) for y_i^3 - 3y_i = a_i: isom on the two trace
    shapes, so ReducibleInput unless both cubics are irreducible.  The gate
    also covers a_i^2 = 4 (a double root: a = +-2, or a = 0 in
    characteristic 2).

    A witness is (alpha, beta) with alpha^2 + a2*alpha*beta + beta^2 = 1 and
    a1 = -3*a2*alpha^2*beta + a2*beta^3 + 6*alpha + a2^2*alpha^3 - 8*alpha^3;
    then y1 = alpha*y2^2 + beta*y2 - 2*alpha.  The conic's points are (0, 1),
    (0, -1) and, on the chord through (0, 1) of slope t,
    alpha = -(a2 + 2t)/D and beta = (1 - t^2)/D with D = t^2 + a2*t + 1; so
    the chord witnesses are the roots t of a sextic with D(t) != 0.  The
    least witness in value_key order is returned.  Over GF(q)(x) a negative
    answer carries a place with differing signatures when a scan of places of
    degree <= min(search_bound, 4) finds one.
    """
    return isom(DepressedTrace(a1), DepressedTrace(a2), search_bound)


def _decide_depressed(s1: DepressedTrace, s2: DepressedTrace, search_bound: int) -> IsomResult:
    a1, a2, base = s1.a, s2.a, s1.base
    t = Poly.gen(base)
    D = t * t + t * a2 + 1
    al, be = -(t * 2 + a2), 1 - t * t
    sextic = D ** 3 * a1 - (be ** 3 * a2 - al * al * be * (3 * a2) + al * D * D * 6
                            + al ** 3 * (a2 * a2 - 8))
    points = [(base.zero, base.one), (base.zero, -base.one)]
    for r in _roots_in(base, sextic.coeffs):
        d = D(r)
        if d:
            points.append((-(a2 + 2 * r) / d, (1 - r * r) / d))
    found = [w for w in points if _depressed_witness_ok(a1, a2, *w)]
    if found:
        return Isomorphic(min(found, key=lambda w: (value_key(w[0]), value_key(w[1]))))
    return NotIsomorphic(_separate_by_signature(s1, s2, search_bound))


def isom_char3(a1: Value, a2: Value, search_bound: int = 6) -> IsomResult:
    """Decide K(y1) = K(y2) for y_i^3 + a_i y_i + a_i^2 = 0: isom on the two
    char-3 shapes, so ReducibleInput unless both cubics are irreducible (the
    gate covers a_i = 0, where the cubic is X^3).

    A witness is (j, w), j in {1, 2}: a2 = (j*a1^2 + w^3 + a1*w)^2 / a1^3.
    It exists iff a1^3*a2 = s^2 for some s in the base and
    w^3 + a1*w + j*a1^2 - s or w^3 + a1*w + j*a1^2 + s has a root w there.
    The least witness, j first and then w in value_key order, is returned;
    search_bound bounds the certificate scan as in isom_depressed.
    """
    return isom(Char3(a1), Char3(a2), search_bound)


def _decide_char3(s1: Char3, s2: Char3, search_bound: int) -> IsomResult:
    a1, a2, base = s1.a, s2.a, s1.base
    s = _power_root_in(base, a1 ** 3 * a2, 2)
    if s is not None:
        for j in (1, 2):
            ws = [w for c in (j * a1 * a1 - s, j * a1 * a1 + s)
                  for w in _roots_in(base, (c, a1, base.zero, base.one))
                  if _char3_witness_ok(a1, a2, j, w)]
            if ws:
                return Isomorphic((j, min(ws, key=value_key)))
    return NotIsomorphic(_separate_by_signature(s1, s2, search_bound))


# ---------------------------------------------------------------------------
# roots in the base
# ---------------------------------------------------------------------------

def has_rational_root(shape: CanonicalCubic) -> Optional[Value]:
    """The least root (in value_key order) of the canonical cubic in its
    base, or None.

    Pure and inseparable pure shapes take a cube root of a from
    _power_root_in over either base: the least one of cube_classify over
    GF(q), the global cube test over GF(q)(x), which answers None with no
    decomposition when 3 does not divide deg num or deg den (a pole or zero
    at infinity of order prime to 3).  Over GF(q)(x) trace and
    char-3 shapes have none when a has a pole P of order n prime to 3
    (_certifying_pole).  A root y of y^3 - 3y = a would need 3v_P(y) = -n,
    since v_P(y^3 - 3y) is 3v_P(y) if v_P(y) < 0, else >= 0.  In
    y^3 + ay + a^2 the terms have valuations 3v, v - n and -2n (v = v_P(y)),
    and no two tie for least: 3v = -2n needs 3 | n, and v = -n/2 or v = -n
    leaves -2n or 3v strictly least.  Everything else goes through _roots_in.
    """
    if isinstance(shape, Reducible):
        return shape.root
    base = shape.base
    if isinstance(shape, (Pure, InseparablePure)):
        return _power_root_in(base, shape.a, 3)
    if not isinstance(base, Field) and _certifying_pole(shape.a) is not None:
        return None
    roots = _roots_in(base, shape.cubic().as_poly().coeffs)
    return roots[0] if roots else None


def _certifying_pole(a: RatFunc):
    """The first pole group (g, v) of places.divisor_groups(a) with 3 not
    dividing v, or None; a.den is not decomposed above FACTOR_DEGREE_LIMIT."""
    n = a.num.degree - a.den.degree
    if n > 0 and n % 3:
        return None, -n
    groups = _squarefree_decomposition(a.den) if a.den.degree <= FACTOR_DEGREE_LIMIT else ()
    return next(((g, -e) for g, e in groups if e % 3), None)


def _roots_in(base, coeffs) -> list:
    """Every root in base of the nonzero polynomial sum coeffs[i]*T^i, sorted
    by value_key.

    This is the one root finder of the package: the purely cubic test, the
    characteristic-2 resolvent y^2 + y = u, rational roots and isomorphism
    witnesses all ask it.  Over GF(q) a quadratic takes the closed form of
    quadratic_roots (a square root or an Artin-Schreier solve) and any other
    degree poly_roots.  Over GF(q)(x) the polynomial is made monic, and
    z = L*T, with L the lcm of the denominators, turns it into a monic G with
    coefficients in GF(q)[x]; the roots of G in GF(q)(x) lie in GF(q)[x]
    (Gauss's lemma), and _integral_roots finds them.
    """
    f = Poly(base, coeffs)
    if isinstance(base, Field):
        return list(quadratic_roots(f)) if f.degree == 2 else poly_roots(f)
    f = f.monic()
    L = Poly.one(base.field)
    for c in f.coeffs:
        L = L * c.den // L.gcd(c.den)
    n = f.degree
    zs = _integral_roots(base, [c.num * (L ** (n - i) // c.den) for i, c in enumerate(f.coeffs)])
    return sorted({RatFunc(base, z, L) for z in zs}, key=value_key)


def _integral_roots(ff: FuncField, cs: list) -> list:
    """The roots in GF(q)[x] of the monic G = sum cs[i]*z^i, cs in GF(q)[x].

    With rho the largest deg cs[i]/(n - i), a root has degree at most rho,
    since z^n must not dominate every cs[i]*z^i.  When G' = 0, G = H(z^p) and
    the roots are the p-th roots of H's roots that have one.  Otherwise the
    residue roots are Hensel-lifted at the first finite place where G reduces
    squarefree, which is the first one dividing no denominator of the xgcd
    cofactors of G and G', and each lift is verified exactly.  The places
    where a squarefree G does not reduce squarefree divide its discriminant,
    of degree at most n(n-1)*rho, so the scan stops once the failed places
    exceed that degree: G then has a repeated factor, and it is split by
    gcd(G, G') over GF(q)(x).
    """
    n = len(cs) - 1
    if n < 1:
        return []
    if n == 1:
        return [-cs[0]]
    dcs = [c * i for i, c in enumerate(cs)][1:]
    if not any(dcs):
        return [_pth_root_poly(r) for r in _integral_roots(ff, cs[::ff.field.p])
                if not r.derivative()]
    low = [(c.degree, n - i) for i, c in enumerate(cs[:-1]) if c]
    bound = max((d // k for d, k in low), default=0)
    disc_bound = max((n * (n - 1) * d // k for d, k in low), default=0)
    failed = 0
    for P in itertools.islice(places_mod.iter_places(ff, disc_bound + 1), 1, None):
        rd = places_mod.residue_field(P)
        red = Poly(rd.field, [rd.eval_poly(c) for c in cs])
        if red.gcd(red.derivative()).degree == 0:
            lifts = (_newton_lift(cs, dcs, rd.lift(r), P.pi, bound) for r in poly_roots(red))
            return [z for z in lifts if z.degree <= bound and not _eval(cs, z)]
        failed += P.degree
        if failed > disc_bound:
            break
    G = Poly(ff, [ff.from_poly(c) for c in cs])
    g = G.gcd(Poly(ff, [ff.from_poly(c) for c in dcs]))
    assert g.degree > 0
    return (_integral_roots(ff, [c.num for c in (G // g).coeffs])
            + _integral_roots(ff, [c.num for c in g.coeffs]))


def _newton_lift(cs: list, dcs: list, z: Poly, pi: Poly, bound: int) -> Poly:
    """z, a simple root of G = sum cs[i]*z^i modulo pi (dcs: the coefficients
    of G'), lifted by Newton's iteration, the modulus squared each step, until
    the modulus has degree above bound (von zur Gathen-Gerhard, Modern
    Computer Algebra, sections 5.7 and 15)."""
    m, s = pi, xgcd(_eval(dcs, z, pi), pi)[1]  # s = 1/G'(z) modulo m
    while m.degree <= bound:
        m = m * m
        z = (z - _eval(cs, z, m) * s) % m
        if m.degree <= bound:
            s = s * (2 - _eval(dcs, z, m) * s) % m
    return z


def _eval(cs: list, z: Poly, m: Optional[Poly] = None) -> Poly:
    """sum cs[i]*z^i by Horner's rule, reduced modulo m when m is given."""
    acc = Poly.zero(z.dom)
    for c in reversed(cs):
        acc = acc * z + c
        if m is not None:
            acc = acc % m
    return acc
