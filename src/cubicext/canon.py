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

reduce_cubic and the map normalization run on the base's ffield._Kernel, on
counter values over GF(q) and on RatFuncs over GF(q)(x); values are wrapped
only in the returned shape and map entries.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (DegenerateParameter, DomainMismatch, FieldMismatch,
                     PoleHit, ReducibleInput, SingularMatrix,
                     WrongCharacteristic, WrongFieldClass)
from .ffield import Field, FieldElem, NonCube, NonSquare, _kernel, cube_classify, square_classify
from .polyring import (FuncField, Poly, RatFunc, _distinct_degree, _pth_root_poly,
                       _squarefree_decomposition, poly_roots, quadratic_roots, xgcd)
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

@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Pure:
    a: Value

    @property
    def base(self):
        return base_of(self.a)

    def cubic(self) -> Cubic:
        b = self.base
        return Cubic(b.zero, b.zero, -self.a)


@dataclass(frozen=True)
class DepressedTrace:
    a: Value

    @property
    def base(self):
        return base_of(self.a)

    def cubic(self) -> Cubic:
        b = self.base
        return Cubic(b.zero, b.from_int(-3), -self.a)


@dataclass(frozen=True)
class Char3:
    a: Value

    @property
    def base(self):
        return base_of(self.a)

    def cubic(self) -> Cubic:
        b = self.base
        return Cubic(b.zero, self.a, self.a * self.a)


@dataclass(frozen=True)
class InseparablePure:
    a: Value

    @property
    def base(self):
        return base_of(self.a)

    def cubic(self) -> Cubic:
        b = self.base
        return Cubic(b.zero, b.zero, -self.a)


@dataclass(frozen=True)
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


# ---------------------------------------------------------------------------
# fractional-linear maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FracLinear:
    m00: Value
    m01: Value
    m10: Value
    m11: Value

    def __post_init__(self):
        K = _kernel(base_of(self.m00))
        m00, m01, m10, m11 = ms = [K.value(m) for m in self.entries()]
        if not K.sub(K.mul(m00, m11), K.mul(m01, m10)):
            raise SingularMatrix("zero determinant")
        pivot = next(m for m in ms if m)
        if pivot != K.one:
            inv = K.inv(pivot)
            for name, m in zip(("m00", "m01", "m10", "m11"), ms):
                object.__setattr__(self, name, K.elem(K.mul(m, inv)))

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
    b = T.base
    ident = FracLinear.identity(b)
    if not T.g:
        return Reducible(b.zero, (T.e, T.f)), ident
    K = _kernel(b)
    e, f, g = K.value(T.e), K.value(T.f), K.value(T.g)
    if char_of(b) == 3:
        return _reduce_char3(K, e, f, g, ident)
    add, sub, mul, n = K.add, K.sub, K.mul, K.of_int
    g2, f2 = mul(g, g), mul(f, f)
    f3, efg, g27 = mul(f2, f), mul(mul(e, f), g), mul(n(27), g2)
    # a detected rational root ends the reduction
    t = sub(add(g27, mul(n(2), f3)), mul(n(9), efg))
    if not t:
        r = mul(mul(n(-3), g), K.inv(f))  # f != 0 here, else g would be 0
        er = add(e, r)
        return Reducible(K.elem(r), (K.elem(er), K.elem(add(f, mul(r, er))))), ident
    if not e and f == n(-3):
        return DepressedTrace(K.elem(sub(K.zero, g))), ident
    eg3 = mul(n(3), mul(e, g))
    if eg3 == f2:
        a = mul(mul(g27, g), K.inv(sub(f3, g27)))
        g3 = K.elem(mul(n(3), g))
        return Pure(K.elem(a)), FracLinear(g3, T.f, b.zero, g3)
    d = sub(eg3, f2)
    a = sub(n(-2), mul(mul(t, t), K.inv(mul(mul(d, d), d))))
    gd3 = K.elem(mul(mul(n(3), g), d))
    return DepressedTrace(K.elem(a)), FracLinear(
        gd3, K.elem(mul(f, d)), gd3, K.elem(sub(add(f3, g27), mul(n(6), efg))))


def _reduce_char3(K, e, f, g, ident):
    b, mul = K.dom, K.mul
    e2, f2 = mul(e, e), mul(f, f)
    e3 = mul(e2, e)
    n = K.sub(K.add(mul(g, e3), mul(f2, f)), mul(f2, e2))  # g e^3 + f^3 - f^2 e^2
    if e and not n:
        r = mul(f, K.inv(e))
        er = K.add(e, r)
        return Reducible(K.elem(r), (K.elem(er), K.elem(K.add(f, mul(r, er))))), ident
    if not e and not f:
        return InseparablePure(K.elem(K.sub(K.zero, g))), ident
    if not e:
        a = mul(mul(g, g), K.inv(mul(f2, f)))
        return Char3(K.elem(a)), FracLinear(b.one, b.zero, b.zero,
                                            K.elem(mul(g, K.inv(f2))))
    e4, a = mul(e2, e2), mul(n, K.inv(mul(e3, e3)))
    return Char3(K.elem(a)), FracLinear(K.elem(K.sub(K.zero, mul(f, e4))),
                                        K.elem(mul(e4, e)), K.elem(n), b.zero)


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
    den: None unless n divides every multiplicity e, else prod g^(e/n)."""
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
    """Whether the (assumed irreducible) canonical cubic is Galois over its base."""
    base = shape.base
    p = char_of(base)
    if isinstance(shape, Reducible):
        raise ReducibleInput("Galois test expects an irreducible cubic")
    if isinstance(shape, InseparablePure):
        return False
    if isinstance(shape, Pure):
        q = base.order if isinstance(base, Field) else base.field.order
        return q % 3 == 1
    if isinstance(shape, Char3):
        return _power_root_in(base, -shape.a, 2) is not None
    # DepressedTrace
    a = shape.a
    if p != 2:
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

@dataclass(frozen=True)
class Isomorphic:
    witness: tuple


@dataclass(frozen=True)
class NotIsomorphic:
    witness: Optional[object]  # a separating Place when one was found


@dataclass(frozen=True)
class Unknown:
    """No isom_* decision returns this: they decide every pair.  It stays
    because callers (the tests among them) import it."""


IsomResult = Union[Isomorphic, NotIsomorphic]


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
    """Scan places for differing splitting signatures.  Place or None."""
    from . import arith
    e1 = arith.Extension(shape1)
    e2 = arith.Extension(shape2)
    places = places_mod.iter_places(shape1.base, max(1, min(search_bound, 4)))
    for P in itertools.islice(places, SEPARATION_PLACE_BUDGET):
        if arith.signature(e1, P) != arith.signature(e2, P):
            return P
    return None


def isom_depressed(a1: Value, a2: Value, search_bound: int = 6) -> IsomResult:
    """Decide K(y1) = K(y2) for y_i^3 - 3y_i = a_i (both irreducible).

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
    base = base_of(a1)
    if base is not base_of(a2):
        raise FieldMismatch("parameters live over different bases")
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
    if isinstance(base, Field):
        return NotIsomorphic(None)
    sep = _separate_by_signature(DepressedTrace(a1), DepressedTrace(a2), search_bound)
    return NotIsomorphic(sep)


def isom_char3(a1: Value, a2: Value, search_bound: int = 6) -> IsomResult:
    """Decide K(y1) = K(y2) for y_i^3 + a_i y_i + a_i^2 = 0 (both irreducible).

    A witness is (j, w), j in {1, 2}: a2 = (j*a1^2 + w^3 + a1*w)^2 / a1^3.
    It exists iff a1^3*a2 = s^2 for some s in the base and
    w^3 + a1*w + j*a1^2 - s or w^3 + a1*w + j*a1^2 + s has a root w there.
    The least witness, j first and then w in value_key order, is returned;
    search_bound bounds the certificate scan as in isom_depressed.
    """
    base = base_of(a1)
    if base is not base_of(a2):
        raise FieldMismatch("parameters live over different bases")
    if not a1 or not a2:
        raise ReducibleInput("char-3 parameter 0")
    s = _power_root_in(base, a1 ** 3 * a2, 2)
    if s is not None:
        for j in (1, 2):
            ws = [w for c in (j * a1 * a1 - s, j * a1 * a1 + s)
                  for w in _roots_in(base, (c, a1, base.zero, base.one))
                  if _char3_witness_ok(a1, a2, j, w)]
            if ws:
                return Isomorphic((j, min(ws, key=value_key)))
    if isinstance(base, Field):
        return NotIsomorphic(None)
    return NotIsomorphic(_separate_by_signature(Char3(a1), Char3(a2), search_bound))


# ---------------------------------------------------------------------------
# roots in the base
# ---------------------------------------------------------------------------

def has_rational_root(shape: CanonicalCubic) -> Optional[Value]:
    """The least root (in value_key order) of the canonical cubic in its
    base, or None.

    Pure shapes over GF(q)(x) go through the global cube test, which reads
    the squarefree decompositions of a's numerator and denominator and
    factors nothing; every other shape through _roots_in.  The shortcut is
    kept for speed: on the 212 pure parameters of the kx-arith benchmark
    deck (seed 999) the cube test takes about 8 ms in all and _roots_in
    about 185 ms (best of 7 and of 3, 2-core x86-64, Python 3.11).
    """
    if isinstance(shape, Reducible):
        return shape.root
    base = shape.base
    if isinstance(shape, (Pure, InseparablePure)) and not isinstance(base, Field):
        return global_cube_test(shape.a)
    roots = _roots_in(base, shape.cubic().as_poly().coeffs)
    return roots[0] if roots else None


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
