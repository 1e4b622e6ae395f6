"""Decomposition of cubic polynomials over finite fields.

A monic cubic over GF(s) lands in exactly one of five bins:

* ``Irreducible``     no roots in GF(s);
* ``LinTimesQuad``    one simple root times an irreducible quadratic;
* ``ThreeDistinct``   three distinct roots in GF(s);
* ``LinTimesSquare``  a simple root times the square of another linear factor;
* ``Triple``          one root of multiplicity three.

``decompose_pure``, ``decompose_depressed`` and ``decompose_char3`` classify
the three canonical one-parameter families and take every witness root from a
closed form, with no general factorizer: the cube roots of a (pure);
y = c + 1/c over the cube roots c of a root w of W^2 - aW + 1, in GF(s) or in
the norm-1 torus of GF(s^2) (trace form); one GF(3)-linear solve
(characteristic 3).  Cube roots come from ``ffield._cube_roots``
(Adleman-Manders-Miller).  ``decompose_any`` accepts an arbitrary monic cubic
(or an already-reduced canonical shape), reduces it, and transports the
witnesses back through the inverse fractional-linear substitution.

``brute_factor`` is an independent oracle: it scans every field element and
never consults the criteria.  Keep it dumb; the tests rely on that.
"""

from dataclasses import dataclass
from typing import ClassVar, Tuple, Union

from .canon import (
    Char3,
    Cubic,
    DepressedTrace,
    FracLinear,
    InseparablePure,
    Pure,
    Reducible,
    reduce_cubic,
)
from .errors import SizeExceeded, WrongCharacteristic, WrongFieldClass
from .ffield import (
    Cube,
    Field,
    FieldElem,
    NonSquare,
    _cube_roots,
    _solve_additive,
    _solve_quadratic,
    cube_classify,
    square_classify,
)

BRUTE_LIMIT = 1 << 16


# ---------------------------------------------------------------------------
# outcome types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Irreducible:
    kind: ClassVar[str] = "irreducible"


@dataclass(frozen=True)
class LinTimesQuad:
    """(X - root) * (X^2 + quad[0]*X + quad[1]), the quadratic irreducible."""

    root: FieldElem
    quad: Tuple[FieldElem, FieldElem]
    kind: ClassVar[str] = "linear_times_quadratic"


@dataclass(frozen=True)
class ThreeDistinct:
    roots: Tuple[FieldElem, FieldElem, FieldElem]  # ascending
    kind: ClassVar[str] = "three_distinct"


@dataclass(frozen=True)
class LinTimesSquare:
    """(X - simple) * (X - double)^2 with simple != double."""

    simple: FieldElem
    double: FieldElem
    kind: ClassVar[str] = "linear_times_square"


@dataclass(frozen=True)
class Triple:
    root: FieldElem
    kind: ClassVar[str] = "triple"


Decomp = Union[Irreducible, LinTimesQuad, ThreeDistinct, LinTimesSquare, Triple]


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _require_finite(F) -> Field:
    if not isinstance(F, Field):
        raise WrongFieldClass("decomposition types are defined over a finite field")
    return F


def _cofactor(c: Cubic, r: FieldElem) -> Tuple[FieldElem, FieldElem]:
    """Quadratic cofactor of a known root: c = (X - r)(X^2 + bX + cc)."""
    assert c(r).is_zero()
    b = c.e + r
    return (b, c.f + r * b)


def _from_roots(c: Cubic, roots: list) -> Decomp:
    """The bin of a separable cubic from all its roots in GF(s): 0, 1 or 3."""
    if not roots:
        return Irreducible()
    if len(roots) == 1:
        return LinTimesQuad(roots[0], _cofactor(c, roots[0]))
    assert len(roots) == 3, "a separable cubic has 0, 1 or 3 roots"
    return ThreeDistinct(tuple(sorted(roots)))


def _torus_roots(F: Field, a: FieldElem) -> list:
    """Tr(c) for every cube root c of W in GF(s)[W]/(W^2 - aW + 1), the
    quadratic irreducible.

    Elements are pairs (c0, c1) = c0 + c1 W with W^2 = aW - 1, and
    Tr(c) = 2 c0 + a c1.  W has norm 1, so it and its cube roots lie in the
    cyclic torus T of order n = s + 1.  3 not dividing n: cubing is a
    bijection on T, c = W^(3^-1 mod n).  3 | n: W is a cube iff
    W^(n/3) = 1, and then _cube_roots runs on T with the non-cube
    z = (delta + W)^(s-1) for the least delta with z^(n/3) != 1.
    """
    n = F.order + 1
    one = (F.one, F.zero)

    def mul(u, v):
        x = u[1] * v[1]
        return (u[0] * v[0] - x, u[0] * v[1] + u[1] * v[0] + a * x)

    def pw(u, e):
        acc = one
        while e:
            if e & 1:
                acc = mul(acc, u)
            u = mul(u, u)
            e >>= 1
        return acc

    W = (F.zero, F.one)
    if n % 3:
        cs = [pw(W, pow(3, -1, n))]
    elif pw(W, n // 3) != one:
        return []
    else:
        zs = (pw((delta, F.one), n - 2) for delta in F.elements())
        z = next(z for z in zs if pw(z, n // 3) != one)
        cs = _cube_roots(W, z, n, mul, pw, one)
    return [2 * c0 + a * c1 for c0, c1 in cs]


# ---------------------------------------------------------------------------
# the brute oracle
# ---------------------------------------------------------------------------

def brute_factor(c: Cubic) -> Decomp:
    """Classify by scanning the whole field.  Independent of every criterion.

    Refuses fields above 2^16 elements; the scan is the point, so there is no
    clever fallback.
    """
    F = _require_finite(c.base)
    if F.order > BRUTE_LIMIT:
        raise SizeExceeded(f"brute_factor scans the field; |F| = {F.order} > {BRUTE_LIMIT}")
    roots = []
    for x in F.elements():
        if c(x).is_zero():
            roots.append(x)
    if not roots:
        return Irreducible()
    # multiplicities by repeated synthetic division
    mults = []
    for r in roots:
        e1 = c.e + r
        f1 = c.f + r * e1
        # cofactor X^2 + e1 X + f1; r is a double root iff it kills the cofactor
        m = 1
        if (r * (r + e1) + f1).is_zero():
            m = 2
            if (r + r + e1).is_zero():  # cofactor = (X - r)^2
                m = 3
        mults.append(m)
    total = sum(mults)
    if total == 1:
        return LinTimesQuad(roots[0], _cofactor(c, roots[0]))
    assert total == 3, "a cubic root count off the scan must be 1 or 3"
    if len(roots) == 3:
        return ThreeDistinct(tuple(roots))
    if len(roots) == 1:
        return Triple(roots[0])
    simple, double = (roots[0], roots[1]) if mults[0] == 1 else (roots[1], roots[0])
    return LinTimesSquare(simple=simple, double=double)


# ---------------------------------------------------------------------------
# canonical families
# ---------------------------------------------------------------------------

def decompose_pure(a: FieldElem) -> Decomp:
    """X^3 - a over GF(s), p != 3.

    a = 0 is the triple root; s = 2 mod 3 makes cubing a bijection (one root,
    irreducible quadratic cofactor); s = 1 mod 3 is decided by the cube
    character of a.
    """
    F = _require_finite(a.field)
    if F.p == 3:
        raise WrongCharacteristic("X^3 - a is inseparable in characteristic 3")
    if a.is_zero():
        return Triple(F.zero)
    if F.order % 3 == 2:
        r = cube_classify(a).roots[0]
        return LinTimesQuad(r, (r, r * r))
    out = cube_classify(a)
    if isinstance(out, Cube):
        return ThreeDistinct(out.roots)
    return Irreducible()


def decompose_depressed(a: FieldElem) -> Decomp:
    """X^3 - 3X - a over GF(s), p != 3.

    a = +-2 (odd p) and a = 0 (p = 2) are the square cases.  Otherwise the
    cubic is separable and its roots are exactly y = c + 1/c over the c with
    c^3 = w, w a root of W^2 - aW + 1 (then y^3 - 3y = w + 1/w = a).  When w
    lies in GF(s) the c are its cube roots from cube_classify: one for
    s = 2 mod 3, three or none for s = 1 mod 3.  Otherwise w lies in the
    norm-1 torus of GF(s^2), where 1/c is the conjugate of c and y = Tr(c)
    (_torus_roots).  One root leaves an irreducible quadratic cofactor.
    """
    F = _require_finite(a.field)
    if F.p == 3:
        raise WrongCharacteristic("X^3 - 3X - a degenerates to a pure cubic in characteristic 3")
    if F.p == 2:
        if a.is_zero():
            return LinTimesSquare(simple=F.zero, double=F.one)
    else:
        two = F.from_int(2)
        if a == two:
            return LinTimesSquare(simple=two, double=-F.one)
        if a == -two:
            return LinTimesSquare(simple=-two, double=F.one)
    ws = _solve_quadratic(F, -a, F.one)
    if ws:
        cube = cube_classify(ws[0])
        roots = [c + c.inverse() for c in cube.roots] if isinstance(cube, Cube) else []
    else:
        roots = _torus_roots(F, a)
    return _from_roots(Cubic(F.zero, F.from_int(-3), -a), roots)


def decompose_char3(a: FieldElem) -> Decomp:
    """X^3 + aX + a^2 over GF(3^m).

    a = 0 is the triple root.  Otherwise X -> X^3 + aX is GF(3)-linear with
    kernel 0 and the square roots of -a, so one linear solve of
    X^3 + aX = -a^2 finds a root r or shows there is none.  If -a = b^2 the
    roots are r, r + b and r - b; if -a is a non-square the map is a
    bijection and r is the only root.  A square factor never appears.
    """
    F = _require_finite(a.field)
    if F.p != 3:
        raise WrongCharacteristic("X^3 + aX + a^2 is the characteristic-3 family")
    if a.is_zero():
        return Triple(F.zero)
    r = _solve_additive(F, lambda x: x ** 3 + a * x, -(a * a))
    if r is None:
        return Irreducible()
    sq = square_classify(-a)
    roots = [r] if isinstance(sq, NonSquare) else [r, r + sq.roots[0], r - sq.roots[0]]
    return _from_roots(Cubic(F.zero, a, a * a), roots)


# ---------------------------------------------------------------------------
# arbitrary cubics
# ---------------------------------------------------------------------------

_SHAPES = (Pure, DepressedTrace, Char3, InseparablePure, Reducible)


def decompose_any(c) -> Decomp:
    """Classify a monic cubic (or pre-reduced canonical shape) over GF(s).

    Reduction happens in a fractional-linear coordinate; the substitution is
    invertible away from its pole, and no witness root can sit on the pole
    (the pole's image under the forward map is the image of infinity, which
    is never a root of the reduced cubic).  So witnesses transport back
    exactly.
    """
    if isinstance(c, Cubic):
        F = _require_finite(c.base)
        shape, mob = reduce_cubic(c)
        orig = c
    elif isinstance(c, _SHAPES):
        F = _require_finite(c.base)
        shape, mob = c, FracLinear.identity(c.base)
        orig = c.cubic()
    else:
        raise TypeError(f"expected a cubic or canonical shape, got {type(c).__name__}")
    if isinstance(shape, Reducible):
        return _decompose_reducible(shape)
    if isinstance(shape, InseparablePure):
        # X^3 - a in characteristic 3: the Frobenius is surjective, so this
        # is always a triple root
        r = cube_classify(shape.a).roots[0]
        return _transport(Triple(r), mob, orig)
    if isinstance(shape, Pure):
        d = decompose_pure(shape.a)
    elif isinstance(shape, DepressedTrace):
        d = decompose_depressed(shape.a)
    else:
        d = decompose_char3(shape.a)
    return _transport(d, mob, orig)


def _decompose_reducible(shape: Reducible) -> Decomp:
    F = shape.base
    r = shape.root
    b, cc = shape.quad
    qroots = _solve_quadratic(F, b, cc)
    if not qroots:
        return LinTimesQuad(r, (b, cc))
    if len(qroots) == 1:
        u = qroots[0]
        if u == r:
            return Triple(r)
        return LinTimesSquare(simple=r, double=u)
    u, v = qroots
    if r == u:
        return LinTimesSquare(simple=v, double=r)
    if r == v:
        return LinTimesSquare(simple=u, double=r)
    return ThreeDistinct(tuple(sorted((r, u, v))))


def _transport(d: Decomp, mob: FracLinear, orig: Cubic) -> Decomp:
    if mob.is_identity() or isinstance(d, Irreducible):
        return d
    inv = mob.inverse()

    def pull(z: FieldElem) -> FieldElem:
        y = inv.apply(z)
        assert orig(y).is_zero(), "transported witness must be a root"
        return y

    if isinstance(d, LinTimesQuad):
        r = pull(d.root)
        return LinTimesQuad(r, _cofactor(orig, r))
    if isinstance(d, ThreeDistinct):
        return ThreeDistinct(tuple(sorted(pull(z) for z in d.roots)))
    if isinstance(d, LinTimesSquare):
        return LinTimesSquare(simple=pull(d.simple), double=pull(d.double))
    return Triple(pull(d.root))
