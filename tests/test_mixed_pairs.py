"""Isomorphic pure/trace pairs built by construction.

If z is not a cube in K = GF(q)(x) and w^3 = z, then y = w + 1/w satisfies
y^3 - 3y = w^3 + 3w + 3/w + w^-3 - 3w - 3/w = z + 1/z.  K(y) lies in K(w),
which has degree 3 over K, and w is a root of W^2 - yW + 1 over K(y), so
[K(w):K(y)] is at most 2 and divides 3: K(y) = K(w), and
``isom(Pure(z), DepressedTrace(z + 1/z))`` must answer
``Isomorphic`` in both argument orders, for every q prime to 3.

The parameters are z = c * prod pi_P^(e_P) over a set T of two or three
places of degree 1, with e_P in {1, 2}, sum e_P = 0 mod 3 (so infinity is
unramified) and c in GF(q)*; no such z is a cube.  The fields are GF(7)(x)
and GF(4)(x), where q = 1 mod 3, and GF(2)(x), GF(5)(x) and GF(8)(x), where
q = 2 mod 3: 300 (of 672), 60, 2, 160 and 300 (of 1,176) seeded
parameters.

The witness c of a mixed pair is a root of X^2 + (z + 1/z)X + 1 that is a
pure parameter of the same field.  Each is checked by substitution, and
z/c or z/c^2 is checked to be a cube from the multiplicities of
``factor_fq`` and a brute-force cube test of the unit, with no package cube
test.
"""
import itertools
import random

import pytest

from cubicext.canon import DepressedTrace, Isomorphic, Pure, isom
from cubicext.ffield import field_make
from cubicext.polyring import factor_fq, func_field

FIELDS = {"GF(7)": (7, 1), "GF(4)": (2, 2), "GF(2)": (2, 1), "GF(5)": (5, 1), "GF(8)": (2, 3)}
CAP = 300


def _parameters(p, m):
    """(K, [z]) for the z of the module docstring over K = GF(p^m)(x)."""
    K = func_field(field_make(p, m))
    F = K.field
    units = [c for c in F.elements() if c]
    lines = [K.x - c for c in F.elements()]
    zs = []
    for size in (2, 3):
        for T in itertools.combinations(lines, size):
            for es in itertools.product((1, 2), repeat=size):
                if sum(es) % 3:
                    continue
                z = K.one
                for pi, e in zip(T, es):
                    z = z * pi ** e
                zs.extend(z * c for c in units)
    if len(zs) > CAP:
        zs = random.Random(p ** m).sample(zs, CAP)
    return K, zs


def _is_cube(r):
    """Whether a rational function r is a cube, from the factorizations of its
    numerator and denominator and a scan of GF(q) for a cube root of its unit."""
    unit, num = factor_fq(r.num)
    _, den = factor_fq(r.den)  # monic
    if any(mult % 3 for _, mult in num + den):
        return False
    return any(u ** 3 == unit for u in r.ff.field.elements())


@pytest.mark.parametrize("name", FIELDS)
def test_pure_and_trace_of_z_plus_its_inverse_are_isomorphic(name):
    K, zs = _parameters(*FIELDS[name])
    assert zs
    for z in zs:
        a = z + 1 / z
        pure, trace = Pure(z), DepressedTrace(a)
        for res in (isom(pure, trace), isom(trace, pure)):
            assert isinstance(res, Isomorphic), (name, z)
            c = res.witness
            assert c * c + a * c + 1 == K.zero, (name, z, c)
            assert _is_cube(z / c) or _is_cube(z / (c * c)), (name, z, c)


def test_the_cube_test_and_the_parameters():
    # Pure(z) must be irreducible for the pair to be a pair of fields
    for name, (p, m) in FIELDS.items():
        K, zs = _parameters(p, m)
        assert not any(_is_cube(z) for z in zs[:40]), name
        assert _is_cube(zs[0] ** 3) and not _is_cube(K.x), name
    K7 = func_field(field_make(7))
    assert _is_cube(K7.x ** 3 * 6) and not _is_cube(K7.x ** 3 * 2)  # GF(7)* cubes: +-1

