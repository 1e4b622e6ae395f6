"""One coefficient representation: a Poly holds its kernel values.

Over a Field the values are counter values, over GF(q)(x) and a PolyRing the
elements themselves; coeffs, lc and coeff(i) wrap on access.  The operators
that run on the values are checked here against oracles that compute on the
wrapped elements with the domain's own operators, and a Poly built from
FieldElems must be the same key as one built by kernel operations.
"""
import ast
import inspect
import random

import pytest

from cubicext import polyring
from cubicext.errors import FieldMismatch
from cubicext.ffield import Field, FieldElem, field_make
from cubicext.places import Place, places_up_to, residue_field
from cubicext.polyring import FuncField, Poly, PolyRing, func_field


# -- the wrap boundary -------------------------------------------------------

def test_poly_and_store_build_no_field_element():
    """Wrapping goes through _Kernel.elem alone."""
    tree = ast.parse(inspect.getsource(polyring))
    scopes = [n for n in tree.body if getattr(n, "name", None) in ("Poly", "_store")]
    assert len(scopes) == 2
    for scope in scopes:
        names = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        assert "FieldElem" not in names, scope.name


def test_poly_slots_are_the_domain_and_the_value_tuple():
    assert Poly.__slots__ == ("dom", "vals")
    F9 = field_make(3, 2)
    f = Poly(F9, [F9.from_value(5), F9.zero, F9.from_value(7), F9.zero])
    assert f.vals == (5, 0, 7)


# -- seeded polynomials over six domains -----------------------------------

def rand_elem(rng, dom):
    if isinstance(dom, Field):
        return dom.from_value(rng.randrange(dom.order))
    if isinstance(dom, FuncField):
        F = dom.field
        num = Poly(F, [rand_elem(rng, F) for _ in range(rng.randrange(3))])
        den = Poly(F, [rand_elem(rng, F) for _ in range(rng.randrange(2))] + [F.one])
        return dom.rat(num, den)
    return Poly(dom.dom, [rand_elem(rng, dom.dom) for _ in range(rng.randrange(3))])


def rand_poly(rng, dom, deg):
    cs = [rand_elem(rng, dom) for _ in range(deg + 1)]
    while cs[-1] == dom.zero:
        cs[-1] = rand_elem(rng, dom)
    return Poly(dom, cs)


def trim(cs, dom):
    cs = list(cs)
    while cs and cs[-1] == dom.zero:
        cs.pop()
    return tuple(cs)


def el_add(a, b, dom):
    n = max(len(a), len(b))
    a, b = list(a) + [dom.zero] * (n - len(a)), list(b) + [dom.zero] * (n - len(b))
    return trim([x + y for x, y in zip(a, b)], dom)


def el_mul(a, b, dom):
    if not a or not b:
        return ()
    out = [dom.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out, dom)


def el_eval(cs, v, dom):
    acc = dom.zero
    for i, c in enumerate(cs):
        acc = acc + c * v ** i
    return acc


DOMAINS = {
    "GF(2)": lambda: field_make(2),
    "GF(7)": lambda: field_make(7),
    "GF(9)": lambda: field_make(3, 2),
    "GF(16)": lambda: field_make(2, 4),
    "GF(5)(x)": lambda: func_field(field_make(5)),
    "GF(5)[x][y]": lambda: PolyRing(field_make(5)),
}


def cases(name, count):
    dom = DOMAINS[name]()
    rng = random.Random(sum(map(ord, name)) * 1000 + count)
    return dom, [rand_poly(rng, dom, rng.randrange(7)) for _ in range(count)], rng


@pytest.mark.parametrize("name", DOMAINS)
def test_coeffs_lc_and_coeff_are_domain_elements(name):
    dom, polys, _ = cases(name, 20)
    for f in polys:
        assert len(f.coeffs) == f.degree + 1 == len(f.vals)
        for c in f.coeffs + (f.lc, f.coeff(0), f.coeff(f.degree + 3)):
            if isinstance(dom, Field):
                assert isinstance(c, FieldElem) and c.field is dom
            else:
                assert isinstance(c, type(dom.zero))
        assert f.lc == f.coeffs[-1] and f.coeff(f.degree + 3) == dom.zero


@pytest.mark.parametrize("name", DOMAINS)
def test_neg_derivative_and_shift_match_elementwise(name):
    dom, polys, rng = cases(name, 25)
    for f in polys:
        cs = f.coeffs
        assert (-f).coeffs == trim([-c for c in cs], dom)
        assert f.derivative().coeffs == trim([c * i for i, c in enumerate(cs)][1:], dom)
        k = rng.randrange(4)
        assert f.shift(k).coeffs == (dom.zero,) * k + cs
        assert -(-f) == f


@pytest.mark.parametrize("name", DOMAINS)
def test_compose_matches_elementwise_horner(name):
    dom, polys, rng = cases(name, 12)
    for f in polys:
        q = rand_poly(rng, dom, rng.randrange(3))
        acc = ()
        for c in reversed(f.coeffs):
            acc = el_add(el_mul(acc, q.coeffs, dom), (c,), dom)
        assert f.compose(q).coeffs == acc


@pytest.mark.parametrize("name", DOMAINS)
def test_evaluation_at_an_element_and_at_an_int(name):
    dom, polys, rng = cases(name, 20)
    for f in polys:
        v = rand_elem(rng, dom)
        got = f(v)
        assert got == el_eval(f.coeffs, v, dom)
        if isinstance(dom, Field):
            assert isinstance(got, FieldElem) and got.field is dom
        n = rng.randrange(-20, 20)
        assert f(n) == el_eval(f.coeffs, dom.from_int(n), dom)


@pytest.mark.parametrize("name", ["GF(2)", "GF(7)", "GF(9)", "GF(16)"])
def test_counter_key_reads_the_values(name):
    dom, polys, _ = cases(name, 25)
    for f in polys:
        assert f.counter_key() == (f.degree, tuple(c.value for c in reversed(f.coeffs)))


@pytest.mark.parametrize("name", DOMAINS)
def test_elements_and_kernel_ops_give_one_key(name):
    dom, polys, _ = cases(name, 20)
    for f in polys:
        rebuilt = Poly(dom, list(f.coeffs) + [dom.zero])
        computed = f * Poly.one(dom) + Poly.zero(dom)
        assert rebuilt == f == computed
        assert hash(rebuilt) == hash(f) == hash(computed)
        assert len({f, rebuilt, computed}) == 1
        assert f + 1 != f


@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_carrier_from_elements_and_from_kernel_ops_share_a_residue_field(pm):
    F = field_make(*pm)
    ff, x = func_field(F), Poly.gen(F)
    for P in places_up_to(ff, 2)[1:]:
        from_elems = Place.finite(Poly(F, [F.from_value(c.value) for c in P.pi.coeffs]))
        from_ops = Place.finite(x ** P.degree + (P.pi - x ** P.degree))
        rd = residue_field(P)
        before = residue_field.cache_info().currsize
        for Q in (from_elems, from_ops):
            assert Q == P and hash(Q) == hash(P)
            assert residue_field(Q) is rd
        assert residue_field.cache_info().currsize == before


# -- an element of another field --------------------------------------------

F7, F49 = field_make(7), field_make(7, 2)
T = F49.gen()


def test_constructor_refuses_another_fields_element():
    with pytest.raises(FieldMismatch):
        Poly(F7, [T, F7.one])


def test_const_refuses_another_fields_element():
    with pytest.raises(FieldMismatch):
        Poly.const(F7, T)


def test_func_field_constant_refuses_another_fields_element():
    with pytest.raises(FieldMismatch):
        func_field(F7).from_elem(T)
