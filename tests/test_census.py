"""A census of small cubic extensions: ``isom`` is an equivalence relation
whose classes agree with the invariants that other code computes.

Three sets of forms over GF(p)(x), each every irreducible form of its family
whose parameter has at most the given height (constants included):

* GF(2), trace forms X^3 + X + a, height <= 2: 31 forms in 25 classes;
* GF(3), char-3 forms X^3 + aX + a^2, height <= 1: 25 forms in 25 classes;
* GF(5), pure forms X^3 - a, height <= 1: 120 forms in 15 classes.

On each set ``isom`` must be reflexive, symmetric and transitive, and
isomorphic forms must share their signatures at every place of degree <= 2,
their genus (or the error that refuses one) and ``is_galois``.  Symmetry is
checked on every ordered pair of the char-3 and pure sets.  A trace-form
``isom`` builds the chord sextic on rational functions, about 4 ms when the
answer is negative, so on the trace set the reversed order is run on every
pair whose forms share their invariants (where those cannot decide the
answer) and on a seeded sample of the others.  Each witness holds (a trace
witness by substitution), and each non-isomorphic pair is separated by a
signature at a place of degree 1.
"""
import itertools
import random
from types import SimpleNamespace

import pytest

from cubicext.arith import Extension, genus, signature
from cubicext.canon import Char3, DepressedTrace, Isomorphic, Pure, is_galois, isom, \
    require_irreducible
from cubicext.errors import CubicExtError, ReducibleInput
from cubicext.ffield import field_make
from cubicext.places import places_up_to
from cubicext.polyring import func_field

SETS = {  # (p, height bound, family): (forms, classes)
    (2, 2, DepressedTrace): (31, 25),
    (3, 1, Char3): (25, 25),
    (5, 1, Pure): (120, 15),
}
REVERSED_SAMPLE = 40  # non-isomorphic trace pairs also run in the reversed order


def set_id(key):
    p, h, family = key
    return f"GF({p})-{family.__name__}-h{h}"


def parameters(p: int, h: int) -> list:
    """Every nonzero a = num/den over GF(p) of height <= h, once each."""
    K = func_field(field_make(p))
    seen, out = set(), []
    for dd in range(h + 1):
        for den in itertools.product(range(p), repeat=dd):
            for num in itertools.product(range(p), repeat=h + 1):
                if any(num):
                    a = K.rat(list(num), list(den) + [1])
                    if (a.num.vals, a.den.vals) not in seen:
                        seen.add((a.num.vals, a.den.vals))
                        out.append(a)
    return out


def irreducible_forms(p: int, h: int, family) -> list:
    out = []
    for a in parameters(p, h):
        form = family(a)
        try:
            require_irreducible(form)
            Extension(form)  # a trace form's a = +-2 is refused here too
        except ReducibleInput:
            continue
        out.append(form)
    return out


def invariants(form, places) -> tuple:
    ext = Extension(form)
    try:
        g = genus(ext)
    except CubicExtError as exc:  # a constant extension has no genus here
        g = type(exc).__name__
    return tuple(signature(ext, P) for P in places), g, is_galois(form)


@pytest.fixture(scope="module", params=sorted(SETS, key=set_id), ids=set_id)
def census(request):
    p, h, family = request.param
    forms = irreducible_forms(p, h, family)
    places = places_up_to(func_field(field_make(p)), 2)
    n = len(forms)
    results = [[None] * n for _ in range(n)]  # isom(forms[i], forms[j]) for i <= j
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        results[i][j] = isom(forms[i], forms[j])
    return SimpleNamespace(key=request.param, forms=forms, results=results, places=places,
                           iso=[[isinstance(r, Isomorphic) for r in row] for row in results],
                           inv=[invariants(f, places) for f in forms])


def test_the_sets_have_their_sizes(census):
    c = census
    assert len(c.forms) == SETS[c.key][0]
    assert len(set(isomorphic_rows(c))) == SETS[c.key][1]


def isomorphic_rows(c) -> list:
    """Row i: the set of j with forms i and j isomorphic."""
    n = len(c.forms)
    return [frozenset(j for j in range(n) if c.iso[min(i, j)][max(i, j)]) for i in range(n)]


def test_isom_is_reflexive(census):
    assert all(census.iso[i][i] for i in range(len(census.forms)))


def test_isom_is_symmetric(census):
    c = census
    pairs = list(itertools.combinations(range(len(c.forms)), 2))
    if c.key[2] is DepressedTrace:
        undecided = [(i, j) for i, j in pairs if c.inv[i] == c.inv[j]]
        rest = [(i, j) for i, j in pairs if c.inv[i] != c.inv[j]]
        pairs = undecided + random.Random(2039).sample(rest, REVERSED_SAMPLE)
    for i, j in pairs:
        got = isinstance(isom(c.forms[j], c.forms[i]), Isomorphic)
        assert got == c.iso[i][j], (c.forms[i], c.forms[j])


def test_isom_is_transitive(census):
    rows = isomorphic_rows(census)
    for i, row in enumerate(rows):
        for j in row:
            assert rows[j] == row, (census.forms[i], census.forms[j])


def test_isomorphic_forms_share_their_invariants(census):
    c = census
    for i, j in itertools.combinations(range(len(c.forms)), 2):
        if c.iso[i][j]:
            assert c.inv[i] == c.inv[j], (c.forms[i], c.forms[j])


def trace_witness_holds(a1, a2, alpha, beta) -> bool:
    """y1 = alpha*y2^2 + beta*y2 - 2*alpha is a root of X^3 - 3X - a1 in
    K[y2]/(y2^3 - 3y2 - a2), computed on coefficient lists."""
    def mul(u, v):
        prod = [a1.ff.zero] * 5
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] = prod[i + j] + x * y
        for k in (4, 3):  # y^k = y^(k-3) * (3y + a2)
            prod[k - 2], prod[k - 3] = prod[k - 2] + 3 * prod[k], prod[k - 3] + a2 * prod[k]
        return prod[:3]
    y1 = [-2 * alpha, beta, alpha]
    value = [u - 3 * v for u, v in zip(mul(mul(y1, y1), y1), y1)]
    return [value[0] - a1] + value[1:] == [0, 0, 0]


def witness_holds(family, a1, a2, witness) -> bool:
    """A trace witness by substitution, a char-3 witness (j, w) by
    a2 = (j*a1^2 + w^3 + a1*w)^2 / a1^3; a pure pair has witness None."""
    if family is DepressedTrace:
        return trace_witness_holds(a1, a2, *witness)
    if family is Char3:
        j, w = witness
        return a2 == (j * a1 * a1 + w ** 3 + a1 * w) ** 2 / a1 ** 3
    return witness is None


def test_witnesses_hold(census):
    c = census
    for i, j in itertools.combinations_with_replacement(range(len(c.forms)), 2):
        if c.iso[i][j]:
            witness = c.results[i][j].witness
            assert witness_holds(c.key[2], c.forms[i].a, c.forms[j].a, witness), (i, j)


def test_a_place_of_degree_one_separates_each_non_isomorphic_pair(census):
    c = census
    low = [k for k, P in enumerate(c.places) if P.degree <= 1]
    for i, j in itertools.combinations(range(len(c.forms)), 2):
        if not c.iso[i][j]:
            assert any(c.inv[i][0][k] != c.inv[j][0][k] for k in low), (c.forms[i], c.forms[j])
