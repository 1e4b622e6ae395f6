"""Command-line front end.

Subcommands: classify, factor, isom, galois, splitting, genus, constant.
Expressions use a tiny arithmetic grammar over the tokens
``0-9  x  t  X  + - * / ^  ( )``; ``X`` is the defining variable of the
cubic, ``x`` the rational-function variable, ``t`` the generator of GF(p^m)
when m > 1.  No unary minus: write ``0-...`` or fold the sign into the
constant.  ``^`` takes a nonnegative integer literal.

Base-field selection: classify, isom and galois work over GF(q) unless the
source mentions ``x``, in which case they work over GF(q)(x); factor is
finite-field only; splitting, genus and constant always work over GF(q)(x).

Exit codes: 0 success; 2 for anything the parser rejects (including a bad
--field); 3 for a violated mathematical precondition (reducible input,
constant-field extension, wrong characteristic, ...); 4 when a size bound is
exceeded.  Errors go to stderr -- in JSON mode as a machine-readable object
-- and nothing is written to stdout on failure.
"""

import argparse
import json
import sys
from typing import List, Optional, Tuple

from . import arith, canon, ffcubic
from .canon import Char3, Cubic, DepressedTrace, FracLinear, InseparablePure, Pure, Reducible
from .errors import CubicExtError, DegreeError, NotPrime, ParseError, SizeExceeded, UnboundSymbol
from .ffield import Field, FieldElem, field_make
from .places import places_up_to
from .polyring import FACTOR_DEGREE_LIMIT, Poly, RatFunc, func_field

_PARSE_ERRORS = (ParseError, DegreeError, UnboundSymbol, NotPrime)


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------

def parse_field_spec(text: str) -> Field:
    """``"p"`` or ``"p^m"`` -> GF(p^m)."""
    parts = text.split("^")
    try:
        if len(parts) == 1:
            p, m = int(parts[0]), 1
        elif len(parts) == 2:
            p, m = int(parts[0]), int(parts[1])
        else:
            raise ValueError
        if p < 2 or m < 1:
            raise ValueError
    except ValueError:
        raise ParseError(f"bad field spec {text!r}: expected p or p^m",
                         position=0) from None
    return field_make(p, m)


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def tokenize(source: str) -> List[Tuple[str, object, int]]:
    """(kind, value, position) triples; kinds: int, sym, op, end."""
    out = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            out.append(("int", int(source[i:j]), i))
            i = j
            continue
        if c in "xtX":
            out.append(("sym", c, i))
            i += 1
            continue
        if c in _OPS:
            out.append(("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", position=i)
    out.append(("end", None, n))
    return out


def parse_ast(source: str):
    """Source text -> AST of ("int", n) / ("sym", s) / (op, left, right) nodes."""
    toks = tokenize(source)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def advance():
        pos[0] += 1
        return toks[pos[0] - 1]

    def expect_op(ch):
        kind, val, at = peek()
        if kind != "op" or val != ch:
            raise ParseError(f"expected {ch!r}", position=at)
        advance()

    def base():
        kind, val, at = peek()
        if kind == "int":
            advance()
            return ("int", val)
        if kind == "sym":
            advance()
            return ("sym", val)
        if kind == "op" and val == "(":
            advance()
            node = expr()
            expect_op(")")
            return node
        raise ParseError("expected an integer, symbol, or parenthesis", position=at)

    def factor():
        node = base()
        kind, val, at = peek()
        if kind == "op" and val == "^":
            advance()
            kind, val, at = peek()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", position=at)
            advance()
            node = ("^", node, ("int", val))
        return node

    def term():
        node = factor()
        while True:
            kind, val, _ = peek()
            if kind == "op" and val in "*/":
                advance()
                node = (val, node, factor())
            else:
                return node

    def expr():
        node = term()
        while True:
            kind, val, _ = peek()
            if kind == "op" and val in "+-":
                advance()
                node = (val, node, term())
            else:
                return node

    node = expr()
    kind, _, at = peek()
    if kind != "end":
        raise ParseError("trailing input", position=at)
    return node


def render_ast(node) -> str:
    """Fully parenthesized text that reparses to an equal AST."""
    tag = node[0]
    if tag == "int":
        return str(node[1])
    if tag == "sym":
        return node[1]
    if tag == "^":
        base = render_ast(node[1])
        if node[1][0] == "^":  # powers do not chain in the grammar
            base = f"({base})"
        return f"{base}^{node[2][1]}"
    return f"({render_ast(node[1])}{tag}{render_ast(node[2])})"


class _Scope:
    """Evaluation environment: scalars of `dom`, X as a formal variable."""

    def __init__(self, dom, allow_cap: bool):
        self.dom = dom          # Field or FuncField
        self.field = dom if isinstance(dom, Field) else dom.field
        self.allow_cap = allow_cap

    def scalar(self, n: int) -> Poly:
        return Poly.const(self.dom, self.dom.from_int(n))

    def symbol(self, s: str) -> Poly:
        if s == "X":
            if not self.allow_cap:
                raise UnboundSymbol("X is only meaningful in a cubic")
            return Poly(self.dom, (self.dom.zero, self.dom.one))
        if s == "x":
            if isinstance(self.dom, Field):
                raise UnboundSymbol("x needs a rational function field; this command is over GF(q)")
            return Poly.const(self.dom, self.dom.x)
        # s == "t"
        if self.field.m == 1:
            raise UnboundSymbol(f"t needs GF(p^m) with m > 1; the field is GF({self.field.p})")
        gen = self.field.gen()
        if isinstance(self.dom, Field):
            return Poly.const(self.dom, gen)
        return Poly.const(self.dom, self.dom.from_elem(gen))


def eval_ast(node, scope: _Scope) -> Poly:
    """AST -> polynomial in X over the scope's scalars."""
    tag = node[0]
    if tag == "int":
        return scope.scalar(node[1])
    if tag == "sym":
        return scope.symbol(node[1])
    if tag == "^":
        base, e = eval_ast(node[1], scope), node[2][1]
        # the power multiplies the degree in X and the height in x by e
        size = max([base.degree] + [c.height for c in base.coeffs if isinstance(c, RatFunc)])
        if e * size > FACTOR_DEGREE_LIMIT:
            raise SizeExceeded(f"a power of degree or height {e * size} exceeds {FACTOR_DEGREE_LIMIT}")
        return base ** e
    lhs = eval_ast(node[1], scope)
    rhs = eval_ast(node[2], scope)
    if tag == "+":
        return lhs + rhs
    if tag == "-":
        return lhs - rhs
    if tag == "*":
        return lhs * rhs
    # division: only by something free of X
    if rhs.degree > 0:
        raise DegreeError("X may not appear in a denominator")
    c = rhs.coeff(0)
    if isinstance(c, FieldElem):
        inv = c.inverse()
    else:
        inv = c.ff.one / c
    return lhs * Poly.const(scope.dom, inv)


def _choose_dom(field: Field, sources: Tuple[str, ...]):
    if any("x" in s for s in sources):
        return func_field(field)
    return field


def parse_cubic(source: str, dom) -> Cubic:
    """Cubic-in-X mode: degree exactly 3 after dividing by the lead."""
    f = eval_ast(parse_ast(source), _Scope(dom, allow_cap=True))
    if f.degree != 3:
        raise DegreeError(f"expected a cubic in X, got degree {f.degree}")
    f = f.monic()
    return Cubic(f.coeff(2), f.coeff(1), f.coeff(0))


def parse_element(source: str, dom):
    """A single scalar of dom: a field element over GF(q), where x is
    unbound, or a rational function over GF(q)(x)."""
    f = eval_ast(parse_ast(source), _Scope(dom, allow_cap=False))
    assert f.degree <= 0
    return f.coeff(0)


parse_ratfunc = parse_element


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_map(mob: FracLinear) -> dict:
    m00, m01, m10, m11 = mob.entries()
    return {"m00": m00.render(), "m01": m01.render(),
            "m10": m10.render(), "m11": m11.render()}


_FORM_NAMES = {
    Pure: "pure",
    DepressedTrace: "depressed",
    Char3: "char3",
    InseparablePure: "inseparable_pure",
    Reducible: "reducible",
}


def _shape_result(shape, mob: FracLinear, base) -> dict:
    out = {"form": _FORM_NAMES[type(shape)]}
    if isinstance(shape, Reducible):
        out["root"] = shape.root.render()
        out["quad"] = [shape.quad[0].render(), shape.quad[1].render()]
    else:
        out["a"] = shape.a.render()
    out["map"] = _render_map(mob)
    out["base"] = repr(base) if isinstance(base, Field) else f"{base.field!r}(x)"
    return out


def _decomp_result(d: ffcubic.Decomp) -> dict:
    out = {"kind": d.kind}
    if isinstance(d, ffcubic.LinTimesQuad):
        out["root"] = d.root.render()
        out["quad"] = [d.quad[0].render(), d.quad[1].render()]
    elif isinstance(d, ffcubic.ThreeDistinct):
        out["roots"] = [r.render() for r in d.roots]
    elif isinstance(d, ffcubic.LinTimesSquare):
        out["simple"] = d.simple.render()
        out["double"] = d.double.render()
    elif isinstance(d, ffcubic.Triple):
        out["root"] = d.root.render()
    return out


def _text_lines(obj, indent="") -> List[str]:
    """Key/value lines for the text renderer; lists of rows become tables."""
    lines = []
    for key, val in obj.items():
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_text_lines(val, indent + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{indent}{key}:")
            for row in val:
                cells = "  ".join(f"{k}={v}" for k, v in row.items())
                lines.append(f"{indent}  {cells}")
        elif isinstance(val, list):
            lines.append(f"{indent}{key}: {', '.join(str(v) for v in val)}")
        else:
            lines.append(f"{indent}{key}: {val}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> dict:
    field = parse_field_spec(args.field)
    dom = _choose_dom(field, (args.cubic,))
    cubic = parse_cubic(args.cubic, dom)
    shape, mob = canon.reduce_cubic(cubic)
    return _shape_result(shape, mob, dom)


def _cmd_factor(args) -> dict:
    field = parse_field_spec(args.field)
    cubic = parse_cubic(args.cubic, field)
    return _decomp_result(ffcubic.decompose_any(cubic))


def _witness_json(res) -> Optional[dict]:
    if not isinstance(res, canon.Isomorphic):
        return None
    w = res.witness
    if isinstance(w, tuple) and len(w) == 2 and isinstance(w[0], int):
        return {"j": w[0], "w": w[1].render()}
    if isinstance(w, tuple) and len(w) == 2:
        return {"alpha": w[0].render(), "beta": w[1].render()}
    if w is None:
        return {}
    return {"value": w.render()}


def _cmd_isom(args) -> dict:
    field = parse_field_spec(args.field)
    dom = _choose_dom(field, (args.cubic1, args.cubic2))
    s1, _ = canon.reduce_cubic(parse_cubic(args.cubic1, dom))
    s2, _ = canon.reduce_cubic(parse_cubic(args.cubic2, dom))
    res = canon.isom(s1, s2, search_bound=args.bound)
    return {"form1": _FORM_NAMES[type(s1)], "form2": _FORM_NAMES[type(s2)],
            "isomorphic": isinstance(res, canon.Isomorphic), "witness": _witness_json(res)}


def _is_shanks_shape(cubic: Cubic) -> bool:
    one = cubic.base.one
    if cubic.g != one:
        return False
    return cubic.f == -(cubic.e + 3 * one)


def _cmd_galois(args) -> dict:
    field = parse_field_spec(args.field)
    dom = _choose_dom(field, (args.cubic,))
    cubic = parse_cubic(args.cubic, dom)
    shape, _ = canon.reduce_cubic(cubic)
    canon.require_irreducible(shape)
    out = {"form": _FORM_NAMES[type(shape)], "galois": canon.is_galois(shape)}
    if _is_shanks_shape(cubic) and field.p != 3:
        dep, _ = canon.shanks_to_canonical(cubic.e)
        out["shanks"] = {"parameter": cubic.e.render(),
                         "canonical_a": dep.a.render()}
    else:
        out["shanks"] = None
    return out


def _extension_of(args, source: str) -> Tuple[arith.Extension, dict]:
    field = parse_field_spec(args.field)
    ff = func_field(field)
    cubic = parse_cubic(source, ff)
    shape, _ = canon.reduce_cubic(cubic)
    if not isinstance(shape, InseparablePure):  # Extension rejects it instead
        canon.require_irreducible(shape)
    ext = arith.Extension(shape)
    head = {"form": _FORM_NAMES[type(shape)], "a": shape.a.render()}
    return ext, head


def _cmd_splitting(args) -> dict:
    ext, head = _extension_of(args, args.cubic)
    rows = []
    for P in places_up_to(ext.ff, args.max_degree):
        sig = arith.signature(ext, P)
        rows.append({"place": P.render(), "degree": P.degree, "signature": sig.render()})
    head["places"] = rows
    return head


def _cmd_genus(args) -> dict:
    ext, head = _extension_of(args, args.cubic)
    g = arith.genus(ext)
    rep = arith.ramification_report(ext)
    head["genus"] = g
    head["fully_ramified"] = [{"place": P.render(), "d": d} for P, d in rep.fully_ramified]
    head["partially_ramified"] = [{"place": P.render(), "d": d}
                                  for P, d in rep.partially_ramified]
    return head


def _cmd_constant(args) -> dict:
    ext, head = _extension_of(args, args.cubic)
    res = arith.is_constant_extension(ext)
    if isinstance(res, arith.Constant):
        head["constant"] = True
        head["unit"] = res.unit.render() if res.unit is not None else None
        head["certificate"] = None
    else:
        head["constant"] = False
        head["unit"] = None
        head["certificate"] = res.certificate.render()
    return head


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "classify": (_cmd_classify, ("cubic",)),
    "factor": (_cmd_factor, ("cubic",)),
    "isom": (_cmd_isom, ("cubic1", "cubic2")),
    "galois": (_cmd_galois, ("cubic",)),
    "splitting": (_cmd_splitting, ("cubic",)),
    "genus": (_cmd_genus, ("cubic",)),
    "constant": (_cmd_constant, ("cubic",)),
}


def _degree_bound(text: str) -> int:
    """argparse type of the place degree bounds: an integer N >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"N must be at least 1, got {n}")
    return n


# the one integer option a subcommand reads besides --field and --json
_OPTIONS = {
    "splitting": ("--max-degree", 3, "place degree bound for tables (default 3)"),
    "isom": ("--bound", 6, "place degree bound for the scan that certifies a negative"
             " answer over GF(q)(x), capped at 4 (default 6)"),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cubicext",
        description="classify cubic extensions of GF(q) and GF(q)(x)")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, positionals) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--field", required=True, metavar="p[^m]",
                       help="base field GF(p^m)")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if name in _OPTIONS:
            flag, default, text = _OPTIONS[name]
            p.add_argument(flag, type=_degree_bound, default=default, metavar="N", help=text)
        for pos in positionals:
            p.add_argument(pos, help="expression over the chosen base")
    return top


def _input_echo(args) -> dict:
    _, positionals = _COMMANDS[args.command]
    out = {"field": args.field}
    for pos in positionals:
        out[pos] = getattr(args, pos)
    return out


def _exit_code_for(err: CubicExtError) -> int:
    if isinstance(err, _PARSE_ERRORS):
        return 2
    if isinstance(err, SizeExceeded):
        return 4
    return 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        result = handler(args)
    except CubicExtError as err:
        code = _exit_code_for(err)
        if args.json:
            blob = {"command": args.command, "input": _input_echo(args),
                    "error": {"type": type(err).__name__, "message": str(err)}}
            print(json.dumps(blob, indent=2), file=sys.stderr)
        else:
            print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return code
    blob = {"command": args.command, "input": _input_echo(args), "result": result}
    if args.json:
        print(json.dumps(blob, indent=2))
    else:
        print("\n".join(_text_lines(result)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
