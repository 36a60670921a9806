"""Command-line front end.

Subcommands: map-info, compose, invert, classify-quadratic, growth,
stability, jung, weyl, catalog, orbit, vn-solve, noether.  JSON goes to
standard output with a {tool_version, field_discriminant, command} envelope;
growth and orbit support CSV.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import json
import operator
import sys

from . import __version__, catalog, numerics
from .dynamics import degree_sequence, growth_classify, stability_probe
from .errors import NOT_AUTOMORPHISM, NOT_FOUND, CremonaError
from .poly import _field_of
from .polyaut import henon_classify, jung_decompose, parse_polyaut
from .ratmap import compose, inverse, noether_solve, parse_ratmap, quadratic_classify
from .weyl import char_poly, group_order_bfs, salem_classify, spectral_radius, standard_element


class DomainError(Exception):
    """Raised for well-formed requests whose answer is a failure value."""


def _emit(command, payload, field_d=0):
    out = {"tool_version": __version__, "command": command,
           "field_discriminant": field_d}
    out.update(payload)
    json.dump(out, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _point(p):
    return [str(c) for c in p.coords]


# -- subcommand handlers ----------------------------------------------------

def _cmd_map_info(args):
    f = parse_ratmap(args.f)
    _emit("map-info", {
        "map": str(f),
        "degree": f.degree,
        "is_identity": f.is_identity(),
        "removed_factor": str(f.removed_factor) if f.removed_factor else None,
    }, _field_of(f.components))


def _cmd_compose(args):
    f = parse_ratmap(args.f)
    g = parse_ratmap(args.g)
    h = compose(f, g)
    _emit("compose", {
        "map": str(h),
        "degree": h.degree,
        "is_identity": h.is_identity(),
    }, _field_of(f.components + g.components + h.components))


def _cmd_invert(args):
    f = parse_ratmap(args.f)
    g = inverse(f, args.degree)
    if g is NOT_FOUND:
        raise DomainError(f"NotFound: no inverse of degree {args.degree}")
    _emit("invert", {"map": str(g), "degree": g.degree},
          _field_of(f.components + g.components))


def _cmd_classify_quadratic(args):
    f = parse_ratmap(args.f)
    qc = quadratic_classify(f)
    _emit("classify-quadratic", {
        "stratum": qc.stratum,
        "det_jac_lines": [str(lf) for lf in qc.det_jac_lines],
        "contraction_targets": [_point(p) for p in qc.contraction_targets],
        "ind_points": [_point(p) for p in qc.ind_points],
        "field_obstructed": qc.field_obstructed,
    }, _field_of(f.components))


def _cmd_growth(args):
    f = parse_ratmap(args.f)
    seq = degree_sequence(f, args.n)
    if args.format == "csv":
        sys.stdout.write("k,degree\n")
        for k, d in enumerate(seq.degrees, start=1):
            sys.stdout.write(f"{k},{d}\n")
        return
    cls = growth_classify(seq)
    _emit("growth", {
        "degrees": seq.degrees,
        "horizon": seq.horizon,
        "period": seq.period,
        "label": cls.label,
        "lambda_estimate": cls.lambda_estimate,
        "evidence": cls.evidence,
    }, _field_of(f.components))


def _cmd_stability(args):
    f = parse_ratmap(args.f)
    rep = stability_probe(f, N=args.n)
    _emit("stability", {
        "horizon": rep.horizon,
        "collisions": [
            {"target": _point(t), "step": k, "point": _point(p)}
            for (t, k, p) in rep.collisions
        ],
        "no_obstruction": not rep.collisions,
    }, _field_of(f.components))


def _cmd_jung(args):
    f = parse_polyaut(args.f)
    word = jung_decompose(f)
    if word is NOT_AUTOMORPHISM:
        raise DomainError("NotAutomorphism: no affine/elementary word found")
    rep = henon_classify(f)
    _emit("jung", {
        "factors": [
            {"kind": fac.kind, "degree": fac.degree, "map": str(fac.aut)}
            for fac in word.factors
        ],
        "is_henon": rep.is_henon,
        "dyn_degree": rep.dyn_degree,
    })


def _cmd_weyl(args):
    if not args.standard:
        raise DomainError("only the standard element is supported; pass --standard")
    M = standard_element(args.n)
    payload = {"n": args.n, "matrix": M}
    cp = char_poly(M) if args.charpoly or args.classify else None
    if args.charpoly:
        payload["charpoly"] = cp
    if args.classify:
        rep = salem_classify(cp)
        payload["salem_class"] = rep.kind
        payload["dominant_root"] = rep.dominant_root
        payload["spectral_radius"] = spectral_radius(M)
    if args.order:
        payload["group_order"] = group_order_bfs(args.n)
    _emit("weyl", payload)


def _cmd_catalog(args):
    if args.action == "list":
        _emit("catalog", {"entries": catalog.entry_names()})
        return
    if args.all:
        reports = catalog.verify_all()
    else:
        if not args.name:
            raise DomainError("verify needs an entry name or --all")
        reports = [catalog.verify_entry(args.name)]
    payload = {
        "reports": [
            {
                "name": rep.name,
                "ok": rep.ok,
                "items": [
                    {"label": it.label, "passed": it.passed, "detail": it.detail}
                    for it in rep.items
                ],
            }
            for rep in reports
        ],
        "all_ok": all(rep.ok for rep in reports),
    }
    _emit("catalog", payload)
    if not payload["all_ok"]:
        raise DomainError("verification failures; see report")


_EVAL_NAMES = {
    "i": 1j, "j": 1j, "pi": cmath.pi, "e": cmath.e,
    "exp": cmath.exp, "sqrt": cmath.sqrt, "cos": cmath.cos, "sin": cmath.sin,
}


_BINARY_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_complex(node):
    """Value of an expression tree of numbers, the constants and calls to the
    functions of _EVAL_NAMES, unary +-, and + - * / **; DomainError on
    anything else.  Ints become floats, so a power overflows rather than
    building a huge int."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        return float(node.value) if type(node.value) is int else node.value
    if isinstance(node, ast.Name) and node.id in _EVAL_NAMES \
            and not callable(_EVAL_NAMES[node.id]):
        return _EVAL_NAMES[node.id]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and callable(_EVAL_NAMES.get(node.func.id)) and not node.keywords):
        return _EVAL_NAMES[node.func.id](*[_eval_complex(a) for a in node.args])
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_complex(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_eval_complex(node.left),
                                          _eval_complex(node.right))
    raise DomainError(f"not allowed in an expression: {ast.unparse(node)!r}")


def _complex_expr(text):
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
        return complex(_eval_complex(tree.body))
    except (SyntaxError, ArithmeticError, TypeError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot evaluate {text!r}: {exc}")


def _complex_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"expected two comma-separated values, got {text!r}")
    return tuple(_complex_expr(p) for p in parts)


def _cmd_orbit(args):
    if args.params:
        params = _complex_pair(args.params)
    elif args.alpha is not None and args.beta is not None:
        params = (_complex_expr(args.alpha), _complex_expr(args.beta))
    else:
        raise DomainError("need --params or both --alpha and --beta")
    seed = _complex_pair(args.seed)
    family = {"fab": "f_alpha_beta"}.get(args.family, args.family)
    cloud = numerics.iterate_family(family, params, seed, args.n)
    if args.proj in ("omega1", "omega2"):
        cloud = numerics.project_cloud(cloud, args.proj)
    dest = open(args.out, "w") if args.out else sys.stdout
    try:
        dest.write("n,u,v\n")
        for k, (u, v) in enumerate(cloud.points, start=1):
            us = repr(u.real) if u.imag == 0 else repr(u)
            vs = repr(v.real) if v.imag == 0 else repr(v)
            dest.write(f"{k},{us},{vs}\n")
    finally:
        if args.out:
            dest.close()
    if cloud.diverged:
        print(f"# orbit diverged after {len(cloud.points)} steps",
              file=sys.stderr)


def _cmd_vn_solve(args):
    guess = _complex_pair(args.guess)
    a, b, residual = numerics.newton_solve_vn(args.n, guess)
    _emit("vn-solve", {
        "n": args.n,
        "a": [a.real, a.imag],
        "b": [b.real, b.imag],
        "residual": residual,
    })


def _cmd_noether(args):
    profiles = noether_solve(args.nu)
    _emit("noether", {
        "nu": args.nu,
        "profiles": [list(p.multiplicities) for p in profiles],
        "count": len(profiles),
    })


# -- parser -----------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="cremona", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map-info", help="degree and basic data of a map")
    p.add_argument("--f", required=True)
    p.set_defaults(func=_cmd_map_info)

    p = sub.add_parser("compose", help="compose two maps (f after g)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("invert", help="inverse of a given degree")
    p.add_argument("--f", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("classify-quadratic", help="Sigma-stratum of a quadratic map")
    p.add_argument("--f", required=True)
    p.set_defaults(func=_cmd_classify_quadratic)

    p = sub.add_parser("growth", help="iterate degrees and growth class")
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("stability", help="bounded-horizon stability probe")
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("jung", help="affine/elementary decomposition")
    p.add_argument("--f", required=True, help="two comma-separated components")
    p.set_defaults(func=_cmd_jung)

    p = sub.add_parser("weyl", help="standard Weyl element data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--standard", action="store_true")
    p.add_argument("--charpoly", action="store_true")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--order", action="store_true")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("catalog", help="list or verify catalog entries")
    p.add_argument("action", choices=("list", "verify"))
    p.add_argument("name", nargs="?")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("orbit", help="complex orbit of an affine family, CSV")
    p.add_argument("--family", required=True,
                   choices=("f_alpha_beta", "fab", "bk_fab", "mcmullen"))
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--params", help="two comma-separated complex expressions")
    p.add_argument("--seed", dest="seed", required=True,
                   help="seed point, two comma-separated complex expressions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--proj", choices=("raw", "omega1", "omega2"), default="raw")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("vn-solve", help="Newton solve the orbit-realization condition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--guess", required=True)
    p.set_defaults(func=_cmd_vn_solve)

    p = sub.add_parser("noether", help="multiplicity profiles for a degree")
    p.add_argument("--nu", type=int, required=True)
    p.set_defaults(func=_cmd_noether)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CremonaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
