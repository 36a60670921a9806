"""`parse_poly`: the input grammar, its field results, and what it refuses.

The reference for the differential test is the parser `parse_poly` replaced,
kept here: it ran the text through `sympy.sympify` (which evaluates Python)
and read the coefficients back from sympy expressions.
"""

import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cremona.errors import IncompatibleField
from cremona.poly import BiPoly, HomPoly, parse_poly
from cremona.scalars import Scalar

SYMS = sympy.symbols("x y z")


# -- the sympify parser, as the reference ------------------------------------------

def _expr_to_scalar(co, sd, field_d):
    if sd is not None:
        ce = sympy.expand(co)
        b_expr = ce.coeff(sd)
        a_rat = sympy.Rational(sympy.expand(ce - b_expr * sd))
        b_rat = sympy.Rational(b_expr)
        return Scalar(Fraction(int(a_rat.p), int(a_rat.q)),
                      Fraction(int(b_rat.p), int(b_rat.q)), field_d)
    r = sympy.Rational(co)
    return Scalar(Fraction(int(r.p), int(r.q)))


def sympify_parse(text, cls="hom"):
    x, y, z = SYMS
    loc = {"x": x, "y": y, "z": z, "sqrt": sympy.sqrt, "Rational": sympy.Rational}
    expr = sympy.expand(sympy.sympify(text.replace("^", "**"), locals=loc, rational=True))
    gens = SYMS if cls == "hom" else SYMS[:2]
    pol = sympy.Poly(expr, *gens, extension=True)
    rads = set()
    for pw in expr.atoms(sympy.Pow):
        if pw.exp == sympy.Rational(1, 2) and pw.base.is_Rational:
            rads.add(pw.base)
    has_i = expr.has(sympy.I)
    if len(rads) > 1:
        raise IncompatibleField(f"multiple radicals in {text!r}")
    sd = None
    field_d = Fraction(0)
    if rads:
        r = rads.pop()
        rf = Fraction(int(r.p), int(r.q))
        if has_i:
            field_d = -rf
            sd = sympy.sqrt(r) * sympy.I
        else:
            field_d = rf
            sd = sympy.sqrt(r)
    elif has_i:
        field_d = Fraction(-1)
        sd = sympy.I
    out = {}
    for mono, co in pol.as_dict().items():
        c = _expr_to_scalar(co, sd, field_d)
        if c:
            out[tuple(mono)] = c
    if cls == "hom":
        return HomPoly(out)
    return BiPoly({(i, j): c for (i, j), c in out.items()})


# -- generated text of the grammar ----------------------------------------------------

# Spellings of rational multiples of one radical, per field: a product of two
# of them is rational, so an expression made of one family stays in its field.
RADICALS = {
    0: [],
    -3: ["sqrt(-3)", "I*sqrt(3)", "sqrt(3)*I", "sqrt(-12)", "sqrt(-1/3)"],
    -1: ["I", "sqrt(-1)", "sqrt(-4)", "sqrt(-1/4)"],
    2: ["sqrt(2)", "sqrt(8)", "sqrt(1/2)", "sqrt(18)", "sqrt(2/9)"],
}
RATIONALS = ["0", "1", "2", "-3", "7", "1/2", "3/4", "0.5", "1.25", "2.0", "12.375"]


@st.composite
def constants(draw, d):
    choices = RATIONALS + RADICALS[d] * 2
    return draw(st.sampled_from(choices))


@st.composite
def expressions(draw, d, variables, degree, depth=3):
    """Text of the grammar for a form of the given degree over Q(sqrt d)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if degree == 0:
            return draw(constants(d))
        mono = "*".join(draw(st.lists(st.sampled_from(variables),
                                      min_size=degree, max_size=degree)))
        if draw(st.booleans()):
            return mono
        return f"{draw(constants(d))}*{mono}"
    kind = draw(st.sampled_from(["+", "-", "*", "/", "^", "neg"]))

    def sub(deg):
        return draw(expressions(d, variables, deg, depth - 1))

    if kind in "+-":
        return f"{sub(degree)} {kind} {sub(degree)}"
    if kind == "*":
        a = draw(st.integers(0, degree))
        return f"({sub(a)})*({sub(degree - a)})"
    if kind == "/":
        # the reference cannot divide by a + b sqrt(d) with a and b nonzero
        divisor = draw(st.sampled_from(["2", "3/4", "0.5"] + RADICALS[d]))
        return f"({sub(degree)})/{divisor}"
    if kind == "^":
        e = draw(st.sampled_from([e for e in (0, 1, 2, 3) if (degree == 0 or e and degree % e == 0)]))
        base = sub(degree // e if e else 0)
        return f"({base}){draw(st.sampled_from(['^', '**']))}{e}"
    return f"-({sub(degree)})"


@st.composite
def grammar_texts(draw):
    d = draw(st.sampled_from(sorted(RADICALS)))
    cls = draw(st.sampled_from(["hom", "biv"]))
    variables = ["x", "y", "z"] if cls == "hom" else ["x", "y"]
    return draw(expressions(d, variables, draw(st.integers(0, 3)))), cls


@settings(max_examples=80, deadline=None)
@given(grammar_texts())
def test_parse_matches_the_sympify_parser(tc):
    text, cls = tc
    assert parse_poly(text, cls) == sympify_parse(text, cls)


@pytest.mark.parametrize("text", [
    "I*sqrt(3)*x + 2*y", "sqrt(8)*x - sqrt(1/2)*y", "0.1*x + 12.375*y", "x/sqrt(2)",
    "(x + I*y)^3", "sqrt(-3)*x*y - z^2/3",
])
def test_parse_matches_the_sympify_parser_on_fixed_texts(text):
    assert parse_poly(text) == sympify_parse(text)


# -- round trip through str -------------------------------------------------------------

small_rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


@st.composite
def field_polys(draw):
    d = draw(st.sampled_from([0, -3, -1, 2]))
    deg = draw(st.integers(0, 3))
    terms = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            if draw(st.booleans()):
                b = draw(small_rational) if d else 0
                terms[(i, j, deg - i - j)] = Scalar(draw(small_rational), b, d)
    return HomPoly(terms, deg)


@settings(max_examples=150, deadline=None)
@given(field_polys())
def test_parse_of_str_round_trips(p):
    assert parse_poly(str(p)) == p


# -- field results ------------------------------------------------------------------

@pytest.mark.parametrize("text, coef", [
    ("sqrt(8)*x", Scalar(0, 2, 2)),
    ("sqrt(1/2)*x", Scalar(0, Fraction(1, 2), 2)),
    ("sqrt(-3)*x", Scalar(0, 1, -3)),
    ("I*sqrt(3)*x", Scalar(0, 1, -3)),
    ("sqrt(-12)/2*x", Scalar(0, 1, -3)),
    ("I*x", Scalar(0, 1, -1)),
    ("I*I*x", Scalar(-1)),
    ("sqrt(4)*x", Scalar(2)),
    ("(1 + sqrt(2))*(1 - sqrt(2))*x", Scalar(-1)),
    ("x/(1 + sqrt(2))", Scalar(-1, 1, 2)),
    ("0.12345678901234567891*x", Scalar(Fraction("0.12345678901234567891"))),
    ("1e3*x", Scalar(1000)),
])
def test_field_results(text, coef):
    assert parse_poly(text) == HomPoly.var("x") * coef


def test_biv_and_long_sums():
    assert parse_poly("x^2 + y + 1/2", cls="biv") == BiPoly({(2, 0): 1, (0, 1): 1,
                                                                (0, 0): Fraction(1, 2)})
    # a left-nested sum is walked in a loop, not by recursion
    assert parse_poly(" + ".join(["x"] * 2000)) == HomPoly.var("x") * 2000


@pytest.mark.parametrize("text", [
    "I*sqrt(3)*x + sqrt(3)*y", "sqrt(2)*x + sqrt(3)*y", "I*x + sqrt(2)*y",
    "x/(sqrt(2) + sqrt(3))",
])
def test_two_radicals_are_incompatible(text):
    with pytest.raises(IncompatibleField):
        parse_poly(text)


# -- refused input ------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "__import__('os').getpid()*x",
    "__import__('sys').modules.__setitem__('cremona_parse_probe', 1)*x",
    "().__class__", "x.real", "x.__class__.__mro__", "lambda: x", "(lambda: x)()",
    "x if y else z", "[x, y]", "{x}", "x[0]", "'x'", "f'{x}'", "not x", "x and y",
    "x < y", "x // 2", "x % 2", "x @ y", "3j*x", "True*x", "None",
    "sqrt(x=2)", "sqrt(2, 3)", "sqrt(x)", "sqrt(sqrt(2))", "sqrt(*[2])", "exp(x)",
    "pi*x", "i*x", "E*x", "Rational(1, 2)*x", "w", "x^y", "x^-1", "x^1.5", "x**True",
    "1/x", "x/y", "x/0", "x/(sqrt(2) - sqrt(2))", "x = 1", "x; y", "", "x y",
    "(" * 300 + "x" + ")" * 300, "-" * 5000 + "x", " + ".join(["x"] * 20000),
])
def test_refused_without_evaluation(text):
    with pytest.raises(ValueError):
        parse_poly(text)
    assert "cremona_parse_probe" not in sys.modules


def test_z_is_not_a_variable_of_a_bivariate_polynomial():
    with pytest.raises(ValueError):
        parse_poly("x + z", cls="biv")


@st.composite
def biv_polys(draw):
    """BiPolys of degree <= 3 with integer, fractional and sqrt(-3)
    coefficients."""
    coefficient = st.one_of(
        st.integers(-9, 9).map(Scalar),
        small_rational.map(Scalar),
        st.builds(lambda a, b: Scalar(a, b, -3), small_rational, small_rational),
    )
    return BiPoly(draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3),
        coefficient, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(biv_polys())
def test_parse_of_bivariate_str_round_trips(p):
    assert parse_poly(str(p), cls="biv") == p
