"""Seeded inputs, operations and answer checks for the three workloads.

Every operation calls the public cremona API and is checked by an invariant
that does not depend on the code under test:

* degrees of iterates do not change under linear conjugation L^-1 o f o L;
* the characteristic polynomial does not change under conjugation by W, and
  for the standard Coxeter element of W_n it is
  t^(n+1) - t^(n-1) - t^(n-2) + t^3 + t^2 - 1 (McMullen 2007);
* an inverse composes with its map to the identity on both sides;
* |W_4| = 120 and |W_5| = 1920;
* a Jung word built from known elementary factors decomposes back into
  factors of those degrees.

The seed chooses only the generated inputs (the matrices L, the words w and
the order of operations inside a cycle), never the amount of work: every
seed gives the same number and kind of operations per cycle, with matrices
and words of the same shape.

Operations call cremona through module attributes at call time, so that the
wrappers the tracer installs are the functions that run.
"""

from __future__ import annotations

import itertools
import random

import cremona
from cremona import catalog, polyaut, ratmap, weyl
from cremona.poly import BiPoly
from cremona.scalars import Scalar

GROWTH_Q_HORIZON = 11
GROWTH_Q_DEGREES = [2, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28]
SQRT_M3_DEGREES = [2, 2, 3, 4, 5]
WEYL_NS = tuple(range(10, 17))
WEYL_WORD_LENGTH = 8
BFS_ORDERS = {4: 120, 5: 1920}
JUNG_DEGREES = (2, 3)
JUNG_WORDS_PER_CYCLE = 4
LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]

# Spectral radius (a Salem number) and removed cyclotomic indices of the
# standard Coxeter element of W_n, recorded from cremona 0.1.0 and consistent
# with the closed-form characteristic polynomial above.
WEYL_TABLE = {
    10: (1.1762808182599176, [1]),
    11: (1.2303914344072246, [1, 2]),
    12: (1.2612309611371388, [1, 3]),
    13: (1.2806381562677576, [1, 2, 8]),
    14: (1.2934859531254541, [1, 5]),
    15: (1.3022688050943345, [1, 2, 3]),
    16: (1.3084090062132574, [1]),
}
RADIUS_TOL = 1e-9


class Op:
    """One operation: `call()` runs the public API, `check(result, expected)`
    decides whether the answer is right."""

    __slots__ = ("kind", "call", "check", "expected")

    def __init__(self, kind, call, check, expected):
        self.kind = kind
        self.call = call
        self.check = check
        self.expected = expected

    def run_checked(self, result):
        try:
            return bool(self.check(result, self.expected))
        except Exception:  # a malformed answer is a wrong answer
            return False


# -- inputs ------------------------------------------------------------------

def _scalar_matrix(M):
    return [[Scalar(v) for v in row] for row in M]


def _int_inverse(M):
    inv = cremona.linalg.mat_inverse(_scalar_matrix(M))
    return [[int(v.a) for v in row] for row in inv]


def _conjugate(f, L):
    """L^-1 o f o L for a unimodular integer matrix L."""
    Lmap = ratmap.RatMap.from_matrix(_scalar_matrix(L))
    Linv = ratmap.RatMap.from_matrix(_scalar_matrix(_int_inverse(L)))
    return ratmap.compose(Linv, ratmap.compose(f, Lmap))


# Conjugating by U(a, b, c) D instead of U(a, b, c), for diagonal signs D,
# only flips signs of coefficients, so a growth-q operation's cost depends on
# (a, b, c) alone. Cycle k uses class k + seed, so any eight consecutive
# cycles meet each class once.
UNITRIANGULAR_CLASSES = tuple(itertools.product((-1, 1), repeat=3))


def _unitriangular(rng, index):
    """U(a, b, c) D with (a, b, c) the index-th class and random signs D."""
    a, b, c = UNITRIANGULAR_CLASSES[index % len(UNITRIANGULAR_CLASSES)]
    d0, d1, d2 = (rng.choice((-1, 1)) for _ in range(3))
    return [[d0, a * d1, b * d2], [0, d1, c * d2], [0, 0, d2]]


def _shear(rng):
    """S D for the shear S = I + s e_10 and diagonal signs D, all in {-1, 1}."""
    s, d0, d1, d2 = (rng.choice((-1, 1)) for _ in range(4))
    return [[d0, 0, 0], [s * d0, d1, 0], [0, 0, d2]]


def _elementary(rng, k):
    """(x + p(y), y) with deg p = k and coefficients +-1."""
    X, Y = BiPoly.var("x"), BiPoly.var("y")
    p = X
    for e in range(k + 1):
        p = p + Y ** e * Scalar(rng.choice((-1, 1)))
    return polyaut.PolyAut((p, Y))


def _affine(rng):
    """(s y + t, s' x + t') with signs s, s' and translations t, t' in
    {-1, 1}: not triangular, so the Jung word stays reduced. Words built from
    other affine shapes cost up to 4x more; one shape keeps every seed's work
    the same size."""
    X, Y = BiPoly.var("x"), BiPoly.var("y")
    sx, sy, tx, ty = (Scalar(rng.choice((-1, 1))) for _ in range(4))
    return polyaut.PolyAut((Y * sx + tx, X * sy + ty))


def _jung_word(rng):
    ks = list(JUNG_DEGREES)
    rng.shuffle(ks)
    f = _affine(rng)
    for k in ks:
        f = polyaut.aut_compose(f, _elementary(rng, k))
        f = polyaut.aut_compose(f, _affine(rng))
    return f, ks


def _weyl_conjugate(rng, n):
    """w S_n w^-1 for a word w of simple reflections (each an involution)."""
    refl = [weyl.reflection_matrix(a) for a in weyl.simple_roots(n)]
    M = weyl.standard_element(n)
    for _ in range(WEYL_WORD_LENGTH):
        R = refl[rng.randrange(n)]
        M = cremona.linalg.mat_mul(cremona.linalg.mat_mul(R, M), R)
    return M


def coxeter_charpoly(n):
    """t^(n+1) - t^(n-1) - t^(n-2) + t^3 + t^2 - 1, constant term first."""
    c = [0] * (n + 2)
    for e, v in ((n + 1, 1), (n - 1, -1), (n - 2, -1), (3, 1), (2, 1), (0, -1)):
        c[e] += v
    return c


# -- operations ----------------------------------------------------------------

def _degrees(g, n):
    return lambda: cremona.degree_sequence(g, n).degrees


def _check_equal(result, expected):
    return result == expected


def _inverse_op(h):
    """Parse h from text and invert it at degree 3, as `cremona invert` does."""
    text = str(h)

    def check(g, identity):
        return (
            isinstance(g, ratmap.RatMap)
            and ratmap.compose(g, h) == identity
            and ratmap.compose(h, g) == identity
        )
    return Op("inverse", lambda: cremona.inverse(cremona.parse_ratmap(text), 3),
              check, ratmap.RatMap.identity())


def _jung_op(f, ks):
    def check(word, expected):
        if word is cremona.NOT_AUTOMORPHISM:
            return False
        degs = [fac.degree for fac in word.factors
                if fac.kind == "elementary" and fac.degree >= 2]
        return degs == expected and word.recompose() == f
    return Op("jung", lambda: cremona.jung_decompose(f), check, list(ks))


def _verify_op(name):
    return Op("verify", lambda: catalog.verify_entry(name).ok, _check_equal, True)


def _spectral_op(n, M):
    def call():
        cp = cremona.char_poly(M)
        rep = cremona.salem_classify(cp)
        return (cp, rep.kind, rep.residual, rep.removed_cyclotomic,
                cremona.spectral_radius(M))

    def check(result, expected):
        cp, kind, residual, removed, radius = result
        want_cp, want_radius, want_removed = expected
        ok = (cp == want_cp and kind == "Salem" and removed == want_removed
              and abs(radius - want_radius) <= RADIUS_TOL)
        if n == 10:
            ok = ok and residual == LEHMER
        return ok

    radius, removed = WEYL_TABLE[n]
    return Op("spectral", call, check, (coxeter_charpoly(n), radius, removed))


def _bfs_op(n):
    return Op("bfs", lambda: cremona.group_order_bfs(n), _check_equal,
              BFS_ORDERS[n])


def _cycle_growth_q(rng, index):
    g = _conjugate(catalog.f_ab(1, 2), _unitriangular(rng, index))
    return [Op("growth", _degrees(g, GROWTH_Q_HORIZON), _check_equal,
               list(GROWTH_Q_DEGREES))]


def _cycle_catalog(rng, index):
    ops = [_verify_op(name) for name in catalog.entry_names()]
    g = _conjugate(catalog.f_ab(Scalar(0, 1, -3), 2), _shear(rng))
    ops.append(Op("growth-sqrt-3", _degrees(g, len(SQRT_M3_DEGREES)), _check_equal,
                  list(SQRT_M3_DEGREES)))
    ops.append(_inverse_op(_conjugate(catalog.PSI, _shear(rng))))
    ops.extend(_jung_op(*_jung_word(rng)) for _ in range(JUNG_WORDS_PER_CYCLE))
    rng.shuffle(ops)
    return ops


def _cycle_weyl(rng, index):
    ops = [_spectral_op(n, _weyl_conjugate(rng, n)) for n in WEYL_NS]
    ops.extend(_bfs_op(n) for n in sorted(BFS_ORDERS))
    rng.shuffle(ops)
    return ops


_CYCLE_MAKERS = {
    "growth-q": _cycle_growth_q,
    "catalog": _cycle_catalog,
    "weyl": _cycle_weyl,
}


def build(workload, seed):
    """`make_cycle(k)`: the operations of cycle k of a workload, made from
    the seed and k alone. Every cycle of a workload has the same mix.

    Making cycle 0 conjugates maps over every field the workload uses, which
    also finishes sympy's lazy set-up (symbols, field domains); the benchmark
    makes it during set-up, so that this is not paid by a timed operation.
    """
    if workload not in _CYCLE_MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    make = _CYCLE_MAKERS[workload]

    def make_cycle(k):
        return make(random.Random(f"{workload}:{seed}:{k}"), seed + k)

    return make_cycle


def perturb(cycle):
    """Copies of a cycle's operations with a wrong expected answer, for the
    benchmark's self-check: every one of them must be counted as failed."""
    swap = ratmap.parse_ratmap("y : x : z")

    def wrong(op):
        e = op.expected
        if op.kind == "inverse":
            e = swap
        elif op.kind == "verify":
            e = not e
        elif op.kind == "spectral":
            e = ([e[0][0] + 1] + e[0][1:], e[1], e[2])
        elif op.kind == "bfs":
            e = e + 1
        else:  # degree lists and Jung factor degrees
            e = e[:-1] + [e[-1] + 1]
        return Op(op.kind, op.call, op.check, e)

    return [wrong(op) for op in cycle]
