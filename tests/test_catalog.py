"""Named maps, stored matrices, and polynomial families."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cremona
from cremona import catalog

from cremona.catalog import (
    CUBIC_TABLE,
    LEHMER,
    M_SIGMA,
    PHI3_ACTION_16,
    PSI,
    PSI_ACTION_16,
    PSI_INVERSE,
    SIGMA,
    bk_matrix,
    chi_n,
    chi_nk,
    entry_names,
    f_ab,
    invariant_cubic,
    mcmullen_map,
    p_nm,
    phi_j,
    phi_map,
    verify_all,
    verify_entry,
    vn_residual,
)
from cremona.errors import PoleAtParameter
from cremona.poly import reduce_triple
from cremona.ratmap import RatMap, compose
from cremona.scalars import Scalar
from cremona.weyl import salem_classify


def test_chi_n_oracle():
    # t^11 - t^9 - t^8 + t^3 + t^2 - 1
    assert chi_n(7) == [-1, 0, 1, 1, 0, 0, 0, 0, -1, -1, 0, 1]
    for n in range(0, 12):
        p = chi_n(n)
        assert p[0] == -1 and p[-1] == 1


def test_chi_nk_oracle():
    assert chi_nk(3, 2) == [1, -2, -2, 1]
    assert chi_nk(2, 2) == [1, -2, 1]
    rep = salem_classify(chi_nk(3, 2))
    assert abs(rep.dominant_root - (3 + 5 ** 0.5) / 2) < 1e-6


def test_p_nm_exact_division_and_salem():
    for (n, m) in ((3, 2), (4, 1), (5, 2)):
        p = p_nm(n, m)
        assert p[-1] != 0
    assert salem_classify(p_nm(4, 1)).kind == "Salem"
    assert salem_classify(p_nm(3, 2)).kind == "Salem"


def test_lehmer_constant():
    rep = salem_classify(LEHMER)
    assert rep.kind == "Salem"
    assert abs(rep.dominant_root - 1.17628081) < 1e-6


def test_phi_j_values():
    assert phi_j(3, 2) == (Scalar(3), Scalar(Fraction(3, 2)))
    a, b = phi_j(1, 2)
    assert a == Scalar(Fraction(-22, 9)) and b == Scalar(Fraction(-31, 12))
    with pytest.raises(PoleAtParameter):
        phi_j(2, 1)
    with pytest.raises(PoleAtParameter):
        phi_j(1, 0)


def test_bk_matrix_shape_and_pattern():
    M = bk_matrix(7)
    assert len(M) == 11 and all(len(r) == 11 for r in M)
    assert M[0][:3] == [2, 1, 1] and M[0][-1] == 1
    assert M[1][:3] == [-1, -1, -1]
    assert M[4][3] == 1


def test_vn_residual_exact_contraction_target():
    pts, res = vn_residual(Fraction(1), Fraction(2), 2)
    assert str(pts[0]) == "(1 : -1 : 0)"
    assert res > 0  # (1, 2) is not on any realization locus at n = 2


def test_named_maps_basic_data():
    assert SIGMA.degree == 2
    assert PSI.degree == 3
    assert compose(PSI, PSI_INVERSE).is_identity()
    assert phi_map(3).degree == 3
    assert all(f.degree == 3 for f in CUBIC_TABLE)
    assert mcmullen_map(0, 0).degree == 2
    assert f_ab(1, 2).degree == 2


def test_invariant_cubic_is_cubic():
    P = invariant_cubic(Fraction(2), Fraction(1, 2), Fraction(3))
    assert P.degree == 3 and not P.is_zero()


def test_stored_matrices_shapes():
    assert len(M_SIGMA) == 4
    assert len(PHI3_ACTION_16) == 16 and len(PSI_ACTION_16) == 16


def test_verify_every_entry():
    reports = verify_all()
    failed = [(r.name, [it.label for it in r.failures])
              for r in reports if not r.ok]
    assert not failed, failed
    assert set(entry_names()) == {r.name for r in reports}


def test_verify_unknown_entry():
    with pytest.raises(KeyError):
        verify_entry("nope")


def test_named_maps_are_coprime():
    # catalog builds them without a gcd; normalize would find no factor
    named = [v for v in vars(catalog).values() if isinstance(v, RatMap)]
    named += list(CUBIC_TABLE)
    assert len(named) == 12
    for f in named:
        assert f.removed_factor is None
        assert reduce_triple(f.components) == (list(f.components), None)


def test_import_loads_neither_sympy_nor_numpy():
    code = "import sys, cremona; print(sorted({'sympy', 'numpy'} & set(sys.modules)))"
    src = os.path.dirname(cremona.__path__[0])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# Run with sympy unimportable: prints one JSON object of results.
WITHOUT_SYMPY = """
import json, sys
sys.modules["sympy"] = None
from cremona import catalog
from cremona.catalog import PSI, PSI_INVERSE, f_ab
from cremona.dynamics import degree_sequence
from cremona.poly import divide_exact, parse_poly, poly_gcd, reduce_triple
from cremona.ratmap import compose, inverse

comps, g = reduce_triple([parse_poly(s) for s in
                          ("x*y + 2/3*x*z", "y^2 + 2/3*y*z", "y*z + 2/3*z^2")])
h = compose(f_ab(1, 2), f_ab(1, 2))
print(json.dumps({
    "failed": [r.name for r in catalog.verify_all() if not r.ok],
    "compose": [str(h), str(h.removed_factor)],
    "reduce_triple": [[str(p) for p in comps], str(g)],
    "poly_gcd": str(poly_gcd(parse_poly("x^2 - y^2"), parse_poly("x^2 + 2*x*y + y^2"))),
    "divide_exact": [str(divide_exact(parse_poly("x^3 - y^3"), parse_poly(q)))
                     for q in ("x - y", "x + y")],
    "inverse": inverse(PSI, 3) == PSI_INVERSE,
    "f_ab": degree_sequence(f_ab(1, 2), 8).degrees,
    "psi": degree_sequence(PSI, 4).degrees,
}))
"""


def test_runtime_runs_without_sympy():
    # psi's det Jac does not split into lines over Q, so its iterates take
    # compose's gcd; f_ab's take the line peel, after one coprimality check.
    src = os.path.dirname(cremona.__path__[0])
    out = subprocess.run([sys.executable, "-c", WITHOUT_SYMPY], capture_output=True,
                         text=True, env={"PYTHONPATH": src}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "failed": [],
        "compose": ["4*x^2 + 2*x*y + 2*x*z + y*z : 2*x^2 + 3*x*z + z^2 : 3*x^2 + x*y + x*z",
                    "x^2 + (1/2)*x*y"],
        "reduce_triple": [["x", "y", "z"], "y + (2/3)*z"],
        "poly_gcd": "x + y",
        "divide_exact": ["x^2 + x*y + y^2", "None"],
        "inverse": True,
        "f_ab": [2, 2, 3, 4, 5, 7, 9, 12],
        "psi": [3, 7, 15, 30],
    }
