"""Command-line interface: dispatch, schemas, exit codes, round trips."""

import json

import pytest

from cremona.cli import DomainError, _complex_expr, main
from cremona.ratmap import parse_ratmap


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out.strip().startswith("{") else None)


def test_compose_identity(capsys):
    code, data = run_json(capsys, "compose",
                          "--f", "y*z:x*z:x*y", "--g", "y*z:x*z:x*y")
    assert code == 0
    assert data["is_identity"] and data["degree"] == 1
    assert data["tool_version"] and data["command"] == "compose"
    assert data["field_discriminant"] == 0


def test_classify_quadratic(capsys):
    code, data = run_json(capsys, "classify-quadratic", "--f", "x*y:z^2:y*z")
    assert code == 0 and data["stratum"] == "Sigma2"


def test_weyl_classify(capsys):
    code, data = run_json(capsys, "weyl", "--n", "10",
                          "--standard", "--classify")
    assert code == 0
    assert data["salem_class"] == "Salem"
    assert abs(data["dominant_root"] - 1.17628081) < 1e-6


def test_weyl_charpoly_and_classify_share_one_charpoly(capsys, monkeypatch):
    from cremona import cli, weyl

    calls = []

    def counted(M):
        calls.append(len(M))
        return weyl.char_poly(M)

    monkeypatch.setattr(cli, "char_poly", counted)
    code, data = run_json(capsys, "weyl", "--n", "16", "--standard", "--charpoly", "--classify")
    assert code == 0 and calls == [17]
    M = weyl.standard_element(16)
    assert data["charpoly"] == weyl.char_poly(M)
    assert data["salem_class"] == "Salem"
    assert data["spectral_radius"] == weyl.spectral_radius(M)


def test_invert_failure_exit_code(capsys):
    code, _ = run(capsys, "invert", "--f", "x^2:y^2:z^2", "--degree", "2")
    assert code == 1


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_invert_degree_below_one_is_an_error(capsys, degree):
    code = main(["invert", "--f", "y*z:x*z:x*y", "--degree", degree])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == "error: inverse degree must be at least 1\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_growth_csv(capsys):
    code, out = run(capsys, "growth", "--f", "y*z:x*z:x*y",
                    "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,degree"
    assert lines[1] == "1,2" and lines[2] == "2,1"


def test_growth_json_evidence(capsys):
    code, data = run_json(capsys, "growth", "--f", "y*z:x*z:x*y", "--n", "4")
    assert code == 0
    assert data["label"] == "Bounded" and data["evidence"] == {"period": 2}
    code, data = run_json(capsys, "growth", "--f", "x^2*y : x*y*z : z^3", "--n", "6")
    assert code == 0
    assert data["label"] == "Exponential"
    assert data["evidence"] == {"recurrence": [1, -3, 1], "lambda_class": "Pisot"}


def test_map_round_trip(capsys):
    code, data = run_json(capsys, "invert", "--f",
                          "y^2*z : x^2*z + x*y^2 : x*y*z + y^3",
                          "--degree", "3")
    assert code == 0
    reparsed = parse_ratmap(data["map"])
    assert reparsed == parse_ratmap("y*z^2 - x*y^2 : z^3 - x*y*z : x*z^2")


def test_catalog_verify(capsys):
    code, data = run_json(capsys, "catalog", "verify", "sigma")
    assert code == 0 and data["all_ok"]


def test_catalog_list(capsys):
    code, data = run_json(capsys, "catalog", "list")
    assert code == 0 and "sigma" in data["entries"]


def test_jung(capsys):
    code, data = run_json(capsys, "jung", "--f", "y, y^2 - x")
    assert code == 0 and data["is_henon"] and data["dyn_degree"] == 2


@pytest.mark.parametrize("f, henon, dyn", [
    # e o h o e^-1 for h = (y, y^2 - x) and e = (x + y^3, y): degrees 9, 18, 36
    ("y + (y^3 + y^2 - x)^3, y^3 + y^2 - x", True, 2),
    # a swap-conjugate of an elementary map: degrees 2, 2, 2
    ("x, y + x^2", False, 1),
])
def test_jung_dynamical_degree_of_conjugates(capsys, f, henon, dyn):
    code, data = run_json(capsys, "jung", "--f", f)
    assert code == 0
    assert data["is_henon"] is henon and data["dyn_degree"] == dyn


def test_stability(capsys):
    code, data = run_json(capsys, "stability", "--f", "y*z : x*z : x*y")
    assert code == 0 and data["horizon"] == 12 and not data["no_obstruction"]
    assert all(c["step"] == 0 for c in data["collisions"])
    code, data = run_json(capsys, "stability", "--f", "y*z : y^2 - x*z : z^2", "--n", "6")
    assert code == 0 and data["horizon"] == 6
    assert data["no_obstruction"] and data["collisions"] == []


def test_stability_rejects_a_negative_horizon(capsys):
    code, out = run(capsys, "stability", "--f", "y*z : x*z : x*y", "--n", "-1")
    assert code == 1 and out == ""


def test_vn_solve(capsys):
    code, data = run_json(capsys, "vn-solve", "--n", "7", "--guess", "-0.08+0.01j, 0.42-0.01j")
    assert code == 0 and data["residual"] < 1e-10
    assert abs(data["a"][0] + 0.0837358229) < 1e-6 and abs(data["b"][0] - 0.4157606867) < 1e-6
    code, _out = run(capsys, "vn-solve", "--n", "7", "--guess", "1e6, 1e6")
    assert code == 1


def test_noether(capsys):
    code, data = run_json(capsys, "noether", "--nu", "2")
    assert code == 0 and data["profiles"] == [[1, 1, 1]]


def test_orbit_csv(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    code, _ = run(capsys, "orbit", "--family", "fab",
                  "--alpha", "exp(2*i*sqrt(3))", "--beta", "exp(2*i*sqrt(2))",
                  "--seed", "1e-4*i,1e-4*i", "--n", "10",
                  "--proj", "omega1", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,u,v" and len(lines) == 11


def test_weyl_group_order(capsys):
    code, data = run_json(capsys, "weyl", "--n", "6", "--standard", "--order")
    assert code == 0 and data["group_order"] == 51840


def test_complex_expr_arithmetic():
    assert _complex_expr("1e-4*i") == 1e-4j
    assert _complex_expr("-2^3 + sqrt(-1)") == complex(-8, 1)
    assert _complex_expr("+exp(i*pi) / 2") == pytest.approx(-0.5)


@pytest.mark.parametrize("text", [
    "().__class__", "__import__('os')", "exp.__class__", "sqrt(x=1)",
    "[1, 2]", "x", "exp", "1 if 1 else 2", "9**9**9", "1/0", "-" * 5000 + "1",
])
def test_complex_expr_rejects_all_but_arithmetic(text):
    with pytest.raises(DomainError):
        _complex_expr(text)


def test_map_argument_is_parsed_not_evaluated(capsys):
    code, out = run(capsys, "map-info", "--f", "__import__('os').getpid()*x : y : z")
    assert code == 1 and out == ""


def test_map_info_with_a_coefficient_beyond_str_limit(capsys):
    code = main(["map-info", "--f", "x*(10^5000 + 1) : y : z"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "ResourceLimit" in captured.err and "digits" in captured.err


def test_orbit_rejects_a_negative_count(capsys):
    code, out = run(capsys, "orbit", "--family", "mcmullen", "--params", "1,1",
                    "--seed", "1,1", "--n", "-1")
    assert code == 1 and out == ""


def test_orbit_rejects_attribute_access(capsys):
    code, _ = run(capsys, "orbit", "--family", "fab", "--alpha", "().__class__",
                  "--beta", "1", "--seed", "0,0", "--n", "2")
    assert code == 1


def test_no_top_level_seed():
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "3", "noether", "--nu", "2"])
    assert exc.value.code == 2
