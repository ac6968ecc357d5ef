import json
import warnings

import numpy as np
import pytest

from mink1.cli import main
from mink1.reportio import BasisParseError, parse_basis_text, to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_sixteen(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    rows = [l for l in out.splitlines() if l[:2] in ("P-", "N-")]
    assert len(rows) == 16


def test_catalog_json_is_valid_and_deterministic(capsys):
    code, out1, _ = run(capsys, "catalog", "--json")
    assert code == 0
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert len(doc["payload"]["families"]) == 16
    code, out2, _ = run(capsys, "catalog", "--json")
    assert out1 == out2


def test_catalog_single_id_with_params(capsys):
    code, out, _ = run(capsys, "catalog", "--id", "P-d", "--params", "beta=1.5,sign=-1",
                       "--json")
    assert code == 0
    fam = json.loads(out)["payload"]["families"][0]
    assert fam["id"] == "P-d"
    assert fam["params"]["beta"] == 1.5
    assert fam["params"]["sign"] == -1.0


def test_orbit_command_matches(capsys):
    code, out, _ = run(capsys, "orbit", "--id", "N-i", "--point", "2,1,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["orbit_dim"] == 2
    assert doc["payload"]["orbit_class"] == "principal"
    assert doc["payload"]["invariant"]["value"] == 3.0
    assert doc["payload"]["matched_expectation"] is True


def test_orbit_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "orbit", "--id", "Z-q", "--point", "1,1,1")
    assert code == 2
    assert "unknown family id" in err


def test_orbit_bad_point_exits_2(capsys):
    code, _, err = run(capsys, "orbit", "--id", "N-i", "--point", "1,hello,2")
    assert code == 2
    for point in ("nan,1,0", "inf,1,0", "1,-inf,0"):
        code, _, err = run(capsys, "orbit", "--id", "N-i", "--point", point)
        assert code == 2, point
        assert "finite" in err


def test_orbit_bad_grid_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in ("3:nan:1", "3:0:inf", "3:-inf:0", "-3", "-1:0:1"):
            code, _, err = run(capsys, "orbit", "--id", "N-i", "--point", "1,2,0",
                               f"--grid={grid}")
            assert code == 2, grid
            assert "N >= 0 and finite lo, hi" in err
        # finite bounds whose group elements overflow
        for id_ in ("N-i", "P-c"):
            code, _, err = run(capsys, "orbit", "--id", id_, "--point", "1,2,0",
                               "--grid", "3:0:1e300")
            assert code == 2, id_
            assert "overflow" in err


def test_nonfinite_params_exit_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for id_, params in (("P-d", "beta=nan"), ("P-d", "beta=inf"),
                            ("N-vii", "beta=-inf"), ("N-x", "alpha=inf"),
                            ("N-x", "beta=nan")):
            code, _, err = run(capsys, "orbit", "--id", id_, "--params", params,
                               "--point", "1,2,0")
            assert code == 2, (id_, params)
            assert f"{id_} parameter {params.split('=')[0]} must be finite" in err


def test_pd_sign_outside_pm1_exits_2(capsys):
    for sign in ("2", "0.5"):
        code, _, err = run(capsys, "orbit", "--id", "P-d", "--params", f"sign={sign}",
                           "--point", "1,0,0")
        assert code == 2
        assert "sign must be +1 or -1" in err


def test_orbit_overflowing_invariant_is_not_representable(capsys):
    code, out, _ = run(capsys, "orbit", "--id", "P-d", "--point", "1,0,800")
    assert code == 0
    assert "= not representable" in out
    code, out, _ = run(capsys, "orbit", "--id", "P-d", "--point", "1,0,800", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["invariant"]["value"] is None
    code, out, _ = run(capsys, "orbit", "--id", "P-d", "--point", "1,0,708",
                       "--grid", "3", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["invariant"]["value"] > 1e300
    assert payload["invariant_drift"] is None


def test_orbit_csv_export(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code, _, _ = run(capsys, "orbit", "--id", "N-xii", "--point", "2,0,0",
                     "--grid", "3:-1:1", "--csv", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t1,t2,t3,x1,x2,x3"
    assert len(lines) == 1 + 27
    for row in lines[1:]:
        q = np.array([float(c) for c in row.split(",")][3:])
        assert abs((-q[0] ** 2 + q[1] ** 2 + q[2] ** 2) + 4.0) < 1e-8


def test_orbit_mismatch_exit_code(monkeypatch, capsys):
    # exit 3 is reserved for reports contradicting the catalog table
    import dataclasses

    import mink1.cli as cli

    real = cli.orbit_report

    def contradicted(entry, p, with_evidence=True):
        return dataclasses.replace(real(entry, p, with_evidence),
                                   matched_expectation=False)

    monkeypatch.setattr(cli, "orbit_report", contradicted)
    code, _, _ = run(capsys, "orbit", "--id", "N-i", "--point", "2,1,0")
    assert code == 3


def test_classify_committed_fixture(capsys):
    import pathlib

    fixture = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "pd.alg"
    code, out, _ = run(capsys, "classify", "--basis", str(fixture), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["id"] == "P-d"
    assert doc["payload"]["params"]["beta"] == pytest.approx(1.5)


def test_properness_command(capsys):
    code, out, _ = run(capsys, "properness", "--id", "N-ix", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["verdict"] == "nonproper"
    cert = doc["payload"]["witness"]["certificate"]
    assert len(cert) == 20
    assert cert[-1][1] >= 100.0
    code, out, _ = run(capsys, "properness", "--id", "P-b", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["verdict"] == "proper"


def test_classify_command(tmp_path, capsys):
    path = tmp_path / "basis.alg"
    path.write_text(
        "# boost-screw family with beta = 2\n"
        "0 1 0 1 0 0 0 0 0  0 0 2\n"
        "0 0 0 0 0 0 0 0 0  1 1 0\n"
    )
    code, out, _ = run(capsys, "classify", "--basis", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["id"] == "P-d"
    assert doc["payload"]["params"]["beta"] == pytest.approx(2.0)
    assert doc["payload"]["residual"] < 1e-9
    conj = doc["payload"]["conjugator"]
    assert len(conj["A"]) == 9 and len(conj["a"]) == 3


def test_classify_rejection_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("0 1 0 1 0 0 0 0 0  0 0 0\n0 0 0 0 0 1 0 -1 0  0 0 0\n")
    code, out, _ = run(capsys, "classify", "--basis", str(path), "--json")
    assert code == 1
    assert json.loads(out)["payload"]["reason"] == "not-a-subalgebra"


def test_classify_rescaled_basis_is_rejected_not_raised(tmp_path, capsys):
    # a conjugated P-b basis at 1e-6 scale: the conjugator the fixed
    # tolerances produce is not an isometry, which rejects the basis
    from mink1.algebra import adjoint_spec
    from mink1.catalog import build
    from mink1.sampling import random_motion, rng_from_seed

    spec = adjoint_spec(random_motion(rng_from_seed(1)), build("P-b").basis)
    path = tmp_path / "tiny.alg"
    path.write_text("".join(" ".join(repr(1e-6 * float(x)) for x in e.coords) + "\n"
                            for e in spec.basis))
    code, out, _ = run(capsys, "classify", "--basis", str(path))
    assert code == 1
    assert out.startswith("rejected: unmatched")


def test_classify_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "syntax.alg"
    path.write_text("0 1 0 1 0 0 0 0 0 0 0 oops\n")
    code, _, err = run(capsys, "classify", "--basis", str(path))
    assert code == 2
    assert "line 1" in err and "column 23" in err
    for token in ("nan", "inf", "-inf"):
        path.write_text(f"0 0 0 0 0 0 0 0 0 1 0 0\n0 0 0 0 0 0 0 0 0 0 {token} 0\n")
        code, _, err = run(capsys, "classify", "--basis", str(path))
        assert code == 2
        assert "line 2, column 21: not a finite number" in err, err


def test_parse_basis_text_errors():
    with pytest.raises(BasisParseError):
        parse_basis_text("1 2 3\n")
    with pytest.raises(BasisParseError):
        parse_basis_text("# only a comment\n")
    spec = parse_basis_text("0 0 0 0 0 0 0 0 0  1 0 0\n0 0 0 0 0 0 0 0 0  0 1 0\n")
    assert spec.dim == 2


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 8
    assert all(l.startswith("[PASS]") for l in lines)


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MINK_SEED", "7")
    code, out, _ = run(capsys, "catalog", "--json")
    assert json.loads(out)["seed"] == 7
    monkeypatch.delenv("MINK_SEED")
    code, out, _ = run(capsys, "catalog", "--json")
    assert json.loads(out)["seed"] == 42


def test_to_json_float_formatting():
    assert to_json(0.1) == "0.10000000000000001"
    assert to_json({"a": [1, True, None]}) == '{\n  "a": [\n    1,\n    true,\n    null\n  ]\n}'
    with pytest.raises(ValueError):
        to_json(float("nan"))
