import io
import json
import math

import pytest

from frieze_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_closed(capsys):
    code, out, _ = run(capsys, "frieze", "gen", "--quiddity", "1,2,2,1,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 2 and doc["period"] == 5
    assert doc["quiddity"] == ["1", "2", "2", "1", "3"]


def test_gen_not_closed_exit_2(capsys):
    code, out, _ = run(capsys, "frieze", "gen", "--quiddity", "2,2,2,2,2")
    assert code == 2
    assert "NotClosed" in json.loads(out)["error"]


def test_check_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "frieze", "gen", "--quiddity", "1,2,2,1,3")
    doc = tmp_path / "frieze.json"
    doc.write_text(out)
    code, out, _ = run(capsys, "frieze", "check", str(doc))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True


def test_diag_and_mutate(capsys):
    code, out, _ = run(capsys, "frieze", "diag", "--values", "1,2")
    assert code == 0
    assert json.loads(out)["quiddity"] == ["1", "3", "1", "2", "2"]
    code, out, _ = run(
        capsys,
        "frieze", "mutate",
        "--values", "1,2", "--start", "4", "--moves", "SE", "--position", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"start": 5, "moves": ["SW"], "values": ["3", "2"]}


def test_moduli(capsys):
    code, out, _ = run(capsys, "frieze", "moduli", "--quiddity", "1,2,2,1,3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cross_ratios"]) == 2
    assert doc["omega_rank"] == 2


def test_continuum_frieze2d_matches_sine(capsys):
    code, out, _ = run(capsys, "continuum", "frieze2d", "--family", "tan", "--s", "0", "--grid", "64")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "x,y,value"
    for line in lines[1:]:
        if not line:
            continue
        x, y, v = (float(tok) for tok in line.split(","))
        assert abs(v - math.sin(y - x)) < 1e-12


def test_continuum_hill_inadmissible_exit_2(capsys):
    code, out, _ = run(capsys, "continuum", "hill", "--family", "tan", "--s", "0.9")
    assert code == 2
    assert "DerivativeVanishes" in json.loads(out)["error"]


def test_continuum_curvature(capsys):
    code, out, _ = run(capsys, "continuum", "curvature", "--family", "tan", "--s", "0", "--grid", "16")
    assert code == 0
    assert json.loads(out)["max_abs_K_plus_1"] < 1e-4


def test_continuum_kirillov(capsys):
    code, out, _ = run(capsys, "continuum", "kirillov", "--family", "tan", "--s", "0.2", "--nodes", "2048")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["fields_line1"] - doc["fields_line2"]) < 1e-8
    assert abs(doc["curve_over_fields"] - 2.0) < 1e-8


def test_limit_study_passes(capsys):
    code, out, _ = run(
        capsys,
        "limit", "study", "--family", "tan", "--s", "0.2", "--c", "0.5",
        "--n", "100,200,400", "--nodes", "2048",
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "n,discrete,integral,kirillov_scaled,err_integral,err_kirillov,observed_order"
    errs = [float(line.split(",")[4]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_limit_study_below_floor_warns(capsys):
    code, out, err = run(capsys, "limit", "study", "--n", "8,16", "--nodes", "1024")
    assert code == 0
    assert "below resolution floor" in err


def test_limit_study_equal_variations(capsys):
    code, out, _ = run(
        capsys,
        "limit", "study", "--xi", "bump1", "--eta", "bump1",
        "--n", "100,200,400", "--nodes", "1024",
    )
    assert code == 0
    for line in out.strip().split("\r\n")[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "continuum", "liouville", "--family", "tan", "--s", "0.1", "--grid", "32")
    _, out2, _ = run(capsys, "continuum", "liouville", "--family", "tan", "--s", "0.1", "--grid", "32")
    assert out1 == out2
    _, out3, _ = run(capsys, "frieze", "gen", "--quiddity", "1,3,1,2,2")
    _, out4, _ = run(capsys, "frieze", "gen", "--quiddity", "1,3,1,2,2")
    assert out3 == out4


def test_output_file_atomic(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "frieze", "gen", "--quiddity", "1,1,1", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["width"] == 0


def test_nodes_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FRIEZE_LAB_NODES", "512")
    code, out, _ = run(capsys, "continuum", "kirillov", "--family", "tan", "--s", "0.1")
    assert code == 0  # resolution picked up from the environment without error


def test_continuum_csv_field_dumps(capsys):
    code, out, _ = run(capsys, "continuum", "liouville", "--family", "tan", "--s", "0.1",
                       "--grid", "32", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "x,y,value" and len(lines) == 1 + 32 * 32
    code, out, _ = run(capsys, "continuum", "curvature", "--family", "tan", "--s", "0",
                       "--grid", "16", "--format", "csv")
    assert code == 0
    assert out.startswith("x,y,value\r\n")


def test_continuum_linear_family(capsys):
    code, out, _ = run(capsys, "continuum", "liouville", "--family", "linear", "--grid", "32")
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-12
    code, out, _ = run(capsys, "continuum", "hill", "--family", "linear")
    assert code == 0
    assert json.loads(out)["antiperiodic"] is False


def test_moduli_from_document(capsys, tmp_path):
    _, out, _ = run(capsys, "frieze", "gen", "--quiddity", "1,2,2,1,3")
    doc = tmp_path / "f.json"
    doc.write_text(out)
    code, out, _ = run(capsys, "frieze", "moduli", "--input", str(doc))
    assert code == 0
    assert len(json.loads(out)["cross_ratios"]) == 2


def test_limit_study_json_format(capsys):
    code, out, _ = run(capsys, "limit", "study", "--n", "100,200,400", "--nodes", "1024",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == 0.5
    assert [r["n"] for r in doc["records"]] == [100, 200, 400]
    assert abs(doc["integral"] - doc["kirillov_scaled"]) < 1e-8


def assert_json_error(code, out, err):
    assert code == 2
    assert "error" in json.loads(out)
    assert "Traceback" not in err


def test_check_document_without_keys_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    assert_json_error(*run(capsys, "frieze", "check", "-"))


def test_check_document_rows_not_list_exit_2(capsys, monkeypatch):
    _, out, _ = run(capsys, "frieze", "gen", "--quiddity", "1,1,1")
    doc = {**json.loads(out), "rows": 5}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert_json_error(*run(capsys, "frieze", "check", "-"))


def test_limit_study_open_family_exit_2(capsys):
    assert_json_error(*run(capsys, "limit", "study", "--family", "linear", "--n", "100,200,400"))


def test_frieze2d_grid_zero_exit_2(capsys):
    assert_json_error(*run(capsys, "continuum", "frieze2d", "--grid", "0"))


def test_output_dir_missing_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "frieze", "gen", "--quiddity", "1,2,2,1,3", "-o", str(target))
    assert_json_error(code, out, err)
    assert str(target) in json.loads(out)["error"]


def test_hill_steps_reach_every_pass(capsys, monkeypatch):
    import frieze_lab.hill as hill

    seen = []
    fundamental = hill._fundamental

    def recording(kappa, T, steps):
        seen.append(steps)
        return fundamental(kappa, T, steps)

    monkeypatch.setattr(hill, "_fundamental", recording)
    code, out, _ = run(capsys, "continuum", "hill", "--steps", "128")
    assert code == 0
    # one pass for the solution and monodromy, one for the oscillation test
    assert seen == [128, 128]


def test_non_finite_s_exit_2(capsys):
    for argv in (("continuum", "liouville", "--s", "inf"), ("continuum", "kirillov", "--s", "nan")):
        code, out, err = run(capsys, *argv)
        assert_json_error(code, out, err)
        assert "--s" in json.loads(out)["error"]


def test_zero_or_non_finite_c_exit_2(capsys):
    for argv in (("continuum", "kirillov", "--c", "0"), ("limit", "study", "--c", "nan")):
        code, out, err = run(capsys, *argv)
        assert_json_error(code, out, err)
        assert "--c" in json.loads(out)["error"]


def test_nodes_zero_exit_2(capsys):
    code, out, err = run(capsys, "continuum", "kirillov", "--nodes", "0")
    assert_json_error(code, out, err)
    assert "--nodes" in json.loads(out)["error"]


def test_nodes_env_negative_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("FRIEZE_LAB_NODES", "-5")
    code, out, err = run(capsys, "continuum", "kirillov")
    assert_json_error(code, out, err)
    assert "FRIEZE_LAB_NODES" in json.loads(out)["error"]


def test_grid_zero_exit_2_for_every_grid_command(capsys):
    for sub in ("liouville", "curvature"):
        code, out, err = run(capsys, "continuum", sub, "--grid", "0")
        assert_json_error(code, out, err)
        assert "--grid" in json.loads(out)["error"]


def test_curvature_h_not_positive_exit_2(capsys):
    for h in ("0", "nan"):
        code, out, err = run(capsys, "continuum", "curvature", "--grid", "8", "--h", h)
        assert_json_error(code, out, err)
        assert "--h" in json.loads(out)["error"]


def test_limit_study_repeated_or_no_n_exit_2(capsys):
    for counts in ("100,100,200", ","):
        code, out, err = run(capsys, "limit", "study", "--n", counts)
        assert_json_error(code, out, err)


def test_nodes_below_floor_exit_2(capsys):
    code, out, err = run(capsys, "continuum", "kirillov", "--nodes", "1")
    assert_json_error(code, out, err)
    assert "--nodes" in json.loads(out)["error"]


def test_nodes_env_below_floor_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("FRIEZE_LAB_NODES", "8")
    code, out, err = run(capsys, "continuum", "kirillov")
    assert_json_error(code, out, err)
    assert "FRIEZE_LAB_NODES" in json.loads(out)["error"]


def test_steps_only_on_hill(capsys):
    for sub in ("frieze2d", "liouville", "curvature", "kirillov"):
        code, out, err = run(capsys, "continuum", sub, "--steps", "128")
        assert_json_error(code, out, err)
        assert "--steps" in json.loads(out)["error"]


def test_usage_errors_exit_2_with_json(capsys):
    for argv in (
        ("continuum", "hill", "--bogus"),
        ("continuum", "hill", "--family", "cube"),
        ("continuum", "frieze2d", "--grid", "x"),
        ("frieze", "gen"),
    ):
        code, out, err = run(capsys, *argv)
        assert_json_error(code, out, err)
        assert err == ""
    assert "--quiddity" in json.loads(run(capsys, "frieze", "gen")[1])["error"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "frieze-lab" in capsys.readouterr().out


def test_liouville_grid_floor(capsys):
    from frieze_lab.continuous import MIN_LIOUVILLE_GRID

    code, out, err = run(capsys, "continuum", "liouville", "--grid", "8")
    assert_json_error(code, out, err)
    assert "--grid" in json.loads(out)["error"]
    code, out, _ = run(capsys, "continuum", "liouville", "--grid", str(MIN_LIOUVILLE_GRID))
    assert code == 0
    assert json.loads(out)["grid"] == MIN_LIOUVILLE_GRID
