import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from smallpoly import geometry, reduced, reference, solver
from smallpoly.cli import PolygonRecord, build_parser, main, record_to_csv, record_to_svg
from smallpoly.geometry import max_pairwise_distance


def with_vertex(data, k, vertex):
    """The record ``data`` with vertex k replaced."""
    return {**data, "vertices": data["vertices"][:k] + [vertex] + data["vertices"][k + 1 :]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_vertices(text):
    """The (x, y) columns of an ``index,x,y`` CSV."""
    return [tuple(float(v) for v in line.split(",")[1:]) for line in text.splitlines()[1:]]


class TestBound:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "6")
        assert code == 0
        assert "0.68770075941" in out
        assert "0.64951905283" in out

    def test_thirty(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "30")
        assert code == 0
        assert "0.78175979" in out
        assert "0.77966884" in out

    def test_odd_rejected(self, capsys):
        code, _, err = run(capsys, "bound", "--n", "7")
        assert code == 2
        assert "error" in err


class TestConstruct:
    def test_json_area(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--n", "12", "--r", "4", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["area"] == pytest.approx(0.7607298734487962, abs=1e-9)
        assert data["method"] == "reduced"
        assert len(data["vertices"]) == 12
        assert len(data["angles"]) == 6

    def test_negative_multistart_rejected(self, capsys):
        code, out, err = run(
            capsys, "construct", "--n", "12", "--r", "2", "--multistart", "-3"
        )
        assert code == 2
        assert out == ""
        assert "multistart" in err

    def test_ignores_restart_flags(self, capsys):
        base = ("construct", "--n", "40", "--r", "4", "--format", "json")
        outs = [
            run(capsys, *base, *flags)
            for flags in ((), ("--multistart", "2", "--seed", "0"),
                          ("--multistart", "2", "--seed", "777"))
        ]
        assert [code for code, _, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1] == outs[2][1]

    def test_text_default(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "6", "--r", "0")
        assert code == 0
        assert "0.67228825" in out

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "8", "--r", "3")
        assert code == 2
        assert "error" in err

    def test_csv_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "poly.csv"
        code, _, _ = run(
            capsys, "construct", "--n", "6", "--r", "1", "--format", "csv",
            "--out", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert text.splitlines()[0] == "index,x,y"
        verts = csv_vertices(text)
        assert len(verts) == 6
        assert max_pairwise_distance(verts) == pytest.approx(1.0, abs=1e-15)


class TestOptimize:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "optimize", "--n", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["area"] == pytest.approx(0.6749814429, abs=1e-9)
        assert data["angles"] == pytest.approx(
            [0.350930, 0.653342, 0.566524], abs=1e-6
        )
        assert data["method"] == "full-nlp"
        assert data["r"] is None

    def test_fourteen_gon(self, capsys):
        code, out, _ = run(capsys, "optimize", "--n", "14", "--format", "json")
        assert code == 0
        assert json.loads(out)["area"] == pytest.approx(0.7675310111, abs=1e-8)

    def test_unreachable_tolerance(self, capsys):
        code, _, err = run(capsys, "optimize", "--n", "8", "--tol", "1e-30")
        assert code == 3
        assert "infeasible" in err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "-inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "optimize", "--n", "14", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol must be a positive finite number")

    def test_diagnostics_schema(self, capsys):
        code, out, _ = run(capsys, "optimize", "--n", "14", "--format", "json")
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert set(diag) == {
            "constraint_residual", "kkt_norm", "inner_iterations", "multipliers",
            "stop_reason", "nfev",
        }
        assert diag["stop_reason"] == "residual below 1e-13"
        assert isinstance(diag["nfev"], int)
        # the start is evaluated once, its least-squares multipliers fit to
        # that evaluation, and each Newton step adds at least one evaluation
        assert diag["nfev"] >= diag["inner_iterations"] + 1


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--n", "6", "--r", "1", "--tol", "1e-8"),
        ("construct", "--n", "6", "--r", "1", "--max-iter", "10"),
        ("optimize", "--n", "6", "--multistart", "1"),
        ("optimize", "--n", "6", "--seed", "1"),
        ("optimize", "--n", "6", "--max-iter", "10"),
    ],
    ids=["construct-tol", "construct-max-iter", "optimize-multistart", "optimize-seed",
         "optimize-max-iter"],
)
def test_removed_flags_rejected(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_parser_reuse_matches_fresh_parser(capsys):
    """The parser is built once; later calls behave as on a fresh parser."""
    calls = [
        ("bound", "--n", "6"),
        ("construct", "--n", "8", "--r", "2", "--format", "json"),
        ("construct", "--n", "6", "--r", "1", "--tol", "1e-8"),  # usage error
        ("table", "--which", "table3", "--n", "6"),
        ("bound", "--n", "7"),  # domain error
        ("table", "--which", "table9"),  # invalid choice
        ("bound", "--n", "6"),
    ]
    assert build_parser() is build_parser()
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 2, 2, 0]
    assert reused == fresh


class TestRecordSerialization:
    def _record(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--n", "8", "--r", "2", "--format", "json",
        )
        assert code == 0
        return PolygonRecord.from_json(out)

    def test_json_bitwise_roundtrip(self, capsys):
        record = self._record(capsys)
        again = PolygonRecord.from_json(record.to_json())
        assert again.to_dict() == record.to_dict()
        assert again.claims["area"] == record.claims["area"]
        assert again.polygon.points.tolist() == record.polygon.points.tolist()

    def test_rejects_nan(self, capsys):
        record = self._record(capsys)
        record.claims["area"] = float("nan")
        with pytest.raises(ValueError):
            record.to_json()


class TestVerifyRender:
    def _record_file(self, capsys, tmp_path):
        path = tmp_path / "hex.json"
        code, _, _ = run(
            capsys, "construct", "--n", "6", "--r", "1", "--format", "json",
            "--out", str(path),
        )
        assert code == 0
        return path

    def test_verify_good(self, capsys, tmp_path):
        path = self._record_file(capsys, tmp_path)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "small      = True" in out

    def test_verify_tampered(self, capsys, tmp_path):
        path = self._record_file(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["vertices"][2][0] -= 0.1
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 4
        assert "small      = False" in out

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda d: d.update(vertices=[[0.9 * x, 0.9 * y] for x, y in d["vertices"]]),
            lambda d: d.update(area=0.99),
            lambda d: d.update(diameter=0.99),
            lambda d: d.update(
                vertices=[[0.9 * x, 0.9 * y] for x, y in d["vertices"]],
                area=0.81 * d["area"],
                diameter=0.9 * d["diameter"],
            ),
            lambda d: d.update(upper_bound=2.0),
            lambda d: d.update(gap=0.5),
            lambda d: d.update(gap=d["gap"] + 1e-11),
            lambda d: d.update(valid={"is_convex": False, "is_symmetric": False, "is_small": False}),
            lambda d: d["valid"].update(is_convex=False),
        ],
        ids=[
            "vertices_scaled", "area_claimed", "diameter_claimed", "claims_rescaled",
            "bound_claimed", "gap_claimed", "gap_off_by_1e-11", "all_flags_false",
            "convex_false",
        ],
    )
    def test_verify_checks_claims(self, capsys, tmp_path, tamper):
        # every record still describes a small convex symmetric polygon; only
        # its claims give it away: the area, the diameter, the bound, the gap,
        # a validity flag, or (when the area and diameter are rescaled with
        # the vertices) the skeleton edge lengths
        path = self._record_file(capsys, tmp_path)
        data = json.loads(path.read_text())
        tamper(data)
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 4
        assert "small      = True" in out

    def test_verify_checks_angles(self, capsys, tmp_path):
        # the vertices stay a valid polygon; only the claimed angles move
        path = self._record_file(capsys, tmp_path)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "angles error   = 0.000e+00" in out
        data = json.loads(path.read_text())
        data["angles"][1] += 1e-9
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 4
        assert "small      = True" in out and "angles error   = 0.000e+00" not in out

    def test_render(self, capsys, tmp_path):
        path = self._record_file(capsys, tmp_path)
        svg_path = tmp_path / "hex.svg"
        code, _, _ = run(capsys, "render", str(path), str(svg_path))
        assert code == 0
        svg = svg_path.read_text()
        assert svg.count("<line") == 6
        assert "<path" in svg and "<circle" in svg
        assert 'viewBox="-0.6 -1.1 1.2 1.15"' in svg

    def test_render_twelve_gon(self, capsys, tmp_path):
        path = tmp_path / "twelve.json"
        code, _, _ = run(
            capsys, "construct", "--n", "12", "--r", "4", "--format", "json",
            "--out", str(path),
        )
        assert code == 0
        svg_path = tmp_path / "twelve.svg"
        code, _, _ = run(capsys, "render", str(path), str(svg_path))
        assert code == 0
        assert svg_path.read_text().count("<line") == 12

    @pytest.mark.parametrize("command", ["verify", "render"])
    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda d: {"n": 6, "r": 1}, "record has no 'vertices'"),
            (lambda d: {**d, "vertices": 5}, "record 'vertices' is malformed"),
            (lambda d: {**d, "vertices": {"x": 0.0}}, "record 'vertices' is malformed"),
            (
                lambda d: {**d, "vertices": d["vertices"][:3] + [[0.5]] + d["vertices"][4:]},
                "record 'vertices' is malformed",
            ),
            (
                lambda d: {**d, "vertices": [[math.inf, 0.0]] + d["vertices"][1:]},
                "record 'vertices' is malformed",
            ),
            # polygon_from_vertices checks for exactly n finite vertices, n is
            # checked before them, and a number no float holds is malformed
            (lambda d: {**d, "vertices": d["vertices"][:-1]}, "record 'vertices' is malformed"),
            (lambda d: with_vertex(d, 2, [math.nan, 0.5]), "record 'vertices' is malformed"),
            (lambda d: with_vertex(d, 2, [10**400, 0.5]), "record 'vertices' is malformed"),
            (lambda d: {**d, "area": 10**400}, "record 'area' is malformed"),
            (lambda d: {**d, "n": d["n"] + 1}, "record 'n' is malformed"),
            (lambda d: {**d, "n": 4, "vertices": d["vertices"][:4]}, "record 'n' is malformed"),
            (lambda d: {k: v for k, v in d.items() if k != "area"}, "record has no 'area'"),
            (lambda d: [d], "record is an array, not an object"),
            # n and r are JSON integers, never truncated or parsed
            (lambda d: {**d, "n": d["n"] + 0.9}, "record 'n' is malformed"),
            (lambda d: {**d, "n": float(d["n"])}, "record 'n' is malformed"),
            (lambda d: {**d, "n": str(d["n"])}, "record 'n' is malformed"),
            (lambda d: {**d, "n": True}, "record 'n' is malformed"),
            (lambda d: {**d, "r": d["r"] + 0.5}, "record 'r' is malformed"),
            (lambda d: {**d, "r": str(d["r"])}, "record 'r' is malformed"),
            # every other number is a JSON number, never a string or boolean
            # that float() would accept
            (lambda d: {**d, "area": str(d["area"])}, "record 'area' is malformed"),
            (lambda d: {**d, "area": True}, "record 'area' is malformed"),
            (lambda d: {**d, "upper_bound": str(d["upper_bound"])},
             "record 'upper_bound' is malformed"),
            (lambda d: {**d, "gap": str(d["gap"])}, "record 'gap' is malformed"),
            (lambda d: {**d, "diameter": False}, "record 'diameter' is malformed"),
            (lambda d: {**d, "angles": [str(t) for t in d["angles"]]},
             "record 'angles' is malformed"),
            (lambda d: {**d, "angles": d["angles"][:-1] + [True]}, "record 'angles' is malformed"),
            (lambda d: with_vertex(d, 2, [str(v) for v in d["vertices"][2]]),
             "record 'vertices' is malformed"),
            (lambda d: with_vertex(d, 2, [d["vertices"][2][0], True]),
             "record 'vertices' is malformed"),
            (
                lambda d: {
                    **d,
                    "area": str(d["area"]),
                    "vertices": [[str(v) for v in row] for row in d["vertices"]],
                },
                "record 'vertices' is malformed",
            ),
            # a validity flag is a JSON boolean, never a string, number or null
            # that bool() would read
            (lambda d: {**d, "valid": {**d["valid"], "is_convex": "false"}},
             "record 'is_convex' is malformed"),
            (lambda d: {**d, "valid": {**d["valid"], "is_symmetric": 0}},
             "record 'is_symmetric' is malformed"),
            (lambda d: {**d, "valid": {**d["valid"], "is_small": None}},
             "record 'is_small' is malformed"),
            # method is a JSON string and valid and diagnostics are JSON
            # objects, never values that str() or dict() would convert
            (lambda d: {**d, "method": None}, "record 'method' is malformed"),
            (lambda d: {**d, "method": 3}, "record 'method' is malformed"),
            (lambda d: {**d, "valid": [[k, v] for k, v in d["valid"].items()]},
             "record 'valid' is malformed"),
            (lambda d: {**d, "diagnostics": []}, "record 'diagnostics' is malformed"),
        ],
        ids=["missing_key", "vertices_int", "vertices_dict", "ragged_vertex",
             "infinite_vertex", "missing_vertex", "nan_vertex",
             "overflowing_vertex", "overflowing_area", "n_odd", "n_below_six",
             "missing_area", "not_an_object", "n_fraction",
             "n_integral_float", "n_string", "n_bool", "r_fraction", "r_string",
             "area_string", "area_bool", "upper_bound_string", "gap_string",
             "diameter_bool", "angles_strings", "angle_bool", "vertex_strings",
             "vertex_bool", "every_vertex_and_area_strings", "convex_string",
             "symmetric_zero", "small_null", "method_null", "method_number",
             "valid_array", "diagnostics_array"],
    )
    def test_malformed_record_is_usage_error(self, capsys, tmp_path, command, tamper, message):
        path = self._record_file(capsys, tmp_path)
        path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
        argv = [command, str(path)] + ([str(tmp_path / "out.svg")] if command == "render" else [])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_svg_deterministic(self, capsys, tmp_path):
        path = self._record_file(capsys, tmp_path)
        record = PolygonRecord.from_json(path.read_text())
        assert record_to_svg(record) == record_to_svg(record)


# runs one CLI command with the process's address space capped at 1 GiB
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from smallpoly.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(*argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, *argv],
        capture_output=True, text=True, env=env, timeout=600,
    )


class TestLargeN:
    def test_construct_and_verify_n_100000_in_1_gib(self, tmp_path):
        path = str(tmp_path / "n100000.json")
        proc = run_capped(
            "construct", "--n", "100000", "--r", "16",
            "--format", "json", "--out", path,
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_capped("verify", path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "convex     = True" in proc.stdout


class TestTable:
    def test_table2(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "table2", "--r", "1,2")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_table3(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "table3", "--n", "6")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_table5_small(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "table5", "--n", "6,8")
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "n=6" in out and "n=8" in out

    def test_table5_ignores_seed(self, capsys):
        outs = [
            run(capsys, "table", "--which", "table5", "--n", "6,40", "--seed", seed)
            for seed in ("0", "777")
        ]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1] == outs[1][1]

    def test_table_bad_n(self, capsys):
        code, _, err = run(capsys, "table", "--which", "table5", "--n", "7")
        assert code == 2

    @pytest.mark.parametrize(
        "which, flag, value",
        [("table5", "--n", ","), ("table3", "--n", "7"), ("table3", "--n", "6,7"),
         ("table2", "--r", ""), ("table2", "--r", "4")],
    )
    def test_empty_or_unknown_keys_print_nothing(self, capsys, which, flag, value):
        # every key is checked before the header or any cell is printed
        code, out, err = run(capsys, "table", "--which", which, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {which} covers {flag[2:]} in [")

    @pytest.mark.parametrize(
        "which, flag, value",
        [("table2", "--n", "999"), ("table3", "--r", "5"), ("table5", "--r", "2")],
    )
    def test_flag_of_another_table_is_usage_error(self, capsys, which, flag, value):
        code, out, err = run(capsys, "table", "--which", which, flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} does not apply to {which}, which takes " + (
            "--r\n" if which == "table2" else "--n\n"
        )

    def test_table5_takes_n_and_seed(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "table5", "--n", "6", "--seed", "3")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_cell_outside_tol_fails(self, capsys):
        # n = 8 is 1.11e-16 off its reference, n = 6 exactly on it
        code, out, _ = run(capsys, "table", "--which", "table3", "--n", "6,8", "--tol", "1e-17")
        assert code == 4
        lines = out.splitlines()
        assert not lines[1].endswith("FAIL")
        assert lines[2].startswith("   8 ") and lines[2].endswith("  FAIL")
        assert lines[-1] == "FAIL"

    @pytest.mark.parametrize("which", ["table3", "table5"])
    def test_cell_of_an_invalid_polygon_fails(self, capsys, monkeypatch, which):
        # each family cell's polygon is validated; one that is not valid
        # reads nan, which no tolerance accepts
        checked = reduced.validate
        monkeypatch.setattr(
            reduced, "validate", lambda p: dataclasses.replace(checked(p), is_small=False)
        )
        code, out, _ = run(capsys, "table", "--which", which, "--n", "6")
        assert code == 4
        cells = [line for line in out.splitlines()[:-1] if "nan" in line]
        assert len(cells) == (1 if which == "table3" else 2)  # r = 1; r = 0 and 1
        assert all(line.endswith("nan  FAIL") for line in cells)
        assert out.splitlines()[-1] == "FAIL"

    def test_optimal_cell_of_an_invalid_polygon_fails(self, capsys, monkeypatch):
        # the optimal cell is validated as the family cells are: a full-program
        # result whose polygon is not valid reads nan, whatever area it claims
        flat = geometry.AngleVector(6, (math.pi / 6, math.pi / 3, 0.0))
        assert not geometry.validate(geometry.vertices_from_angles(flat)).is_valid
        claimed = reference.AREA_COMPARISON[6].optimal
        monkeypatch.setattr(solver, "solve_full_nlp", lambda n: (flat, claimed, None))
        code, out, _ = run(capsys, "table", "--which", "table5", "--n", "6")
        assert code == 4
        cells = [line for line in out.splitlines()[:-1] if "nan" in line]
        assert len(cells) == 1 and cells[0].startswith("n=6    optimal ")
        assert cells[0].endswith("nan  FAIL")
        assert out.splitlines()[-1] == "FAIL"

    @pytest.mark.parametrize(
        "which, tol",
        [("table5", "-1"), ("table5", "nan"), ("table3", "0"), ("table2", "inf")],
    )
    def test_bad_tolerance_is_usage_error(self, capsys, which, tol):
        # a flag the table takes, so that --tol is the only thing wrong
        rows = ("--r", "1") if which == "table2" else ("--n", "6")
        code, out, err = run(capsys, "table", "--which", which, *rows, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol must be a positive finite number")


class TestCsv:
    def test_record_to_csv_digits(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--n", "6", "--r", "0", "--format", "json"
        )
        record = PolygonRecord.from_json(out)
        csv_text = record_to_csv(record)
        assert csv_text.splitlines()[0] == "index,x,y"
        assert csv_vertices(csv_text) == list(map(tuple, record.polygon.points.tolist()))
