"""Command-line front end.

Subcommands: ``bound`` prints the area bound and the regular polygon's area;
``construct`` builds a polygon from the reduced family; ``optimize`` solves
the full angle program; ``table`` reproduces the embedded reference tables
with per-cell deltas; ``verify`` revalidates an emitted record; ``render``
draws a record as SVG.

Exit codes: 0 success, 2 usage error, 3 infeasible or non-convergent,
4 validation or reproduction failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, geometry, reduced, reference, solver

USAGE_ERROR = 2
INFEASIBLE_ERROR = 3
VALIDATION_ERROR = 4
# a record's claimed area and diameter, and its skeleton edge lengths, must
# match what its vertices give to within this
RECORD_TOL = 1e-12


# ---------------------------------------------------------------------------
# serialization: JSON floats round-trip losslessly; text and CSV floats are
# printed with 17 significant digits
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("records must not contain NaN or infinity")
    return format(x, ".17g")


@dataclass(eq=False)
class PolygonRecord:
    """Everything needed to reconstruct, verify, and render one polygon.

    ``points`` holds the vertices as one read-only float array of (x, y)
    rows; ``vertices`` is the same coordinates as a tuple of pairs.
    """

    n: int
    r: int | None
    method: str
    area: float
    upper_bound: float
    gap: float
    diameter: float
    angles: tuple[float, ...]
    points: np.ndarray = field(repr=False)
    is_convex: bool
    is_symmetric: bool
    is_small: bool
    diagnostics: dict = field(default_factory=dict)

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self.points.tolist()))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "method": self.method,
            "area": self.area,
            "upper_bound": self.upper_bound,
            "gap": self.gap,
            "diameter": self.diameter,
            "angles": list(self.angles),
            "vertices": self.points.tolist(),
            "valid": {
                "is_convex": self.is_convex,
                "is_symmetric": self.is_symmetric,
                "is_small": self.is_small,
            },
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolygonRecord":
        """The record ``data`` holds; a missing or malformed entry is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"record is a JSON {type(data).__name__}, not an object")

        def entry(key, convert, *default):
            try:
                return convert(data.get(key, *default) if default else data[key])
            except KeyError:
                raise ValueError(f"record has no {key!r}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"record {key!r} is malformed: {exc}") from None

        n = entry("n", int)
        points = entry("vertices", _vertex_array)
        valid = entry("valid", dict, {})
        return cls(
            n=n,
            r=entry("r", lambda r: None if r is None else int(r), None),
            method=entry("method", str),
            area=entry("area", float),
            upper_bound=entry("upper_bound", float),
            gap=entry("gap", float),
            diameter=entry("diameter", float),
            angles=entry("angles", lambda a: tuple(float(t) for t in a)),
            points=points,
            is_convex=bool(valid.get("is_convex")),
            is_symmetric=bool(valid.get("is_symmetric")),
            is_small=bool(valid.get("is_small")),
            diagnostics=entry("diagnostics", dict, {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PolygonRecord":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"record is not JSON: {exc}") from None
        return cls.from_dict(data)


def _vertex_array(vertices) -> np.ndarray:
    """A record's vertices as a read-only (k, 2) float array."""
    try:
        pts = np.array(vertices, dtype=float)
    except (TypeError, ValueError):
        pts = None
    if pts is None or pts.ndim != 2 or pts.shape[1] != 2 or not np.isfinite(pts).all():
        raise ValueError("expected a list of [x, y] pairs of finite numbers")
    pts.flags.writeable = False
    return pts


def make_record(n, r, method, polygon, report, angles, diagnostics) -> PolygonRecord:
    return PolygonRecord(
        n=n,
        r=r,
        method=method,
        area=report.area,
        upper_bound=report.upper_bound,
        gap=report.gap,
        diameter=report.diameter,
        angles=tuple(angles),
        points=polygon.points,
        is_convex=report.is_convex,
        is_symmetric=report.is_symmetric,
        is_small=report.is_small,
        diagnostics=diagnostics,
    )


def record_to_csv(record: PolygonRecord) -> str:
    lines = ["index,x,y"]
    for i, (x, y) in enumerate(record.points.tolist()):
        lines.append(f"{i},{_format_float(x)},{_format_float(y)}")
    return "\n".join(lines) + "\n"


def record_to_text(record: PolygonRecord) -> str:
    lines = [
        f"n = {record.n}"
        + (f", r = {record.r}" if record.r is not None else "")
        + f", method = {record.method}",
        f"area       = {_format_float(record.area)}",
        f"upper bound = {_format_float(record.upper_bound)}",
        f"gap        = {_format_float(record.gap)}",
        f"diameter   = {_format_float(record.diameter)}",
        f"valid      = convex:{record.is_convex} symmetric:{record.is_symmetric} "
        f"small:{record.is_small}",
        "angles     = " + ", ".join(f"{t:.10f}" for t in record.angles),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def record_to_svg(record: PolygonRecord) -> str:
    """Polygon outline, its unit-distance skeleton, and the diameter circle.

    Drawn in polygon coordinates with the y axis flipped for screen
    orientation; the view box is fixed so golden-file comparisons are stable.
    """
    def pt(v):
        return f"{v[0]:.6f},{-v[1]:.6f}"

    polygon = geometry.polygon_from_vertices(record.n, record.points)
    verts = record.points.tolist()
    path = "M " + " L ".join(pt(verts[i]) for i in polygon.boundary) + " Z"
    lines = []
    for i, j in polygon.skeleton_edges:
        (x1, y1), (x2, y2) = verts[i], verts[j]
        lines.append(
            f'  <line class="skeleton" x1="{x1:.6f}" y1="{-y1:.6f}" '
            f'x2="{x2:.6f}" y2="{-y2:.6f}" stroke="#888" stroke-width="0.004"/>'
        )
    body = "\n".join(lines)
    return f"""<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.6 -1.1 1.2 1.15">
  <circle cx="0" cy="-0.5" r="0.5" fill="none" stroke="#bbb" stroke-width="0.003"/>
{body}
  <path d="{path}" fill="none" stroke="#000" stroke-width="0.006"/>
</svg>
"""


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_record(record: PolygonRecord, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write_output(record.to_json(), out)
    elif fmt == "csv":
        _write_output(record_to_csv(record), out)
    elif fmt == "svg":
        _write_output(record_to_svg(record), out)
    else:
        _write_output(record_to_text(record), out)


def cmd_bound(args) -> int:
    ub = geometry.upper_bound(args.n)
    reg = geometry.regular_area(args.n)
    sys.stdout.write(
        f"n = {args.n}\n"
        f"upper bound   = {_format_float(ub)}\n"
        f"regular area  = {_format_float(reg)}\n"
        f"gap           = {_format_float(ub - reg)}\n"
    )
    return 0


def cmd_construct(args) -> int:
    if args.multistart < 0:
        raise ValueError(f"multistart must be >= 0, got {args.multistart}")
    polygon, report, params = reduced.construct_Q(args.n, args.r)
    angles = reduced.expand_angles(params).theta
    record = make_record(
        args.n, args.r, "reduced", polygon, report, angles,
        {"free_parameters": list(reduced.params_to_vector(params))},
    )
    _emit_record(record, args.format, args.out)
    return 0 if report.is_valid else VALIDATION_ERROR


def _check_tol(tol: float | None) -> None:
    """A ``--tol`` must be a positive finite number (``None``: the default)."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"--tol must be a positive finite number, got {tol}")


def cmd_optimize(args) -> int:
    _check_tol(args.tol)
    angles, area, diag = solver.solve_full_nlp(args.n, ctol=args.tol, ktol=args.tol * 100.0)
    polygon = geometry.vertices_from_angles(angles)
    report = geometry.validate(polygon)
    record = make_record(
        args.n, None, "full-nlp", polygon, report, angles.theta,
        {
            "constraint_residual": diag.constraint_residual,
            "kkt_norm": diag.kkt_norm,
            "inner_iterations": diag.iterations,
            "multipliers": list(diag.multipliers),
            "stop_reason": diag.stop_reason,
            "nfev": diag.nfev,
        },
    )
    _emit_record(record, args.format, args.out)
    return 0 if report.is_valid else VALIDATION_ERROR


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def table2_rows(r_list):
    """Computed vs embedded deficit coefficients for the r of ``asymptotics.CUBICS``."""
    rows = []
    for r in r_list:
        if r not in asymptotics.CUBICS:
            raise ValueError(f"table2 reproduces r in {sorted(asymptotics.CUBICS)}")
        q, _ = asymptotics.minimize_cubic(r)
        ref = reference.coeff_row(r).q
        rows.append((r, q, ref, q - ref))
    return rows


def table3_rows(n_list):
    """Computed vs embedded optimal small-n constructions.

    Each family cell runs the box maximizer from its one deterministic start.
    """
    rows = []
    for n in n_list:
        if n not in reference.OPTIMAL_SMALL_N:
            raise ValueError(f"table3 covers n in {sorted(reference.OPTIMAL_SMALL_N)}")
        ref = reference.OPTIMAL_SMALL_N[n]
        _, report, params = reduced.construct_Q(n, n // 2 - 2)
        rows.append((n, report.area, ref.area, report.area - ref.area, params))
    return rows


def _table5_row(n):
    ref = reference.AREA_COMPARISON[n]
    cells = [("regular", geometry.regular_area(n), ref.regular)]
    for r, ref_area in enumerate(ref.q):
        if ref_area is None:
            continue
        _, report, _ = reduced.construct_Q(n, r)
        cells.append((f"family r={r}", report.area, ref_area))
    _, area, _ = solver.solve_full_nlp(n)
    cells.append(("optimal", area, ref.optimal))
    cells.append(("bound", geometry.upper_bound(n), ref.upper))
    return n, cells


def table5_rows(n_list):
    """Full area comparison, one row per n.

    Each family cell runs the box maximizer from its one deterministic start.
    """
    for n in n_list:
        if n not in reference.AREA_COMPARISON:
            raise ValueError(f"table5 covers n in {sorted(reference.AREA_COMPARISON)}")
    return [_table5_row(n) for n in n_list]


def cmd_table(args) -> int:
    _check_tol(args.tol)
    if args.which == "table2" and args.n is not None:
        raise ValueError("--n does not apply to table2, which takes --r")
    if args.which != "table2" and args.r is not None:
        raise ValueError(f"--r does not apply to {args.which}, which takes --n")
    failed = False
    if args.which == "table2":
        r_list = _parse_int_list(args.r) if args.r else list(asymptotics.CUBICS)
        tol = args.tol if args.tol is not None else 1e-12
        sys.stdout.write(f"{'r':>3} {'computed':>22} {'reference':>22} {'delta':>12}\n")
        for r, q, ref, delta in table2_rows(r_list):
            mark = "" if abs(delta) <= tol else "  FAIL"
            failed = failed or bool(mark)
            sys.stdout.write(f"{r:>3} {q:>22.16f} {ref:>22.16f} {delta:>12.2e}{mark}\n")
    elif args.which == "table3":
        n_list = _parse_int_list(args.n) if args.n else [6, 8, 10, 12]
        tol = args.tol if args.tol is not None else 1e-9
        sys.stdout.write(f"{'n':>4} {'computed':>22} {'reference':>22} {'delta':>12}\n")
        for n, area, ref, delta, _ in table3_rows(n_list):
            mark = "" if abs(delta) <= tol else "  FAIL"
            failed = failed or bool(mark)
            sys.stdout.write(f"{n:>4} {area:>22.16f} {ref:>22.16f} {delta:>12.2e}{mark}\n")
    else:
        n_list = _parse_int_list(args.n) if args.n else sorted(reference.AREA_COMPARISON)
        tol = args.tol if args.tol is not None else 1e-8
        for n, cells in table5_rows(n_list):
            for label, value, ref in cells:
                delta = value - ref
                mark = "" if abs(delta) <= tol else "  FAIL"
                failed = failed or bool(mark)
                sys.stdout.write(
                    f"n={n:<4} {label:<12} {value:>16.10f} {ref:>16.10f} {delta:>12.2e}{mark}\n"
                )
    sys.stdout.write("FAIL\n" if failed else "PASS\n")
    return VALIDATION_ERROR if failed else 0


def _angles_error(record: PolygonRecord) -> float:
    """Largest distance from the chain the angles walk to vertices 0..n/2."""
    m = record.n // 2
    if len(record.angles) != m:
        return math.inf
    x, y = geometry.chain_coordinates(record.angles)
    chain = record.points[: m + 1]
    return float(np.max(np.hypot(x - chain[:, 0], y - chain[:, 1])))


def cmd_verify(args) -> int:
    """Revalidate the vertices and check the record's claims against them.

    The claimed area and diameter must match the values recomputed from the
    vertices, every skeleton edge must have unit length, and the chain that
    the claimed angles walk must land on vertices 0..n/2, all to
    ``RECORD_TOL``.
    """
    with open(args.file, encoding="utf-8") as fh:
        record = PolygonRecord.from_json(fh.read())
    polygon = geometry.polygon_from_vertices(record.n, record.points)
    report = geometry.validate(polygon)
    errors = {
        "area error": abs(record.area - report.area),
        "diameter error": abs(record.diameter - report.diameter),
        "edge error": report.edge_error,
        "angles error": _angles_error(record),
    }
    sys.stdout.write(
        f"area       = {_format_float(report.area)}\n"
        f"diameter   = {_format_float(report.diameter)}\n"
        f"gap        = {_format_float(report.gap)}\n"
        f"convex     = {report.is_convex}\n"
        f"symmetric  = {report.is_symmetric}\n"
        f"small      = {report.is_small}\n"
    )
    for label, err in errors.items():
        sys.stdout.write(f"{label:<14} = {err:.3e}\n")
    valid = report.is_valid and all(err <= RECORD_TOL for err in errors.values())
    return 0 if valid else VALIDATION_ERROR


def cmd_render(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        record = PolygonRecord.from_json(fh.read())
    _write_output(record_to_svg(record), args.svg_path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--n", type=int, required=True, help="number of sides (even)")
    sub.add_argument("--format", choices=("json", "csv", "svg", "text"), default="text")
    sub.add_argument("--out", default=None, help="write output to this file")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="smallpoly",
        description="Unit-diameter polygons with near-maximal area",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bound", help="area bound and regular-polygon area")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = subs.add_parser("construct", help="build a polygon from the reduced family")
    _add_common(p)
    p.add_argument("--r", type=int, required=True, help="free parameter count")
    p.add_argument("--multistart", type=int, default=0, help="accepted and unused")
    p.add_argument("--seed", type=int, default=0, help="accepted and unused")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("optimize", help="solve the full angle program")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-10, help="constraint tolerance")
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("table", help="reproduce an embedded reference table")
    p.add_argument("--which", choices=("table2", "table3", "table5"), required=True)
    p.add_argument("--n", default=None, help="comma-separated side counts")
    p.add_argument("--r", default=None, help="comma-separated r values (table2)")
    p.add_argument("--tol", type=float, default=None, help="per-cell tolerance")
    p.add_argument("--seed", type=int, default=0, help="accepted and unused")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("verify", help="revalidate an emitted JSON record")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("render", help="draw a JSON record as SVG")
    p.add_argument("file")
    p.add_argument("svg_path")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except solver.InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return INFEASIBLE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
