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
import itertools
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


# the claims a record makes of its polygon, each named once, in the record's
# JSON order: the values at its top level, the validity flags under "valid".
# The writer, the reader, the text view and ``verify`` all read these, and
# label a flag by its name without "is_"
CLAIMED_VALUES = ("area", "upper_bound", "gap", "diameter")
CLAIMED_FLAGS = ("is_convex", "is_symmetric", "is_small")


@dataclass(eq=False)
class PolygonRecord:
    """Everything needed to reconstruct, verify, and render one polygon.

    ``polygon`` holds the vertices, checked once by
    ``geometry.polygon_from_vertices``, as its read-only ``points`` array;
    ``claims`` maps each name of ``CLAIMED_VALUES`` and ``CLAIMED_FLAGS`` to
    what the record claims for it.
    """

    n: int
    r: int | None
    method: str
    claims: dict
    angles: tuple[float, ...]
    polygon: geometry.SmallPolygon = field(repr=False)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "method": self.method,
            **{k: self.claims[k] for k in CLAIMED_VALUES},
            "angles": list(self.angles),
            "vertices": self.polygon.points.tolist(),
            "valid": {k: self.claims[k] for k in CLAIMED_FLAGS},
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolygonRecord":
        """The record ``data`` holds; a missing or malformed entry is a ValueError.

        A missing ``valid`` object, or a flag missing from it, reads as False.
        """
        if not isinstance(data, dict):
            raise ValueError(f"record is a JSON {type(data).__name__}, not an object")

        def entry(key, convert, *default, within=data):
            try:
                return convert(within.get(key, *default) if default else within[key])
            except KeyError:
                raise ValueError(f"record has no {key!r}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"record {key!r} is malformed: {exc}") from None

        n = entry("n", lambda v: geometry.require_even(_json_int(v), minimum=6))
        polygon = entry("vertices", lambda v: geometry.polygon_from_vertices(n, _json_rows(v)))
        valid = entry("valid", dict, {})
        claims = {k: entry(k, _json_float) for k in CLAIMED_VALUES}
        claims.update((k, entry(k, _json_bool, False, within=valid)) for k in CLAIMED_FLAGS)
        return cls(
            n=n,
            r=entry("r", lambda r: None if r is None else _json_int(r), None),
            method=entry("method", str),
            claims=claims,
            angles=entry("angles", lambda a: tuple(map(float, _json_numbers(a)))),
            polygon=polygon,
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


def _json_int(value) -> int:
    """A JSON integer as it is; a float, string or boolean is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {json.dumps(value)}")
    return value


def _json_bool(value) -> bool:
    """A JSON boolean as it is; a string, number or null is a ValueError."""
    if type(value) is not bool:
        raise ValueError(f"expected a JSON boolean, got {json.dumps(value)}")
    return value


def _json_float(value) -> float:
    """A JSON number as a float; a string, boolean or null is a ValueError."""
    return float(_json_numbers([value])[0])


def _json_numbers(values) -> list:
    """``values`` as a list of JSON numbers; a string, boolean or null is a ValueError.

    The types are gathered in one set, so the 2n coordinates of a large
    record are checked without a Python call per value.
    """
    values = list(values)
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) is not int and type(v) is not float)
        raise ValueError(f"expected a JSON number, got {json.dumps(bad)}")
    return values


def _json_rows(rows) -> list:
    """``rows`` as it is, once every entry of every row is a JSON number."""
    _json_numbers(itertools.chain.from_iterable(rows))
    return rows


def make_record(n, r, method, polygon, report, angles, diagnostics) -> PolygonRecord:
    claims = {k: getattr(report, k) for k in CLAIMED_VALUES + CLAIMED_FLAGS}
    return PolygonRecord(n, r, method, claims, tuple(angles), polygon, diagnostics)


def record_to_csv(record: PolygonRecord) -> str:
    lines = ["index,x,y"]
    for i, (x, y) in enumerate(record.polygon.points.tolist()):
        lines.append(f"{i},{_format_float(x)},{_format_float(y)}")
    return "\n".join(lines) + "\n"


def record_to_text(record: PolygonRecord) -> str:
    claims = record.claims
    lines = [
        f"n = {record.n}"
        + (f", r = {record.r}" if record.r is not None else "")
        + f", method = {record.method}",
        *(f"{k.replace('_', ' '):<10} = {_format_float(claims[k])}" for k in CLAIMED_VALUES),
        "valid      = " + " ".join(f"{k[3:]}:{claims[k]}" for k in CLAIMED_FLAGS),
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

    polygon = record.polygon
    path = "M " + " L ".join(map(pt, polygon.points[polygon.boundary].tolist())) + " Z"
    verts = polygon.points.tolist()
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
    angles, area, diag = solver.solve_full_nlp(args.n, tol=args.tol)
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


def _table2_cells(r):
    q, _ = asymptotics.minimize_cubic(r)
    return [(f"{r:>3}", q, reference.coeff_row(r).q)]


def _checked_area(report) -> float:
    """A report's area, or nan, which fails every tolerance, if its polygon is invalid."""
    return report.area if report.is_valid else math.nan


def _table3_cells(n):
    _, report, _ = reduced.construct_Q(n, n // 2 - 2)
    return [(f"{n:>4}", _checked_area(report), reference.OPTIMAL_SMALL_N[n].area)]


def _table5_cells(n):
    ref = reference.AREA_COMPARISON[n]
    label = f"n={n:<4} {{:<12}}".format
    yield label("regular"), geometry.regular_area(n), ref.regular
    for r, ref_area in enumerate(ref.q):
        if ref_area is not None:
            _, report, _ = reduced.construct_Q(n, r)
            yield label(f"family r={r}"), _checked_area(report), ref_area
    angles, _, _ = solver.solve_full_nlp(n)
    report = geometry.validate(geometry.vertices_from_angles(angles))
    yield label("optimal"), _checked_area(report), ref.optimal
    yield label("bound"), geometry.upper_bound(n), ref.upper


# which -> (the flag naming its keys, the keys it covers in default order,
# default per-cell tolerance, header, width.precision of a value, the cells
# of one key as (label, computed, reference)); each family cell runs the
# box maximizer from its one deterministic start
TABLES = {
    "table2": ("r", tuple(asymptotics.CUBICS), 1e-12,
               f"{'r':>3} {'computed':>22} {'reference':>22} {'delta':>12}\n", "22.16",
               _table2_cells),
    "table3": ("n", tuple(sorted(reference.OPTIMAL_SMALL_N)), 1e-9,
               f"{'n':>4} {'computed':>22} {'reference':>22} {'delta':>12}\n", "22.16",
               _table3_cells),
    "table5": ("n", tuple(sorted(reference.AREA_COMPARISON)), 1e-8, "", "16.10",
               _table5_cells),
}


def cmd_table(args) -> int:
    """Print one reference table, every key checked before any cell is computed."""
    _check_tol(args.tol)
    flag, covered, tol, header, width, cells = TABLES[args.which]
    other = "n" if flag == "r" else "r"
    if getattr(args, other) is not None:
        raise ValueError(f"--{other} does not apply to {args.which}, which takes --{flag}")
    text = getattr(args, flag)
    keys = covered if text is None else _parse_int_list(text)
    if not keys or not set(keys) <= set(covered):
        raise ValueError(f"{args.which} covers {flag} in {sorted(covered)}, got {text!r}")
    tol = args.tol if args.tol is not None else tol
    sys.stdout.write(header)
    failed = False
    for key in keys:
        for label, value, ref in cells(key):
            delta = value - ref
            mark = "" if abs(delta) <= tol else "  FAIL"
            failed = failed or bool(mark)
            sys.stdout.write(f"{label} {value:>{width}f} {ref:>{width}f} {delta:>12.2e}{mark}\n")
    sys.stdout.write("FAIL\n" if failed else "PASS\n")
    return VALIDATION_ERROR if failed else 0


def _angles_error(record: PolygonRecord) -> float:
    """Largest distance from the chain the angles walk to vertices 0..n/2."""
    m = record.n // 2
    if len(record.angles) != m:
        return math.inf
    x, y = geometry.chain_coordinates(record.angles)
    chain = record.polygon.points[: m + 1]
    return float(np.max(np.hypot(x - chain[:, 0], y - chain[:, 1])))


def cmd_verify(args) -> int:
    """Revalidate the vertices and check every claim of the record against them.

    Each value of ``CLAIMED_VALUES`` must match the one ``validate`` gives
    (the upper bound is ``upper_bound(n)``), every skeleton edge must have
    unit length, and the chain that the claimed angles walk must land on
    vertices 0..n/2, all to ``RECORD_TOL``; each flag of ``CLAIMED_FLAGS``
    must be the one ``validate`` gives.
    """
    with open(args.file, encoding="utf-8") as fh:
        record = PolygonRecord.from_json(fh.read())
    report = geometry.validate(record.polygon)
    claims = record.claims
    errors = {
        **{f"{k.split('_')[-1]} error": abs(claims[k] - getattr(report, k))
           for k in CLAIMED_VALUES},
        "edge error": report.edge_error,
        "angles error": _angles_error(record),
    }
    claims_hold = all(claims[k] == getattr(report, k) for k in CLAIMED_FLAGS)
    sys.stdout.write(
        f"area       = {_format_float(report.area)}\n"
        f"diameter   = {_format_float(report.diameter)}\n"
        f"gap        = {_format_float(report.gap)}\n"
        + "".join(f"{k[3:]:<10} = {getattr(report, k)}\n" for k in CLAIMED_FLAGS)
    )
    for label, err in errors.items():
        sys.stdout.write(f"{label:<14} = {err:.3e}\n")
    valid = report.is_valid and claims_hold and all(err <= RECORD_TOL for err in errors.values())
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
