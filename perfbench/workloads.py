"""The benchmark's workloads: operations on smallpoly and their output checks.

Every operation returns ``(output, error)``.  ``output`` is what the program
produced (printed text, a fitted coefficient, record bytes), kept so traced
and untraced runs can be compared bit for bit; ``error`` is ``None`` when the
output passed its check and a one-line reason otherwise.  The operation
lists and tolerances are read from ``workloads.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import numpy as np

from smallpoly import asymptotics, cli, reference

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv) -> tuple[int, str]:
    """``cli.main`` in process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# table5-sweep
# ---------------------------------------------------------------------------

def table5_op(n: int, seed: int, cell_tol: float):
    code, out = run_cli(["table", "--which", "table5", "--n", n, "--seed", seed])
    lines = out.splitlines()
    if code != 0 or lines[-1:] != ["PASS"]:
        return out, f"table5 n={n}: exit {code}, last line {lines[-1:]}"
    ref = reference.AREA_COMPARISON[n]
    expected = {"regular": ref.regular, "optimal": ref.optimal, "bound": ref.upper}
    expected.update({f"family r={r}": q for r, q in enumerate(ref.q) if q is not None})
    # line layout: n=<n> <label> <computed> <reference> <delta>
    cells = {}
    for line in lines[:-1]:
        parts = line.split()
        cells[" ".join(parts[1:-3])] = float(parts[-3])
    if cells.keys() != expected.keys():
        return out, f"table5 n={n}: cells {sorted(cells)} != {sorted(expected)}"
    worst = max(abs(cells[k] - expected[k]) for k in expected)
    if not worst <= cell_tol:
        return out, f"table5 n={n}: worst cell delta {worst:.3e} > {cell_tol:.0e}"
    return out, None


# ---------------------------------------------------------------------------
# q-extrapolation
# ---------------------------------------------------------------------------

def q_op(r: int, grid, seed: int, tol: float):
    fit = asymptotics.estimate_q_numeric(r, grid, seed=seed)
    delta = fit.q_estimate - reference.coeff_row(r).q
    if not abs(delta) <= tol:
        return fit.q_estimate, f"q r={r}: |delta| {abs(delta):.3e} > {tol:.0e}"
    return fit.q_estimate, None


def certificates_op():
    report = asymptotics.verify_certificates()
    output = (report.q1, report.q2, report.q3)
    return output, None if report.all_passed else "certificates: not all_passed"


# ---------------------------------------------------------------------------
# large-n-roundtrip
# ---------------------------------------------------------------------------

def check_record(text: str, edge_tol: float, area_tol: float):
    """O(n) checks of an emitted record, independent of ``smallpoly verify``.

    Every skeleton edge (the (n-1)-cycle v_0 .. v_{n-2} plus the pendant edge
    v_0 v_{n-1}) must have unit length, and the record's ``area`` must equal
    the shoelace area of its vertices taken in polar-angle order about their
    centroid.  Returns ``None`` or the reason the record fails.
    """
    record = json.loads(text)
    n = int(record["n"])
    v = np.asarray(record["vertices"], dtype=float)
    if v.shape != (n, 2):
        return f"record n={n}: vertices have shape {v.shape}"
    a = np.concatenate((np.arange(n - 1), [0]))
    b = np.concatenate((np.arange(1, n - 1), [0, n - 1]))
    lengths = np.hypot(*(v[a] - v[b]).T)
    edge_err = float(np.max(np.abs(lengths - 1.0)))
    if not edge_err <= edge_tol:
        return f"record n={n}: skeleton edge length off by {edge_err:.3e}"
    c = v.mean(axis=0)
    ring = v[np.argsort(np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0]), kind="stable")]
    x, y = ring[:, 0], ring[:, 1]
    area = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))
    area_err = abs(area - float(record["area"]))
    if not area_err <= area_tol:
        return f"record n={n}: area {record['area']!r} vs shoelace {area!r}"
    return None


def roundtrip_op(n: int, r: int, multistart: int, seed: int, path: str, tols: dict):
    code, _ = run_cli([
        "construct", "--n", n, "--r", r, "--multistart", multistart, "--seed", seed,
        "--format", "json", "--out", path,
    ])
    if code != 0:
        return None, f"construct n={n}: exit {code}"
    vcode, _ = run_cli(["verify", path])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if vcode != 0:
        return text, f"verify n={n}: exit {vcode}"
    return text, check_record(text, tols["skeleton_edge_abs"], tols["area_abs"])


# ---------------------------------------------------------------------------
# one pass of a workload
# ---------------------------------------------------------------------------

def op_seed(i: int) -> int:
    """Seed passed to operation i of a workload's list, in every run and pass.

    The solvers' jittered restarts take their starts from it, and how long
    a table5 row takes depends on those starts by tens of percent; fixing
    the seed per row makes every run time the same work.  The program seeds
    numpy's generator with it (and with the next few integers for further
    restarts), and generators seeded alike share the prefix of their stream
    across problem sizes, so the rows get far-apart seeds of their own.
    """
    return random.Random(f"op/{i}").randrange(2**31)


def operations(name: str, spec: dict, tmpdir: str):
    """``[(label, zero-argument callable)]`` of one pass, in order.

    The order is fixed too: it changes the heap a large-n record is built
    on, and with it the peak resident memory by about 4%.
    """
    w = spec["workloads"][name]
    if name == "table5-sweep":
        tol = w["tolerance"]["cell_abs"]
        return [
            (f"n={n}", lambda n=n, s=op_seed(i): table5_op(n, s, tol))
            for i, n in enumerate(w["n"])
        ]
    if name == "q-extrapolation":
        tols = w["tolerance"]["q_abs"]
        grid = tuple(w["grid"])
        ops = [
            (
                f"r={r}",
                lambda r=r, s=op_seed(i): q_op(
                    r, grid, s, tols.get(str(r), tols["default"])
                ),
            )
            for i, r in enumerate(w["r"])
        ]
        return ops + [("certificates", certificates_op)]
    if name == "large-n-roundtrip":
        return [
            (
                f"n={n}",
                lambda n=n, s=op_seed(i): roundtrip_op(
                    n, w["r"], w["multistart"], s,
                    os.path.join(tmpdir, f"n{n}.json"), w["tolerance"],
                ),
            )
            for i, n in enumerate(w["n"])
        ]
    raise ValueError(f"unknown workload {name!r}")


def run_op(fn):
    """Call one operation; an exception is a failed operation, not a crash."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
        return None, f"{type(exc).__name__}: {exc}"[:300]

