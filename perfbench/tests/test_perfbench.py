"""Self-tests of the benchmark: its record checks, its tracing, its config.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH]

import tracing  # noqa: E402
import workloads  # noqa: E402
from smallpoly import asymptotics, cli, reduced  # noqa: E402

SPEC = workloads.load_spec()
TOLS = SPEC["workloads"]["large-n-roundtrip"]["tolerance"]


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout's ignored ``.perfbench``."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as d:
        yield d


def small_ops(workdir):
    """One small operation of each kind the workloads run."""
    grid = (1000, 2000, 5000)
    path = os.path.join(workdir, "n200.json")
    return [
        lambda: workloads.table5_op(6, 0, 1e-8),
        lambda: workloads.table5_op(8, 1, 1e-8),
        lambda: workloads.q_op(0, grid, 0, 1e-8),
        lambda: workloads.q_op(2, grid, 0, 1e-5),
        workloads.certificates_op,
        lambda: workloads.roundtrip_op(200, 4, 1, 3, path, TOLS),
    ]


def test_record_checks_flag_tampered_records(workdir):
    text, error = workloads.roundtrip_op(200, 4, 0, 0, os.path.join(workdir, "r.json"), TOLS)
    assert error is None
    record = json.loads(text)
    shrunk = dict(record, vertices=[[0.9 * x, 0.9 * y] for x, y in record["vertices"]])
    wrong_area = dict(record, area=0.99)
    for tampered in (shrunk, wrong_area):
        error = workloads.check_record(
            json.dumps(tampered), TOLS["skeleton_edge_abs"], TOLS["area_abs"]
        )
        assert error is not None


def test_tracer_wraps_every_binding_and_restores_them():
    bound = [
        (reduced, "validate"),
        (reduced, "vertices_from_angles"),
        (reduced, "maximize_box"),
        (reduced, "brentq"),
        (asymptotics, "maximize_box"),
        (asymptotics, "derive"),
        (asymptotics, "area_deficit"),
        (asymptotics, "reduced_objective"),
        (cli.PolygonRecord, "from_json"),
        (cli.PolygonRecord, "to_json"),
    ]
    before = [getattr(owner, name) for owner, name in bound]
    with tracing.Tracer():
        for (owner, name), original in zip(bound, before):
            assert getattr(owner, name) != original, name
    assert [getattr(owner, name) for owner, name in bound] == before


def test_traced_outputs_are_bit_identical_and_counts_repeat(workdir):
    def run(tracer=None):
        outputs = []
        for op in small_ops(workdir):
            out, error = tracer.span("bench", "op", op) if tracer else op()
            assert error is None
            outputs.append(repr(out))
        return outputs

    untraced = run()
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            assert run(tracer) == untraced
        metrics = tracer.metrics(0.0)
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] != "s"})
    assert counts[0] == counts[1]
    for layer_entry in (
        "cli.main.calls",
        "geometry.validate.calls",
        "reduced.objective.calls",
        "reduced.area_deficit.calls",
        "solver.brentq.calls",
        "solver.solve_full_nlp.calls",
        "solver.maximize_box.calls",
    ):
        assert counts[0][layer_entry] > 0, layer_entry
    # solve_full_nlp's lazy import of construct_Q_theorem is traced too
    assert tracer.calls["reduced.construct_Q_theorem"] == tracer.calls["solver.solve_full_nlp"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(SPEC["workloads"])
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == tracing.PER_LAYER
    predicted = {name for p in SPEC["predictions"] for name in p["per_layer"]}
    assert predicted <= set(tracing.PER_LAYER)


def test_n_100000_fails_cleanly_under_the_address_space_limit(workdir):
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import run; run.limit_address_space(); run.import_smallpoly()\n"
        "import workloads\n"
        "_, error = workloads.run_op(lambda: workloads.roundtrip_op(100000, 16, 2, 0, %r, %r))\n"
        "print(error)\n"
        "sys.exit(error is not None)\n"
    ) % (SRC, BENCH, os.path.join(workdir, "n100000.json"), TOLS)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=600
    )
    # a clean exit either way: never killed by the host for running out of memory
    assert proc.returncode in (0, 1), proc.stderr
    if proc.returncode == 1:
        assert "MemoryError" in proc.stdout, proc.stdout
        pytest.xfail("known defect: O(n^2) max_pairwise_distance fails at n = 100000")
