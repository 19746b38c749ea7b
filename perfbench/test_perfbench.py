"""Self-tests of the benchmark: each checker rejects a corrupted output,
the tracer skips what is missing, and every workload runs end to end at a
tiny size.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import parse_importtime  # noqa: E402

import nrq.cli  # noqa: E402
import nrq.measure  # noqa: E402


def nrq_output(tmp_path, *argv):
    """Run one nrq command in process; return (rc, stdout, stderr, bytes)."""
    out = tmp_path / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = nrq.cli.main([*argv, "--out", str(out)])
    return rc, stdout.getvalue(), stderr.getvalue(), out.read_bytes()


@pytest.fixture(scope="module")
def density(tmp_path_factory):
    return nrq_output(tmp_path_factory.mktemp("density"), "density", "--poly", "x^2+1",
                      "--iters", "20000", "--seed", "3")


def test_report_check_rejects_changed_file(density):
    rc, stdout, stderr, data = density
    checks.check_report(rc, stdout, stderr, data)
    with pytest.raises(checks.CheckFailed, match="sha256"):
        checks.check_report(rc, stdout, stderr, data.replace(b"density", b"Density", 1))
    with pytest.raises(checks.CheckFailed, match="exit code"):
        checks.check_report(3, stdout, stderr, data)


def test_density_check_rejects_one_altered_bin(density):
    text = density[3].decode()
    hist = checks.check_density_csv(text, 19000)
    assert hist.in_range > 0
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line and line[0].isdigit() and float(line.split(",")[1]) > 0)
    center, value = lines[row].split(",")
    lines[row] = f"{center},{float(value) * 1.001!r}"
    with pytest.raises(checks.CheckFailed):
        checks.check_density_csv("\n".join(lines), 19000)


def test_merged_l1_rejects_a_density_that_is_not_cauchy():
    edges = np.linspace(-10.0, 10.0, 201)
    masses = np.diff(np.arctan(edges)) / np.pi
    cauchy = checks.Histogram(-10.0, 10.0, 200, np.rint(masses * 1e6).astype(np.int64), 0, 0, 0)
    assert checks.check_merged_l1([cauchy, cauchy], 0.01)["l1"] < 1e-3
    flat = checks.Histogram(-10.0, 10.0, 200, np.full(200, 100), 0, 0, 0)
    with pytest.raises(checks.CheckFailed, match="merged L1"):
        checks.check_merged_l1([flat], 0.01)
    with pytest.raises(checks.CheckFailed, match="nrq L1"):
        checks.check_merged_l1([cauchy], 0.2)


def test_cycle_check_rejects_a_point_moved_by_1e_9(tmp_path):
    rc, _, _, data = nrq_output(tmp_path, "cycles", "--poly", "x^2+1", "--period", "4",
                                "--range=-50:50", "--grid", "4000")
    assert rc == 0
    doc = json.loads(data)
    facts = checks.check_cycles(doc, 4, -50.0, 50.0)
    assert facts["found"] == facts["expected"] > 0
    doc["cycles"][0]["points"][1] += 1e-9
    with pytest.raises(checks.CheckFailed, match="not within"):
        checks.check_cycles(doc, 4, -50.0, 50.0)


def test_closed_form_counts():
    # 2^p - 2 points of period dividing p, minus those of proper divisors
    assert [len(checks.closed_form_cycle_points(p)) for p in (2, 3, 4, 6)] == [2, 6, 12, 54]


def test_ops_check_rejects_a_residual_above_its_bound(tmp_path):
    rc, _, _, data = nrq_output(tmp_path, "ops-check", "--n", "8", "--seed", "1")
    assert rc == 0
    doc = json.loads(data)
    checks.check_ops_report(doc, [8])
    for key, bad in (("dft_eigenpair", 2e-12), ("evolve_norm_drift", 2e-10)):
        corrupt = json.loads(data)
        corrupt["reports"][0][key] = bad
        with pytest.raises(checks.CheckFailed, match=key):
            checks.check_ops_report(corrupt, [8])


def test_interfere_checks_reject_misplaced_peaks():
    good = [(0.0, 3.0, 1.0), (3.0, 3.0, 1.0)]
    checks.check_interfere_narrow(good)
    with pytest.raises(checks.CheckFailed):
        checks.check_interfere_narrow([(0.3, 3.0, 1.0), (3.0, 3.0, 1.0)])
    with pytest.raises(checks.CheckFailed):
        checks.check_interfere_narrow(good[:1])
    with pytest.raises(checks.CheckFailed):
        checks.check_interfere_broad([(0.0, 1.0, 1.0), (2.5, 1.0, 1.0)])


def _two_lorentzians(gamma):
    edges = np.linspace(-2.0, 5.0, 701)
    cdf = (np.arctan(edges / gamma) + np.arctan((edges - 3.0) / gamma)) / np.pi
    counts = np.rint(np.diff(cdf) * 1e7).astype(np.int64)
    return checks.Histogram(-2.0, 5.0, 700, counts, 0, 0, 0)


def test_hwhm_check_agrees_with_nrq_and_rejects_a_changed_width():
    hist = _two_lorentzians(0.1)
    peaks = [(0.0, 1.0, 1.0), (3.0, 1.0, 1.0)]
    density = nrq.measure.EmpiricalDensity(hist.lo, hist.hi, hist.bins, hist.counts)
    program = [nrq.measure.half_width_at_half_max(density, c) for c, _, _ in peaks]
    facts = checks.check_hwhm(hist, peaks, program)
    assert facts["hwhm"] == pytest.approx([0.1, 0.1], abs=0.01)
    with pytest.raises(checks.CheckFailed, match="nrq HWHM"):
        checks.check_hwhm(hist, peaks, [program[0], program[1] + 1e-6])
    wide = _two_lorentzians(0.2)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_hwhm(wide, peaks, [checks.half_width(wide, c) for c, _, _ in peaks])


def test_dispersion_and_orbit_checks_reject_a_changed_value(tmp_path):
    _, _, _, tb = nrq_output(tmp_path, "dispersion", "--model", "tb", "--n", "16", "--eps", "2",
                             "--t", "1", "--t", "0.2")
    checks.check_dispersion_tb(tb.decode(), 16, 1.0, 2.0, [1.0, 0.2])
    with pytest.raises(checks.CheckFailed):
        checks.check_dispersion_tb(tb.decode(), 16, 1.0, 2.0, [1.0, 0.21])
    _, _, _, orbit = nrq_output(tmp_path, "orbit", "--poly", "x^2+1", "--x0", "0.7", "--steps", "20")
    checks.check_orbit(orbit.decode(), 0.7, 20)
    lines = orbit.decode().split("\n")
    lines[-3] = lines[-3].split(",")[0] + ",1.5"
    with pytest.raises(checks.CheckFailed):
        checks.check_orbit("\n".join(lines), 0.7, 20)


def test_importtime_parse_counts_each_scipy_subtree_once():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       400 |        450 |   scipy.integrate",
        "import time:        10 |       1000 | nrq.measure",
        "import time:        20 |       1100 | nrq",
    ])
    assert parse_importtime(sample) == {"import.nrq_s": 0.0011, "import.scipy_s": 0.00075}


def test_tracer_self_time_and_missing_functions(monkeypatch):
    tracer = spans.Tracer()

    def inner():
        return sum(range(1000))

    wrapped_inner = tracer._wrap("inner", inner)
    outer = tracer._wrap("outer", lambda: [wrapped_inner() for _ in range(3)])
    with tracer.op(7, "test"):
        outer()
    calls, total, self_time = tracer.stats["outer"]
    assert calls == 1 and tracer.stats["inner"][0] == 3
    assert self_time == pytest.approx(total - tracer.stats["inner"][1], abs=1e-9)
    assert {s[1] for s in tracer.spans} == {"inner", "outer", "op.test"}
    assert all(s[5] == 7 for s in tracer.spans)

    monkeypatch.delattr(nrq.measure, "newton_step")
    tracer = spans.Tracer().install()
    try:
        assert tracer.absent == ["nrq.measure.newton_step"]
        assert nrq.cli.run.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(nrq.cli.run, "__wrapped__")


def test_tracer_times_are_net_of_wrapper_cost(monkeypatch):
    cost = {"span": (0.1, 0.25), "leaf": (0.01, 0.02)}
    tracer = spans.Tracer(cost=cost)
    clock = {"now": 0.0}
    monkeypatch.setattr(spans.time, "perf_counter", lambda: clock["now"])

    def leaf():
        clock["now"] += 0.05

    def inner():
        clock["now"] += 0.5

    wrapped_leaf = tracer._wrap_leaf("newton.step", leaf)
    wrapped_inner = tracer._wrap("inner", inner)

    def outer():
        wrapped_leaf()
        wrapped_inner()
        clock["now"] += 1.0

    tracer._wrap("outer", outer)()
    leaf_stat, inner_stat, outer_stat = (tracer.stats[k] for k in ("newton.step", "inner", "outer"))
    assert leaf_stat == pytest.approx([1, 0.04, 0.04])
    assert inner_stat == pytest.approx([1, 0.4, 0.4])
    # raw 1.55 s, less its own inner cost and the outer cost of two nested calls
    assert outer_stat[1] == pytest.approx(1.55 - 0.1 - 0.02 - 0.25)
    assert outer_stat[2] == pytest.approx(outer_stat[1] - 0.04 - 0.4)


def test_calibrated_wrapper_cost_is_positive():
    cost = spans.Tracer().cost
    assert set(cost) == {"span", "leaf"}
    for inner, outer in cost.values():
        assert 0 <= inner <= outer and 0 < outer < 1e-4


def _benchmark_names(key):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_pass(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = _benchmark_names("per_layer" if trace else "end_to_end")
    assert sorted(result["metrics"]) == sorted(expected)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-ops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
