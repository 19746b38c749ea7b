"""End-to-end CLI runs: emission formats, determinism, precedence, exit codes."""

import dataclasses
import json
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nrq.cli import (
    CSV_MAGIC,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    RunConfig,
    emit_csv,
    emit_svgdata,
    main,
    parse_csv,
)
import nrq
from nrq import cli, measure
from nrq.measure import EmpiricalDensity, InvalidRange, accumulate_density, cauchy_density, find_cycles
from nrq.newton import PolynomialProblem
from nrq.parsing import MAX_POLY_LENGTH
from nrq.qops import Grid, ops_check, tight_binding_band, tight_binding_hamiltonian, wavevector_values


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """This environment, with the imported nrq first on PYTHONPATH."""
    src = str(Path(nrq.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def read_report(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# csv format


def test_emit_csv_two_bin_example():
    d = EmpiricalDensity(0.0, 2.0, 2, np.array([25, 75]))
    text = emit_csv(("bin_center", "density"), (d.centers(), d.densities()), {"total": d.total})
    lines = text.split("\n")
    assert lines[0] == CSV_MAGIC
    assert "# total=100" in lines
    assert lines[-3] == "0.5,0.25"
    assert lines[-2] == "1.5,0.75"
    assert text.endswith("\n") and "\r" not in text


def test_emit_csv_empty_range():
    d = EmpiricalDensity(0.0, 2.0, 2, np.array([0, 0]), below_count=3, above_count=4)
    meta = {"below": d.below_count, "above": d.above_count}
    text = emit_csv(("bin_center", "density"), (d.centers(), d.densities()), meta)
    assert "# below=3" in text and "# above=4" in text
    assert "0.5,0\n1.5,0\n" in text


def test_csv_round_trip_is_bit_exact():
    rows = [
        (0, 0.1),
        (1, -0.0),
        (2, 1e-300),
        (3, 12345.678901234567),
        (4, -math.pi),
    ]
    text = emit_csv(("step", "x"), zip(*rows), {"poly": "x^2+1", "seed": 7})
    parsed = parse_csv(text)
    assert parsed.reemit() == text
    values = parsed.values()
    for (_, expected), got in zip(rows, values[:, 1]):
        assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


def test_parse_csv_rejects_bad_magic():
    with pytest.raises(ValueError):
        parse_csv("bin_center,density\n0.5,1\n")


def _row_wise_emit_csv(header, rows, meta):
    """The csv emitter as it was when it formatted one cell at a time."""
    lines = [CSV_MAGIC]
    for key in sorted(meta):
        lines.append(f"# {key}={cli._fmt(meta[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(cli._fmt(v) for v in row))
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7e308, -1.7e308, sys.float_info.max)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_INT64 = st.integers(-(2**63), 2**63 - 1)
# how a column reaches the emitter: a float64 or integer array takes the
# column-at-once path, any other sequence the per-value one
_COLUMN_KINDS = {
    "float64 array": (_FINITE, lambda v: np.array(v, dtype=np.float64)),
    "int64 array": (_INT64, lambda v: np.array(v, dtype=np.int64)),
    "uint8 array": (st.integers(0, 255), lambda v: np.array(v, dtype=np.uint8)),
    "float list": (_FINITE, list),
    "mixed tuple": (_FINITE | st.integers() | st.booleans() | st.sampled_from(["a", "-0.0"]), tuple),
}


@st.composite
def _csv_columns(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        values, make = _COLUMN_KINDS[kind]
        columns.append(make(draw(st.lists(values, min_size=n, max_size=n))))
    return columns


@given(columns=_csv_columns(), meta_value=_FINITE | _INT64)
@example(columns=[np.array(_EDGE_FLOATS), np.arange(len(_EDGE_FLOATS))], meta_value=-0.0)
def test_column_emitter_writes_the_row_wise_bytes(columns, meta_value):
    header = [f"c{i}" for i in range(len(columns))]
    meta = {"value": meta_value, "rows": len(columns[0])}
    text = emit_csv(header, columns, meta)
    assert text == _row_wise_emit_csv(header, zip(*columns), meta)
    assert parse_csv(text).reemit() == text


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [np.array, list], ids=["array", "list"])
def test_a_non_finite_value_in_any_column_raises(bad, make):
    for column in range(2):
        for row in range(3):
            values = [np.arange(3.0), np.arange(3.0)]
            values[column][row] = bad
            with pytest.raises(ValueError, match="non-finite"):
                emit_csv(("a", "b"), [make(v) for v in values])


def test_columns_of_unequal_length_raise():
    with pytest.raises(ValueError):
        emit_csv(("a", "b"), [np.arange(3.0), np.arange(2.0)])


# ---------------------------------------------------------------------------
# svg format


def test_svg_overlay_has_two_polylines():
    counts = np.rint(1e5 * cauchy_density(np.linspace(-9.95, 9.95, 200))).astype(int)
    d = EmpiricalDensity(-10.0, 10.0, 200, counts)
    doc = emit_svgdata(d, overlay=cauchy_density)
    assert doc.count("<polyline") == 2
    assert doc.count("<circle") == 0
    assert doc.startswith("<svg ") and doc.rstrip().endswith("</svg>")


def test_svg_peak_markers():
    counts = np.zeros(100, dtype=int)
    counts[30] = counts[70] = 1000
    d = EmpiricalDensity(0.0, 10.0, 100, counts)
    peaks = [(3.05, 1.0, 0.9), (7.05, 1.0, 0.9)]
    doc = emit_svgdata(d, peaks=peaks)
    assert doc.count("<polyline") == 1
    assert doc.count("<circle") == 2


# ---------------------------------------------------------------------------
# subcommands end to end


def test_density_command_end_to_end(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    args = [
        "density", "--poly", "x^2+1", "--x0", "0.7", "--iters", "21000",
        "--burnin", "1000", "--bins", "50", "--range=-10:10", "--seed", "42",
        "--out", str(out),
    ]
    code, stdout, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    report = read_report(stdout)
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == report["outputs"][0]["sha256"]
    parsed = parse_csv(data.decode())
    assert parsed.columns == ["bin_center", "density"]
    assert len(parsed.cells) == 50
    assert parsed.reemit() == data.decode()
    assert int(parsed.meta["total"]) == 20000

    code2, stdout2, _ = run_cli(args, capsys)
    assert code2 == EXIT_OK
    assert out.read_bytes() == data  # same seed, byte-identical
    assert read_report(stdout2)["outputs"][0]["sha256"] == report["outputs"][0]["sha256"]


def test_orbit_command_pole(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code, stdout, _ = run_cli(
        ["orbit", "--poly", "x^2+1", "--x0", "1", "--out", str(out)], capsys
    )
    assert code == EXIT_OK
    report = read_report(stdout)
    assert report["statuses"]["status"] == "pole_hit"
    parsed = parse_csv(out.read_text())
    assert parsed.cells == [["0", "1"], ["1", "0"]]


def test_cycles_command_json(tmp_path, capsys):
    out = tmp_path / "cycles.json"
    code, stdout, _ = run_cli(
        ["cycles", "--poly", "x^2+1", "--period", "2", "--range=-3:3", "--grid", "1000",
         "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["cycles"]) == 1
    points = sorted(payload["cycles"][0]["points"])
    r = 1.0 / math.sqrt(3.0)
    assert points == pytest.approx([-r, r], abs=1e-9)


def test_interfere_command_svg_markers(tmp_path, capsys):
    out = tmp_path / "interf.svg"
    code, stdout, _ = run_cli(
        ["interfere", "--delta", "0.01", "--iters", "41000", "--burnin", "1000",
         "--seed", "7", "--format", "svg", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    report = read_report(stdout)
    doc = out.read_text()
    assert doc.count("<polyline") == 1
    assert doc.count("<circle") == len(report["statuses"]["peaks"])
    first = out.read_bytes()
    run_cli(
        ["interfere", "--delta", "0.01", "--iters", "41000", "--burnin", "1000",
         "--seed", "7", "--format", "svg", "--out", str(out)],
        capsys,
    )
    assert out.read_bytes() == first


def test_density_svg_with_cauchy_overlay(tmp_path, capsys):
    out = tmp_path / "fig1.svg"
    args = [
        "density", "--poly", "x^2+1", "--x0", "0.7", "--iters", "21000",
        "--burnin", "1000", "--bins", "50", "--range=-10:10", "--seed", "42",
        "--overlay-cauchy", "--format", "svg", "--out", str(out),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    doc = out.read_text()
    assert doc.count("<polyline") == 2
    first = out.read_bytes()
    run_cli(args, capsys)
    assert out.read_bytes() == first


def test_ops_check_command(tmp_path, capsys):
    out = tmp_path / "ops.json"
    code, stdout, _ = run_cli(
        ["ops-check", "--n", "8", "--n", "16", "--steps", "50", "--out", str(out)], capsys
    )
    assert code == EXIT_OK
    # one compute time per size, in the report alone: the file holds the reports
    ms_per_size = read_report(stdout)["statuses"]["ms_per_size"]
    assert len(ms_per_size) == 2 and all(ms > 0 for ms in ms_per_size)
    reports = [ops_check(n, evolve_steps=50) for n in (8, 16)]
    assert out.read_text() == json.dumps({"reports": reports}, sort_keys=True) + "\n"
    payload = json.loads(out.read_text())
    assert [r["n"] for r in payload["reports"]] == [8, 16]
    for report in payload["reports"]:
        for key, value in report.items():
            if key == "n":
                continue
            budget = 1e-10 if key.startswith(("born", "evolve")) else 1e-12
            assert value <= budget, key


def test_ops_check_rejects_csv(tmp_path, capsys):
    code, _, err = run_cli(["ops-check", "--format", "csv"], capsys)
    assert code == EXIT_CONFIG
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_dispersion_kg(tmp_path, capsys):
    out = tmp_path / "kg.csv"
    code, _, _ = run_cli(
        ["dispersion", "--model", "kg", "--mass", "2", "--kmin", "0", "--kmax", "1",
         "--samples", "3", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    parsed = parse_csv(out.read_text())
    assert parsed.columns == ["k", "omega"]
    values = parsed.values()
    assert values[0, 1] == pytest.approx(2.0, rel=1e-12)  # omega(0) = m c^2 / hbar


def test_dispersion_tb(tmp_path, capsys):
    out = tmp_path / "tb.csv"
    code, _, _ = run_cli(
        ["dispersion", "--model", "tb", "--n", "8", "--eps", "2", "--t", "1",
         "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    values = parse_csv(out.read_text()).values()
    at_zero = values[np.argmin(np.abs(values[:, 0])), 1]
    assert at_zero == pytest.approx(0.0, abs=1e-12)  # eps - 2 t


def test_dispersion_tb_band_matches_hamiltonian(tmp_path, capsys):
    out = tmp_path / "tb.csv"
    args = ["dispersion", "--model", "tb", "--n", "64", "--eps", "2", "--t", "1", "--t", "0.2"]
    code, _, _ = run_cli(args + ["--out", str(out)], capsys)
    assert code == EXIT_OK
    values = parse_csv(out.read_text()).values()
    k, omega = values[:, 0], values[:, 1]
    # the cosine sum the band has always been written from, bit for bit
    assert np.array_equal(omega, 2.0 - (2.0 * np.cos(k) + 2.0 * 0.2 * np.cos(2 * k)))
    eigenvalues = tight_binding_hamiltonian(Grid(64), 2.0, [1.0, 0.2]).eigh()[0]
    assert np.abs(np.sort(omega) - eigenvalues).max() <= 1e-12


def test_dispersion_tb_hopping_range_exits_2(tmp_path, capsys):
    out = tmp_path / "tb.csv"
    code, _, err = run_cli(
        ["dispersion", "--model", "tb", "--n", "8", "--t", "1", "--t", "0.5", "--t", "0.25",
         "--t", "0.125", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert json.loads(err.strip())["error"] == "HoppingRangeTooLarge"
    assert not out.exists()


# Outputs that use only IEEE + - * /, PCG64 draws and repr-style formatting,
# so their bytes do not depend on BLAS or libm.  ops-check calls no BLAS
# either, but its FFT applies take a complex multiply whose bits follow numpy's
# CPU dispatch (FMA under AVX2), so CI pins its digest on one machine type.
PINNED_OUTPUTS = [
    (["density", "--poly", "x^2+1", "--seed", "1"], "6468af00a1b6"),
    (["density", "--poly", "x^2+1", "--seed", "1", "--format", "json"], "70c5335b6d59"),
    (["interfere", "--delta", "0.01", "--seed", "7"], "d305e2c2a631"),
    (["interfere", "--delta", "0.01", "--seed", "7", "--format", "json"], "49dad2d238c9"),
    (["interfere", "--delta", "1", "--seed", "7", "--min-prominence", "0.01"], "9d0e10c3c7d1"),
    (["orbit", "--poly", "x^2+1", "--x0", "0.57735026918962573", "--steps", "100"], "a8c3a827f3c8"),
    (["orbit", "--poly", "x^2+1", "--x0", "0.57735026918962573", "--steps", "100",
      "--format", "json"], "225630071298"),
    (["cycles", "--poly", "x^2+1", "--period", "5"], "acc84b5de2b1"),
    (["cycles", "--poly", "x^2+1", "--period", "5", "--format", "csv"], "20e9dc582be6"),
    (["density", "--poly", "x^2+1", "--seed", "1", "--overlay-cauchy", "--format", "svg"],
     "fbc024d1dc4f"),
    # the map of x^2 halves x, and no chain reaches the pole at 0 in its 261 steps
    (["density", "--poly", "x^2", "--seed", "3"], "d4a5203ef715"),
    # degree 3, whose generated map is the generic Horner scheme
    (["density", "--poly", "x^3-2*x+2", "--seed", "3"], "48f9525f8d8e"),
    # 4097 steps that never converge: the orbit runs to max_steps
    (["orbit", "--poly", "x^2+1", "--x0", "0.7", "--steps", "4097"], "d7962f4ddd80"),
    # converges at step 5
    (["orbit", "--poly", "x^2-2", "--x0", "1", "--steps", "50"], "a2980d29d872"),
    # converges at step 15, at degree 3
    (["orbit", "--poly", "x^3-2*x+2", "--x0", "0.3", "--steps", "50"], "5612a5981d27"),
    # hits the pole at 0 on step 1
    (["orbit", "--poly", "x^2+1", "--x0", "1", "--steps", "50"], "03b2a28baa97"),
    # overflows at step 0
    (["orbit", "--poly", "x^2-2", "--x0", "1e200", "--steps", "10"], "5db22a69bfa1"),
    # the map halves x, and f' = 1e-300 x is a pole from x = 0.75 on: the orbits
    # stop at slots 65 and 129, the first slot each leaves unfilled
    (["orbit", "--poly", "5e-301*x^2", "--x0", "13835058055282163712", "--steps", "200"],
     "f02174f79ec5"),
    (["orbit", "--poly", "5e-301*x^2", "--x0", "2.5521177519070385e+38", "--steps", "200"],
     "1b03b3a054e0"),
    # the 4097-step orbit above, as json
    (["orbit", "--poly", "x^2+1", "--x0", "0.7", "--steps", "4097", "--format", "json"],
     "ec05c7436db0"),
    # the qops outputs that make no complex multiply
    (["dispersion", "--model", "tb", "--n", "64", "--t", "1", "--t", "0.2"], "567e661fca1e"),
    (["dispersion", "--model", "kg"], "2fad8bf07a50"),
    (["dispersion", "--model", "tb", "--n", "64", "--t", "1", "--t", "0.2", "--format", "json"],
     "3ebaea99ad06"),
    (["dispersion", "--model", "kg", "--format", "json"], "7ae3dfc4c094"),
]


# A pin's test id is the digest it was first pinned at, so a declared move of
# its bytes updates the digest and keeps the test's name.
_FIRST_PINNED = {
    "6468af00a1b6": "d5cf820c4dee",
    "70c5335b6d59": "4cb207a2ef3a",
    "d305e2c2a631": "cba5e3771b57",
    "49dad2d238c9": "e209f2658e2b",
    "9d0e10c3c7d1": "d4ef35ed6b23",
    "fbc024d1dc4f": "e01b7c084c7b",
    "d4a5203ef715": "142e9551ed43",
    "48f9525f8d8e": "a13e38499d94",
}
_PIN_IDS = [_FIRST_PINNED.get(p, p) for _, p in PINNED_OUTPUTS]


@pytest.mark.parametrize("args, prefix", PINNED_OUTPUTS, ids=_PIN_IDS)
def test_output_bytes_are_pinned(args, prefix, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(args + ["--out", str(out)], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == prefix
    report = read_report(stdout)
    assert set(report["phases"]) == {"parse", "compute", "render", "write"}
    # the commands that run the map report their throughput, and only in the report
    if args[0] in ("density", "interfere"):
        assert report["statuses"]["iterates_per_s"] > 0
    else:
        assert "iterates_per_s" not in report["statuses"]


@pytest.mark.parametrize("args, prefix", PINNED_OUTPUTS, ids=_PIN_IDS)
def test_report_json_is_that_of_a_deep_copy(args, prefix, tmp_path):
    # to_json dumps the report's own fields; asdict would copy them first
    config = cli.resolve_config(cli.build_parser().parse_args(args + ["--out", str(tmp_path / "out")]))
    report = cli.run(config)
    assert report.to_json() == json.dumps(dataclasses.asdict(report), sort_keys=True)


def _numpy_blas_is_openblas() -> bool:
    try:  # numpy before 1.25 has no mode="dicts"
        return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (KeyError, TypeError, ValueError):
        return False


@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_ops_check_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernel as the process starts
    env = subprocess_env()
    env.pop("OPENBLAS_CORETYPE", None)
    outputs = {}
    for coretype in (None, "Prescott", "Nehalem"):
        out = tmp_path / f"ops-{coretype}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "nrq.cli", "ops-check", "--n", "64", "--n", "256", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=env if coretype is None else dict(env, OPENBLAS_CORETYPE=coretype),
        )
        assert proc.returncode == 0, proc.stderr
        outputs[coretype] = out.read_bytes()
    assert outputs["Prescott"] == outputs[None] and outputs["Nehalem"] == outputs[None]


# ---------------------------------------------------------------------------
# error paths and precedence


@pytest.mark.parametrize(
    "args",
    [
        ["orbit", "--poly", "x^2+1", "--x0", "0.5", "--format", "svg"],
        ["cycles", "--poly", "x^2+1", "--format", "svg"],
        ["dispersion", "--format", "svg"],
        ["ops-check", "--n", "8", "--format", "svg"],
    ],
    ids=lambda args: f"{args[0]}-{args[-1]}",
)
def test_unlisted_format_exits_2_and_writes_nothing(args, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(args + ["--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert json.loads(err.strip())["error"] == "ConfigError"
    assert not out.exists()


def test_orbit_steps_cap_exits_2_before_iterating(tmp_path, capsys, monkeypatch):
    def no_iteration(*args, **kwargs):
        raise AssertionError("orbit iterated")

    monkeypatch.setattr("nrq.cli.iterate_orbit", no_iteration)
    out = tmp_path / "orbit.csv"
    code, stdout, err = run_cli(
        ["orbit", "--poly", "x^2+1", "--x0", "0.3", "--steps", str(10**9), "--out", str(out)],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ConfigError"
    assert stdout == ""
    assert not out.exists()


def test_orbit_runner_holds_one_array_of_iterates():
    # 1e5 steps are two float64 arrays of 0.8 MB each, the iterates and the
    # step column; 1e5 Python floats in a list would take 3.2 MB more
    opt = dict(cli.COMMANDS["orbit"].defaults(), poly="x^2+1", x0=0.7, steps=100_000)
    cli._run_orbit(opt)
    tracemalloc.start()
    try:
        result = cli._run_orbit(opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.columns[1] is result.payload["iterates"] and len(result.columns[1]) == 100_001
    assert peak <= 3_000_000


@pytest.mark.parametrize("steps", ["-5", "0"])
def test_ops_check_steps_below_one_exits_2(steps, tmp_path, capsys):
    out = tmp_path / "ops.json"
    code, _, err = run_cli(["ops-check", "--n", "8", "--steps", steps, "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ConfigError"
    assert not out.exists()


def test_ops_check_n_over_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "ops.json"
    code, stdout, err = run_cli(["ops-check", "--n", "2048", "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "capped" in json.loads(err)["message"]
    assert stdout == ""
    assert not out.exists()


def test_ops_check_sizes_are_all_checked_before_any_runs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "ops_check", lambda *a, **k: calls.append(a))
    out = tmp_path / "ops.json"
    code, stdout, err = run_cli(["ops-check", "--n", "8", "--n", "2048", "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "capped" in json.loads(err)["message"]
    assert stdout == ""
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("poly", ["x^100000", "(x+1)^100000"])
def test_huge_exponent_exits_2_quickly(poly, tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    started = time.perf_counter()
    code, _, err = run_cli(["orbit", "--poly", poly, "--x0", "1", "--out", str(out)], capsys)
    assert time.perf_counter() - started < 0.1
    assert code == EXIT_CONFIG
    assert "exceeds the cap" in json.loads(err)["message"]
    assert not out.exists()


@pytest.mark.parametrize("poly", ["1e999999*x+1", "1e-99999999*x+1"])
def test_huge_literal_exponent_exits_2_quickly(poly, tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    started = time.perf_counter()
    code, _, err = run_cli(["orbit", "--poly", poly, "--x0", "1", "--out", str(out)], capsys)
    assert time.perf_counter() - started < 0.1
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "decimal exponent" in json.loads(err)["message"]
    assert not out.exists()


def test_million_digit_literal_in_config_exits_2_quickly(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"poly": "1." + "0" * 1_000_000 + "1*x^2+1", "x0": 0.5}))
    out = tmp_path / "orbit.csv"
    started = time.perf_counter()
    code, _, err = run_cli(["orbit", "--config", str(config), "--out", str(out)], capsys)
    assert time.perf_counter() - started < 0.1
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "exceeds the cap" in json.loads(err)["message"]
    assert not out.exists()


def test_run_config_rejects_unlisted_format(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig("ops-check", {"n": [8], "spacing": 1.0, "steps": 5, "seed": 0},
                  str(tmp_path / "ops.csv"), "csv")


@pytest.mark.parametrize(
    "args",
    [
        ["density", "--poly", "x^2+1", "--range=0:1e308"],
        ["density", "--poly", "x^2+1", "--range=0:1e308", "--bins", "4"],
        ["density", "--poly", "x^2+1", "--range=-1e308:1e308"],
        ["cycles", "--poly", "x^2+1", "--range=-1e308:1e308"],
        ["orbit", "--poly", "1e400*x+1", "--x0", "1"],
        # grid positions, wavevectors and the k range overflow to inf
        ["ops-check", "--n", "4", "--spacing", "1e308"],
        ["dispersion", "--model", "tb", "--n", "4", "--spacing", "1e-320"],
        ["dispersion", "--kmin=-1e308", "--kmax", "1e308"],
        # finite inputs whose results overflow: an inf or NaN reaches no file
        ["dispersion", "--mass", "1e300", "--format", "json"],
        ["dispersion", "--mass", "1e300"],
        ["dispersion", "--c", "1e300"],
        ["ops-check", "--n", "4", "--spacing", "4e-308"],
        ["dispersion", "--model", "tb", "--eps", "1e308", "--t", "1e308"],
    ],
    ids=" ".join,
)
def test_overflowing_numeric_input_exits_2(args, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(args + ["--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and json.loads(err)["message"]
    assert not out.exists()


def test_overlay_is_zero_where_its_square_overflows(tmp_path, capsys):
    # the Cauchy overlay squares bin centers near 1e298: the square is inf and the density 0
    out = tmp_path / "out"
    args = ["density", "--poly", "x^2+1", "--iters", "3000", "--range=-1e300:1e300",
            "--overlay-cauchy", "--format", "svg", "--out", str(out)]
    code, _, err = run_cli(args, capsys)
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == "df00e07ca95a"


def test_tiny_tb_spacing_writes_finite_wavevectors(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["dispersion", "--model", "tb", "--n", "4", "--spacing", "4e-308", "--out", str(out)]
    code, _, err = run_cli(args, capsys)
    assert code == EXIT_OK and err == ""
    k = parse_csv(out.read_text()).values()[:, 0]
    assert np.isfinite(k).all() and np.abs(k).max() > 1e307


@pytest.mark.parametrize(
    "args",
    [
        ["density", "--poly", "x^2+1", "--bins", "1000000000"],
        ["interfere", "--delta", "0.01", "--bins", "1000000000"],
        ["density", "--poly", "x^2+1", "--iters", "1000000000000"],
        ["interfere", "--delta", "0.01", "--iters", "1000000000000"],
        ["cycles", "--poly", "x^2+1", "--period", "1000000000"],
        ["cycles", "--poly", "x^2+1", "--grid", "1000000000"],
        ["dispersion", "--model", "tb", "--n", str(cli.MAX_DISPERSION_SAMPLES + 1)],
        pytest.param(
            ["dispersion", "--model", "tb", "--n", str(cli.MAX_DISPERSION_SAMPLES),
             *["--t", "0.001"] * (cli.MAX_DISPERSION_WORK // cli.MAX_DISPERSION_SAMPLES + 1)],
            id="dispersion --model tb --n 100000 with n x len(t) past the work cap",
        ),
    ],
    ids=" ".join,
)
def test_work_caps_exit_2_quickly(args, tmp_path, capsys):
    out = tmp_path / "out"
    started = time.perf_counter()
    code, _, err = run_cli(args + ["--out", str(out)], capsys)
    assert time.perf_counter() - started < 0.1
    assert code == EXIT_CONFIG
    # the library caps raise ValueError; the dispersion sample cap is the CLI's own
    expected = "ConfigError" if args[0] == "dispersion" else "ValueError"
    assert err.count("\n") == 1 and json.loads(err)["error"] == expected
    assert not out.exists()


def test_dispersion_tb_runs_past_the_dense_cap(tmp_path, capsys):
    out = tmp_path / "tb.csv"
    code, _, err = run_cli(["dispersion", "--model", "tb", "--n", "8192", "--out", str(out)], capsys)
    assert code == EXIT_OK and err == ""
    values = parse_csv(out.read_text()).values()
    k = np.sort(wavevector_values(Grid(8192)))
    assert np.array_equal(values[:, 0], k)
    assert np.array_equal(values[:, 1], tight_binding_band(k, 1.0, 2.0, [1.0]))


_EIGHT_SIZES = [a for n in (2, 3, 4, 5, 6, 7, 8, 9) for a in ("--n", str(n))]


@pytest.mark.parametrize(
    "args",
    [
        ["ops-check", "--n", "8", "--steps", str(cli.MAX_OPS_CHECK_STEPS + 1)],
        ["ops-check", "--n", "8", "--steps", "100000000"],
        ["ops-check", *_EIGHT_SIZES, "--n", "10"],
        ["dispersion", "--samples", str(cli.MAX_DISPERSION_SAMPLES + 1)],
        ["dispersion", "--samples", "1000000000"],
    ],
    ids=" ".join,
)
def test_cli_count_caps_exit_2_before_any_work(args, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ops_check", lambda *a, **k: pytest.fail("ops_check ran"))
    monkeypatch.setattr(cli, "klein_gordon_dispersion", lambda *a: pytest.fail("dispersion ran"))
    out = tmp_path / "out"
    started = time.perf_counter()
    code, stdout, err = run_cli(args + ["--out", str(out)], capsys)
    assert time.perf_counter() - started < 0.1
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ConfigError"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "args, expected",
    [
        (["ops-check", *_EIGHT_SIZES, "--steps", "1"], {"sizes": list(range(2, 10))}),
        (["ops-check", "--n", "2", "--steps", str(cli.MAX_OPS_CHECK_STEPS)], {"sizes": [2]}),
        (["dispersion", "--samples", str(cli.MAX_DISPERSION_SAMPLES), "--format", "json"],
         {"samples": cli.MAX_DISPERSION_SAMPLES}),
        # the old worst case, which the work cap admits
        (["dispersion", "--model", "tb", "--n", "4096", *["--t", "0.001"] * 2047, "--format", "json"],
         {"samples": 4096}),
    ],
    ids=["ops-check sizes", "ops-check steps", "dispersion samples", "dispersion tb work"],
)
def test_cli_counts_at_their_caps_run(args, expected, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(args + ["--out", str(out)], capsys)
    assert code == EXIT_OK
    statuses = read_report(stdout)["statuses"]
    assert {key: statuses[key] for key in expected} == expected


def test_cycles_period_cap_exits_2_before_the_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(PolynomialProblem, "step_array", lambda *args: pytest.fail("grid evaluated"))
    out = tmp_path / "out"
    period = str(measure.MAX_CYCLE_STEP_WORK // 4 + 1)
    code, _, err = run_cli(
        ["cycles", "--poly", "x^2+1", "--period", period, "--grid", "2", "--out", str(out)], capsys
    )
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "exceeds the cap" in json.loads(err)["message"]
    assert not out.exists()


def test_cycles_at_the_period_cap_runs(tmp_path, capsys):
    out = tmp_path / "cycles.json"
    period = str(measure.MAX_CYCLE_STEP_WORK // 4)
    code, _, _ = run_cli(
        ["cycles", "--poly", "x^2+1", "--period", period, "--grid", "2", "--out", str(out)], capsys
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["period"] == measure.MAX_CYCLE_STEP_WORK // 4


def test_poly_over_length_cap_in_config_exits_2_quickly(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"poly": "x+" * (MAX_POLY_LENGTH // 2) + "x"}))
    out = tmp_path / "density.csv"
    started = time.perf_counter()
    code, _, err = run_cli(["density", "--config", str(config), "--out", str(out)], capsys)
    assert time.perf_counter() - started < 0.1
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "exceeds the cap" in json.loads(err)["message"]
    assert not out.exists()


def test_bad_polynomial_exits_2_with_json(capsys):
    code, _, err = run_cli(["density", "--poly", "x^+2"], capsys)
    assert code == EXIT_CONFIG
    payload = json.loads(err.strip())
    assert payload["error"] == "ConfigError"
    assert "offset 2" in payload["message"]
    assert err.count("\n") == 1


def test_bad_range_exits_2(capsys):
    code, _, err = run_cli(["density", "--poly", "x^2+1", "--range", "10:-10"], capsys)
    assert code == EXIT_CONFIG
    assert json.loads(err.strip())["error"] == "InvalidRange"


def test_subnormal_bin_width_exits_2_with_invalid_range(tmp_path, capsys):
    # its densities overflowed to inf, which the cli read as a FloatingPointError
    out = tmp_path / "sub.csv"
    code, _, err = run_cli(
        ["density", "--poly", "x^2+1", "--bins", "2", "--range=0:1e-320", "--out", str(out)], capsys
    )
    assert code == EXIT_CONFIG and err.count("\n") == 1
    assert json.loads(err)["error"] == "InvalidRange"
    assert not out.exists()


def test_window_too_narrow_for_its_bins_exits_2_with_numpys_message(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, stdout, err = run_cli(
        ["density", "--poly", "x^2+1", "--iters", "100", "--burnin", "0", "--bins", "100",
         "--range=1e15:1000000000000002", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "Too many bins for data range. Cannot create 100 finite-sized bins.",
    }
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "args, got",
    [
        (["density", "--poly", "x^2+1", "--iters", "100"], "100 and 1000"),
        (["density", "--poly", "x^2+1", "--iters", "1000"], "1000 and 1000"),
        (["density", "--poly", "x^2+1", "--burnin", "-1"], "201000 and -1"),
        (["interfere", "--delta", "1", "--iters", "50", "--burnin", "60"], "50 and 60"),
    ],
)
def test_iters_at_or_below_burnin_exits_2_in_flag_terms(args, got, tmp_path, capsys, monkeypatch):
    def no_orbit(*args, **kwargs):
        raise AssertionError("the orbit ran")

    monkeypatch.setattr("nrq.cli.accumulate_density", no_orbit)
    out = tmp_path / "d.csv"
    code, stdout, err = run_cli(args + ["--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ConfigError", "message": f"need --iters > --burnin >= 0, got {got}"}
    assert stdout == ""
    assert not out.exists()


# every entry that takes a window [lo, hi]: a library call returns an array
# that must be finite, and a CLI run writes to out and returns its exit code
_X2P1 = (1.0, 0.0, 1.0)
_WINDOW_ENTRIES = {
    "EmpiricalDensity": lambda lo, hi, out: EmpiricalDensity(lo, hi, 2, [1, 1]).centers(),
    "from_samples": lambda lo, hi, out: EmpiricalDensity.from_samples([0.0], lo, hi, 2).centers(),
    "accumulate_density": lambda lo, hi, out: accumulate_density(
        PolynomialProblem(_X2P1), 0.7, 0, 1, lo, hi, 2
    ).centers(),
    "find_cycles": lambda lo, hi, out: np.array(
        find_cycles(PolynomialProblem(_X2P1), 1, lo, hi, 10).pole_intervals
    ),
    "density": lambda lo, hi, out: main(
        ["density", "--poly", "x^2+1", "--x0", "0.7", "--iters", "1", "--burnin", "0",
         "--bins", "2", f"--range={lo!r}:{hi!r}", "--out", out]
    ),
    "cycles": lambda lo, hi, out: main(
        ["cycles", "--poly", "x^2+1", "--period", "1", "--grid", "10",
         f"--range={lo!r}:{hi!r}", "--out", out]
    ),
}


@pytest.mark.parametrize(
    "lo, hi, admitted",
    [
        (10.0, -10.0, False),
        (1.0, 1.0, False),
        (math.nan, 1.0, False),
        (0.0, math.nan, False),
        (-math.inf, 0.0, False),
        (0.0, math.inf, False),
        (-1e308, 1e308, False),  # finite ends, infinite width
        (1.5e308, 1.7e308, False),  # finite width, infinite bin centers
        (5e307, 1.7e308, False),  # sums of two points overflow near hi
        (-8.98e307, 8.98e307, True),  # the widest admitted
    ],
)
@pytest.mark.parametrize("entry", _WINDOW_ENTRIES)
def test_one_window_rule_everywhere(entry, lo, hi, admitted, tmp_path, capsys, monkeypatch):
    run, out = _WINDOW_ENTRIES[entry], str(tmp_path / "out")
    cli_run = entry in ("density", "cycles")
    if admitted:
        result = run(lo, hi, out)
        assert result == EXIT_OK if cli_run else np.isfinite(result).all()
        return

    def stepped(*args):
        pytest.fail("the map was stepped before the window was checked")

    init = PolynomialProblem.__init__

    def init_without_the_map(self, coefficients):
        init(self, coefficients)
        object.__setattr__(self, "_fprime", stepped)
        object.__setattr__(self, "_numer", stepped)

    monkeypatch.setattr(PolynomialProblem, "step_array", stepped)
    monkeypatch.setattr(PolynomialProblem, "__init__", init_without_the_map)
    if cli_run:
        code = run(lo, hi, out)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG and err.count("\n") == 1
        assert json.loads(err)["error"] == "InvalidRange"
        assert not os.path.exists(out)
    else:
        with pytest.raises(InvalidRange):
            run(lo, hi, out)


def test_missing_required_flag_exits_2(capsys):
    code, _, err = run_cli(["interfere"], capsys)
    assert code == EXIT_CONFIG
    assert "delta" in json.loads(err.strip())["message"]


def test_unknown_flag_exits_2(capsys):
    code, _, err = run_cli(["density", "--poly", "x^2+1", "--bogus"], capsys)
    assert code == EXIT_CONFIG
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for period in (2, 3, 4):
        out = tmp_path / f"c{period}.json"
        code, _, _ = run_cli(["cycles", "--poly", "x^2+1", "--period", str(period), "--out", str(out)], capsys)
        assert code == EXIT_OK
    assert len(built) == 1
    assert build() is not build()


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--bogus"], EXIT_CONFIG),
        (["density", "--poly", "x^2+1", "--bogus"], EXIT_CONFIG),
        (["density", "--iters", "many"], EXIT_CONFIG),
        (["--version"], EXIT_OK),
        (["density", "--help"], EXIT_OK),
    ],
    ids=["--bogus", "density --bogus", "density --iters many", "--version", "density --help"],
)
def test_an_earlier_call_leaves_the_parser_as_it_was(args, expected, tmp_path, capsys):
    assert run_cli(args, capsys)[0] == expected
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(["density", "--poly", "x^2+1", "--seed", "1", "--out", str(out)], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == "6468af00a1b6"


def test_a_non_finite_output_value_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "klein_gordon_dispersion", lambda ks, mass, units: np.where(ks > 0, np.nan, 1.0))
    out = tmp_path / "kg.csv"
    code, stdout, err = run_cli(["dispersion", "--out", str(out)], capsys)
    assert code == EXIT_CONFIG and stdout == ""
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ValueError"
    assert not out.exists()


def test_unwritable_output_exits_3(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run_cli(
        ["orbit", "--poly", "x^2-2", "--x0", "1", "--out", str(missing_dir)], capsys
    )
    assert code == EXIT_RUNTIME
    assert json.loads(err.strip())["error"]


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    base = ["density", "--poly", "x^2+1", "--iters", "6000", "--burnin", "1000",
            "--bins", "20", "--range=-10:10"]
    monkeypatch.setenv("NRQ_SEED", "99")
    assert run_cli(base + ["--out", str(out_env)], capsys)[0] == EXIT_OK
    monkeypatch.delenv("NRQ_SEED")
    assert run_cli(base + ["--seed", "99", "--out", str(out_flag)], capsys)[0] == EXIT_OK
    assert out_env.read_bytes() == out_flag.read_bytes()



def _exits_with_one_json_line(args, code, tmp_path, capsys) -> dict:
    out = tmp_path / "out.csv"
    got, stdout, err = run_cli(args + ["--out", str(out)], capsys)
    assert got == code and stdout == ""
    assert err.count("\n") == 1
    assert not out.exists()
    return json.loads(err)


@pytest.mark.parametrize(
    "args, message",
    [
        (["density", "--poly", "x^2+1", "--range", "10"], "range must be lo:hi"),
        (["cycles", "--poly", "x^2+1", "--range", "a:3"], "bad range"),
        (["density", "--config", "no-such-config.json"], "cannot read config file"),
    ],
)
def test_bad_range_or_config_path_exits_2(args, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    error = _exits_with_one_json_line(args, EXIT_CONFIG, tmp_path, capsys)
    assert error["error"] == "ConfigError" and message in error["message"]


@pytest.mark.parametrize("document", ["[1, 2]", "\"x^2+1\"", "not json"])
def test_config_file_not_holding_an_object_exits_2(document, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(document)
    error = _exits_with_one_json_line(["density", "--config", str(config)], EXIT_CONFIG, tmp_path, capsys)
    assert error["error"] == "ConfigError"
    assert ("JSON object" if document != "not json" else "cannot read config file") in error["message"]


@pytest.mark.parametrize("seed", ["abc", "1.5", ""])
def test_bad_env_seed_exits_2(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NRQ_SEED", seed)
    error = _exits_with_one_json_line(["density", "--poly", "x^2+1"], EXIT_CONFIG, tmp_path, capsys)
    assert error["error"] == "ConfigError" and "bad NRQ_SEED" in error["message"]


def test_failed_replace_exits_3_and_removes_its_temporary_file(tmp_path, capsys):
    # os.replace cannot put a file over a directory
    target = tmp_path / "out"
    target.mkdir()
    code, stdout, err = run_cli(["orbit", "--poly", "x^2-2", "--x0", "1", "--out", str(target)], capsys)
    assert code == EXIT_RUNTIME and stdout == ""
    assert err.count("\n") == 1 and json.loads(err)["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        # the density run keeps the bare ids
        pytest.param(argv, unbuffered, id=f"{name}unbuffered" if unbuffered else f"{name}buffered")
        for argv, name in (
            (["density"], ""), (["density", "--help"], "density-help-"), (["--help"], "help-"), (["--version"], "version-")
        )
        for unbuffered in (True, False)
    ],
)
def test_a_closed_stdout_exits_3_with_one_json_line(argv, unbuffered, tmp_path):
    # the reader of stdout has exited before the run starts, so printing the
    # report, the help or the version fails; buffered, the interpreter's
    # flush at exit would fail again
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = tmp_path / "d.csv"
    if argv == ["density"]:
        argv = [*argv, "--poly", "x^2+1", "--iters", "20000", "--out", str(out)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nrq.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
        )
    finally:
        os.close(write_end)
    if unbuffered and "--out" not in argv:
        # unbuffered, the help's or version's write fails inside argparse,
        # whose _print_message drops the OSError, so the exit is 0
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        return
    assert proc.returncode == EXIT_RUNTIME, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == "BrokenPipeError"
    if "--out" in argv:
        assert out.read_text().startswith(CSV_MAGIC)


_DEEP = 3000


def test_deeply_nested_polynomial_runs(tmp_path, capsys):
    deep = "(" * _DEEP + "x" + ")" * _DEEP + "^2+1"
    iterates = []
    for poly in (deep, "x^2+1"):
        out = tmp_path / "orbit.json"
        args = ["orbit", "--poly", poly, "--x0", "0.7", "--format", "json", "--out", str(out)]
        assert run_cli(args, capsys)[0] == EXIT_OK
        iterates.append(json.loads(out.read_text())["iterates"])
    assert iterates[0] == iterates[1]


def test_deeply_nested_unbalanced_polynomial_exits_2(tmp_path, capsys):
    args = ["orbit", "--poly", "(" * _DEEP + "x", "--x0", "0.7"]
    error = _exits_with_one_json_line(args, EXIT_CONFIG, tmp_path, capsys)
    assert error["error"] == "ConfigError" and "expected ')'" in error["message"]


# options every command needs, as config values; a tb dispersion so that --t is used
_BASE_OPTIONS = {
    "orbit": {"poly": "x^2+1", "x0": 0.5},
    "density": {"poly": "x^2+1"},
    "interfere": {"delta": 0.01},
    "ops-check": {"n": [4]},
    "dispersion": {"model": "tb", "n": 8},
}
_FLOAT_OPTIONS = [
    (name, key, kwargs.get("action") == "append")
    for name, command in cli.COMMANDS.items()
    for key, _default, kwargs in command.options
    if kwargs.get("type") is float
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", [math.nan, -math.inf])
@pytest.mark.parametrize(
    "command, key, append", _FLOAT_OPTIONS, ids=[f"{c}-{k}" for c, k, _ in _FLOAT_OPTIONS]
)
def test_non_finite_float_option_exits_2_and_writes_nothing(
    command, key, append, value, source, tmp_path, capsys
):
    bad = [1.0, value] if append else value
    options = {**_BASE_OPTIONS[command], key: bad}
    if source == "flag":
        args = [
            f"--{k.replace('_', '-')}={v}"
            for k, vs in options.items()
            for v in (vs if isinstance(vs, list) else [vs])
        ]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(options))  # NaN and -Infinity, which json.load accepts
        args = ["--config", str(config)]
    out = tmp_path / "out"
    code, stdout, err = run_cli([command, *args, "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    flag = "--" + key.replace("_", "-")
    assert err.count("\n") == 1 and json.loads(err)["message"].startswith(f"{flag} must be finite")
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("delta", ["inf", "1e200", "nan", "0", "-1"])
def test_bad_delta_exits_2_and_writes_nothing(delta, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run_cli(["interfere", f"--delta={delta}", "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and json.loads(err)["error"] == "ConfigError"
    assert stdout == ""
    assert not out.exists()


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bins": 20, "iters": 6000, "burnin": 500}))
    base = ["density", "--poly", "x^2+1", "--seed", "1", "--config", str(config)]

    out1 = tmp_path / "from-config.csv"
    code, stdout, _ = run_cli(base + ["--out", str(out1)], capsys)
    assert code == EXIT_OK
    assert len(parse_csv(out1.read_text()).cells) == 20  # config value used

    out2 = tmp_path / "cli-wins.csv"
    code, stdout, _ = run_cli(base + ["--bins", "30", "--out", str(out2)], capsys)
    assert code == EXIT_OK
    assert len(parse_csv(out2.read_text()).cells) == 30  # flag overrides config

    config.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run_cli(base + ["--out", str(out1)], capsys)
    assert code == EXIT_CONFIG
    assert "nonsense" in json.loads(err.strip())["message"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("density", {"poly": "x^2+1", "iters": "1000"}),
        ("density", {"poly": "x^2+1", "seed": "abc"}),
        ("density", {"poly": 5}),
        ("orbit", {"poly": "x^2+1", "x0": 0.7, "steps": 5.5}),
        ("orbit", {"poly": "x^2+1", "x0": 10**400}),  # no double holds it
        ("density", {"poly": "x^2+1", "overlay_cauchy": 1}),
        ("density", {"poly": "x^2+1", "bins": None}),
        ("ops-check", {"n": [8, "16"]}),
        ("dispersion", {"model": "xx"}),
        ("dispersion", {"samples": True}),
        ("cycles", {"poly": "x^2+1", "out": 3}),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(v),
)
def test_mistyped_config_value_exits_2_and_writes_nothing(command, options, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(options))
    out = tmp_path / "out"
    code, _, err = run_cli([command, "--config", str(config), "--out", str(out)], capsys)
    assert code == EXIT_CONFIG
    assert json.loads(err.strip())["error"] == "ConfigError"
    assert not out.exists()


def test_report_echoes_effective_config(tmp_path, capsys):
    out = tmp_path / "echo.csv"
    code, stdout, _ = run_cli(
        ["density", "--poly", "x^2+1", "--iters", "6000", "--burnin", "100",
         "--bins", "20", "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    report = read_report(stdout)
    assert report["config"]["options"]["bins"] == "20"
    assert report["config"]["options"]["seed"] == "5"
    assert report["command"] == "density"


def test_report_phases_sum_to_the_wall_time(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, stdout, _ = run_cli(["density", "--poly", "x^2+1", "--out", str(out)], capsys)
    assert code == EXIT_OK
    report = read_report(stdout)
    phases = report["phases"]
    assert set(phases) == {"parse", "compute", "render", "write"}
    assert all(ms > 0 for ms in phases.values())
    wall_ms = 1e3 * report["wall_time_s"]
    assert abs(phases["compute"] + phases["render"] + phases["write"] - wall_ms) <= 0.05 * wall_ms
    # every iterate stepped, over the compute phase: the 64 warm-up steps and
    # the ceil(201000 / 1024) = 197 recorded steps of 1024 chains
    iterates = report["statuses"]["iterates_per_s"] * phases["compute"] / 1e3
    assert iterates == pytest.approx((64 + 197) * 1024, rel=1e-12)


@pytest.mark.parametrize("command", ["density", "interfere"])
@pytest.mark.parametrize("n", [1, 1024, 1025, 201000])
def test_the_throughput_counts_the_iterates_stepped(command, n, monkeypatch):
    step_array = PolynomialProblem.step_array
    stepped = []

    def counting(self, xs, times=1):
        stepped.append(np.size(xs) * times)
        return step_array(self, xs, times)

    monkeypatch.setattr(PolynomialProblem, "step_array", counting)
    spec = cli.COMMANDS[command]
    options = {**spec.defaults(), "poly": "x^2+1", "delta": 0.01, "iters": n, "burnin": 0, "seed": 1}
    assert spec.runner(options).iterates == sum(stepped)


# ---------------------------------------------------------------------------
# runtime dependencies


_WITHOUT_SCIPY = """
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not available")
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy was importable")

import nrq.cli
from nrq import (EmpiricalDensity, PolynomialProblem, cauchy_density,
                 density_distance, pushforward_residual)

out = sys.argv[1]
code = nrq.cli.main(["density", "--poly", "x^2+1", "--iters", "21000", "--seed", "1",
                     "--overlay-cauchy", "--format", "svg", "--out", out])
assert code == 0 and open(out).read().count("<polyline") == 2
emp = EmpiricalDensity(-10.0, 10.0, 200, [1000] * 200)
assert density_distance(emp, cauchy_density, "l1") >= 0.5
assert density_distance(emp, cauchy_density, "ks") >= 0.2
problem = PolynomialProblem((1.0, 0.0, 1.0))
assert pushforward_residual(problem, cauchy_density, 20000, seed=3) < 0.1
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
print("ok")
"""


def test_runtime_runs_without_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "fig.svg")],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"
