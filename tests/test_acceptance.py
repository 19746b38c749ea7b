"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on passing runs.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from nrq import (
    Grid,
    IterationPolicy,
    PolynomialProblem,
    accumulate_density,
    cauchy_density,
    commutator,
    density_distance,
    dirac_check,
    expectation,
    gaussian_packet,
    half_width_at_half_max,
    interference_polynomial,
    iterate_orbit,
    klein_gordon_plane_wave_residual,
    ops_check,
    peak_detect,
    position_operator,
    tight_binding_hamiltonian,
    uncertainty_product,
    wavevector_operator,
    wavevector_values,
)
from nrq.cli import RunConfig, run

NO_REAL_ROOT = PolynomialProblem((1.0, 0.0, 1.0))


def _report(name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def interference_001():
    return accumulate_density(interference_polynomial(0.01), None, 1000, 201000, -2.0, 5.0, 280, seed=7)


def test_criterion_1_invariant_density():
    started = time.perf_counter()
    merged = None
    for seed in range(1, 6):
        d = accumulate_density(NO_REAL_ROOT, None, 1000, 201000, -10.0, 10.0, 200, seed=seed)
        merged = d if merged is None else merged.merge(d)
    distance = density_distance(merged, cauchy_density)
    elapsed = time.perf_counter() - started
    _report(
        "1 invariant-density",
        distance <= 0.05 and elapsed < 2.0,
        f"L1={distance:.4f} (<=0.05), wall={elapsed:.2f}s (<2s)",
    )


def test_criterion_2_cycle_escape():
    x0 = 1.0 / math.sqrt(3.0)
    orbit = iterate_orbit(NO_REAL_ROOT, x0, IterationPolicy(max_steps=100))
    deviations = [min(abs(x - x0), abs(x + x0)) for x in orbit.iterates]
    escape = next((i for i, dev in enumerate(deviations) if dev > 0.1), None)
    ok = escape is not None and escape < 100 and 45 <= escape <= 65
    _report("2 cycle-escape", ok, f"escape step={escape} (expected ~50-60, <100)")


def test_criterion_3_interference(interference_001):
    d = interference_001
    peaks = peak_detect(d, min_prominence=0.05)
    ok = len(peaks) == 2
    detail = [f"peaks={len(peaks)}"]
    if ok:
        (c_left, _, _), (c_right, _, _) = sorted(peaks)
        ok &= abs(c_left - 0.0) <= 0.2 and abs(c_right - 3.0) <= 0.2
        hw_left = half_width_at_half_max(d, c_left)
        hw_right = half_width_at_half_max(d, c_right)
        ok &= abs(hw_left - 0.1) <= 0.05 and abs(hw_right - 0.1) <= 0.05
        detail.append(f"centers=({c_left:.3f},{c_right:.3f})")
        detail.append(f"hwhm=({hw_left:.3f},{hw_right:.3f}) vs 0.1+/-0.05")
        centers = d.centers()
        left_mass = d.counts[(centers >= -1.0) & (centers <= 1.0)].sum() / d.total
        right_mass = d.counts[(centers >= 2.0) & (centers <= 4.0)].sum() / d.total
        ok &= left_mass >= 0.25 and right_mass >= 0.25
        ok &= 0.40 <= left_mass <= 0.50 and 0.40 <= right_mass <= 0.50  # golden band
        detail.append(f"window masses=({left_mass:.3f},{right_mass:.3f})")

    broad = accumulate_density(interference_polynomial(1.0), None, 1000, 201000, -2.0, 5.0, 280, seed=7)
    mid_peaks = [p for p in peak_detect(broad, min_prominence=0.01) if 0.5 < p[0] < 2.5]
    ok &= len(mid_peaks) >= 1
    detail.append(f"delta=1 mid-range maxima={len(mid_peaks)}")
    _report("3 interference", ok, ", ".join(detail))


def test_criterion_4_operator_suite():
    worst = {}
    ok = True
    for n in (2, 4, 8, 64, 256):
        r = ops_check(n, evolve_steps=1000)
        for key in (
            "shift_unitarity",
            "shift_power_identity",
            "dft_eigenpair",
            "frequency_hermiticity",
            "wavevector_hermiticity",
            "tight_binding_hermiticity",
        ):
            ok &= r[key] <= 1e-12
            worst[key] = max(worst.get(key, 0.0), r[key])
        ok &= r["born_sum_deviation"] <= 1e-10
        ok &= r["evolve_norm_drift"] <= 1e-10
        worst["born_sum_deviation"] = max(worst.get("born_sum_deviation", 0.0), r["born_sum_deviation"])
        worst["evolve_norm_drift"] = max(worst.get("evolve_norm_drift", 0.0), r["evolve_norm_drift"])
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report("4 operator-suite", ok, detail)


def test_criterion_5_continuum_limit():
    # fixed physical window |k| <= (coarse-grid Nyquist)/8 for both sizes
    extent = 128.0
    t1 = 1.0
    window = (math.pi / (extent / 128)) / 8.0

    def max_rel_err(n):
        grid = Grid(n, extent / n)
        h = tight_binding_hamiltonian(grid, 2.0 * t1, [t1])  # band bottom 0
        lam = np.sort(np.linalg.eigvalsh(h.matrix))
        k_sorted = np.sort(np.abs(wavevector_values(grid)))
        model = t1 * grid.spacing**2 * k_sorted**2  # k^2/(2 mu)
        sel = (k_sorted > 0) & (k_sorted <= window + 1e-12)
        return float(np.max(np.abs(lam[sel] - model[sel]) / model[sel]))

    err_128 = max_rel_err(128)
    err_256 = max_rel_err(256)
    ratio = err_128 / err_256
    ok = err_256 <= 0.01 and 3.5 <= ratio <= 4.5
    _report(
        "5 continuum-limit",
        ok,
        f"err(256)={err_256:.4f} (<=0.01), err(128)/err(256)={ratio:.2f} (4+/-0.5)",
    )


def test_criterion_6_relativistic_checks():
    kg_residuals = [
        klein_gordon_plane_wave_residual(Grid(64, 1.0), 5, 1.0),
        klein_gordon_plane_wave_residual(Grid(64, 0.5), 60, 2.0),
    ]
    report = dirac_check((0.6, 0.0, 0.8), 1.0)  # |k| = 1, m = 1, c = 1
    algebra = max(report.algebra_residuals.values())
    expected = math.sqrt(2.0)
    eigs = np.sort(report.dispersion_eigenvalues)
    spectrum_ok = np.allclose(eigs, [-expected, -expected, expected, expected], atol=1e-10)
    ok = max(kg_residuals) <= 1e-10 and algebra <= 1e-12 and spectrum_ok
    _report(
        "6 relativistic-checks",
        ok,
        f"kg={max(kg_residuals):.1e}, dirac algebra={algebra:.1e}, eigs=+/-sqrt(2) x2",
    )


def test_criterion_7_uncertainty():
    grid = Grid(256, 1.0)
    packet = gaussian_packet(grid, 128.0, 8.0)
    x_op = position_operator(grid)
    k_op = wavevector_operator(grid)
    product = uncertainty_product(packet, x_op, k_op)
    comm = expectation(commutator(x_op, k_op), packet)
    ok = 0.45 <= product <= 0.60 and abs(comm - 1j) <= 0.02
    print(
        "[acceptance] 7 note: the product convention dx*dk >= 1 is reported only; "
        "the asserted floor is the Robertson bound ~1/2"
    )
    _report(
        "7 uncertainty",
        ok,
        f"dx*dk={product:.4f} in [0.45,0.60], <[x,k]>={comm:.4f} within 2% of i",
    )


def test_criterion_8_determinism(tmp_path):
    configs = [
        (
            "density",
            {
                "poly": "x^2+1",
                "x0": None,
                "iters": 201000,
                "burnin": 1000,
                "bins": 200,
                "range": "-10:10",
                "seed": 1,
                "overlay_cauchy": False,
            },
        ),
        ("orbit", {"poly": "x^2+1", "x0": 1.0 / math.sqrt(3.0), "steps": 100, "tol": 1e-12}),
        (
            "interfere",
            {
                "delta": 0.01,
                "iters": 201000,
                "burnin": 1000,
                "bins": 280,
                "range": "-2:5",
                "x0": None,
                "seed": 7,
                "min_prominence": 0.05,
            },
        ),
        (
            "interfere",
            {
                "delta": 1.0,
                "iters": 201000,
                "burnin": 1000,
                "bins": 280,
                "range": "-2:5",
                "x0": None,
                "seed": 7,
                "min_prominence": 0.01,
            },
        ),
    ]
    ok = True
    digests = []
    for index, (command, options) in enumerate(configs):
        hashes = []
        for attempt in (0, 1):
            path = tmp_path / f"{command}-{index}-{attempt}.csv"
            run(RunConfig(command, dict(options), str(path), "csv"))
            hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        ok &= hashes[0] == hashes[1]
        digests.append(hashes[0][:8])
    _report("8 determinism", ok, f"stable digests: {', '.join(digests)}")
