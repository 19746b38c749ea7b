"""Output checks for the benchmark's operations.

The checks read what nrq writes (its output files and its one-line JSON
report) and use only numpy and the standard library, so a defect in nrq
cannot also hide itself in the check.  Every check raises ``CheckFailed``
with a reason; it returns the facts the benchmark records (digests,
counts, cycle yield).
"""

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

CSV_MAGIC = "# nrq-csv v1"

L1_BOUND = 0.05
CYCLE_TOL = 5e-13
RESIDUAL_BOUND = 1e-12
BORN_DRIFT_BOUND = 1e-10
OPS_RESIDUALS = (
    "shift_unitarity",
    "shift_power_identity",
    "dft_eigenpair",
    "frequency_hermiticity",
    "wavevector_hermiticity",
    "tight_binding_hermiticity",
    "evolve_composition",
)
OPS_NORM_CHECKS = ("born_sum_deviation", "evolve_norm_drift")


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(rc: int, stdout: str, stderr: str, data: bytes) -> dict:
    """The command exited 0, printed one JSON report line, and that report's
    digest and size match the bytes in the output file."""
    _require(rc == 0, f"exit code {rc}: {stderr.strip()[:300]}")
    lines = stdout.splitlines()
    _require(len(lines) == 1, f"expected one report line, got {len(lines)}")
    try:
        report = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    _require(isinstance(report, dict), "report is not a JSON object")
    outputs = report.get("outputs") or []
    _require(len(outputs) == 1, f"expected one output in the report, got {len(outputs)}")
    digest = sha256(data)
    _require(outputs[0].get("sha256") == digest, "report sha256 differs from the written file")
    _require(outputs[0].get("bytes") == len(data), "report byte count differs from the file")
    return report


# ---------------------------------------------------------------------------
# densities


def parse_csv(text: str):
    """(meta, columns, values) of an nrq CSV v1 file."""
    lines = text.split("\n")
    _require(bool(lines) and lines[0] == CSV_MAGIC, "missing CSV magic line")
    meta = {}
    i = 1
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    _require(i < len(lines), "CSV has no header line")
    columns = lines[i].split(",")
    try:
        values = np.array(
            [[float(c) for c in line.split(",")] for line in lines[i + 1 :] if line], dtype=float
        )
    except ValueError as exc:
        raise CheckFailed(f"bad CSV cell: {exc}") from None
    _require(values.ndim == 2 and values.shape[1] == len(columns), "ragged CSV rows")
    return meta, columns, values


@dataclass(frozen=True)
class Histogram:
    lo: float
    hi: float
    bins: int
    counts: np.ndarray
    below: int
    above: int
    restarts: int

    @property
    def in_range(self) -> int:
        return int(self.counts.sum())


def check_density_csv(text: str, expected_total: int) -> Histogram:
    """Recover the integer bin counts of a density CSV and check that the
    file is self-consistent: every density is count/(n*width) to rounding, the
    counts add up to ``in_range`` and the total is the binned iterate count."""
    meta, columns, values = parse_csv(text)
    _require(columns == ["bin_center", "density"], f"unexpected columns {columns}")
    try:
        lo, hi = float(meta["lo"]), float(meta["hi"])
        bins, in_range = int(meta["bins"]), int(meta["in_range"])
        below, above = int(meta["below"]), int(meta["above"])
        total, restarts = int(meta["total"]), int(meta["restarts"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"bad density metadata: {exc}") from None
    _require(values.shape[0] == bins, f"{values.shape[0]} rows for {bins} bins")
    _require(total == expected_total, f"total {total} != {expected_total} binned iterates")
    _require(in_range + below + above == total, "in_range + below + above != total")
    _require(in_range > 0, "no in-range mass")
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    _require(np.allclose(values[:, 0], centers, rtol=0, atol=1e-12 * (hi - lo)), "bin centers off the grid")
    scale = in_range * ((hi - lo) / bins)
    counts = np.rint(values[:, 1] * scale).astype(np.int64)
    _require(bool((counts >= 0).all()), "negative bin count")
    # a tolerance of 1e-9 of one count admits rounding, never a changed count
    _require(
        bool((np.abs(counts / scale - values[:, 1]) <= 1e-9 / scale).all()),
        "a density is not count/(n*width)",
    )
    _require(int(counts.sum()) == in_range, "bin counts do not add up to in_range")
    return Histogram(lo, hi, bins, counts, below, above, restarts)


def cauchy_l1(hist: Histogram) -> float:
    """L1 distance of the histogram from the Cauchy law, both normalized to
    unit mass on the window, with exact bin masses from the arctan CDF."""
    cdf = np.arctan(np.linspace(hist.lo, hist.hi, hist.bins + 1)) / math.pi
    ref = np.diff(cdf)
    ref = ref / ref.sum()
    return float(np.abs(hist.counts / hist.in_range - ref).sum())


def merge(hists) -> Histogram:
    first = hists[0]
    _require(
        all((h.lo, h.hi, h.bins) == (first.lo, first.hi, first.bins) for h in hists),
        "densities to merge have different binning",
    )
    return Histogram(
        first.lo,
        first.hi,
        first.bins,
        sum(h.counts for h in hists),
        sum(h.below for h in hists),
        sum(h.above for h in hists),
        sum(h.restarts for h in hists),
    )


def check_merged_l1(hists, program_l1: float) -> dict:
    """The seed-merged density is within L1_BOUND of Cauchy, both as nrq
    computes it and as this module computes it."""
    own = cauchy_l1(merge(hists))
    _require(own <= L1_BOUND, f"merged L1 {own:.4f} > {L1_BOUND}")
    _require(math.isfinite(program_l1) and program_l1 <= L1_BOUND, f"nrq L1 {program_l1} > {L1_BOUND}")
    return {"l1": own, "nrq_l1": program_l1}


def check_interfere_narrow(peaks) -> dict:
    """delta = 0.01: two peaks, within 0.2 of 0 and 3."""
    _require(len(peaks) == 2, f"{len(peaks)} peaks, expected 2")
    (c_left, *_), (c_right, *_) = sorted(peaks)
    _require(abs(c_left) <= 0.2 and abs(c_right - 3.0) <= 0.2, f"peaks at {c_left}, {c_right}")
    return {"centers": [c_left, c_right]}


def half_width(hist: Histogram, center: float) -> float:
    """Half width at half maximum of the histogram's peak at the bin nearest
    ``center``: on each side, the first bin at or below half the peak's
    density, with the crossing interpolated linearly between bin centers."""
    width = (hist.hi - hist.lo) / hist.bins
    centers = hist.lo + width * (np.arange(hist.bins) + 0.5)
    dens = hist.counts / (hist.in_range * width)
    i0 = int(np.argmin(np.abs(centers - center)))
    half = dens[i0] / 2.0
    _require(half > 0, f"empty bin at peak {center}")

    def crossing(step: int) -> float:
        side = np.arange(i0, hist.bins) if step > 0 else np.arange(i0, -1, -1)
        low = np.flatnonzero(dens[side] <= half)
        _require(low.size > 0, f"half maximum of peak {center} not reached inside the range")
        b = side[low[0]]
        a = b - step
        return centers[a] + (dens[a] - half) / (dens[a] - dens[b]) * (centers[b] - centers[a])

    return float(crossing(1) - crossing(-1)) / 2.0


def check_hwhm(hist: Histogram, peaks, program_hwhms) -> dict:
    """Each peak's HWHM is 0.1 +/- 0.05, and nrq's value agrees with this
    module's to rounding."""
    _require(len(program_hwhms) == len(peaks), "need one HWHM per peak")
    own = [half_width(hist, c) for c, *_ in peaks]
    for mine, theirs in zip(own, program_hwhms):
        _require(abs(mine - 0.1) <= 0.05, f"HWHM {mine} outside 0.1 +/- 0.05")
        _require(math.isfinite(theirs) and abs(theirs - mine) <= 1e-9, f"nrq HWHM {theirs} != {mine}")
    return {"hwhm": own}


def check_interfere_broad(peaks) -> dict:
    """delta = 1: at least one maximum strictly inside (0.5, 2.5)."""
    mid = [p for p in peaks if 0.5 < p[0] < 2.5]
    _require(len(mid) >= 1, "no maximum inside (0.5, 2.5)")
    return {"mid_maxima": len(mid)}


# ---------------------------------------------------------------------------
# cycles of x^2 + 1


def closed_form_cycle_points(period: int) -> np.ndarray:
    """Sorted points cot(pi k/(2^p - 1)) of minimal period p.

    With x = cot(pi theta) the Newton map of x^2 + 1 is theta -> 2 theta
    mod 1, so its period-p points are these, for the k whose doubling orbit
    modulo 2^p - 1 first returns after p steps.
    """
    m = 2**period - 1
    points = []
    for k in range(1, m):
        j, steps = (2 * k) % m, 1
        while j != k:
            j, steps = (2 * j) % m, steps + 1
        if steps == period:
            phi = math.pi * k / m
            points.append(math.cos(phi) / math.sin(phi))
    return np.sort(np.array(points))


def check_cycles(doc: dict, period: int, lo: float, hi: float) -> dict:
    """Every reported point lies within CYCLE_TOL of a distinct closed-form
    point.  A cycle found from a root in [lo, hi] may leave the window, so
    the yield counts found points inside it against the closed-form points
    inside it."""
    _require(doc.get("period") == period, f"report is for period {doc.get('period')}")
    expected = closed_form_cycle_points(period)
    matched = set()
    for cycle in doc.get("cycles", []):
        points = cycle.get("points", [])
        _require(len(points) == period, f"cycle of length {len(points)} for period {period}")
        for x in points:
            i = int(np.searchsorted(expected, x))
            near = [j for j in (i - 1, i) if 0 <= j < len(expected)]
            j = min(near, key=lambda j: abs(expected[j] - x), default=None)
            _require(
                j is not None and abs(expected[j] - x) <= CYCLE_TOL,
                f"cycle point {x!r} is not within {CYCLE_TOL} of a closed-form point",
            )
            _require(j not in matched, f"cycle point {x!r} reported twice")
            matched.add(j)
    inside = (expected >= lo) & (expected <= hi)
    return {
        "found": sum(1 for j in matched if inside[j]),
        "expected": int(inside.sum()),
    }


# ---------------------------------------------------------------------------
# operators and dispersion


def check_ops_report(doc: dict, sizes) -> dict:
    """Each size's residuals are <= 1e-12, Born sum and norm drift <= 1e-10."""
    reports = doc.get("reports", [])
    _require([r.get("n") for r in reports] == list(sizes), "ops-check sizes differ from request")
    worst = {}
    for r in reports:
        for key, bound in [(k, RESIDUAL_BOUND) for k in OPS_RESIDUALS] + [
            (k, BORN_DRIFT_BOUND) for k in OPS_NORM_CHECKS
        ]:
            value = r.get(key)
            _require(
                isinstance(value, (int, float)) and 0 <= value <= bound,
                f"n={r.get('n')}: {key}={value} exceeds {bound}",
            )
            worst[key] = max(worst.get(key, 0.0), value)
    return {"worst": worst}


def check_continuum(t1: float, spacings, eigenvalues, wavevectors) -> dict:
    """Tight-binding band bottom against k^2/(2 mu): relative error at the
    finer grid <= 0.01 and falling as dx^2 (coarse/fine ratio 4 +/- 0.5),
    on the window |k| <= (coarse Nyquist)/8."""
    window = math.pi / max(spacings) / 8.0
    errors = []
    for dx, lam, k in zip(spacings, eigenvalues, wavevectors):
        lam = np.sort(np.asarray(lam, dtype=float))
        ks = np.sort(np.abs(np.asarray(k, dtype=float)))
        model = t1 * dx * dx * ks * ks
        sel = (ks > 0) & (ks <= window + 1e-12)
        errors.append(float(np.max(np.abs(lam[sel] - model[sel]) / model[sel])))
    coarse, fine = errors
    ratio = coarse / fine
    _require(fine <= 0.01, f"continuum error {fine:.4f} > 0.01")
    _require(3.5 <= ratio <= 4.5, f"error ratio {ratio:.2f} outside 4 +/- 0.5")
    return {"error": fine, "ratio": ratio}


def check_uncertainty(product: float, commutator: complex) -> dict:
    """Gaussian packet: dx*dk in [0.45, 0.60] and <[x, k]> within 0.02 of i."""
    _require(0.45 <= product <= 0.60, f"dx*dk = {product:.4f} outside [0.45, 0.60]")
    _require(abs(commutator - 1j) <= 0.02, f"<[x,k]> = {commutator} not within 0.02 of i")
    return {"product": product}


def _dispersion_values(text: str):
    meta, columns, values = parse_csv(text)
    _require(columns == ["k", "omega"], f"unexpected columns {columns}")
    return meta, values[:, 0], values[:, 1]


def check_dispersion_tb(text: str, n: int, spacing: float, eps: float, hoppings) -> dict:
    """omega(k) = eps - sum_r 2 t_r cos(r k dx) on the grid's wave numbers."""
    _, k, omega = _dispersion_values(text)
    j = np.arange(n)
    expected_k = np.sort(2.0 * np.pi * np.where(j <= n // 2, j, j - n) / (n * spacing))
    _require(np.allclose(k, expected_k, rtol=0, atol=1e-12), "tb wave numbers off the grid")
    model = eps - sum(2.0 * t * np.cos(r * k * spacing) for r, t in enumerate(hoppings, start=1))
    err = float(np.abs(omega - model).max())
    _require(err <= 1e-12, f"tb dispersion off by {err:.2e}")
    return {"max_error": err}


def check_dispersion_kg(text: str, mass: float, kmin: float, kmax: float, samples: int) -> dict:
    """omega(k) = sqrt(k^2 + m^2) with c = hbar = 1 on the requested k grid."""
    _, k, omega = _dispersion_values(text)
    _require(np.allclose(k, np.linspace(kmin, kmax, samples), rtol=0, atol=1e-12), "kg k grid")
    err = float(np.abs(omega - np.sqrt(k * k + mass * mass)).max())
    _require(err <= 1e-12, f"kg dispersion off by {err:.2e}")
    return {"max_error": err}


def check_orbit(text: str, x0: float, steps: int) -> dict:
    """Every recorded iterate is the x^2 + 1 Newton map (x^2 - 1)/(2x) of
    the one before, to rounding; a running orbit records all steps."""
    meta, columns, values = parse_csv(text)
    _require(columns == ["step", "x"], f"unexpected columns {columns}")
    xs = values[:, 1]
    _require(xs[0] == x0, "orbit does not start at x0")
    _require(np.array_equal(values[:, 0], np.arange(len(xs))), "orbit steps not consecutive")
    if meta.get("status") == "running":
        _require(len(xs) == steps + 1, f"{len(xs) - 1} steps recorded, {steps} requested")
    prev = xs[:-1]
    err = np.abs(xs[1:] - (prev * prev - 1.0) / (2.0 * prev))
    _require(bool((err <= 1e-14 * np.maximum(1.0, np.abs(xs[1:]))).all()), "orbit step mismatch")
    return {"steps": int(len(xs) - 1)}


def check_svg(text: str, bins: int, overlay: bool) -> dict:
    """Well-formed SVG with a density polyline of one point per bin."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    _require(root.tag.endswith("svg"), "root element is not <svg>")
    lines = {el.get("class"): el.get("points", "").split() for el in root.iter() if el.tag.endswith("polyline")}
    _require(len(lines.get("density", [])) == bins, "density polyline does not have one point per bin")
    if overlay:
        _require(len(lines.get("overlay", [])) == bins, "overlay polyline missing or short")
    return {"points": bins}
