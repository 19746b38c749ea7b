"""Density accumulation, analytic-density comparison, cycles, interference."""

import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import nrq
from nrq import (
    EmpiricalDensity,
    InvalidRange,
    Lorentzian,
    PolynomialProblem,
    accumulate_density,
    cauchy_density,
    density_distance,
    find_cycles,
    half_width_at_half_max,
    interference_polynomial,
    newton_step,
    parse_polynomial,
    peak_detect,
    pushforward_residual,
)
from nrq import measure
from nrq.newton import OVERFLOW_BOUND, DerivativeZero

NO_REAL_ROOT = PolynomialProblem((1.0, 0.0, 1.0))
SQRT2_MINUS_2 = PolynomialProblem((-2.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# analytic density


def test_cauchy_density_values():
    assert cauchy_density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert cauchy_density(1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_cauchy_density_is_the_same_on_floats_and_arrays():
    ys = np.random.default_rng(0).standard_cauchy(1000) * 10.0
    on_floats = [cauchy_density(y) for y in ys.tolist()]
    on_numpy_scalars = [cauchy_density(y) for y in ys]
    assert all(type(v) is float for v in on_floats + on_numpy_scalars)
    assert np.array_equal(on_floats, cauchy_density(ys))
    assert np.array_equal(on_numpy_scalars, cauchy_density(ys))


def test_cauchy_density_integrates_to_one():
    # piecewise quadrature (peak and tails separated); true mass outside
    # +/-1e6 is 2/(pi*1e6) ~ 6.4e-7, inside the 1e-6 budget
    total = sum(
        quad(cauchy_density, a, b, limit=500)[0]
        for a, b in [(-1e6, -100.0), (-100.0, 0.0), (0.0, 100.0), (100.0, 1e6)]
    )
    assert abs(total - 1.0) <= 1e-6


def test_cauchy_quantile_inverts_cdf():
    for u in (0.05, 0.25, 0.5, 0.9):
        x = cauchy_density.quantile(u)
        cdf = 0.5 + math.atan(x) / math.pi
        assert cdf == pytest.approx(u, abs=1e-12)


# ---------------------------------------------------------------------------
# Lorentzian bin masses


def _assert_masses_within_4_ulps(density, edges):
    """Against atan2(v - u, 1 + u*v)/pi in 70-digit arithmetic, bin by bin."""
    with np.errstate(all="raise"):
        masses = density.masses(edges)
    with mpmath.workdps(70):
        t = [(mpmath.mpf(e) - density.center) / density.scale for e in edges.tolist()]
        exact = [mpmath.atan2(v - u, 1 + u * v) / mpmath.pi for u, v in zip(t, t[1:])]
        ulps = [abs(m - x) / np.spacing(float(x)) for m, x in zip(masses.tolist(), exact)]
    assert max(ulps) <= 4


@pytest.mark.parametrize(
    "lo, hi, bins",
    [(-10.0, 10.0, 200), (-2.0, 5.0, 280), (-1.0, 1.0, 4), (-1e3, 1e3, 200),
     (-1e4, 1e4, 200), (-1e6, 1e6, 7), (-1e15, 1e15, 200), (-1e20, 1e20, 200),
     (-1e150, 1e150, 200), (-1e300, 1e300, 200), (100.0, 1e6, 999), (-7.3, 1e4, 999),
     (-1.7e308, 0.0, 1)],  # |u| beyond 2^1023, where the scaling power of two is capped
)
def test_bin_masses_match_cauchy_closed_form(lo, hi, bins):
    _assert_masses_within_4_ulps(cauchy_density, np.linspace(lo, hi, bins + 1))


@pytest.mark.parametrize(
    "lo, hi, bins, scale",
    [(-10.0, 10.0, 200, 0.5), (-10.0, 10.0, 200, 2.0), (-7.3, 1e4, 999, 2.0),
     (-1e300, 1e300, 200, 0.5)],
)
def test_scaled_lorentzian_masses_match_the_closed_form(lo, hi, bins, scale):
    # the scales are powers of two, so the edges in units of the scale are exact
    _assert_masses_within_4_ulps(Lorentzian(0.0, scale), np.linspace(lo, hi, bins + 1))


@pytest.mark.parametrize("R", [1e15, 1e20, 1e50, 1e300])
def test_lorentzian_masses_keep_a_peak_narrower_than_a_bin(R):
    with np.errstate(all="raise"):
        total = cauchy_density.masses(np.linspace(-R, R, 201)).sum()
    with mpmath.workdps(70):
        exact = 2 * mpmath.atan(mpmath.mpf(R)) / mpmath.pi
    assert abs(total - exact) <= 1e-15


def test_lorentzian_scale_family():
    wide = Lorentzian(3.0, 2.0)
    ys = np.linspace(-20.0, 20.0, 41)
    assert np.allclose(wide(ys), cauchy_density((ys - 3.0) / 2.0) / 2.0, rtol=1e-15, atol=0.0)
    us = np.array([0.05, 0.25, 0.5, 0.9])
    assert np.allclose(wide.quantile(us), 3.0 + 2.0 * cauchy_density.quantile(us), rtol=1e-15, atol=0.0)
    assert type(wide(1.0)) is float and type(wide.quantile(0.3)) is float


@pytest.mark.parametrize(
    "center, scale",
    [(math.inf, 1.0), (math.nan, 1.0), (0.0, 0.0), (0.0, -1.0), (0.0, math.inf), (0.0, math.nan)],
)
def test_lorentzian_rejects_a_bad_center_or_scale(center, scale):
    with pytest.raises(ValueError, match="finite"):
        Lorentzian(center, scale)


# ---------------------------------------------------------------------------
# histogram container


def test_density_mass_conservation():
    d = EmpiricalDensity(-1.0, 1.0, 4, np.array([1, 2, 3, 4]), below_count=5, above_count=6)
    assert d.total == 10 + 5 + 6
    assert d.in_range == 10
    assert d.densities().sum() * d.bin_width == pytest.approx(1.0, abs=1e-12)


def test_density_validation():
    with pytest.raises(InvalidRange):
        EmpiricalDensity(1.0, -1.0, 4, np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        EmpiricalDensity(0.0, 1.0, 4, np.array([1, -1, 0, 0]))
    with pytest.raises(ValueError):
        EmpiricalDensity(0.0, 1.0, 1, np.array([1]))
    # a count or tail that is not a whole number was once truncated or kept
    for counts in ([1.5, 2.7], [math.inf, 1.0], [math.nan, 1.0], [1e30, 1.0]):
        with pytest.raises(ValueError, match="counts must be integers"):
            EmpiricalDensity(0.0, 1.0, 2, counts)
    for tail in (1.5, math.inf, math.nan, "1"):
        with pytest.raises(ValueError, match="tail counts must be integers"):
            EmpiricalDensity(0.0, 1.0, 2, [1, 2], below_count=tail)
        with pytest.raises(ValueError, match="tail counts must be integers"):
            EmpiricalDensity(0.0, 1.0, 2, [1, 2], above_count=tail)
    d = EmpiricalDensity(0.0, 1.0, 2, [1.0, True], below_count=np.int64(2), above_count=3.0, restarts=np.float64(4))
    assert d.counts.tolist() == [1, 1] and d.total == 7
    # an integral float or numpy tail is kept as an int, and so are restarts
    assert type(d.total) is int and type(d.merge(d).total) is int
    assert type(d.restarts) is int and d.restarts == 4
    with pytest.raises(ValueError, match="restarts must be integers"):
        EmpiricalDensity(0.0, 1.0, 2, [1, 2], restarts=0.5)


@pytest.mark.parametrize("lo, hi", [(-8e307, 8e307), (0.0, 1e-320)])
def test_densities_that_overflow_raise_invalid_range(lo, hi):
    # n * bin_width overflowed to inf and gave all-zero densities, and a
    # subnormal bin width gave inf densities
    d = EmpiricalDensity.from_samples(np.full(10, 0.5 * (lo + hi)), lo, hi, 2)
    with pytest.raises(InvalidRange, match="overflow"):
        d.densities()



def test_density_counts_must_match_bins():
    with pytest.raises(ValueError, match="counts length must equal bins"):
        EmpiricalDensity(0.0, 1.0, 4, np.array([1, 2, 3]))


@pytest.mark.parametrize("bins", [1, 0, -3, measure.MAX_BINS + 1])
def test_one_bins_rule_for_every_density(bins):
    message = f"bins must lie in 2..100000, got {bins}"
    with pytest.raises(ValueError, match=message):
        EmpiricalDensity(0.0, 1.0, bins, np.zeros(max(bins, 0), dtype=int))
    with pytest.raises(ValueError, match=message):
        EmpiricalDensity.from_samples([0.5], 0.0, 1.0, bins)
    with pytest.raises(ValueError, match=message):
        accumulate_density(NO_REAL_ROOT, 0.7, 0, 10, 0.0, 1.0, bins)


def test_density_without_distinct_edges_is_rejected():
    # its bin width once rounded to 0, so that both densities were inf
    with pytest.raises(ValueError, match="Too many bins"):
        EmpiricalDensity(0.0, 5e-324, 2, [1, 1])


def test_density_at_the_bins_cap_is_built():
    d = EmpiricalDensity(0.0, 1.0, measure.MAX_BINS, np.zeros(measure.MAX_BINS, dtype=int))
    assert d.bins == measure.MAX_BINS

@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_density_rejects_window_of_infinite_width(lo, hi):
    # a width of inf would give NaN edges and all-zero densities
    with pytest.raises(InvalidRange):
        EmpiricalDensity(lo, hi, 4, np.array([1, 0, 0, 0]))
    with pytest.raises(InvalidRange):
        EmpiricalDensity.from_samples([0.5], lo, hi, 4)


def test_density_empty_range_is_all_zero():
    d = EmpiricalDensity.from_samples([5.0, 7.0], 0.0, 1.0, 4)
    assert d.in_range == 0
    assert d.above_count == 2
    assert (d.densities() == 0.0).all()


def test_from_samples_rejects_nan():
    # a NaN lands in no bin and in neither tail, so total would undercount
    with pytest.raises(ValueError, match="NaN"):
        EmpiricalDensity.from_samples([0.5, math.nan, 0.7], 0.0, 1.0, 2)


def _numpy_tally(x, lo, hi, bins):
    """np.histogram's counts on the window and the two tails, or its error."""
    try:
        counts, _ = np.histogram(x, bins, range=(lo, hi))
    except ValueError as e:
        return str(e)
    return counts.tolist(), int(np.count_nonzero(x < lo)), int(np.count_nonzero(x > hi))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-300, max_value=299),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=1e-6, max_value=4.0),
    st.integers(min_value=2, max_value=measure.MAX_BINS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(-300, -1.0, 4.0, 2, 0)  # [-1e-300, 3e-300]
@example(300, -1.0, 2.0, measure.MAX_BINS, 1)  # [-1e300, 1e300]
@example(-300, -1.0, 4.0, 1000, 2)
@example(0, 0.0, 1.0, 3, 3)
def test_tally_matches_numpy_histogram(exponent, a, w, bins, seed):
    # lo = a * 10^exponent, hi = lo + w * 10^exponent; the samples are every
    # edge and its two neighbours, signed zeros, infinities, the extreme
    # doubles and uniform draws around the window, which from_samples tallies
    # ACCUMULATE_BLOCK at a time
    scale = 10.0**exponent
    lo = a * scale
    hi = lo + w * scale
    if not lo < hi:
        return
    edges = np.linspace(lo, hi, bins + 1)
    rng = np.random.default_rng(seed)
    x = np.concatenate([
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308],
        rng.uniform(lo - (hi - lo), hi + (hi - lo), 5000),
    ])
    rng.shuffle(x)
    expected = _numpy_tally(x, lo, hi, bins)
    try:
        got = EmpiricalDensity.from_samples(x, lo, hi, bins)
    except ValueError as e:
        assert str(e) == expected
        return
    assert (got.counts.tolist(), got.below_count, got.above_count) == expected


def test_narrow_window_raises_numpys_error_before_the_orbit_runs():
    lo, hi, bins = 1e15, 1e15 + 2, 100
    message = _numpy_tally(np.array([lo]), lo, hi, bins)
    assert message.startswith("Too many bins")
    with pytest.raises(ValueError) as raised:
        EmpiricalDensity.from_samples([lo], lo, hi, bins)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        accumulate_density(types.SimpleNamespace(step_array=_no_orbit), lo, 0, 10, lo, hi, bins)
    assert str(raised.value) == message


@pytest.mark.parametrize("lo, hi, bins", [(0.0, 1e308, 200), (0.0, 1e308, 4), (-1e308, 1e308, 200)])
def test_accumulate_rejects_window_whose_bin_arithmetic_overflows(lo, hi, bins):
    with pytest.raises(InvalidRange):
        accumulate_density(NO_REAL_ROOT, 0.7, 1000, 3000, lo, hi, bins, seed=1)


counts_arrays = st.lists(st.integers(min_value=0, max_value=10**6), min_size=6, max_size=6)


@settings(max_examples=50, deadline=None)
@given(counts_arrays, counts_arrays, counts_arrays)
def test_merge_is_a_commutative_monoid(a, b, c):
    mk = lambda counts: EmpiricalDensity(0.0, 3.0, 6, np.array(counts))
    da, db, dc = mk(a), mk(b), mk(c)
    left = da.merge(db).merge(dc)
    right = da.merge(db.merge(dc))
    assert np.array_equal(left.counts, right.counts)
    assert np.array_equal(da.merge(db).counts, db.merge(da).counts)
    assert left.total == da.total + db.total + dc.total


def test_merge_requires_same_binning():
    a = EmpiricalDensity(0.0, 1.0, 4, np.zeros(4, dtype=int))
    b = EmpiricalDensity(0.0, 2.0, 4, np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        a.merge(b)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False), max_size=60)
    | st.lists(st.floats(min_value=-4.0, max_value=4.0), max_size=60),
    st.lists(st.integers(min_value=0, max_value=60), max_size=4),
)
def test_a_density_is_a_monoid_under_adding_samples(samples, cuts):
    # blocks of 7 samples, so parts straddle the blocks from_samples adds;
    # the parts added in turn to one density, the merge of the parts'
    # densities and the density of the whole count the same
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nrq.measure.ACCUMULATE_BLOCK", 7)
        x = np.array(samples, dtype=float)
        bounds = [0, *sorted(min(c, x.size) for c in cuts), x.size]
        parts = [x[a:b] for a, b in zip(bounds, bounds[1:])]
        added = EmpiricalDensity.from_samples((), -3.0, 3.0, 12)
        for part in parts:
            added._add(part)
        merged = EmpiricalDensity.from_samples((), -3.0, 3.0, 12)
        for part in parts:
            merged = merged.merge(EmpiricalDensity.from_samples(part, -3.0, 3.0, 12))
        whole = EmpiricalDensity.from_samples(x, -3.0, 3.0, 12)
    for d in (added, merged):
        assert (d.counts.tolist(), d.below_count, d.above_count) == (
            whole.counts.tolist(), whole.below_count, whole.above_count
        )
    assert added.total == merged.total == whole.total == x.size


# ---------------------------------------------------------------------------
# accumulation


def test_accumulate_validation():
    with pytest.raises(InvalidRange):
        accumulate_density(NO_REAL_ROOT, 0.7, 0, 10, 5.0, -5.0, 10)
    with pytest.raises(ValueError):
        accumulate_density(NO_REAL_ROOT, 0.7, 10, 10, -1.0, 1.0, 10)
    # a non-finite start is refused before any step, as iterate_orbit refuses it
    for x0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            accumulate_density(types.SimpleNamespace(step_rows=_no_orbit), x0, 0, 10, -1.0, 1.0, 4)


def test_accumulate_bins_cap():
    assert accumulate_density(NO_REAL_ROOT, 0.7, 0, 10, -1.0, 1.0, measure.MAX_BINS).bins == measure.MAX_BINS
    started = time.perf_counter()
    for bins in (measure.MAX_BINS + 1, 10**9):
        with pytest.raises(ValueError, match="bins must lie in"):
            accumulate_density(NO_REAL_ROOT, 0.7, 0, 10, -1.0, 1.0, bins)
    assert time.perf_counter() - started < 0.1


def test_bins_cap_is_checked_before_anything_is_allocated():
    # the edges alone would take 800 kB at MAX_BINS + 1, a binning pass 280 kB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bins must lie in"):
            EmpiricalDensity.from_samples([0.5], -1.0, 1.0, measure.MAX_BINS + 1)
        with pytest.raises(ValueError, match="bins must lie in"):
            accumulate_density(NO_REAL_ROOT, 0.7, 0, 10, -1.0, 1.0, measure.MAX_BINS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def _no_orbit(*args):
    raise AssertionError("the orbit ran")


@pytest.mark.parametrize(
    "lo, hi, bins, n0, n, error",
    [
        # the window first, then bins, then its edges, then n > n0 >= 0, then
        # the bin arithmetic, then the cap on n, then x0; each case is also bad
        # in every later way it can be, its x0 a NaN
        (5.0, -5.0, 1, 10, 10, "need lo < hi"),
        (1e15, 1e15 + 2, 1, 10, 10, "bins must lie in"),
        (1e15, 1e15 + 2, 100, 10, 10, "Too many bins"),
        (-8e307, 8e307, 4, 10, 10, "need n > n0"),
        (-8e307, 8e307, 4, 0, 10**12, "overflows"),
        (-1.0, 1.0, 4, 0, 10**12, "capped at"),
    ],
)
def test_accumulate_checks_its_inputs_in_the_documented_order(lo, hi, bins, n0, n, error):
    with pytest.raises(ValueError, match=error):
        accumulate_density(types.SimpleNamespace(step_rows=_no_orbit), math.nan, n0, n, lo, hi, bins)


def test_accumulate_caps_n_before_any_step():
    fails_on_a_step = types.SimpleNamespace(step_rows=_no_orbit)
    with pytest.raises(AssertionError, match="the orbit ran"):  # admitted: it steps
        accumulate_density(fails_on_a_step, 0.5, 0, measure.MAX_DENSITY_ITERS, -1.0, 1.0, 4)
    with pytest.raises(ValueError, match=f"capped at {measure.MAX_DENSITY_ITERS} iterates"):
        accumulate_density(fails_on_a_step, 0.5, 0, measure.MAX_DENSITY_ITERS + 1, -1.0, 1.0, 4)


def test_accumulate_chunks_merge_exactly():
    whole = accumulate_density(NO_REAL_ROOT, 0.7, 10, 2010, -10, 10, 50, seed=5)
    first = accumulate_density(NO_REAL_ROOT, 0.7, 10, 1010, -10, 10, 50, seed=5)
    second = accumulate_density(NO_REAL_ROOT, 0.7, 1010, 2010, -10, 10, 50, seed=5)
    merged = first.merge(second)
    assert np.array_equal(whole.counts, merged.counts)
    assert whole.below_count == merged.below_count
    assert whole.above_count == merged.above_count


def test_accumulate_converged_orbit_single_bin():
    d = accumulate_density(SQRT2_MINUS_2, 1.0, 10, 1010, 0.0, 3.0, 30, seed=0)
    root_bin = int((math.sqrt(2.0) - 0.0) / d.bin_width)
    assert d.counts[root_bin] == d.in_range == 1000


def test_accumulate_restarts_on_pole():
    # 1 -> 0 -> pole, so the chain must restart at least once and keep going
    d = accumulate_density(NO_REAL_ROOT, 1.0, 0, 500, -10, 10, 20, seed=1)
    assert d.restarts >= 1
    assert d.total == 500


def _reference_stream(problem, x0, n, lo, hi, seed):
    """The first n recorded iterates of accumulate_density's lockstep chains,
    and the restarts of the steps run, from newton_step on each chain in turn
    and the generator drawn in the same order."""
    rng = np.random.default_rng(seed)
    chains = rng.uniform(lo, hi, measure.DENSITY_CHAINS).tolist()
    if x0 is not None:
        chains[0] = x0
    stream, restarts = [], 0
    for s in range(measure.CHAIN_WARMUP + -(-n // len(chains))):
        out = []
        for c, x in enumerate(chains):
            try:
                y = newton_step(problem, x)
                ok = -OVERFLOW_BOUND <= y <= OVERFLOW_BOUND
            except DerivativeZero:
                ok = False
            if ok:
                chains[c] = y
            else:
                out.append(c)
        if out:
            for c, y in zip(out, rng.uniform(lo, hi, len(out)).tolist()):
                chains[c] = y
            restarts += len(out)
        if s >= measure.CHAIN_WARMUP:
            stream.extend(chains)
    return stream[:n], restarts


class _HitRecorder(PolynomialProblem):
    """A problem that records, for each ``step_rows`` call with a stop, its
    first stopped row's index in the span, the span's rows, that row's index
    in the block the span is a slice of, and the block's rows."""

    def __init__(self, coefficients):
        super().__init__(coefficients)
        object.__setattr__(self, "hits", [])

    def step_rows(self, xs, rows):
        stop = super().step_rows(xs, rows)
        hit = np.flatnonzero(stop.any(axis=1))
        if hit.size:
            block = rows.base
            start = (rows.ctypes.data - block.ctypes.data) // rows.strides[0]
            self.hits.append((int(hit[0]), len(rows), start + int(hit[0]), len(block)))
        return stop


@pytest.mark.parametrize(
    "row, where",
    [
        (0, lambda i, span, b, block: i == 0),  # a span's first row
        (5, lambda i, span, b, block: 0 < i < span - 1),  # a middle row
        (15, lambda i, span, b, block: b == block - 1),  # a block's last row
    ],
)
def test_a_stop_anywhere_in_a_span_restarts_as_the_whole_stream_does(row, where):
    # x^2's map x*x / 2x halves a power of two until x*x underflows: 2^-538
    # maps to 0, where f' = 0 is a pole, so chain 0 started at 2^(j - 540)
    # meets the pole on its j-th step, and no chain drawn from [-3, 3] meets
    # one; step j = CHAIN_WARMUP + 1 + row is the recorded step row
    problem = _HitRecorder((0.0, 0.0, 1.0))
    x0 = 2.0 ** (measure.CHAIN_WARMUP + 1 + row - 540)
    n0, n = 1000, 20 * measure.DENSITY_CHAINS
    xs, restarts = _reference_stream(problem, x0, n, -3.0, 3.0, seed=4)
    got = accumulate_density(problem, x0, n0, n, -3.0, 3.0, 12, seed=4)
    assert (got.counts.tolist(), got.below_count, got.above_count) == _numpy_tally(np.array(xs[n0:]), -3.0, 3.0, 12)
    assert got.restarts == restarts == 1
    [hit] = problem.hits
    assert where(*hit), hit


def _assert_blocks_match_the_whole_stream(problem, x0, n0, n, chains, monkeypatch):
    # ACCUMULATE_BLOCK = 7 shrinks the engine's block to max(7 // chains, 1)
    # whole rows of steps (one row, or two for 3 chains), so every span is at
    # most that long, each block goes to the tally in its own call and a run
    # crosses many block edges; n0 ends inside a step's row, or on its edge
    # where chains divides it
    monkeypatch.setattr("nrq.measure.ACCUMULATE_BLOCK", 7)
    monkeypatch.setattr("nrq.measure.DENSITY_CHAINS", chains)
    xs, restarts = _reference_stream(problem, x0, n, -3.0, 3.0, seed=4)
    assert restarts >= 1
    got = accumulate_density(problem, x0, n0, n, -3.0, 3.0, 12, seed=4)
    # np.histogram of the whole kept stream, independent of the tally
    assert (got.counts.tolist(), got.below_count, got.above_count) == _numpy_tally(np.array(xs[n0:]), -3.0, 3.0, 12)
    assert got.restarts == restarts
    assert got.total == n - n0


_BLOCK_SPLITS = [(0, 200), (10, 200), (7, 203), (150, 151)]


@pytest.mark.parametrize("n0, n", _BLOCK_SPLITS)
def test_accumulate_in_blocks_matches_the_whole_orbit(n0, n, monkeypatch):
    # at the real chain count; x0 = 1 hits the pole 1 -> 0 -> pole on chain 0
    _assert_blocks_match_the_whole_stream(NO_REAL_ROOT, 1.0, n0, n, measure.DENSITY_CHAINS, monkeypatch)


@pytest.mark.parametrize("n0, n", _BLOCK_SPLITS)
def test_accumulate_in_blocks_matches_the_whole_orbit_at_a_generic_degree(n0, n, monkeypatch):
    # x^3 - 2x + 2 runs the generated map's generic Horner scheme; chain 0's
    # first step from 1e200 cubes past the overflow bound and restarts it
    cubic = PolynomialProblem((2.0, -2.0, 0.0, 1.0))
    _assert_blocks_match_the_whole_stream(cubic, 1e200, n0, n, 5, monkeypatch)


@pytest.mark.parametrize("chains", [3, 8])
@pytest.mark.parametrize("n0, n", _BLOCK_SPLITS)
@pytest.mark.parametrize(
    "problem, x0",
    # x + 1e301 overflows on every step, so every chain restarts on every step
    [(NO_REAL_ROOT, 1.0), (PolynomialProblem((2.0, -2.0, 0.0, 1.0)), 1e200), (PolynomialProblem((1e301, 1.0)), 0.5)],
)
def test_accumulate_in_blocks_matches_numpy_on_the_whole_orbit(problem, x0, n0, n, chains, monkeypatch):
    # 3 chains put n0 = 0 and 150 on a step's edge, 8 chains only n0 = 0
    _assert_blocks_match_the_whole_stream(problem, x0, n0, n, chains, monkeypatch)


def _identity(xs, rows):
    """A map that leaves every chain where it is, stops none and allocates no float."""
    rows[...] = xs
    return np.zeros(rows.shape, dtype=bool)


def test_x0_starts_chain_0_and_the_stream_is_step_major():
    # under the identity every step records each chain's start again, in
    # chain order; only chain 0's start, 100, lies above the window
    fixed = types.SimpleNamespace(step_rows=_identity)
    k = measure.DENSITY_CHAINS
    assert accumulate_density(fixed, 100.0, 0, 3 * k, -10, 10, 20).above_count == 3
    assert accumulate_density(fixed, 100.0, 1, 3 * k, -10, 10, 20).above_count == 2
    assert accumulate_density(fixed, 100.0, 1, 2 * k + 1, -10, 10, 20).above_count == 2
    assert accumulate_density(fixed, None, 0, 3 * k, -10, 10, 20).above_count == 0


def test_accumulate_memory_does_not_grow_with_the_orbit():
    # a map that copies its argument allocates no float, so what is traced
    # is the accumulator's own storage; keeping the 1e6 iterates would take
    # 8 MB as one float64 array, and more as a list
    fixed = types.SimpleNamespace(step_rows=_identity)
    tracemalloc.start()
    try:
        d = accumulate_density(fixed, 0.7, 1000, 1_000_000, -10, 10, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.in_range == 999_000
    assert peak < 8_000_000


@pytest.mark.parametrize("n", [201_000, 2_001_000])
def test_accumulate_peak_memory_does_not_grow_with_iters(n):
    # the density command's x^2+1 run: one block of samples, the chains'
    # step arrays and one binning pass's arrays, whatever n is
    tracemalloc.start()
    try:
        d = accumulate_density(NO_REAL_ROOT, None, 1000, n, -10.0, 10.0, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.total == n - 1000
    assert peak <= 800_000


_SECOND_RUN_FAULTS = """
import resource
from nrq.measure import accumulate_density
from nrq.newton import PolynomialProblem
run = lambda: accumulate_density(PolynomialProblem((1.0, 0.0, 1.0)), None, 1000, 201000, -10.0, 10.0, 200, seed=1)
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts the Linux minor faults of a fresh process")
def test_accumulate_binning_takes_no_fresh_pages():
    # np.histogram made about 2.3 MB of temporaries a block, which the
    # allocator handed back to the OS each time, so a second run faulted
    # about 1800 fresh pages; a binning pass's few block-long arrays reuse
    # the memory the pass before freed, and the chains' step arrays (8 kB
    # each) stay below the allocator's mmap threshold
    src = str(Path(nrq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SECOND_RUN_FAULTS], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) <= 50


def test_a_returned_density_holds_no_work_buffer():
    # the staging buffer and a binning pass's arrays are ACCUMULATE_BLOCK long
    # and live for one call; the density keeps only its counts and edges
    d = accumulate_density(NO_REAL_ROOT, None, 1000, 41000, -10.0, 10.0, 200, seed=1)
    arrays = [v for v in vars(d).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size <= d.bins + 2 for a in arrays)
    assert not any(a.size == measure.ACCUMULATE_BLOCK for a in arrays)


def test_accumulate_deterministic():
    a = accumulate_density(NO_REAL_ROOT, None, 100, 5100, -10, 10, 40, seed=9)
    b = accumulate_density(NO_REAL_ROOT, None, 100, 5100, -10, 10, 40, seed=9)
    assert np.array_equal(a.counts, b.counts)


def test_stationary_density_matches_cauchy_across_seeds():
    # invariant-density check: at most one unlucky seed in ten may exceed 0.05
    failures = 0
    fractions = []
    for seed in range(10):
        d = accumulate_density(NO_REAL_ROOT, None, 1000, 201000, -10, 10, 200, seed=seed)
        if density_distance(d, cauchy_density) > 0.05:
            failures += 1
        fractions.append(d.in_range / d.total)
    assert failures <= 1
    # closed-form Cauchy tail: in-range fraction ~ 2*atan(10)/pi
    expected = 2.0 * math.atan(10.0) / math.pi
    assert np.mean(fractions) == pytest.approx(expected, abs=0.01)


# ---------------------------------------------------------------------------
# density distance


def test_distance_identical_uniform_is_zero():
    # the two bins [1.7, 3.7] and [3.7, 5.7] each hold a quarter of the mass
    emp = EmpiricalDensity(1.7, 5.7, 2, np.array([125, 125]))
    assert density_distance(emp, Lorentzian(3.7, 2.0)) <= 1e-12
    assert density_distance(emp, Lorentzian(3.7, 2.0), metric="ks") <= 1e-12


def test_distance_reference_cauchy_sampler():
    samples = np.random.default_rng(11).standard_cauchy(200000)
    emp = EmpiricalDensity.from_samples(samples, -10.0, 10.0, 200)
    assert density_distance(emp, cauchy_density) <= 0.05


def test_distance_uniform_vs_cauchy():
    emp = EmpiricalDensity(-10.0, 10.0, 200, np.full(200, 1000))
    assert density_distance(emp, cauchy_density) >= 0.5
    assert density_distance(emp, cauchy_density, metric="ks") >= 0.2


def test_distance_empty_rejected():
    emp = EmpiricalDensity(0.0, 1.0, 4, np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        density_distance(emp, cauchy_density)
    with pytest.raises(ValueError):
        density_distance(
            EmpiricalDensity(0.0, 1.0, 4, np.ones(4, dtype=int)), cauchy_density, metric="l7"
        )



def test_distance_needs_analytic_mass_on_the_window():
    # every bin mass underflows to 0 this far from the center
    emp = EmpiricalDensity(0.0, 1.0, 4, np.ones(4, dtype=int))
    with pytest.raises(ValueError, match="non-positive mass"):
        density_distance(emp, Lorentzian(1e300, 1.0))

@pytest.mark.parametrize("metric", ["L1", "KS", "kolmogorovsmirnov", "kolmogorov-smirnov"])
def test_distance_takes_only_l1_and_ks(metric):
    emp = EmpiricalDensity(0.0, 1.0, 4, np.ones(4, dtype=int))
    with pytest.raises(ValueError, match="unknown metric"):
        density_distance(emp, cauchy_density, metric=metric)


# ---------------------------------------------------------------------------
# cycles


def test_fixed_points_of_sqrt2_map():
    scan = find_cycles(SQRT2_MINUS_2, 1, -3.0, 3.0, 1000)
    values = sorted(c.points[0] for c in scan.cycles)
    assert len(values) == 2
    assert values[0] == pytest.approx(-math.sqrt(2.0), abs=1e-10)
    assert values[1] == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_two_cycle_of_no_real_root_map():
    scan = find_cycles(NO_REAL_ROOT, 2, -3.0, 3.0, 1000)
    assert len(scan.cycles) == 1
    cycle = scan.cycles[0]
    r = 1.0 / math.sqrt(3.0)
    assert sorted(cycle.points) == pytest.approx([-r, r], abs=1e-9)
    assert cycle.residual <= 1e-10


def test_divisor_periods_are_excluded():
    # the only solutions of O^2(x) = x for x^2 - 2 are the fixed points
    scan = find_cycles(SQRT2_MINUS_2, 2, -3.0, 3.0, 1000)
    assert scan.cycles == ()


def test_period_three_cycles():
    scan = find_cycles(NO_REAL_ROOT, 3, -20.0, 20.0, 100000)
    # golden count from the first computation; points agree with cot(k*pi/7)
    assert len(scan.cycles) == 2
    # two mirror-image cycles; |points| are cot(k*pi/7) for k = 1, 2, 3
    expected = sorted(1.0 / math.tan(k * math.pi / 7.0) for k in (1, 2, 3)) * 2
    got = sorted(abs(p) for c in scan.cycles for p in c.points)
    assert got == pytest.approx(sorted(expected), abs=1e-9)
    for cycle in scan.cycles:
        assert cycle.residual <= 1e-10
    assert len(scan.pole_intervals) >= 4


def _minimal_period_cotangents(period: int) -> list[float]:
    """cot(pi k/(2^p - 1)) for each k of minimal period p under doubling mod 2^p - 1.

    With x = cot(pi theta) the Newton map of x^2 + 1 is theta -> 2 theta mod 1.
    """
    m = 2**period - 1
    points = []
    for k in range(1, m):
        if all((k << d) % m != k for d in range(1, period)):
            points.append(float(mpmath.cot(mpmath.pi * k / m)))
    return sorted(points)


@pytest.mark.parametrize("period", [2, 3, 4, 5, 6])
def test_cycles_match_angle_doubling_oracle(period):
    lo, hi = -50.0, 50.0
    scan = find_cycles(NO_REAL_ROOT, period, lo, hi, 20000)
    found = [p for c in scan.cycles for p in c.points]
    expected = _minimal_period_cotangents(period)
    # every found point is a closed-form point, none is found twice
    nearest = [min(range(len(expected)), key=lambda i: abs(expected[i] - p)) for p in found]
    assert all(abs(expected[i] - p) <= 5e-13 for i, p in zip(nearest, found))
    assert len(set(nearest)) == len(found)
    # and every closed-form point inside the window is found
    inside = {i for i, q in enumerate(expected) if lo <= q <= hi}
    assert inside <= set(nearest)


def test_cycles_reverify_through_newton_step():
    scan = find_cycles(NO_REAL_ROOT, 2, -3.0, 3.0, 1000)
    for cycle in scan.cycles:
        x = cycle.points[0]
        for _ in range(len(cycle.points)):
            x = newton_step(NO_REAL_ROOT, x)
        assert abs(x - cycle.points[0]) <= max(cycle.residual, 1e-12)


def test_find_cycles_validation():
    with pytest.raises(ValueError):
        find_cycles(NO_REAL_ROOT, 0, -1.0, 1.0, 100)
    with pytest.raises(ValueError):
        find_cycles(NO_REAL_ROOT, 1, -1.0, 1.0, 1)
    with pytest.raises(InvalidRange):
        find_cycles(NO_REAL_ROOT, 1, 1.0, -1.0, 100)


@pytest.mark.parametrize(
    "lo, hi",
    [(-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf), (math.nan, 1.0), (-1e308, 1e308)],
)
def test_find_cycles_rejects_a_window_that_is_not_finite(lo, hi, monkeypatch):
    # such a window once gave pole intervals (nan, nan) or (nan, inf) with a warning
    monkeypatch.setattr(PolynomialProblem, "step_array", lambda *args: pytest.fail("grid evaluated"))
    with pytest.raises(InvalidRange):
        find_cycles(NO_REAL_ROOT, 2, lo, hi, 10)
    # the window is checked before the caps
    with pytest.raises(InvalidRange):
        find_cycles(NO_REAL_ROOT, measure.MAX_CYCLE_STEP_WORK // 4 + 1, lo, hi, 10)


@pytest.mark.parametrize(
    "problem, period, grid_points",
    [
        (NO_REAL_ROOT, 10**9, 1000),
        (NO_REAL_ROOT, 1, 10**9),
        (NO_REAL_ROOT, 3, measure.MAX_CYCLE_WORK // 6 + 1),
        # the cap weighs each step by the degree: a quartic gets half the points
        (interference_polynomial(0.01), 3, measure.MAX_CYCLE_WORK // 12 + 1),
        # a long period is capped even on a grid of 2, and weighed by the degree
        (NO_REAL_ROOT, measure.MAX_CYCLE_STEP_WORK // 4 + 1, 2),
        (PolynomialProblem((1.0,) * 6), measure.MAX_CYCLE_STEP_WORK // 5 + 1, 2),
    ],
)
def test_find_cycles_work_cap(problem, period, grid_points, monkeypatch):
    monkeypatch.setattr(PolynomialProblem, "step_array", lambda *args: pytest.fail("grid evaluated"))
    with pytest.raises(ValueError, match="exceeds the cap"):
        find_cycles(problem, period, -3.0, 3.0, grid_points)


def test_one_step_work_cap_admits_what_the_two_period_caps_admitted():
    # the caps it replaced: period <= 1000, and period * degree <= 4000
    moved = []
    for degree in range(1, 101):
        problem = types.SimpleNamespace(degree=degree)
        for period in range(1, 5001):
            try:  # an admitted period goes on to the grid cap at 10**9 points
                find_cycles(problem, period, -3.0, 3.0, 10**9)
            except ValueError as error:
                admitted = str(error).startswith("grid_points")
            if admitted != (period <= 1000 and period * degree <= 4000):
                moved.append((degree, period))
    assert moved == []


@pytest.mark.parametrize("bound", [1e60, 1e300, 8e307])
def test_fixed_point_is_found_on_a_wide_window(bound):
    # x - 0.5 maps every x to 0.5, so g changes sign once, at 0.5
    problem = PolynomialProblem((-0.5, 1.0))
    calls = []
    step_array = problem.step_array

    def counting(xs, times=1):
        calls.append(times)
        return step_array(xs, times)

    object.__setattr__(problem, "step_array", counting)
    scan = find_cycles(problem, 1, -bound, bound, 2)
    assert scan.pole_intervals == ()
    [cycle] = scan.cycles
    assert abs(cycle.points[0] - 0.5) <= math.ulp(0.5)
    # one call evaluates the grid and one steps the root's orbit; every other
    # call is a bisection level: more than 200 for a bracket this wide, and
    # the width test ends it within about 1075
    assert 200 < len(calls) - 2 <= 1076


def _reference_find_cycles(problem, period, lo, hi, grid_points):
    """The cycle scan as a per-cell loop that bisects each bracket alone.

    The oracle for ``find_cycles``: the same rules, applied one grid cell
    and one scalar evaluation of O^period at a time.
    """

    def power(x):
        for _ in range(period):
            try:
                x = newton_step(problem, x)
            except DerivativeZero:
                return None
            if not math.isfinite(x):
                return None
        return x

    xs = np.linspace(lo, hi, grid_points)
    ys = xs
    for _ in range(period):
        ys = problem.step_array(ys)
    g = ys - xs
    finite = np.isfinite(g)

    pole_intervals = []
    roots = []  # (root, bracket_lo, bracket_hi)
    for i in range(grid_points):
        if g[i] == 0.0:  # at any grid point, whatever its neighbours
            roots.append((float(xs[i]), float(xs[i]), float(xs[i])))
        if i == grid_points - 1:
            break
        if not (finite[i] and finite[i + 1]):
            pole_intervals.append((float(xs[i]), float(xs[i + 1])))
            continue
        with np.errstate(all="ignore"):
            if g[i] * g[i + 1] >= 0.0:
                continue
        a, b = float(xs[i]), float(xs[i + 1])
        ga = g[i]
        bad = False
        while True:
            m = 0.5 * (a + b)
            ym = power(m)
            if ym is None:
                bad = True
                break
            gm = ym - m
            with np.errstate(all="ignore"):
                if ga * gm <= 0.0:
                    b = m
                else:
                    a, ga = m, gm
            if b - a <= 1e-15 * max(1.0, abs(m)):
                break
        if bad:
            pole_intervals.append((float(xs[i]), float(xs[i + 1])))
            continue
        roots.append((0.5 * (a + b), float(xs[i]), float(xs[i + 1])))

    cycles = []
    for r, blo, bhi in roots:
        orbit = [r]
        while len(orbit) < 2 * period:
            try:
                nxt = newton_step(problem, orbit[-1])
            except DerivativeZero:
                break
            if not math.isfinite(nxt):
                break
            orbit.append(nxt)
        if len(orbit) < period:
            pole_intervals.append((blo, bhi))
            continue
        pts = orbit[:period]
        if any(period % d == 0 and abs(pts[d] - r) <= 1e-9 for d in range(1, period)):
            continue
        if len(orbit) < 2 * period:
            pole_intervals.append((blo, bhi))
            continue
        residual = max(abs(orbit[i + period] - orbit[i]) for i in range(period))
        if residual > 1e-10:
            pole_intervals.append((blo, bhi))
            continue
        srt = np.sort(pts)
        if any(
            len(c.points) == len(pts) and np.max(np.abs(np.sort(c.points) - srt)) <= 1e-9
            for c in cycles
        ):
            continue
        start = int(np.argmin(pts))
        cycles.append(measure.Cycle(tuple(pts[start:] + pts[:start]), residual))

    cycles.sort(key=lambda c: c.points[0])
    return measure.CycleScan(tuple(cycles), tuple(pole_intervals))


def _assert_same_scan(problem, period, lo, hi, grid_points):
    scan = find_cycles(problem, period, lo, hi, grid_points)
    reference = _reference_find_cycles(problem, period, lo, hi, grid_points)
    assert scan == reference
    assert repr(scan) == repr(reference)  # also tells -0.0 from 0.0
    return scan


_SCAN_POLYNOMIAL = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.integers(-5, 5).map(float), min_size=d + 1, max_size=d + 1)
).filter(lambda c: c[-1] != 0.0)


@settings(max_examples=60, deadline=None)
@given(
    _SCAN_POLYNOMIAL,
    st.integers(1, 6),
    st.floats(-10.0, 10.0),
    st.floats(0.1, 20.0),
    st.integers(2, 3000),
)
@example([-1.0, 0.0, 1.0], 1, -3.0, 6.0, 7)  # x^2 - 1: the root -1 is a grid point beside the pole 0
@example([1.0, 0.0, 1.0], 1, -1.0, 2.0, 3)  # a grid point on the pole at 0
@example([1.0, 0.0, 1.0], 1, -1.0, 2.0, 2)  # the first midpoint is the pole
@example([-1.0, 0.0, 1.0], 1, 0.5, 1.0, 2)  # the first midpoint is the root 1: gm == 0
@example([1.0, 0.0, 1.0], 2, -50.0, 100.0, 20000 // 6)  # brackets straddling poles
@example([-1.0, 0.0, 1.0], 1, -3.0, 4.0, 9)  # x^2 - 1: the root 1 at the window's right end
@example([2.0, -2.0, 0.0, 1.0], 4, -3.0, 6.0, 3000)  # x^3 - 2x + 2
@example([-0.5, 1.0], 1, -1e300, 2e300, 2)  # x - 0.5: 1048 levels to the root 0.5
def test_find_cycles_matches_the_per_cell_scan(coefficients, period, lo, width, grid_points):
    _assert_same_scan(PolynomialProblem(coefficients), period, lo, lo + width, grid_points)


def test_bisection_onto_a_pole_is_a_pole_interval():
    # g changes sign across [-1, 1] only through the pole at 0, the midpoint
    scan = _assert_same_scan(NO_REAL_ROOT, 1, -1.0, 1.0, 2)
    assert scan == measure.CycleScan((), ((-1.0, 1.0),))


def test_grid_root_is_kept_in_grid_order():
    # x^2 - 1 on [-3, hi]: both fixed points are grid points, a root wherever
    # it lies: at 13 points, beside the pole 0 at 7, and at the right end 1
    for hi, grid_points, pole_intervals in [
        (3.0, 13, ((-0.5, 0.0), (0.0, 0.5))),
        (3.0, 7, ((-1.0, 0.0), (0.0, 1.0))),
        (1.0, 9, ((-0.5, 0.0), (0.0, 0.5))),
    ]:
        scan = _assert_same_scan(PolynomialProblem((-1.0, 0.0, 1.0)), 1, -3.0, hi, grid_points)
        assert [c.points for c in scan.cycles] == [(-1.0,), (1.0,)]
        assert scan.pole_intervals == pole_intervals
    # and at period 2 they are excluded by the minimal-period check
    assert _assert_same_scan(PolynomialProblem((-1.0, 0.0, 1.0)), 2, -3.0, 3.0, 13).cycles == ()


@pytest.mark.parametrize(
    "coefficients, period, lo, hi, grid_points",
    [
        ((1.0, 0.0, 1.0), 5, -3.0, 3.0, 1000),
        ((-1.0, 0.0, 1.0), 1, -3.0, 3.0, 7),
        ((2.0, -2.0, 0.0, 1.0), 4, -3.0, 6.0, 3000),
    ],
)
def test_find_cycles_takes_no_scalar_step(coefficients, period, lo, hi, grid_points):
    def scalar_step(x):
        raise AssertionError("find_cycles took a scalar step")

    problem = PolynomialProblem(coefficients)
    object.__setattr__(problem, "step", scalar_step)
    scan = find_cycles(problem, period, lo, hi, grid_points)
    assert scan == find_cycles(PolynomialProblem(coefficients), period, lo, hi, grid_points)
    assert scan.cycles  # the orbits were walked


@pytest.mark.parametrize(
    "problem, period, lo, hi, grid_points",
    [
        (NO_REAL_ROOT, 8, -50.0, 50.0, 20000),  # the cycle-scan benchmark's longest period
        (interference_polynomial(0.01), 3, -2.0, 5.0, 50000),
        (NO_REAL_ROOT, 12, -3.0, 3.0, 4000),
    ],
)
def test_find_cycles_matches_the_per_cell_scan_on_workloads(problem, period, lo, hi, grid_points):
    _assert_same_scan(problem, period, lo, hi, grid_points)


# ---------------------------------------------------------------------------
# pushforward stationarity


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_pushforward_cauchy_is_stationary(c):
    # the Newton map of x^2 + c is conjugate by x -> x/sqrt(c) to that of
    # x^2 + 1, so its invariant density is the Lorentzian of scale sqrt(c)
    density = Lorentzian(0.0, math.sqrt(c))
    problem = PolynomialProblem((c, 0.0, 1.0))
    residual = pushforward_residual(problem, density, 1_000_000, seed=3)
    assert residual <= 0.02


def test_pushforward_wide_lorentzian_is_not_stationary():
    density = Lorentzian(0.0, 3.0)
    residual = pushforward_residual(NO_REAL_ROOT, density, 1_000_000, seed=3)
    assert residual > 0.1


def test_pushforward_point_mass_stays_put():
    root = math.sqrt(2.0)
    pushed = np.array([newton_step(SQRT2_MINUS_2, root) for _ in range(100)])
    emp = EmpiricalDensity.from_samples(pushed, 0.0, 3.0, 30)
    assert emp.counts.max() == emp.in_range == 100
    assert abs(pushed[0] - root) <= 1e-15 * root


@pytest.mark.parametrize(
    "text, a, b",
    [("(x^2+1)^2", 0.0, 1.0), ("(x^2+1)^3", 0.0, 1.0), ("(x^2+1)^5", 0.0, 1.0), ("(x^2+1)^10", 0.0, 1.0),
     ("((x-1)^2+4)^2", 1.0, 2.0)],
)
def test_power_of_a_positive_quadratic_keeps_the_cauchy_law(text, a, b):
    # with u = x - a, the map of ((x-a)^2 + b^2)^k is a + (1 - 1/2k)u - b^2/(2ku),
    # an inner function of the upper half-plane fixing a + ib, so it keeps the
    # Cauchy law of center a and scale b (Letac 1977), although for k > 1 it is
    # not conjugate to angle doubling; criterion 1's runs and gate, unchanged
    problem = parse_polynomial(text)
    merged = None
    for seed in range(1, 6):
        d = accumulate_density(problem, None, 1000, 201000, a - 10 * b, a + 10 * b, 200, seed=seed)
        merged = d if merged is None else merged.merge(d)
    assert density_distance(merged, Lorentzian(a, b)) <= 0.05


# ---------------------------------------------------------------------------
# interference


def test_interference_polynomial_exact_expansion():
    p = interference_polynomial(0.01)
    assert p.coefficients == (0.0901, -0.06, 9.02, -6.0, 1.0)
    parsed = parse_polynomial("(x^2+0.01)*((x-3)^2+0.01)")
    assert parsed.coefficients == p.coefficients
    for delta in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"delta must be finite and positive, got {delta!r}"):
            interference_polynomial(delta)


def test_interference_polynomial_generic_delta():
    from fractions import Fraction

    delta = 0.37
    p = interference_polynomial(delta)
    d = Fraction(37, 100)
    expected = (9 * d + d * d, -6 * d, 9 + 2 * d, Fraction(-6), Fraction(1))
    assert p.coefficients == tuple(float(c) for c in expected)
    # 9d + d^2 passes the largest double once d exceeds about 1.34e154
    assert interference_polynomial(1e154).coefficients[0] == 1e308
    with pytest.raises(OverflowError):
        interference_polynomial(1e200)


def _parsed_interference(delta):
    # the product form read back by the parser, which the exact coefficients replace
    return parse_polynomial(f"(x^2+{delta!r})*((x-3)^2+{delta!r})")


def test_interference_polynomial_equals_the_parsed_product_form():
    # bit for bit, signed zeros included, from subnormal deltas up to the
    # largest whose 9d + d^2 is finite
    rng = np.random.default_rng(35)
    fixed = [0.01, 0.3, 1.0, 2.5, 1e-5, 5e-324, 1e-320, 2.2250738585072014e-308, 1e150, 1.3e154]
    for delta in fixed + (10.0 ** rng.uniform(-320.0, 154.0, 200)).tolist():
        got = np.array(interference_polynomial(delta).coefficients)
        assert got.tobytes() == np.array(_parsed_interference(delta).coefficients).tobytes(), delta
    for delta in (1e155, 1e308):
        with pytest.raises(OverflowError):
            interference_polynomial(delta)
        with pytest.raises(OverflowError):
            _parsed_interference(delta)


def test_interference_density_is_roughly_symmetric():
    # f is symmetric about x = 1.5, so the well masses should roughly agree
    d = accumulate_density(interference_polynomial(0.01), None, 1000, 41000, -2.0, 5.0, 280, seed=7)
    centers = d.centers()
    left = d.counts[(centers >= -1.0) & (centers <= 1.0)].sum()
    right = d.counts[(centers >= 2.0) & (centers <= 4.0)].sum()
    assert left > 0 and right > 0
    assert abs(left - right) / (left + right) < 0.1


# ---------------------------------------------------------------------------
# peaks


def spike_density(positions, height=1000, bins=100):
    counts = np.zeros(bins, dtype=int)
    for p in positions:
        counts[p] = height
    return EmpiricalDensity(0.0, 10.0, bins, counts)


def test_peak_detect_single_spike():
    d = spike_density([50])
    peaks = peak_detect(d, min_prominence=0.0)
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(d.centers()[50])


def test_peak_detect_symmetric_spikes_have_equal_heights():
    d = spike_density([30, 70])
    peaks = peak_detect(d, min_prominence=0.0)
    assert len(peaks) == 2
    assert peaks[0][1] == pytest.approx(peaks[1][1], rel=1e-12)


def test_peak_detect_prominence_filters_noise():
    counts = np.full(100, 100)
    counts[50] = 5000
    counts[20] = 130  # tiny bump
    d = EmpiricalDensity(0.0, 10.0, 100, counts)
    big = peak_detect(d, min_prominence=0.05)
    assert len(big) == 1
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="min_prominence must be >= 0"):
            peak_detect(d, min_prominence=bad)


def test_pushforward_needs_a_sample():
    with pytest.raises(ValueError, match="sample_count must be >= 1"):
        pushforward_residual(NO_REAL_ROOT, cauchy_density, 0)

def looping_peak_detect(density, min_prominence):
    """Reference peak finder: walks the smoothed density bin by bin, over
    each rising step and the plateau after it."""
    kernel = np.ones(measure._SMOOTHING_BINS) / measure._SMOOTHING_BINS
    first = measure._SMOOTHING_BINS // 2
    s = np.convolve(density.densities(), kernel)[first : first + density.bins]
    # each window's sum of counts, in exact integers, for the comparisons
    c = density.counts.tolist()
    w = [sum(c[max(i - first, 0) : i + first + 1]) for i in range(len(c))]
    centers = density.centers()
    idxs = []
    i = 1
    while i < len(w) - 1:
        if w[i] <= w[i - 1]:
            i += 1
            continue
        j = i
        while j + 1 < len(w) and w[j + 1] == w[i]:
            j += 1
        if j + 1 < len(w) and w[j + 1] < w[i]:
            idxs.append((i + j) // 2)
        i = j + 1
    out = []
    for j, i in enumerate(idxs):
        left_lo = idxs[j - 1] if j > 0 else 0
        right_hi = idxs[j + 1] + 1 if j + 1 < len(idxs) else len(s)
        left_min = s[left_lo:i].min() if i > left_lo else s[i]
        right_min = s[i + 1 : right_hi].min() if right_hi > i + 1 else s[i]
        prominence = float(s[i] - max(left_min, right_min))
        if prominence >= min_prominence:
            out.append((float(centers[i]), float(s[i]), prominence))
    return out


# few distinct small counts, so that the smoothed density has ties and plateaus
@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=80)
    | st.lists(st.sampled_from([0, 5, 5, 5, 9]), min_size=2, max_size=80),
    st.sampled_from([0.0, 0.01, 0.05, 0.2]),
)
def test_peak_detect_matches_the_looping_reference(counts, min_prominence):
    d = EmpiricalDensity(0.0, 1.0, len(counts), np.array(counts))
    assert peak_detect(d, min_prominence) == looping_peak_detect(d, min_prominence)


def test_peak_detect_reports_no_peak_on_a_plateau_of_equal_sums():
    # the smoothed density is [4, 7, 7, 7] / 5 (scaled) with no interior
    # maximum, though the float smoothing rounds the 7s apart
    assert peak_detect(EmpiricalDensity(0.0, 1.0, 4, [0, 3, 1, 3]), 0.0) == []


@pytest.mark.parametrize("delta", [0.01, 0.3, 1.0])
def test_peak_detect_matches_the_looping_reference_on_interference(delta):
    d = accumulate_density(interference_polynomial(delta), None, 1000, 201000, -2.0, 5.0, 280, seed=7)
    for min_prominence in (0.0, 0.01, 0.05):
        assert peak_detect(d, min_prominence) == looping_peak_detect(d, min_prominence)


@pytest.mark.parametrize("bins", [2, 3, 4])
def test_peak_detect_on_fewer_bins_than_the_smoothing_window(bins):
    # the smoothing once returned 5 values for fewer than 5 bins, so that
    # every index was shifted
    for counts in itertools.product(range(3), repeat=bins):
        if not any(counts):
            continue
        d = EmpiricalDensity(0.0, 1.0, bins, counts)
        dens = d.densities()
        # the 5-bin moving average, zero past both ends: bins values
        s = np.array([dens[max(i - 2, 0) : i + 3].sum() / 5 for i in range(bins)])
        top = s.max()
        # a prominence above the rounding of equal sums
        peaks = peak_detect(d, 1e-9)
        for center, height, _ in peaks:
            i = int(np.flatnonzero(d.centers() == center)[0])
            assert 0 < i < bins - 1
            assert height == pytest.approx(s[i]) and s[i] == pytest.approx(top)
        assert len(peaks) == (s[0] < top - 1e-9 and s[-1] < top - 1e-9)


def test_half_width_needs_a_nonzero_peak():
    d = spike_density([50])
    with pytest.raises(ValueError, match="peak height is zero"):
        half_width_at_half_max(d, d.centers()[20])


@pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
def test_half_width_needs_a_finite_center(center):
    d = spike_density([50])
    with pytest.raises(ValueError, match="center must be finite"):
        half_width_at_half_max(d, center)


def test_half_width_needs_both_half_maximum_crossings():
    # the density rises to the window's right end, so no crossing lies right of the peak
    d = EmpiricalDensity(0.0, 1.0, 4, np.array([1, 2, 3, 4]))
    with pytest.raises(ValueError, match="half-maximum level not reached"):
        half_width_at_half_max(d, d.centers()[3])


def test_half_width_of_binned_lorentzian():
    lo, hi, bins = -8.0, 8.0, 640
    centers = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (centers[:-1] + centers[1:])
    counts = np.rint(1e6 * cauchy_density(centers)).astype(int)
    d = EmpiricalDensity(lo, hi, bins, counts)
    assert half_width_at_half_max(d, 0.0) == pytest.approx(1.0, abs=0.05)

