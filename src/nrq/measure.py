"""Visit-frequency densities, cycle finding, and the two-well quartic.

Long Newton-map orbits are binned into window-normalized histograms and
compared against analytic stationary densities; cycles of the map are
located by bracketing sign changes of the iterated map minus identity.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# newton_step is not called here; the name stays because perfbench/spans.py
# traces nrq.measure.newton_step
from .newton import PolynomialProblem, newton_step  # noqa: F401


class InvalidRange(ValueError):
    pass


def _require_window(lo, hi):
    """The one window rule: lo < hi and 2*max(|lo|, |hi|) finite, else InvalidRange.
    It makes the width and every sum of two points, as in a bin center, finite."""
    bound = sys.float_info.max / 2  # the largest x with 2*x finite
    if not (lo < hi and max(abs(lo), abs(hi)) <= bound):  # NaN fails too
        raise InvalidRange(f"need lo < hi and |lo|, |hi| <= {bound:g}, got [{lo}, {hi}]")


# accumulate_density and from_samples add samples to a density in blocks of
# at most this many, and a pass's arrays are as long as its block, so memory
# grows with neither the orbit nor the sample.  accumulate_density's block is
# ACCUMULATE_BLOCK // DENSITY_CHAINS rows of steps (at least one), which its
# step_rows calls write in place.
ACCUMULATE_BLOCK = 16384
# accumulate_density runs this many chains of the map in lockstep, every step
# one row of a step_rows call for all of them, which costs far less a step
# than a scalar chain's Python loop.  It never depends on n, so that (n0, n]
# indexes one fixed stream.
DENSITY_CHAINS = 1024
# Each chain runs this many steps from its start before any is recorded.
CHAIN_WARMUP = 64
# A run's time grows with n, at up to about 0.3 us a stepped iterate at degree
# 100 with every coefficient nonzero (274-295 ns for (x+1)^100, best of 3 in
# process), so n is capped: the slowest admitted run ends within about 20 s.
MAX_DENSITY_ITERS = 40_000_000

# The counts, edges and densities grow with the bin count, and an svg writes
# one polyline point a bin for the density and one for the overlay, so the
# bin count is capped before anything is allocated.
MAX_BINS = 100_000


def _binning(lo, hi, bins) -> np.ndarray:
    """The one binning rule, for every density: the window (``_require_window``),
    then 2 <= bins <= MAX_BINS, then distinct edges, which it returns."""
    _require_window(lo, hi)
    if not 2 <= bins <= MAX_BINS:
        raise ValueError(f"bins must lie in 2..{MAX_BINS}, got {bins}")
    edges = np.linspace(lo, hi, bins + 1)
    if not (edges[:-1] < edges[1:]).all():
        # np.histogram's own error for this window
        raise ValueError(f"Too many bins for data range. Cannot create {bins} finite-sized bins.")
    return edges


@dataclass(eq=False)
class EmpiricalDensity:
    """Binned visit-frequency histogram with out-of-range mass tracked.

    A density is built by adding samples: ``from_samples`` and
    ``accumulate_density`` start from empty counts and add blocks of at most
    ``ACCUMULATE_BLOCK`` samples.  The normalized density integrates to
    exactly 1 over [lo, hi]; mass outside the window is kept in
    ``below_count`` / ``above_count`` so that ``total`` is conserved.  Counts
    form a commutative monoid under ``merge``, which is what makes chunked or
    parallel accumulation exact.  The window and ``bins`` obey ``_binning``,
    and the counts and tails are whole numbers (a float one must be integral).
    """

    lo: float
    hi: float
    bins: int
    counts: np.ndarray
    below_count: int = 0
    above_count: int = 0
    restarts: int = 0

    def __post_init__(self):
        self._edges = _binning(self.lo, self.hi, self.bins)
        # _upper[k + 1] is the edge that bin k steps up at; slot 0 (below lo)
        # never steps up
        self._upper = np.concatenate(([np.inf], self._edges[1:-1], [np.nextafter(self.hi, np.inf)]))
        counts = np.asarray(self.counts)
        if counts.dtype.kind == "f" and not ((abs(counts) < 2.0**63) & (counts == np.trunc(counts))).all():
            raise ValueError("counts must be integers below 2**63")
        for name, what in (("below_count", "tail counts"), ("above_count", "tail counts"), ("restarts", "restarts")):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) and not (isinstance(value, float) and value.is_integer()):
                raise ValueError(f"{what} must be integers, got {value!r}")
            setattr(self, name, int(value))
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.counts.shape != (self.bins,):
            raise ValueError("counts length must equal bins")
        if (self.counts < 0).any() or self.below_count < 0 or self.above_count < 0:
            raise ValueError("counts must be non-negative")

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    @property
    def in_range(self) -> int:
        return int(self.counts.sum())

    @property
    def total(self) -> int:
        return self.in_range + self.below_count + self.above_count

    def edges(self) -> np.ndarray:
        return self._edges.copy()

    def centers(self) -> np.ndarray:
        e = self._edges
        return 0.5 * (e[:-1] + e[1:])

    def densities(self) -> np.ndarray:
        """Per-bin density, normalized to unit mass over [lo, hi]."""
        n = self.in_range
        if n == 0:
            return np.zeros(self.bins)
        with np.errstate(over="ignore"):
            scale = n * self.bin_width
            dens = self.counts / scale
        if not (math.isfinite(scale) and np.isfinite(dens).all()):
            raise InvalidRange(f"densities on [{self.lo}, {self.hi}] with {self.bins} bins overflow")
        return dens

    def merge(self, other: "EmpiricalDensity") -> "EmpiricalDensity":
        if (self.lo, self.hi, self.bins) != (other.lo, other.hi, other.bins):
            raise ValueError("cannot merge densities with different binning")
        return EmpiricalDensity(
            self.lo,
            self.hi,
            self.bins,
            self.counts + other.counts,
            self.below_count + other.below_count,
            self.above_count + other.above_count,
            self.restarts + other.restarts,
        )

    @classmethod
    def from_samples(cls, samples, lo: float, hi: float, bins: int):
        """``np.histogram(samples, bins, range=(lo, hi))`` with the two tails:
        empty counts, to which ``_add`` adds ``ACCUMULATE_BLOCK`` samples at a
        time; a NaN sample raises ValueError, and so does ``bins`` outside
        2..MAX_BINS, before the counts are allocated."""
        _binning(lo, hi, bins)
        density = cls(lo, hi, bins, np.zeros(bins, dtype=np.int64))
        x = np.asarray(samples, dtype=float).reshape(-1)
        for i in range(0, x.size, ACCUMULATE_BLOCK):
            density._add(x[i : i + ACCUMULATE_BLOCK])
        return density

    def _add(self, x: np.ndarray) -> None:
        """Add a 1-D float64 array of samples as ``np.histogram`` on the
        uniform bins would count them, to the bit, and the tails; a NaN in it
        raises ValueError.  Its arrays are the block's length and last the pass.

        Each sample gets one of bins + 2 slots: below lo, the bins of
        ``edges()``, above hi.  A slot is found by numpy's uniform-bin steps,
        shifted up one: k = (x - lo)/(hi - lo)*bins truncated, with bins taken
        as bins - 1; then k + 1, less one where x < edges[k]; then one more
        where x >= edges[k + 1] and k is not the last bin.  The tails fall out
        of the same steps: x < lo = edges[0] steps down from k = 0 to slot 0,
        and the last bin steps up to slot bins + 1 where x >= the double after
        hi, that is where x > hi.
        """
        lo, hi, bins = self.lo, self.hi, self.bins
        if np.isnan(x).any():
            raise ValueError("samples contain NaN, which no bin or tail can hold")
        # a sample far outside the window may overflow its estimate to +-inf
        with np.errstate(over="ignore"):
            # an in-window estimate lies in [0, bins], so truncating it
            # clipped to [0, bins - 1] is numpy's truncation with bins taken
            # to bins - 1; a tail's estimate is clipped to an end
            k = np.clip((x - lo) / (hi - lo) * bins, 0, bins - 1).astype(np.intp)
            k += x >= self._edges[k]
            k += x >= self._upper[k]
            slots = np.bincount(k, minlength=bins + 2)
        self.counts += slots[1:-1]
        self.below_count += int(slots[0])
        self.above_count += int(slots[-1])


def density_steps(n: int) -> range:
    """The steps s that ``accumulate_density`` keeps for n iterates, the warm-up's
    (s < 0) included: each is one row of ``DENSITY_CHAINS`` chains."""
    return range(-CHAIN_WARMUP, -(-n // DENSITY_CHAINS))


def accumulate_density(
    problem: PolynomialProblem,
    x0: float | None,
    n0: int,
    n: int,
    lo: float,
    hi: float,
    bins: int,
    seed: int = 0,
) -> EmpiricalDensity:
    """Bin the iterates with index in (n0, n] of the map's lockstep chains.

    ``DENSITY_CHAINS`` chains start from uniform draws on [lo, hi] of one
    seeded PCG64, and ``x0``, when given, replaces chain 0's start.  A chain
    whose step stops (``problem.step_rows``'s rule: a pole, or a value
    outside [-OVERFLOW_BOUND, OVERFLOW_BOUND], NaN included) restarts from a
    fresh draw; the restarts of one step come from one draw, in chain order,
    and the restart value is that step's iterate.  Each chain first runs
    ``CHAIN_WARMUP`` steps that are not recorded.  The recorded stream is
    then step-major, chain-minor: iterate i comes from chain (i - 1) mod
    ``DENSITY_CHAINS``.  Its first n0 iterates are burn-in and discarded, and
    the result's ``restarts`` counts every restart of the steps run, the
    warm-up included.

    The steps are the rows of one block of ``ACCUMULATE_BLOCK //
    DENSITY_CHAINS`` rows (at least one), written a span of rows at a time
    by one ``step_rows`` call.  A span is kept up to and including its first
    row with a stop, whose stopped chains restart, and its later rows are
    discarded and stepped again.  The next span is as long as the rows kept
    after a stop, and twice as long, up to the block, after none.  A full
    block's recorded iterates are added to the density in one call
    (``EmpiricalDensity._add``, counting as ``np.histogram`` would, to the
    bit); so memory is bounded by the chains, the block and the bins, not by
    ``n``.  Inputs are checked in this order before any step runs: the
    window, ``bins`` and the edges as ``_binning`` checks them, then n > n0
    >= 0, then (n - n0)*(hi - lo)/bins must be finite (else InvalidRange),
    then n <= MAX_DENSITY_ITERS, then ``x0``, when given, must be finite.
    """
    density = EmpiricalDensity.from_samples((), lo, hi, bins)
    if not (n > n0 >= 0):
        raise ValueError("need n > n0 >= 0")
    # densities divide by samples * bin width
    if not math.isfinite((n - n0) * ((hi - lo) / bins)):
        raise InvalidRange(f"bin arithmetic on [{lo}, {hi}] with {bins} bins overflows")
    if not n <= MAX_DENSITY_ITERS:
        raise ValueError(f"n is capped at {MAX_DENSITY_ITERS} iterates, got {n}")
    if x0 is not None and not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    rng = np.random.default_rng(seed)
    k = DENSITY_CHAINS
    x = rng.uniform(lo, hi, k)
    if x0 is not None:
        x[0] = x0
    block = np.empty((max(ACCUMULATE_BLOCK // k, 1), k))
    steps = density_steps(n)
    s, filled, span, restarts = steps.start, 0, 1, 0
    while s + filled < steps.stop:
        rows = block[filled : filled + min(span, len(block) - filled, steps.stop - s - filled)]
        stop = problem.step_rows(x, rows)
        i, c = divmod(int(stop.argmax()), k)
        if stop[i, c]:
            # keep the span up to its first row with a stop, restarted
            out = stop[i]
            count = int(np.count_nonzero(out))
            rows[i][out] = rng.uniform(lo, hi, count)
            restarts += count
            rows, span = rows[: i + 1], i + 1
        else:
            span = min(2 * span, len(block))
        filled += len(rows)
        x = rows[-1]
        if filled == len(block) or s + filled == steps.stop:
            # step s records iterates s*k + 1 .. s*k + k, so the warm-up's
            # steps, s < 0, record none
            recorded = block[:filled].reshape(-1)[max(n0 - s * k, 0) : n - s * k]
            if recorded.size:
                density._add(recorded)
            s, filled = s + filled, 0
    density.restarts = restarts
    return density


@dataclass(frozen=True)
class Lorentzian:
    """The Lorentzian (Cauchy) density of ``center`` m and ``scale`` s.

    Calling it evaluates 1/(pi*s*(1 + ((y - m)/s)^2)) on a float or an
    array, and where the square overflows the density is exactly 0;
    ``quantile`` is its inverse CDF and ``masses`` its exact mass on every
    bin.
    """

    center: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"need a finite center and a finite scale > 0, got {self}")

    def __call__(self, y):
        with np.errstate(over="ignore"):
            t = (np.asarray(y, dtype=float) - self.center) / self.scale
            out = 1.0 / (np.pi * (1.0 + t * t)) / self.scale
        return float(out) if out.ndim == 0 else out

    def quantile(self, u):
        """Inverse CDF: m + s*tan(pi*(u - 1/2))."""
        out = self.center + self.scale * np.tan(np.pi * (np.asarray(u, dtype=float) - 0.5))
        return float(out) if out.ndim == 0 else out

    def masses(self, edges) -> np.ndarray:
        """The mass of every bin between consecutive ``edges``, in closed form.

        With u and v a bin's ends in units of the scale about the center, its
        mass is atan2(v - u, 1 + u*v)/pi: atan2 keeps it in (0, 1) when u*v <
        -1, and unlike atan(v) - atan(u) it loses no digits in the tails.
        Both arguments are divided by k, the power of two just above max(1,
        |u|) (at most 2^1023), so that u*v cannot overflow unless u and v both
        lie beyond 2^1023; the division is exact, so the masses are those of
        the plain formula wherever it does not overflow.
        """
        t = (np.asarray(edges, dtype=float) - self.center) / self.scale
        u, v = t[:-1], t[1:]
        k = np.ldexp(1.0, np.minimum(np.frexp(np.maximum(1.0, np.abs(u)))[1], 1023))
        return np.arctan2((v - u) / k, 1.0 / k + (u / k) * v) / np.pi


cauchy_density = Lorentzian()


def density_distance(emp: EmpiricalDensity, analytic, metric: str = "l1") -> float:
    """Distance between a histogram and an analytic density on the window.

    Both sides are normalized to unit mass over [lo, hi] before comparison:
    the histogram's bin shares ``counts / in_range`` against the exact bin
    masses of ``analytic`` (a ``Lorentzian``) divided by their sum, so the
    distance measures shape mismatch, not out-of-window mass.  L1 is the sum
    of the per-bin gaps; KS is the largest gap between the two cumulative
    sums.
    """
    if emp.in_range == 0:
        raise ValueError("empirical density has no in-range mass")
    if metric not in ("l1", "ks"):
        raise ValueError(f"unknown metric {metric!r}")
    masses = analytic.masses(emp.edges())
    mass = masses.sum()
    if not mass > 0:
        raise ValueError("analytic density has non-positive mass on the window")
    q = masses / mass
    if metric == "l1":
        return float(np.abs(emp.counts / emp.in_range - q).sum())
    return float(np.abs(np.cumsum(emp.counts) / emp.in_range - np.cumsum(q)).max())


# ---------------------------------------------------------------------------
# cycles


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit: the map applied ``len(points)`` times returns each point."""

    points: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class CycleScan:
    """Cycles found on a search range, plus subintervals excluded as poles."""

    cycles: tuple[Cycle, ...]
    pole_intervals: tuple[tuple[float, float], ...]


# find_cycles evaluates O^period at every grid point and bisects each sign
# change, a cell of width w in about 50 + log2(w / max(1, |root|)) evaluations
# of O^period: at most about 50 unless the root is nearer 0 than w, and at
# most about 1075 on any window (see _bisect_brackets).  Each step costs
# about degree operations, so grid_points * period * degree bounds the work.
# The cap admits x^2+1 at 100000 points and period 3, or 20000 and period 8.
MAX_CYCLE_WORK = 600_000
# The brackets are bisected in lockstep, each level one step_array call that
# runs the period steps of O^period, and on 2 brackets a step costs 6-7 us
# at degree 2-3, 10 us at degree 4 and 73-179 us at degree 100 (x^100-x+0.5,
# (x+1)^100), so period * max(degree, 4) is capped to bound a level's cost.  No
# x^2+1 cycle above period 60 or so is resolvable in double precision anyway.
MAX_CYCLE_STEP_WORK = 4000
# Bisection stops once a bracket is no wider than this relative to its
# midpoint's magnitude, at least 1.
_BISECT_RTOL = 1e-15
# A cycle's worst |O^period(p) - p| over its points must stay within this.
_RESIDUAL_TOL = 1e-10
# Points closer than this are the same point, for the minimal-period check
# and for deduplicating rotations of one cycle.
_DISTINCT_TOL = 1e-9


def _bisect_brackets(
    problem: PolynomialProblem, period: int, a: np.ndarray, b: np.ndarray, ga: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every bracket [a[i], b[i]] of g(x) = O^period(x) - x in lockstep.

    ``ga`` holds g at the left ends, where g and g at the right ends have
    opposite signs.  Each level evaluates O^period once at the midpoints m of
    all still-active brackets and keeps [a, m] where ``ga * gm <= 0``, else
    [m, b]; a bracket freezes once it is no wider than ``_BISECT_RTOL``
    of its midpoint's magnitude (at least 1), or once its evaluation hit a
    pole or overflowed (NaN), which makes it bad.  That test alone ends the
    loop: the window rule keeps every a + b finite, so each level about
    halves a bracket, and two adjacent doubles always pass the width test,
    so a bracket within an admitted window freezes within about 1075 levels.
    Returns each bracket's final midpoint and whether it is bad.
    """
    roots = np.empty(a.size)
    bad = np.zeros(a.size, dtype=bool)
    active = np.arange(a.size)
    with np.errstate(all="ignore"):
        while active.size:
            m = 0.5 * (a + b)
            ym = problem.step_array(m, period)
            gm = ym - m
            take_left = ga * gm <= 0.0
            b = np.where(take_left, m, b)
            a = np.where(take_left, a, m)
            ga = np.where(take_left, ga, gm)
            failed = np.isnan(ym)
            done = failed | (b - a <= _BISECT_RTOL * np.maximum(1.0, np.abs(m)))
            if done.any():
                bad[active[failed]] = True
                roots[active[done]] = 0.5 * (a[done] + b[done])
                keep = ~done
                active, a, b, ga = active[keep], a[keep], b[keep], ga[keep]
    return roots, bad


def find_cycles(
    problem: PolynomialProblem,
    period: int,
    lo: float,
    hi: float,
    grid_points: int,
) -> CycleScan:
    """Locate period-``period`` cycles of the map on [lo, hi].

    g(x) = O^period(x) - x is evaluated on the grid, and every cell is
    classified at once: a cell with a non-finite end is a pole interval and
    a sign change is a bracket.  All brackets are then bisected together
    (``_bisect_brackets``); one whose refinement hits a pole or overflows is
    a pole interval too.  A zero of g at any grid point, the window's ends
    included, is a root with that point as its bracket.  The roots' orbits
    are then iterated together, in grid order: solutions whose minimal
    period properly divides ``period`` are excluded, a root whose orbit hits
    a pole or whose residual stays huge refined onto a pole and its bracket
    joins ``pole_intervals``, and rotations of one cycle are deduplicated.
    Every evaluation of the map goes through ``problem.step_array``, O^period
    in one call.  The window obeys ``_require_window`` (else InvalidRange);
    then ``period * max(problem.degree, 4)`` may not exceed
    ``MAX_CYCLE_STEP_WORK``, and then ``grid_points * period *
    problem.degree`` may not exceed ``MAX_CYCLE_WORK``; all are checked
    before the grid is built.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    _require_window(lo, hi)
    step_work = period * max(problem.degree, 4)
    if step_work > MAX_CYCLE_STEP_WORK:
        raise ValueError(f"period * max(degree, 4) = {step_work} exceeds the cap of {MAX_CYCLE_STEP_WORK}")
    work = grid_points * period * problem.degree
    if work > MAX_CYCLE_WORK:
        raise ValueError(f"grid_points * period * degree = {work} exceeds the cap of {MAX_CYCLE_WORK}")
    xs = np.linspace(lo, hi, grid_points)
    g = problem.step_array(xs, period) - xs
    left, right = xs[:-1], xs[1:]
    finite = np.isfinite(g)
    pole = ~(finite[:-1] & finite[1:])
    with np.errstate(all="ignore"):
        cells = np.flatnonzero(~pole & (g[:-1] * g[1:] < 0.0))
    refined, bad = _bisect_brackets(problem, period, left[cells], right[cells], g[cells])
    pole[cells[bad]] = True
    pole_intervals = list(zip(left[pole].tolist(), right[pole].tolist()))
    # one candidate per grid point: a zero of g there is the root itself, with
    # the point as its bracket, and a good bracket starting there is refined
    found = g == 0.0
    found[cells[~bad]] = True
    root, bracket_hi = xs.copy(), xs.copy()
    root[cells], bracket_hi[cells] = refined, right[cells]
    r, blo, bhi = root[found], xs[found], bracket_hi[found]

    # each root's orbit for 2*period - 1 steps: the cycle is orbit[:, :period],
    # and O^period(orbit[:, i]) is orbit[:, i + period]; once a step hits a
    # pole or overflows, the rest of the row is NaN
    orbit = np.empty((r.size, 2 * period))
    orbit[:, 0] = r
    for i in range(1, 2 * period):
        orbit[:, i] = problem.step_array(orbit[:, i - 1])
    pts = orbit[:, :period]
    divisors = [d for d in range(1, period) if period % d == 0]
    with np.errstate(all="ignore"):
        residual = np.abs(orbit[:, period:] - pts).max(axis=1)  # NaN if the orbit broke
        # minimal-period check: any proper divisor d with O^d(r) ~ r disqualifies
        lower = (np.abs(pts[:, divisors] - r[:, None]) <= _DISTINCT_TOL).any(axis=1)
    # a root whose orbit breaks within the cycle, or, past the divisor check,
    # breaks later or misses the residual, refined onto a pole crossing
    broken = np.isnan(pts).any(axis=1) | (~lower & ~(residual <= _RESIDUAL_TOL))
    pole_intervals += zip(blo[broken].tolist(), bhi[broken].tolist())
    keep = ~broken & ~lower

    cycles: list[Cycle] = []
    rows = pts[keep]
    srt = np.sort(rows, axis=1)
    # the sorted points of every accepted cycle, one row each
    accepted = np.empty_like(srt)
    for row, srt_row, start, res in zip(
        rows.tolist(), srt, np.argmin(rows, axis=1).tolist(), residual[keep].tolist()
    ):
        if (np.abs(accepted[: len(cycles)] - srt_row).max(axis=1) <= _DISTINCT_TOL).any():
            continue
        accepted[len(cycles)] = srt_row
        cycles.append(Cycle(tuple(row[start:] + row[:start]), res))

    cycles.sort(key=lambda c: c.points[0])
    return CycleScan(tuple(cycles), tuple(pole_intervals))


# ---------------------------------------------------------------------------
# stationarity and the two-well quartic


def pushforward_residual(
    problem: PolynomialProblem,
    density: Lorentzian,
    sample_count: int,
    seed: int = 0,
) -> float:
    """L1 distance between one-step pushforward samples and the analytic density.

    Samples are drawn by inverse-CDF from ``density.quantile``, pushed
    through one Newton step, binned on [-10, 10] in 200 bins, and compared
    with the bin masses of ``density``; a zero distance (up to Monte Carlo
    noise) certifies that ``density`` is a fixed point of the transfer
    operator at eigenvalue one.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    y = problem.step_array(density.quantile(rng.random(sample_count)))
    y = y[np.isfinite(y)]
    emp = EmpiricalDensity.from_samples(y, -10.0, 10.0, 200)
    return density_distance(emp, density, metric="l1")


def interference_polynomial(delta: float) -> PolynomialProblem:
    """The two-well quartic (x^2 + delta)*((x-3)^2 + delta).

    Its coefficients (9d + d^2, -6d, 9 + 2d, -6, 1) are exact rationals over
    delta's shortest decimal representation d, as parsing that product form
    gives, each rounded once to a double; one that overflows raises OverflowError.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    d = Fraction(repr(float(delta)))
    return PolynomialProblem((9 * d + d * d, -6 * d, 9 + 2 * d, -6, 1))


# peak_detect smooths the density by a moving average over this many bins.
_SMOOTHING_BINS = 5


def peak_detect(density: EmpiricalDensity, min_prominence: float):
    """Local maxima of the 5-bin-smoothed density, filtered by prominence.

    A maximum is a bin (or equal-valued plateau, reported at its middle)
    strictly above both flanking values, compared as the windows' exact
    sums of counts; prominence is the peak height minus the higher of the
    minima separating it from its neighboring peaks (or range ends).
    Returns (center, height, prominence) triples in center order.
    """
    if not min_prominence >= 0:  # NaN fails too
        raise ValueError("min_prominence must be >= 0")
    kernel = np.ones(_SMOOTHING_BINS) / _SMOOTHING_BINS
    # the full convolution's middle bins values (mode="same" gives max(bins, 5))
    first = _SMOOTHING_BINS // 2
    s = np.convolve(density.densities(), kernel)[first : first + density.bins]
    # the same windows' sums of counts, which s may round apart where they tie
    w = np.convolve(density.counts, np.ones(_SMOOTHING_BINS, dtype=np.int64))[first : first + density.bins]
    centers = density.centers()
    # the runs of equal sums; a maximum is a run above both its neighbors
    starts = np.flatnonzero(np.diff(w, prepend=-1) != 0)
    ends = np.append(starts[1:], len(w)) - 1
    v = w[starts]
    peak = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    idxs = ((starts[1:-1] + ends[1:-1]) // 2)[peak].tolist()
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


def half_width_at_half_max(density: EmpiricalDensity, center: float) -> float:
    """Half width at half maximum of the raw-density peak nearest ``center``.

    Crossing positions are linearly interpolated between bin centers.  A
    non-finite ``center`` names no peak and raises ValueError.
    """
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center!r}")
    dens = density.densities()
    centers = density.centers()
    i0 = int(np.argmin(np.abs(centers - center)))
    half = dens[i0] / 2.0
    if half <= 0:
        raise ValueError("peak height is zero")

    def cross(direction: int) -> float:
        j = i0
        while 0 <= j + direction < len(dens) and dens[j + direction] > half:
            j += direction
        if not 0 <= j + direction < len(dens):
            raise ValueError("half-maximum level not reached inside the range")
        a, b = j, j + direction
        frac = (dens[a] - half) / (dens[a] - dens[b])
        return float(centers[a] + frac * (centers[b] - centers[a]))

    return (cross(+1) - cross(-1)) / 2.0

