"""Newton map unit tests: step arithmetic, orbit statuses."""

import math
import os
import pickle
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import nrq
from nrq import (
    DerivativeZero,
    IterationPolicy,
    Orbit,
    OrbitStatus,
    PolynomialProblem,
    iterate_orbit,
    newton_step,
)
from nrq.measure import CHAIN_WARMUP, DENSITY_CHAINS, accumulate_density
from nrq.newton import MAX_DEGREE, OVERFLOW_BOUND, POLE_EPSILON

SQRT2_MINUS_2 = PolynomialProblem((-2.0, 0.0, 1.0))  # x^2 - 2
NO_REAL_ROOT = PolynomialProblem((1.0, 0.0, 1.0))  # x^2 + 1


def bisect_root(f, lo, hi, iters=200):
    """Plain bisection; the independent root oracle for fixed-point checks."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_problem_validation():
    with pytest.raises(ValueError):
        PolynomialProblem((1.0,))  # constant
    with pytest.raises(ValueError):
        PolynomialProblem((1.0, 2.0, 0.0))  # zero leading coefficient
    with pytest.raises(ValueError):
        PolynomialProblem((0.0, math.inf))
    with pytest.raises(ValueError, match="exceeds the cap"):
        PolynomialProblem((1.0,) * (MAX_DEGREE + 2))  # degree MAX_DEGREE + 1


def test_derivative_is_exact():
    p = PolynomialProblem((5.0, -3.0, 2.0, 7.0))
    assert p.derivative == (-3.0, 4.0, 21.0)
    assert p.degree == 3


def test_step_basic():
    assert newton_step(SQRT2_MINUS_2, 1.0) == 1.5


def test_step_two_cycle_value():
    # the map swaps +/- 1/sqrt(3); float rounding allows ~1 ulp of slack
    x = 1.0 / math.sqrt(3.0)
    assert newton_step(NO_REAL_ROOT, x) == pytest.approx(-x, abs=1e-15)


def test_step_pole():
    with pytest.raises(DerivativeZero):
        newton_step(NO_REAL_ROOT, 0.0)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _bits_of(values) -> list[bytes]:
    return [_bits(v) for v in values]


def _horner(coeffs_desc, x):
    """The map's reference evaluation: Horner's scheme from 0.0 over descending coefficients."""
    acc = 0.0
    for c in coeffs_desc:
        acc = acc * x + c
    return acc


# degree 1 to 6, zero coefficients allowed except the leading one
_POLYNOMIAL = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.floats(-1e3, 1e3), min_size=d + 1, max_size=d + 1)
).filter(lambda c: c[-1] != 0.0)


@given(
    _POLYNOMIAL,
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-3.0, 3.0)),
)
@example([1.0, 0.0, 1.0], 0.0)  # x^2 + 1 at its pole
@example([1.0, 0.0, 1.0], 4e-301)  # f' = 8e-301: a pole although the quotient is finite
@example([0.0901, -0.06, 9.02, -6.0, 1.0], 2.9)  # the two-well quartic
@example([2.0, -2.0, 0.0, 1.0], 0.0)  # x^3 - 2x + 2, generic degree
@example([0.0, -2.0], 0.5)  # degree 1: the numerator's leading term is -0.0
@example([1.0, 1e-300], 0.5)  # |f'| equals POLE_EPSILON everywhere: a pole
@example([1.0] * (MAX_DEGREE + 1), 1.5)  # the deepest generated expression
@example([-0.0, 1.0], -1.0)  # f = x with c0 = -0.0: both +0.0 terms of the numerator are kept
@example([0.0, 1.0], -1.0)  # f = x: the numerator's -0.0 x^0 term is dropped, its +0.0 x^1 kept
@example([0.0, -1.0, 0.0, 1.0], 0.5)  # x^3 - x: zero terms dropped from f' and the numerator
@example([-1.0, 0.0, 1.0], 0.75)  # x^2 - 1: the numerator's leading 1.0 is not multiplied
def test_scalar_and_array_steps_agree(coefficients, x):
    problem = PolynomialProblem(coefficients)
    # f' and the map keep an array's shape, at degree 1 too, where f' is the constant d0
    assert problem._fprime(np.zeros((2, 3))).shape == (2, 3)
    from_array = problem.step_array(np.full((2, 3), x))
    assert from_array.shape == (2, 3)
    assert len(set(_bits_of(from_array.ravel()))) == 1
    fpx = _horner(problem.derivative[::-1], x)
    if -POLE_EPSILON <= fpx <= POLE_EPSILON:
        with pytest.raises(DerivativeZero):
            newton_step(problem, x)
        assert np.isnan(from_array).all()
        return
    y = _horner(problem.numerator[::-1], x) / fpx
    assert _bits(newton_step(problem, x)) == _bits(y)
    if math.isfinite(y):
        assert _bits(from_array[0, 0]) == _bits(y)
    else:
        assert math.isnan(from_array[0, 0])


# Each pair is equal as tuples, 0.0 == -0.0, but the first one's source
# drops a zero term whose sign the second one's bits depend on: its
# numerator at x = -1, or its f' at x = -0.0.
_SIGNED_ZERO_PAIRS = """
import struct
from nrq import PolynomialProblem

def horner(coeffs_desc, x):
    acc = 0.0
    for c in coeffs_desc:
        acc = acc * x + c
    return acc

bits = lambda v: struct.pack("<d", v)
for pair in [((0.0, 1.0), (-0.0, 1.0)), ((1.0, -0.0, 1.0), (1.0, 0.0, 1.0))]:
    for coefficients in pair:
        problem = PolynomialProblem(coefficients)
        for x in (-1.0, -0.0, 0.0, 1.0):
            assert bits(problem._numer(x)) == bits(horner(problem.numerator[::-1], x)), (coefficients, x)
            assert bits(problem._fprime(x)) == bits(horner(problem.derivative[::-1], x)), (coefficients, x)
    print("ok")
"""


def test_signed_zero_coefficients_get_their_own_kernels():
    # in a fresh interpreter, so that the leaner kernel of each pair is built
    # first: a kernel cached by coefficients would then serve it to the other
    src = str(Path(nrq.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", _SIGNED_ZERO_PAIRS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "ok"]


@given(
    _POLYNOMIAL,
    st.lists(st.one_of(st.floats(), st.floats(-3.0, 3.0)), min_size=1, max_size=6),
    st.integers(1, 12),
)
@example([1.0, 0.0, 1.0], [1e200, -1e200, 0.0, 1.0, 0.5], 3)  # +-inf after one step; the pole
@example([2.0, -2.0, 0.0, 1.0], [1e200, -1e200, 0.0, 1.0], 4)  # x^3 - 2x + 2: inf / inf at once
@example([1e10, 1e-299], [0.5, math.inf, math.nan], 2)  # degree 1: -inf, then 0.0 * inf = NaN
@example([0.0901, -0.06, 9.02, -6.0, 1.0], [1e100, 2.9, -0.0], 12)  # the two-well quartic
def test_step_array_times_matches_a_chain_of_calls(coefficients, xs, times):
    problem = PolynomialProblem(coefficients)
    chained = np.array(xs)
    for _ in range(times):
        chained = problem.step_array(chained)
    # the same bits, so NaN in the same places
    assert _bits_of(problem.step_array(xs, times)) == _bits_of(chained)
    # a 0-d array stays 0-d
    single = problem.step_array(np.float64(xs[0]), times)
    assert single.shape == () and _bits(single) == _bits(chained[0])


_STOP_POINT = st.one_of(
    st.floats(-3.0, 3.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-305.0, 305.0)),
    st.sampled_from([0.0, -0.0, 4e-301, 1e300, math.inf, math.nan]),
)


@given(
    st.integers(1, 8)
    .flatmap(lambda d: st.lists(st.floats(-1e3, 1e3), min_size=d + 1, max_size=d + 1))
    .filter(lambda c: c[-1] != 0.0),
    st.lists(_STOP_POINT, min_size=1, max_size=8),
    st.integers(1, 6),
)
@example([1e301, 1.0], [0.5, -2.0, 1e300], 3)  # x + 1e301: every step overflows
@example([0.0, 0.0, 1.0], [2.0**-536, 0.0, 3.0], 4)  # x^2: 2^-538 underflows to 0, a pole
@example([0.0, 0.0, 5e-301], [3.0, 1.5, -0.75, 9.0], 5)  # f' = 1e-300 x: a pole wherever |x| <= 1
@example([1.0, 0.0, 1.0], [1.0, 4e-301, 0.3], 3)  # x^2 + 1: 1 -> 0, then the pole; f'(4e-301) is one
def test_step_rows_matches_the_scalar_step(coefficients, xs, times):
    problem = PolynomialProblem(coefficients)
    rows = np.empty((times, len(xs)))
    stop = problem.step_rows(np.array(xs), rows)
    assert stop.shape == rows.shape and stop.dtype == bool
    chained, stopped = np.array(xs), np.zeros(len(xs), dtype=bool)
    for before, row, flags in zip([np.array(xs), *rows], rows, stop):
        # every flag, past an element's first stop too, is the scalar step's
        # stop rule on that row's input
        for x, flag in zip(before.tolist(), flags.tolist()):
            try:
                y = newton_step(problem, x)
                assert flag is not (-OVERFLOW_BOUND <= y <= OVERFLOW_BOUND), (x, y)
            except DerivativeZero:
                assert flag, x
        # up to an element's first stop, its rows are step_array's bits
        chained = problem.step_array(chained)
        stopped |= flags
        assert _bits_of(row[~stopped]) == _bits_of(chained[~stopped])


def test_step_array_needs_a_step():
    with pytest.raises(ValueError, match="times"):
        NO_REAL_ROOT.step_array([0.5], 0)


def test_problem_pickles_with_a_working_step():
    clone = pickle.loads(pickle.dumps(NO_REAL_ROOT))
    assert clone == NO_REAL_ROOT
    assert newton_step(clone, 0.3) == newton_step(NO_REAL_ROOT, 0.3)
    policy = IterationPolicy(max_steps=100)
    orbit = iterate_orbit(clone, 0.3, policy)
    assert orbit.iterates.tobytes() == iterate_orbit(NO_REAL_ROOT, 0.3, policy).iterates.tobytes()


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_step_is_odd_for_even_polynomial(x):
    # (x^2-1)/(2x) is odd, and IEEE rounding preserves the symmetry exactly
    assert newton_step(NO_REAL_ROOT, -x) == -newton_step(NO_REAL_ROOT, x)


def test_fixed_points_are_roots():
    cases = [
        (SQRT2_MINUS_2, [(1.0, 2.0), (-2.0, -1.0)]),
        # x^3 - 2x^2 - 5x + 6 = (x-1)(x-3)(x+2)
        (PolynomialProblem((6.0, -5.0, -2.0, 1.0)), [(0.5, 1.5), (2.5, 3.5), (-2.5, -1.5)]),
    ]
    for problem, brackets in cases:
        f = np.polynomial.Polynomial(problem.coefficients)
        for lo, hi in brackets:
            root = bisect_root(f, lo, hi)
            assert abs(newton_step(problem, root) - root) <= 1e-12 * (1.0 + abs(root))


def test_overlap_converged():
    # the map of f = x - r sends every x to r, so the first step moves x0 to r
    # and the second stays there: the orbit converges at step 1 if the move
    # passes the overlap test and at step 2 if it does not
    for x0, root, tol, step in [
        (1.0, 1.0, 1e-12, 1),
        (1.0, 2.0, 1e-12, 2),
        # threshold 1e-12 * (1 + 1e8) ~ 1e-4, so a 1e-5 move counts as converged
        (1e8, 1e8 + 1e-5, 1e-12, 1),
        (1e8, 1e8 + 1e-3, 1e-12, 2),
        # a move equal to the threshold 0.5 * (1 + 0) counts as converged
        (0.0, 0.5, 0.5, 1),
    ]:
        policy = IterationPolicy(max_steps=5, convergence_tol=tol)
        orbit = iterate_orbit(PolynomialProblem((-root, 1.0)), x0, policy)
        assert (orbit.status, orbit.step, orbit.iterates[step]) == (OrbitStatus.CONVERGED, step, root)


def _scalar_orbit(problem, x0, policy):
    """iterate_orbit's contract, run one newton_step at a time."""
    tol = policy.convergence_tol
    xs = [float(x0)]
    x = xs[0]
    for i in range(1, policy.max_steps + 1):
        try:
            y = newton_step(problem, x)
        except DerivativeZero:
            return Orbit(np.array(xs), OrbitStatus.POLE_HIT, step=i - 1)
        if not (-OVERFLOW_BOUND <= y <= OVERFLOW_BOUND):  # also catches NaN
            return Orbit(np.array(xs), OrbitStatus.OVERFLOWED, step=i - 1)
        xs.append(y)
        if abs(y - x) <= tol * (1.0 + abs(x)):
            return Orbit(np.array(xs), OrbitStatus.CONVERGED, step=i)
        x = y
    return Orbit(np.array(xs), OrbitStatus.RUNNING)


def _orbit_bits(orbit):
    """Every field of ``orbit``, the iterates as their bits."""
    return orbit.iterates.tobytes(), orbit.status, orbit.step


# Below, "stops at slot s" means step s is refused: the orbit's last iterate is
# slot s - 1.
@given(
    _POLYNOMIAL,
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-3.0, 3.0)),
    st.integers(1, 200),
    st.sampled_from([1e-12, 1e-6, 1e-2, 1e10]),
)
@example([-1e300, 1.0], 1e300, 10, 1e10)  # tol * (1 + |x|) overflows to inf: converged
@example([-1e300, 1.0], -1.7976931348623157e308, 10, 1e-12)  # x1 - x0 overflows to inf
@example([1.0, 0.0, 1.0], 0.0, 5, 1e-12)  # x^2 + 1 at its pole
@example([1.0, 0.0, 1.0], 4e-301, 5, 1e-12)  # f' = 8e-301: a pole although the quotient is finite
@example([1.0, 0.0, 1.0], 1.0, 5, 1e-12)  # 1 -> 0, then stops at slot 2
@example([0.0, 0.0, 0.5], 1e-300, 5, 1e-12)  # f' = x equals POLE_EPSILON: a pole
@example([1.0, 1e-300], 0.5, 5, 1e-12)  # |f'| equals POLE_EPSILON everywhere: a pole
@example([0.0, 1e-300, 0.0, 0.0, 0.25], 0.0, 5, 1e-12)  # degree 4 with f'(0) = POLE_EPSILON
@example([0.0, -2.0], 0.5, 5, 1e-12)  # degree 1: the numerator's leading term is -0.0
@example([20.0, 1e-299], 0.5, 5, 1e-12)  # degree 1: the step lands at -2e300
@example([-2.0, 0.0, 1.0], 1e200, 10, 1e-12)  # x^2 - 2 overflows at step 0
@example([2.0, -2.0, 0.0, 1.0], 1e200, 5, 1e-12)  # x^3 - 2x + 2: its first step is inf / inf
@example([100.0, 0.0, 1.0], -6e-301, 5, 1e-12)  # the step lands at 8.3e301, finite but out
@example([-10.0, 2e-300, 0.0, 0.0, 1.0], 0.0, 5, 1e-12)  # degree 4: the step lands at 5e300
@example([4.0, 2e-300, 1.0], 2.0, 5, 1e-12)  # 2 -> 0, then f' = 2e-300 sends 0 to -2e300: out
@example([1e10, 2e-299, 1.0], 1e5, 5, 1e-12)  # 1e5 -> 0, then 0 -> -inf
@example([16.0, 1.6e-199, 0.0, 1.0], 2.0, 5, 1e-12)  # 2 -> 0 -> -1e200, then -inf / inf = NaN
@example([-2.0, 0.0, 1.0], 1.0, 50, 1e-12)  # converges at step 5
@example([2.0, -2.0, 0.0, 1.0], 0.3, 50, 1e-12)  # converges at step 15, at degree 3
@example([2.0, -2.0, 0.0, 1.0], 0.0, 20, 1e-12)  # x^3 - 2x + 2: the 0, 1 cycle
@example([0.0901, -0.06, 9.02, -6.0, 1.0], 2.9, 40, 1e-12)  # the two-well quartic
@example([1.0] * (MAX_DEGREE + 1), 1.5, 50, 1e-12)  # the deepest generated expression
# x^2 halves x, and tol = 1e-2 first holds on the step from 0.015: it converges
# on step 16, 64 and 65
@example([0.0, 0.0, 1.0], 0.015 * 2.0**15, 200, 1e-2)
@example([0.0, 0.0, 1.0], 0.015 * 2.0**63, 200, 1e-2)
@example([0.0, 0.0, 1.0], 0.015 * 2.0**64, 200, 1e-2)
# with a tol that never holds, x^2 halves 0.5 to exactly 0 at step 538, then
# f' = 0 stops it at slot 539
@example([0.0, 0.0, 1.0], 0.5, 600, 1e-320)
# 5e-301 x^2 halves x too, and f' = 1e-300 x is first a pole at 0.75: it stops
# at slot 4, 15, 16, 64 and 65
@example([0.0, 0.0, 5e-301], 6.0, 10, 1e-12)
@example([0.0, 0.0, 5e-301], 0.75 * 2.0**14, 200, 1e-12)
@example([0.0, 0.0, 5e-301], 0.75 * 2.0**15, 200, 1e-12)
@example([0.0, 0.0, 5e-301], 0.75 * 2.0**63, 200, 1e-12)
@example([0.0, 0.0, 5e-301], 0.75 * 2.0**64, 200, 1e-12)
# the map of x^2 + 2e-300 x + 4 from starts whose orbits land exactly on -2 and
# 2 (built backwards, searching the doubles around each real preimage), so they
# reach 0 on steps 64 and 100 and are out at slots 65 and 101
@example([4.0, 2e-300, 1.0], -8.358407126781496e16, 100, 1e-12)
@example([4.0, 2e-300, 1.0], 5.743853640988776e27, 200, 1e-12)
def test_orbit_matches_the_scalar_loop(coefficients, x0, max_steps, tol):
    policy = IterationPolicy(max_steps=max_steps, convergence_tol=tol)
    expected = _orbit_bits(_scalar_orbit(PolynomialProblem(coefficients), x0, policy))
    orbit = iterate_orbit(PolynomialProblem(coefficients), x0, policy)
    assert orbit.iterates.dtype == np.float64 and not orbit.iterates.flags.writeable
    assert _orbit_bits(orbit) == expected


@pytest.mark.parametrize(
    "problem, x0, max_steps, length, bound",
    [
        # 1e5 steps that never converge: an array('d') of 0.8 MB, which a
        # growth may hold for a moment beside the one it replaces; a list
        # would be 3.2 MB
        (NO_REAL_ROOT, 0.7, 100_000, 100_001, 2_000_000),
        # converges at step 5: an array of 6 iterates, not of max_steps + 1 slots
        (SQRT2_MINUS_2, 1.0, 10**12, 6, 500_000),
    ],
)
def test_orbit_peak_memory(problem, x0, max_steps, length, bound):
    iterate_orbit(problem, x0, IterationPolicy(max_steps=100))
    tracemalloc.start()
    try:
        orbit = iterate_orbit(problem, x0, IterationPolicy(max_steps=max_steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbit.iterates) == length
    assert peak <= bound


def test_orbit_converges_to_sqrt2():
    orbit = iterate_orbit(SQRT2_MINUS_2, 1.0, IterationPolicy(max_steps=50))
    assert orbit.status is OrbitStatus.CONVERGED
    assert orbit.step <= 6
    oracle = float(mpmath.mpf(2) ** mpmath.mpf("0.5"))
    assert abs(orbit.iterates[orbit.step] - oracle) <= 1e-12


def test_orbit_pole_hit():
    orbit = iterate_orbit(NO_REAL_ROOT, 1.0, IterationPolicy(max_steps=50))
    assert orbit.status is OrbitStatus.POLE_HIT
    assert orbit.step == 1
    assert orbit.iterates.tobytes() == np.array([1.0, 0.0]).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        orbit.iterates[1] = 0.5


def test_an_orbit_freezes_a_view_not_the_callers_array():
    xs = np.array([1.0, 0.0])
    orbit = Orbit(xs, OrbitStatus.POLE_HIT, step=1)
    assert xs.flags.writeable and not orbit.iterates.flags.writeable
    xs[1] = 0.5  # the caller's array stays theirs to write
    assert orbit.iterates[1] == 0.5
    listed = Orbit([1.0, 0.0], OrbitStatus.POLE_HIT, step=1)
    assert listed.iterates.dtype == np.float64 and not listed.iterates.flags.writeable


def test_orbit_two_cycle_breaks_before_100_steps():
    x0 = 1.0 / math.sqrt(3.0)
    orbit = iterate_orbit(NO_REAL_ROOT, x0, IterationPolicy(max_steps=100))
    assert orbit.status is OrbitStatus.RUNNING
    deviations = [min(abs(x - x0), abs(x + x0)) for x in orbit.iterates]
    assert max(deviations) > 0.1



def _doubles_within_6_ulps(center: float) -> list:
    below, above = [center], [center]
    for _ in range(6):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[::-1] + above[1:]


def test_two_cycle_escape_step_follows_the_doubling_of_the_deviation():
    # O'(x) = 1/2 + 1/(2x^2) is 2 on the cycle +-1/sqrt(3), so a start delta0
    # off it escapes past 0.1 after about log2(0.1/delta0) steps
    with mpmath.workdps(40):
        cycle = 1 / mpmath.sqrt(3)
        r = float(cycle)
        starts = _doubles_within_6_ulps(r) + _doubles_within_6_ulps(-r)
        assert len(set(starts)) == 26 and 1.0 / math.sqrt(3.0) in starts
        for x0 in starts:
            delta0 = abs(mpmath.mpf(x0) - mpmath.sign(x0) * cycle)
            predicted = float(mpmath.log(mpmath.mpf("0.1") / delta0, 2))
            orbit = iterate_orbit(NO_REAL_ROOT, x0, IterationPolicy(max_steps=100))
            deviations = [min(abs(x - r), abs(x + r)) for x in orbit.iterates.tolist()]
            escape = next(i for i, dev in enumerate(deviations) if dev > 0.1)
            assert abs(escape - predicted) <= 2, (x0, escape, predicted)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_orbit_needs_a_finite_start(x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        iterate_orbit(NO_REAL_ROOT, x0, IterationPolicy(max_steps=10))

def test_orbit_overflow():
    # x^2 - 2 with a huge start: first step squares past the overflow bound
    orbit = iterate_orbit(SQRT2_MINUS_2, 1e200, IterationPolicy(max_steps=10))
    assert orbit.status is OrbitStatus.OVERFLOWED
    assert orbit.iterates.tobytes() == np.array([1e200]).tobytes()
    assert orbit.step == 0


def test_orbit_records_every_step():
    orbit = iterate_orbit(SQRT2_MINUS_2, 1.7, IterationPolicy(max_steps=30))
    xs = orbit.iterates.tolist()
    assert xs[0] == 1.7
    for prev, nxt in zip(xs, xs[1:]):
        assert _bits(newton_step(SQRT2_MINUS_2, prev)) == _bits(nxt)


def test_orbit_deterministic():
    a = iterate_orbit(NO_REAL_ROOT, 0.7, IterationPolicy(max_steps=500))
    b = iterate_orbit(NO_REAL_ROOT, 0.7, IterationPolicy(max_steps=500))
    assert a.iterates.tobytes() == b.iterates.tobytes()


def test_quadratic_convergence_constant():
    root = math.sqrt(2.0)
    for x0 in (1.2, 1.5, 2.0):
        orbit = iterate_orbit(SQRT2_MINUS_2, x0, IterationPolicy(max_steps=30))
        errors = [abs(x - root) for x in orbit.iterates]
        ratios = [
            errors[i + 1] / errors[i] ** 2
            for i in range(len(errors) - 1)
            if errors[i] > 1e-6
        ]
        assert ratios and max(ratios) <= 1.0


@pytest.mark.parametrize("x0", [0.3, 0.7, 1.9, -2.2, 5.0, -0.45])
def test_lyapunov_exponent_is_ln2(x0):
    # x = cot(pi*theta) conjugates the x^2+1 map to theta -> 2 theta mod 1,
    # so the orbit mean of log|O'(x)|, O'(x) = (x^2+1)/(2x^2), is ln 2
    steps, x, total = 20_000, x0, 0.0
    for _ in range(steps):
        total += math.log(abs((x * x + 1.0) / (2.0 * x * x)))
        x = newton_step(NO_REAL_ROOT, x)
    assert abs(total / steps - math.log(2.0)) <= 1e-3


def test_policy_validation():
    with pytest.raises(ValueError):
        IterationPolicy(max_steps=0)
    with pytest.raises(ValueError):
        IterationPolicy(convergence_tol=0.0)


# Per-step oracles: each checks the generated map with arithmetic it does not
# share.  For c > 0, x = sqrt(c) cot(theta) conjugates the map of x^2 + c,
# (x^2 - c)/(2x), to theta -> 2 theta mod pi, so the defect (2 theta_n -
# theta_{n+1}) mod pi of a computed step is rounding alone.  Its bound was
# fixed before the test ran: the defect measured 4 eps, one ulp of 2 pi.
_DOUBLING_DEFECT_BOUND = 8 * 2.0**-52


def _doubling_defect(xs, root):
    """max |d_n| over the steps of ``xs`` (an orbit, or one column per chain),
    where d_n = (2 theta_n - theta_{n+1}) mod pi, wrapped into (-pi/2, pi/2],
    and theta = atan2(root, x); steps from or to NaN are skipped."""
    xs = np.asarray(xs)
    theta = np.array([math.atan2(root, x) for x in xs.ravel().tolist()]).reshape(xs.shape)
    d = np.mod(2.0 * theta[:-1] - theta[1:], math.pi)
    d = np.where(d > math.pi / 2, d - math.pi, d)
    return float(np.nanmax(np.abs(d)))


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_x2_plus_c_steps_conjugate_to_angle_doubling(c):
    problem, root = PolynomialProblem((c, 0.0, 1.0)), math.sqrt(c)
    for x0 in (0.3, 0.7, 1.9, -2.2, 5.0):
        orbit = iterate_orbit(problem, x0, IterationPolicy(max_steps=100_000))
        assert orbit.status is OrbitStatus.RUNNING
        assert _doubling_defect(orbit.iterates, root) <= _DOUBLING_DEFECT_BOUND
    chains = [np.linspace(-5.0, 5.0, 1024)]
    for _ in range(100):
        chains.append(problem.step_array(chains[-1]))
    assert _doubling_defect(chains, root) <= _DOUBLING_DEFECT_BOUND


def test_the_doubling_defect_sees_a_map_of_another_c():
    # the map of x^2 + 1.000001 read as that of x^2 + 1
    orbit = iterate_orbit(PolynomialProblem((1.000001, 0.0, 1.0)), 0.7, IterationPolicy(max_steps=1000))
    assert _doubling_defect(orbit.iterates, 1.0) > _DOUBLING_DEFECT_BOUND


class _RecordingProblem(PolynomialProblem):
    """A problem whose ``step_rows`` keeps a copy of every call's input and rows."""

    def __init__(self, coefficients):
        super().__init__(coefficients)
        object.__setattr__(self, "calls", [])

    def step_rows(self, xs, rows):
        xs = np.array(xs)  # the engine's last row, which this call may overwrite
        stop = super().step_rows(xs, rows)
        self.calls.append((xs, rows.copy()))
        return stop


def _density_chain_defects(c, root):
    """The doubling defect of each ``step_rows`` call that the density
    engine makes for x^2 + c on the default window, warm-up included, over
    every row it wrote, kept or discarded."""
    problem = _RecordingProblem((c, 0.0, 1.0))
    accumulate_density(problem, None, 1000, 201000, -10.0, 10.0, 200, seed=1)
    assert sum(len(rows) for _, rows in problem.calls) == CHAIN_WARMUP + -(-201000 // DENSITY_CHAINS)
    return [_doubling_defect(np.stack([xs, *rows]), root) for xs, rows in problem.calls]


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_the_density_chains_step_conjugate_to_angle_doubling(c):
    assert max(_density_chain_defects(c, math.sqrt(c))) <= _DOUBLING_DEFECT_BOUND


def test_the_doubling_defect_sees_density_chains_of_another_c():
    assert max(_density_chain_defects(1.000001, 1.0)) > _DOUBLING_DEFECT_BOUND


_U = 2.0**-53


def _gamma(k):
    u = mpmath.mpf(_U)
    return k * u / (1 - k * u)


def _size(coefficients, powers):
    """sum |c_i| |x^i|, given the powers x^i."""
    return mpmath.fsum(abs(c) * abs(p) for c, p in zip(coefficients, powers))


# coefficients that no product over the points below takes near underflow
_COEFFICIENT = st.one_of(
    st.integers(-9, 9).map(float), st.floats(-10.0, 10.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-3)
)
_POINT = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))


@given(
    st.integers(1, 8)
    .flatmap(lambda d: st.lists(_COEFFICIENT, min_size=d + 1, max_size=d + 1))
    .filter(lambda c: c[-1] != 0.0),
    st.lists(_POINT, min_size=1, max_size=20),
)
def test_step_error_is_within_horners_bound(coefficients, xs):
    # Horner's a-priori bound (Higham 2002, 5.1) on the numerator and on f',
    # each over its float coefficients, plus one u for each coefficient's own
    # rounding and one for the quotient; both bounds are rigorous
    problem = PolynomialProblem(coefficients)
    degree, steps = problem.degree, problem.step_array(xs).tolist()
    with mpmath.workdps(60):
        exact_n = [(i - 1) * mpmath.mpf(c) for i, c in enumerate(problem.coefficients)]
        exact_d = [i * mpmath.mpf(c) for i, c in enumerate(problem.coefficients)][1:]
        for x, y in zip(xs, steps):
            powers = [mpmath.mpf(x) ** i for i in range(degree + 1)]
            n, d = mpmath.fdot(exact_n, powers), mpmath.fdot(exact_d, powers)
            err_n = _gamma(2 * degree + 2) * _size(problem.numerator, powers) + _U * _size(exact_n, powers)
            err_d = _gamma(2 * degree + 1) * _size(problem.derivative, powers) + _U * _size(exact_d, powers)
            if not err_d < abs(d) / 2:
                continue  # f' could be near zero
            exact = n / d
            quotient = (err_n * abs(d) + abs(n) * err_d) / (abs(d) * (abs(d) - err_d))
            bound = quotient + _U * (abs(exact) + quotient)
            assert abs(mpmath.mpf(y) - exact) <= bound, (x, y, float(exact), float(bound))
