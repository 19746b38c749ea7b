"""Newton map unit tests: step arithmetic, orbit statuses."""

import math
import pickle
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nrq import (
    DerivativeZero,
    IterationPolicy,
    OrbitStatus,
    PolynomialProblem,
    iterate_orbit,
    newton_step,
    overlap_converged,
)
from nrq.newton import OVERFLOW_BOUND

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
def test_scalar_and_array_steps_agree(coefficients, x):
    problem = PolynomialProblem(coefficients)
    from_array = problem.step_array(np.array([x]))[0]
    try:
        y = problem.step(x)
    except DerivativeZero:
        assert math.isnan(from_array)
        with pytest.raises(DerivativeZero):
            newton_step(problem, x)
        return
    assert _bits(newton_step(problem, x)) == _bits(y)
    if math.isfinite(y):
        assert _bits(from_array) == _bits(y)
    else:
        assert math.isnan(from_array)


def _chain(step, x, k):
    """The iterates of up to k calls of ``step``, stopping where it raises
    DerivativeZero, returns NaN or leaves the overflow window."""
    iterates = []
    for _ in range(k):
        try:
            x = step(x)
        except DerivativeZero:
            break
        if not -OVERFLOW_BOUND <= x <= OVERFLOW_BOUND:
            break
        iterates.append(x)
    return iterates


@given(
    _POLYNOMIAL,
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-3.0, 3.0)),
    st.integers(0, 3),
    st.integers(1, 40),
)
@example([1.0, 0.0, 1.0], 1.0, 0, 5)  # x^2 + 1: 1 -> 0, then the pole
@example([1.0, 0.0, 1.0], 4e-301, 0, 3)  # f' = 8e-301: a pole although the quotient is finite
@example([0.0, 0.0, 0.5], 1e-300, 1, 3)  # f' = x equals POLE_EPSILON: a pole
@example([100.0, 0.0, 1.0], -6e-301, 0, 2)  # the step lands at 8.3e301, finite but out
@example([0.0901, -0.06, 9.02, -6.0, 1.0], 2.9, 2, 40)  # the two-well quartic
@example([0.0, 1e-300, 0.0, 0.0, 0.25], 0.0, 0, 2)  # degree 4 with f'(0) = POLE_EPSILON
@example([-10.0, 2e-300, 0.0, 0.0, 1.0], 0.0, 0, 2)  # degree 4: the step lands at 5e300
@example([2.0, -2.0, 0.0, 1.0], 0.0, 1, 9)  # x^3 - 2x + 2, generic degree: the 0, 1 cycle
@example([2.0, -2.0, 0.0, 1.0], 1e200, 0, 3)  # its first step is inf / inf
@example([20.0, 1e-299], 0.5, 0, 2)  # degree 1: the step lands at -2e300
@example([0.0, -2.0], 0.5, 0, 4)  # degree 1: the numerator's leading term is -0.0
@example([1.0, 1e-300], 0.5, 3, 2)  # |f'| equals POLE_EPSILON everywhere: a pole
def test_advance_matches_a_chain_of_steps(coefficients, x0, j0, k):
    problem = PolynomialProblem(coefficients)
    expected = _chain(problem.step, x0, k)
    # step is derived from the kernel, so the array entry is the independent oracle
    assert _bits_of(expected) == _bits_of(_chain(lambda x: problem.step_array([x])[0], x0, k))
    buf = memoryview(bytearray(8 * (j0 + k))).cast("d")
    x, j = problem.advance(x0, j0, j0 + k, buf)
    assert j == j0 + len(expected)
    assert _bits_of(buf[j0:j]) == _bits_of(expected)
    assert _bits(x) == _bits(expected[-1] if expected else x0)
    assert not any(buf[:j0]) and not any(buf[j:])  # no slot outside the run is written


def test_problem_pickles_with_a_working_step():
    clone = pickle.loads(pickle.dumps(NO_REAL_ROOT))
    assert clone == NO_REAL_ROOT
    assert clone.step(0.3) == NO_REAL_ROOT.step(0.3)


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
    assert overlap_converged(1.0, 1.0, 1e-12)
    assert not overlap_converged(1.0, 2.0, 1e-12)
    # threshold 1e-12 * (1 + 1e8) ~ 1e-4, so a 1e-5 move counts as converged
    assert overlap_converged(1e8, 1e8 + 1e-5, 1e-12)
    assert not overlap_converged(1e8, 1e8 + 1e-3, 1e-12)
    with pytest.raises(ValueError):
        overlap_converged(1.0, 1.0, 0.0)


def test_orbit_converges_to_sqrt2():
    orbit = iterate_orbit(SQRT2_MINUS_2, 1.0, IterationPolicy(max_steps=50))
    assert orbit.status is OrbitStatus.CONVERGED
    assert orbit.step <= 6
    oracle = float(mpmath.mpf(2) ** mpmath.mpf("0.5"))
    assert abs(orbit.value - oracle) <= 1e-12


def test_orbit_pole_hit():
    orbit = iterate_orbit(NO_REAL_ROOT, 1.0, IterationPolicy(max_steps=50))
    assert orbit.status is OrbitStatus.POLE_HIT
    assert orbit.step == 1
    assert orbit.iterates == (1.0, 0.0)


def test_orbit_two_cycle_breaks_before_100_steps():
    x0 = 1.0 / math.sqrt(3.0)
    orbit = iterate_orbit(NO_REAL_ROOT, x0, IterationPolicy(max_steps=100))
    assert orbit.status is OrbitStatus.RUNNING
    deviations = [min(abs(x - x0), abs(x + x0)) for x in orbit.iterates]
    assert max(deviations) > 0.1


def test_orbit_overflow():
    # x^2 - 2 with a huge start: first step squares past the overflow bound
    orbit = iterate_orbit(SQRT2_MINUS_2, 1e200, IterationPolicy(max_steps=10))
    assert orbit.status is OrbitStatus.OVERFLOWED
    assert orbit.iterates == (1e200,)
    assert orbit.step == 0


def test_orbit_records_every_step():
    orbit = iterate_orbit(SQRT2_MINUS_2, 1.7, IterationPolicy(max_steps=30))
    assert orbit.iterates[0] == 1.7
    for prev, nxt in zip(orbit.iterates, orbit.iterates[1:]):
        assert newton_step(SQRT2_MINUS_2, prev) == nxt


def test_orbit_deterministic():
    a = iterate_orbit(NO_REAL_ROOT, 0.7, IterationPolicy(max_steps=500))
    b = iterate_orbit(NO_REAL_ROOT, 0.7, IterationPolicy(max_steps=500))
    assert a.iterates == b.iterates


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
        x = NO_REAL_ROOT.step(x)
    assert abs(total / steps - math.log(2.0)) <= 1e-3


def test_policy_validation():
    with pytest.raises(ValueError):
        IterationPolicy(max_steps=0)
    with pytest.raises(ValueError):
        IterationPolicy(convergence_tol=0.0)
