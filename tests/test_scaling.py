"""Exact scaling symmetries of the map, checked on whole runs, bit for bit.

g(x) = f(x/2^j) has coefficients a_i*2^(-ij), exact in binary, so every
Horner intermediate of g's numerator and g' is a power of two times f's, and
O_g(2^j*y) = 2^j*O_f(y) to the bit.  A uniform draw on 2^j*[lo, hi] is 2^j
times the draw on [lo, hi], and the bin index (x - lo)/(hi - lo)*bins does not
change.  2^m*f has f's map, bit for bit, since its numerator and derivative
both scale by 2^m.  Both hold while every value stays in the normal range and
no absolute threshold bites: POLE_EPSILON, OVERFLOW_BOUND, the overlap test
tol*(1 + |x|), or the cycle scan's tolerances.
"""

from fractions import Fraction

import numpy as np
import pytest

from nrq import (
    IterationPolicy,
    PolynomialProblem,
    accumulate_density,
    find_cycles,
    interference_polynomial,
    iterate_orbit,
)

POLYNOMIALS = {
    "x^2+1": PolynomialProblem((1.0, 0.0, 1.0)),
    "quartic": interference_polynomial(0.01),
    "x^3-x+0.5": PolynomialProblem((0.5, -1.0, 0.0, 1.0)),
}


def _x_scaled(problem, j):
    """f(x/2^j), its coefficients formed exactly from Fractions."""
    return PolynomialProblem([Fraction(c) * Fraction(2) ** (-i * j) for i, c in enumerate(problem.coefficients)])


def _scaled(problem, m):
    """2^m*f."""
    return PolynomialProblem([Fraction(c) * Fraction(2) ** m for c in problem.coefficients])


def _density_bits(density):
    return density.counts.tobytes(), density.below_count, density.above_count, density.restarts


def _orbit_bits(orbit):
    return orbit.iterates.tobytes(), orbit.status, orbit.step


@pytest.mark.parametrize("j", [-30, -3, 3, 30])
@pytest.mark.parametrize("name", POLYNOMIALS)
def test_density_commutes_with_x_scaling(name, j):
    f = POLYNOMIALS[name]
    expected = accumulate_density(f, None, 0, 201000, -2.0, 5.0, 200, seed=3)
    scale = 2.0**j
    scaled = accumulate_density(_x_scaled(f, j), None, 0, 201000, scale * -2.0, scale * 5.0, 200, seed=3)
    assert _density_bits(scaled) == _density_bits(expected)


@pytest.mark.parametrize("m", [-40, 40])
@pytest.mark.parametrize("name", POLYNOMIALS)
def test_f_times_a_power_of_two_keeps_the_map(name, m):
    # at m = 900 values leave the normal range and two cycle scans differ
    f, g = POLYNOMIALS[name], _scaled(POLYNOMIALS[name], m)
    density = [accumulate_density(p, None, 0, 201000, -2.0, 5.0, 200, seed=3) for p in (f, g)]
    assert _density_bits(density[1]) == _density_bits(density[0])
    policy = IterationPolicy(max_steps=5000)
    assert _orbit_bits(iterate_orbit(g, 0.7, policy)) == _orbit_bits(iterate_orbit(f, 0.7, policy))
    scan = find_cycles(f, 5, -3.0, 3.0, 1000)
    assert scan.cycles and find_cycles(g, 5, -3.0, 3.0, 1000) == scan


@pytest.mark.parametrize("j", [-30, -3, 3, 30])
@pytest.mark.parametrize("name", ["x^2+1", "quartic"])
def test_orbit_commutes_with_x_scaling(name, j):
    # both maps have no real root, so their orbits never converge.  x^3-x+0.5
    # converges, and its orbit differs at j = -3 and -30: the overlap test
    # tol*(1 + |x|) is not scale-free, which is the documented criterion
    f = POLYNOMIALS[name]
    policy = IterationPolicy(max_steps=5000)
    orbit = iterate_orbit(f, 0.7, policy)
    scaled = iterate_orbit(_x_scaled(f, j), 2.0**j * 0.7, policy)
    assert orbit.status is scaled.status and orbit.step == scaled.step
    assert scaled.iterates.tobytes() == (2.0**j * orbit.iterates).tobytes()
    assert len(orbit.iterates) == 5001
