"""Newton-Raphson map on the real line: polynomial problems and orbit generation.

The map x -> x - f(x)/f'(x) is treated as a dynamical system, not a root
finder: poles and divergence are first-class outcomes, and orbits are fully
recorded so downstream histogramming stays exactly reproducible.
"""

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

# |f'(x)| at or below this is a pole of the map: the orbit kernel stops
# there, the scalar step raises DerivativeZero and the array step returns NaN.
POLE_EPSILON = 1e-300
# An iterate beyond this magnitude counts as an overflow.
OVERFLOW_BOUND = 1e300


class DerivativeZero(ZeroDivisionError):
    """Raised when the map is evaluated at a pole (|f'(x)| <= POLE_EPSILON)."""

    def __init__(self, x: float, fprime: float):
        super().__init__(f"f'({x!r}) = {fprime!r} is below the pole threshold")
        self.x = x
        self.fprime = fprime


def _horner(coeffs_desc: tuple, x):
    """Horner's scheme from 0.0; ``x`` may be a float or a numpy array."""
    acc = 0.0
    for c in coeffs_desc:
        acc = acc * x + c
    return acc


def _kernel(ns: tuple, ds: tuple) -> Callable:
    """The fused orbit kernel ``advance(x, j, k, buf) -> (x, j)``.

    It applies the map (x*f'(x) - f(x)) / f'(x), over descending tuples,
    from ``x`` and writes the iterates to ``buf[j]`` .. ``buf[k - 1]``,
    where ``buf`` is any buffer of doubles (a ``memoryview`` cast to "d",
    say).  It returns the last iterate written and ``k``, or it stops early
    and returns the current iterate and the slot it did not fill: when the
    next step is a pole (|f'| <= POLE_EPSILON) or its value leaves
    [-OVERFLOW_BOUND, OVERFLOW_BOUND], NaN included.  The loop makes no
    Python call.  Degrees 2 and 4 (the x^2+c and two-well experiments) are
    unrolled; their leading coefficients are nonzero, so for finite x
    starting Horner's scheme there instead of at 0.0, as every other degree
    does, gives the same bits as ``_horner``.
    """
    # closure cells, cheaper than globals; the negated bounds are not
    # recomputed on every iterate
    pe, bound, neg_pe, neg_bound = POLE_EPSILON, OVERFLOW_BOUND, -POLE_EPSILON, -OVERFLOW_BOUND
    degree = len(ds)
    if degree == 2:
        n2, n1, n0 = ns
        b1, b0 = ds

        def advance(x, j, k, buf):
            for j in range(j, k):
                fpx = b1 * x + b0
                if neg_pe <= fpx <= pe:
                    return x, j
                y = ((n2 * x + n1) * x + n0) / fpx
                if not neg_bound <= y <= bound:
                    return x, j
                buf[j] = x = y
            return x, k

    elif degree == 4:
        n4, n3, n2, n1, n0 = ns
        b3, b2, b1, b0 = ds

        def advance(x, j, k, buf):
            for j in range(j, k):
                fpx = ((b3 * x + b2) * x + b1) * x + b0
                if neg_pe <= fpx <= pe:
                    return x, j
                y = ((((n4 * x + n3) * x + n2) * x + n1) * x + n0) / fpx
                if not neg_bound <= y <= bound:
                    return x, j
                buf[j] = x = y
            return x, k

    else:

        def advance(x, j, k, buf):
            for j in range(j, k):
                fpx = 0.0
                for c in ds:
                    fpx = fpx * x + c
                if neg_pe <= fpx <= pe:
                    return x, j
                y = 0.0
                for c in ns:
                    y = y * x + c
                y /= fpx
                if not neg_bound <= y <= bound:
                    return x, j
                buf[j] = x = y
            return x, k

    return advance


def _derived_step(advance: Callable, ns: tuple, ds: tuple) -> Callable[[float], float]:
    """One step of ``advance`` as a scalar map.

    The step goes through a 1-slot buffer.  Where the kernel stops, f' is
    recomputed with ``_horner``, which for finite x gives the kernel's bits:
    a pole raises DerivativeZero, and otherwise the value that left the
    overflow window, NaN included, is returned.
    """
    slot = memoryview(bytearray(8)).cast("d")

    def step(x: float) -> float:
        y, j = advance(x, 0, 1, slot)
        if j:
            return y
        fpx = _horner(ds, x)
        if -POLE_EPSILON <= fpx <= POLE_EPSILON:
            raise DerivativeZero(x, fpx)
        return _horner(ns, x) / fpx

    return step


@dataclass(frozen=True)
class PolynomialProblem:
    """Real polynomial f (ascending coefficients) and its Newton map.

    The derivative and the Newton numerator x*f'(x) - f(x) are computed
    symbolically at construction, and the map is built once from their
    descending tuples.  ``advance`` is the fused orbit kernel (see
    ``_kernel``): it runs the map over a buffer of doubles and stops before
    a pole or an overflow.  ``step`` is one step of ``advance``, raising
    DerivativeZero at a pole, and ``step_array`` is the array entry.  All
    three evaluate the single fraction (x*f'(x) - f(x)) / f'(x) with
    Horner's scheme, so they agree bit for bit; it reduces to the
    recursions the experiments are defined by, e.g. (x^2+2)/(2x) for x^2-2
    and (x^2-1)/(2x) for x^2+1.
    """

    coefficients: tuple[float, ...]
    derivative: tuple[float, ...] = field(init=False)
    numerator: tuple[float, ...] = field(init=False)
    advance: Callable = field(init=False, repr=False, compare=False)
    step: Callable[[float], float] = field(init=False, repr=False, compare=False)
    _desc: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, coefficients):
        coeffs = tuple(float(c) for c in coefficients)
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        derivative = tuple(i * c for i, c in enumerate(coeffs) if i > 0)
        numerator = tuple((i - 1) * c for i, c in enumerate(coeffs))
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "derivative", derivative)
        object.__setattr__(self, "numerator", numerator)
        desc = (numerator[::-1], derivative[::-1])
        advance = _kernel(*desc)
        object.__setattr__(self, "_desc", desc)
        object.__setattr__(self, "advance", advance)
        object.__setattr__(self, "step", _derived_step(advance, *desc))

    def __reduce__(self):
        # the kernel and step closures cannot be pickled; they are rebuilt from the coefficients
        return PolynomialProblem, (self.coefficients,)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def step_array(self, xs) -> np.ndarray:
        """The map applied to every element of ``xs``.

        NaN where |f'(x)| <= POLE_EPSILON (where ``step`` raises
        DerivativeZero) and where the result is not finite.
        """
        ns, ds = self._desc
        xs = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            fpx = _horner(ds, xs)
            y = _horner(ns, xs) / fpx
        return np.where(np.isfinite(y) & (np.abs(fpx) > POLE_EPSILON), y, np.nan)


def newton_step(problem: PolynomialProblem, x: float) -> float:
    """One application of the map x - f(x)/f'(x): ``problem.step(x)``."""
    return problem.step(x)


def overlap_converged(prev: float, next_value: float, tol: float) -> bool:
    """Mixed absolute/relative stopping test |next - prev| <= tol*(1+|prev|)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return abs(next_value - prev) <= tol * (1.0 + abs(prev))


@dataclass(frozen=True)
class IterationPolicy:
    """Bounds governing orbit generation."""

    max_steps: int = 100
    convergence_tol: float = 1e-12

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be strictly positive")


class OrbitStatus(enum.Enum):
    RUNNING = "running"
    CONVERGED = "converged"
    POLE_HIT = "pole_hit"
    OVERFLOWED = "overflowed"


@dataclass(frozen=True)
class Orbit:
    """A recorded forward orbit.

    ``iterates[0]`` is the start.  For CONVERGED, ``step`` indexes the
    iterate at which the overlap criterion first held and ``value`` is that
    iterate.  For POLE_HIT / OVERFLOWED, ``step`` indexes the last recorded
    iterate (the one whose successor could not be represented).
    """

    start: float
    iterates: tuple[float, ...]
    status: OrbitStatus
    step: int | None = None
    value: float | None = None


def iterate_orbit(problem: PolynomialProblem, x0: float, policy: IterationPolicy) -> Orbit:
    """Iterate the map from x0 until convergence, pole, overflow, or max_steps."""
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    step = problem.step
    bound = OVERFLOW_BOUND
    tol = policy.convergence_tol
    xs = [float(x0)]
    x = xs[0]
    for i in range(1, policy.max_steps + 1):
        try:
            y = step(x)
        except DerivativeZero:
            return Orbit(x0, tuple(xs), OrbitStatus.POLE_HIT, step=i - 1)
        if not (-bound <= y <= bound):  # also catches NaN
            return Orbit(x0, tuple(xs), OrbitStatus.OVERFLOWED, step=i - 1)
        xs.append(y)
        if overlap_converged(x, y, tol):
            return Orbit(x0, tuple(xs), OrbitStatus.CONVERGED, step=i, value=y)
        x = y
    return Orbit(x0, tuple(xs), OrbitStatus.RUNNING)

