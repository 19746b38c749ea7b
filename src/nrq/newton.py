"""Newton-Raphson map on the real line: polynomial problems and orbit generation.

The map x -> x - f(x)/f'(x) is treated as a dynamical system, not a root
finder: poles and divergence are first-class outcomes, and orbits are fully
recorded so downstream histogramming stays exactly reproducible.
"""

import enum
import functools
import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

# |f'(x)| at or below this is a pole of the map: iterate_orbit stops
# there, newton_step raises DerivativeZero, step_array returns NaN and
# step_rows flags a stop.
POLE_EPSILON = 1e-300
# An iterate beyond this magnitude counts as an overflow.
OVERFLOW_BOUND = 1e300
# The largest degree a PolynomialProblem takes.  Its generated map writes
# Horner's scheme as one expression nested degree deep, and Python's
# parser allows fewer than 200 nested parentheses.
MAX_DEGREE = 100


class DerivativeZero(ZeroDivisionError):
    """Raised when the map is evaluated at a pole (|f'(x)| <= POLE_EPSILON)."""

    def __init__(self, x: float, fprime: float):
        super().__init__(f"f'({x!r}) = {fprime!r} is below the pole threshold")
        self.x = x
        self.fprime = fprime


# The map's source.  Its coefficients are closure cells, cheaper than
# globals; n<i> and d<i> are the coefficients of x^i in the Newton numerator
# and in f'.
_MAP_TEMPLATE = """\
def make({cells}):
    def fprime(x):
        return {fpx}
    def numerator(x):
        return {numerator}
    return fprime, numerator
"""


def _horner_source(name: str, coefficients: tuple[float, ...], lead: str) -> str:
    """Horner's scheme over the descending ``coefficients``, as one expression.

    The coefficient of x^i is named name<i>.  ``lead`` (empty, or "0.0 * x")
    is the value the scheme starts from.  Only terms whose removal is an
    exact identity are left out: a leading 1.0 is not multiplied, an added
    -0.0 is dropped, and an added +0.0 is dropped when a lower-order
    coefficient is nonzero (adding +0.0 only turns a -0.0 into +0.0, and
    adding that nonzero coefficient later erases the difference).
    """
    degree = len(coefficients) - 1
    expr, summed = lead, False
    for k, c in enumerate(coefficients):
        i = degree - k
        if k:
            if expr == f"{name}{degree}" and coefficients[0] == 1.0:
                expr = "x"
            else:
                expr = f"({expr}) * x" if summed else f"{expr} * x"
            summed = False
        if expr and c == 0.0 and (math.copysign(1.0, c) < 0.0 or any(coefficients[k + 1 :])):
            continue
        expr, summed = (f"{expr} + {name}{i}", True) if expr else (f"{name}{i}", False)
    return expr


# Distinct sources are few in practice (one per degree and pattern of unit
# and zero coefficients), but each is a few kilobytes at degree 100.
@functools.lru_cache(maxsize=256)
def _compile(source: str, degree: int) -> Callable:
    namespace = {}
    exec(compile(source, f"<nrq kernel, degree {degree}>", "exec"), namespace)
    return namespace["make"]


def _kernel(numerator: tuple[float, ...], derivative: tuple[float, ...]) -> Callable:
    """The map's one definition: ``make(*ns, *ds) -> (fprime, numerator)``.

    Over the descending tuples of coefficients, ``fprime(x)`` is f'(x) and
    ``numerator(x)`` is x*f'(x) - f(x), on a float or a numpy array, each
    Horner's scheme written out as one expression from the leading
    coefficient; the map is numerator(x) / fprime(x).  The source depends
    on which coefficients are 1.0 or zero, so it fixes which operations the
    two expressions make; it is compiled once per text, which is the cache
    key: coefficient tuples would not do, as 0.0 == -0.0.
    """
    degree = len(derivative)
    cells = [f"n{i}" for i in range(degree, -1, -1)] + [f"d{i}" for i in range(degree - 1, -1, -1)]
    # at degree 1, f' is the constant d0 and the numerator's leading
    # coefficient is 0 * c1 = +-0.0: a leading 0.0 * x makes f' of an array
    # an array, and decides the sign of a zero numerator
    lead = "0.0 * x" if degree == 1 else ""
    source = _MAP_TEMPLATE.format(
        cells=", ".join(cells),
        fpx=_horner_source("d", derivative, lead),
        numerator=_horner_source("n", numerator, lead),
    )
    return _compile(source, degree)


@dataclass(frozen=True)
class PolynomialProblem:
    """Real polynomial f (ascending coefficients) and its Newton map.

    The derivative and the Newton numerator x*f'(x) - f(x) are computed
    symbolically at construction, and the map is built once from their
    descending tuples by ``_kernel``, the map's one definition, which
    leaves out the terms that cannot change a bit (a factor 1.0, an added
    zero).  ``step_array`` applies the map, or its ``times``-th power, to an
    array, ``step_rows`` writes its powers row by row, and ``newton_step``
    and ``iterate_orbit`` apply it to floats, all through the generated
    f'(x) and numerator(x), so every entry evaluates the single fraction
    (x*f'(x) - f(x)) / f'(x) from the same source and they agree bit for
    bit; it reduces to the recursions the experiments are defined by, e.g.
    (x^2+2)/(2x) for x^2-2 and (x^2-1)/(2x) for x^2+1.
    """

    coefficients: tuple[float, ...]
    derivative: tuple[float, ...] = field(init=False)
    numerator: tuple[float, ...] = field(init=False)
    _fprime: Callable = field(init=False, repr=False, compare=False)
    _numer: Callable = field(init=False, repr=False, compare=False)

    def __init__(self, coefficients):
        coeffs = tuple(float(c) for c in coefficients)
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree >= 1")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds the cap of {MAX_DEGREE}")
        if coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        derivative = tuple(i * c for i, c in enumerate(coeffs) if i > 0)
        numerator = tuple((i - 1) * c for i, c in enumerate(coeffs))
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "derivative", derivative)
        object.__setattr__(self, "numerator", numerator)
        ns, ds = numerator[::-1], derivative[::-1]
        fprime, numer = _kernel(ns, ds)(*ns, *ds)
        object.__setattr__(self, "_fprime", fprime)
        object.__setattr__(self, "_numer", numer)

    def __reduce__(self):
        # the generated closures cannot be pickled; they are rebuilt from the coefficients
        return PolynomialProblem, (self.coefficients,)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def step_array(self, xs, times: int = 1) -> np.ndarray:
        """The map applied ``times`` times to every element of ``xs``.

        NaN where some step meets |f'(x)| <= POLE_EPSILON (where
        ``newton_step`` raises DerivativeZero) and where the result is not
        finite; the bits equal those of ``times`` calls of one step.  A
        value that overflows to +-inf is not masked between steps: the next
        step makes it +-inf / +-inf = NaN (at degree 1, 0.0 * inf = NaN).
        """
        if times < 1:
            raise ValueError("times must be >= 1")
        y = np.asarray(xs, dtype=float)
        if y.ndim == 0:
            # a ufunc returns a 0-d result as a scalar, which cannot be masked
            return self.step_array(y.reshape(1), times).reshape(())
        fprime, numer = self._fprime, self._numer
        with np.errstate(all="ignore"):
            for _ in range(times):
                fpx = fprime(y)
                y = numer(y) / fpx
                y[np.abs(fpx) <= POLE_EPSILON] = np.nan
            # every non-finite value, an arithmetic NaN of either sign too
            y[~np.isfinite(y)] = np.nan
        return y

    def step_rows(self, xs, rows: np.ndarray) -> np.ndarray:
        """Write the map's (i + 1)-th power of ``xs`` into ``rows[i]``, masking
        nothing, and return where each step stopped.

        The stop flags have the shape of ``rows``: True where that step met
        |f'(x)| <= POLE_EPSILON or its value is not within [-OVERFLOW_BOUND,
        OVERFLOW_BOUND], NaN included, which is ``iterate_orbit``'s stop rule.
        Up to an element's first stop its rows equal ``step_array``'s bits;
        past it they are whatever the arithmetic gives.
        """
        fprime, numer = self._fprime, self._numer
        stop = np.empty(rows.shape, dtype=bool)
        with np.errstate(all="ignore"):
            x = xs
            for row, pole in zip(rows, stop):
                fpx = fprime(x)
                np.less_equal(np.abs(fpx), POLE_EPSILON, out=pole)
                np.divide(numer(x), fpx, out=row)
                x = row
            stop |= ~(np.abs(rows) <= OVERFLOW_BOUND)
        return stop


def newton_step(problem: PolynomialProblem, x: float) -> float:
    """One application of the map to a float: the generated numerator(x) /
    f'(x) that ``step_array`` computes on arrays.

    Raises DerivativeZero at a pole (|f'(x)| <= POLE_EPSILON).
    """
    fpx = problem._fprime(x)
    if -POLE_EPSILON <= fpx <= POLE_EPSILON:
        raise DerivativeZero(x, fpx)
    return problem._numer(x) / fpx


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


@dataclass(frozen=True, eq=False)
class Orbit:
    """A recorded forward orbit, compared by identity.

    ``iterates`` is a read-only float64 view of the array given, which stays
    writeable; slot 0 is the start.  For CONVERGED, ``step`` indexes the
    iterate at which the overlap criterion first held, the orbit's value.
    For POLE_HIT / OVERFLOWED, ``step`` indexes the last recorded iterate
    (the one whose successor could not be represented).
    """

    iterates: np.ndarray
    status: OrbitStatus
    step: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "iterates", np.asarray(self.iterates, dtype=np.float64).view())
        self.iterates.flags.writeable = False


def iterate_orbit(problem: PolynomialProblem, x0: float, policy: IterationPolicy) -> Orbit:
    """Iterate the map from x0 until convergence, pole, overflow, or max_steps.

    Each step is ``newton_step``'s: it is refused at a pole (|f'(x)| <=
    POLE_EPSILON) and where its value leaves [-OVERFLOW_BOUND,
    OVERFLOW_BOUND], NaN included.  Convergence is the overlap test
    |x_{n+1} - x_n| <= tol*(1 + |x_n|), on each step taken.  The iterates
    are appended to one ``array('d')``, which the orbit views without a copy.
    """
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    fprime, numer, tol = problem._fprime, problem._numer, policy.convergence_tol
    x = float(x0)
    xs = array("d", [x])
    for _ in range(policy.max_steps):
        fpx = fprime(x)
        if -POLE_EPSILON <= fpx <= POLE_EPSILON:
            return Orbit(np.frombuffer(xs), OrbitStatus.POLE_HIT, step=len(xs) - 1)
        y = numer(x) / fpx
        if not -OVERFLOW_BOUND <= y <= OVERFLOW_BOUND:
            return Orbit(np.frombuffer(xs), OrbitStatus.OVERFLOWED, step=len(xs) - 1)
        xs.append(y)
        if abs(y - x) <= tol * (1.0 + abs(x)):
            return Orbit(np.frombuffer(xs), OrbitStatus.CONVERGED, step=len(xs) - 1)
        x = y
    return Orbit(np.frombuffer(xs), OrbitStatus.RUNNING)
