"""Newton-Raphson map on the real line: polynomial problems and orbit generation.

The map x -> x - f(x)/f'(x) is treated as a dynamical system, not a root
finder: poles and divergence are first-class outcomes, and orbits are fully
recorded so downstream histogramming stays exactly reproducible.
"""

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

# |f'(x)| at or below this is a pole of the map: the orbit kernel stops
# there, newton_step raises DerivativeZero and step_array returns NaN.
POLE_EPSILON = 1e-300
# An iterate beyond this magnitude counts as an overflow.
OVERFLOW_BOUND = 1e300
# The largest degree a PolynomialProblem takes.  Its orbit kernel writes
# Horner's scheme as one expression nested degree deep, and Python's
# parser allows fewer than 200 nested parentheses.
MAX_DEGREE = 100
# iterate_orbit runs the kernel over chunks of this many steps and tests
# each chunk for convergence at once.
_ORBIT_CHUNK = 4096


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


# The orbit loop of ``_kernel``.  Its coefficients and bounds are closure
# cells, cheaper than globals; n<i> and d<i> are the coefficients of x^i in
# the Newton numerator and in f'.
_ADVANCE_TEMPLATE = """\
def make(pe, bound, neg_pe, neg_bound, {cells}):
    def advance(x, j, k, buf):
        for j in range(j, k):
            fpx = {fpx}
            if neg_pe <= fpx <= pe:
                return x, j
            y = ({numerator}) / fpx
            if not neg_bound <= y <= bound:
                return x, j
            buf[j] = x = y
        return x, k
    return advance
"""


def _horner_source(name: str, degree: int, leading: str) -> str:
    """Horner's scheme from ``leading`` over name<degree - 1> .. name0, as one expression."""
    return "(" * degree + leading + "".join(f") * x + {name}{i}" for i in range(degree - 1, -1, -1))


@functools.cache
def _kernel_factory(degree: int) -> Callable:
    """``make(pe, bound, neg_pe, neg_bound, *ns, *ds)``, which returns ``_kernel``'s loop."""
    cells = [f"n{i}" for i in range(degree, -1, -1)] + [f"d{i}" for i in range(degree - 1, -1, -1)]
    source = _ADVANCE_TEMPLATE.format(
        cells=", ".join(cells),
        fpx=_horner_source("d", degree - 1, f"d{degree - 1}"),
        # degree 1's leading numerator coefficient is 0 * c1 = +-0.0, and
        # 0.0 * x decides the sign of a zero result
        numerator=_horner_source("n", degree, "0.0 * x + n1" if degree == 1 else f"n{degree}"),
    )
    namespace = {}
    exec(compile(source, f"<nrq kernel, degree {degree}>", "exec"), namespace)
    return namespace["make"]


def _kernel(ns: tuple, ds: tuple) -> Callable:
    """The fused orbit kernel ``advance(x, j, k, buf) -> (x, j)``.

    It applies the map (x*f'(x) - f(x)) / f'(x), over descending tuples,
    from ``x`` and writes the iterates to ``buf[j]`` .. ``buf[k - 1]``,
    where ``buf`` is any buffer of doubles (a ``memoryview`` cast to "d",
    say).  It returns the last iterate written and ``k``, or it stops early
    and returns the current iterate and the slot it did not fill: when the
    next step is a pole (|f'| <= POLE_EPSILON) or its value leaves
    [-OVERFLOW_BOUND, OVERFLOW_BOUND], NaN included.  The loop makes no
    Python call: it is compiled once per degree, with Horner's scheme
    written out from the leading coefficient over closure cells.  For
    finite x, 0.0 * x + c is c for every nonzero c, so that gives the same
    bits as ``_horner``, which starts from 0.0.
    """
    make = _kernel_factory(len(ds))
    return make(POLE_EPSILON, OVERFLOW_BOUND, -POLE_EPSILON, -OVERFLOW_BOUND, *ns, *ds)


@dataclass(frozen=True)
class PolynomialProblem:
    """Real polynomial f (ascending coefficients) and its Newton map.

    The derivative and the Newton numerator x*f'(x) - f(x) are computed
    symbolically at construction, and the map is built once from their
    descending tuples.  ``advance`` is the fused orbit kernel (see
    ``_kernel``): it runs the map over a buffer of doubles and stops before
    a pole or an overflow.  ``step_array`` applies the map to an array with
    ``_horner``, and ``newton_step`` to one float.  Both paths evaluate the
    single fraction (x*f'(x) - f(x)) / f'(x) with Horner's scheme, so they
    agree bit for bit; it reduces to the recursions the experiments are
    defined by, e.g. (x^2+2)/(2x) for x^2-2 and (x^2-1)/(2x) for x^2+1.
    """

    coefficients: tuple[float, ...]
    derivative: tuple[float, ...] = field(init=False)
    numerator: tuple[float, ...] = field(init=False)
    advance: Callable = field(init=False, repr=False, compare=False)
    _desc: tuple = field(init=False, repr=False, compare=False)

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
        desc = (numerator[::-1], derivative[::-1])
        object.__setattr__(self, "_desc", desc)
        object.__setattr__(self, "advance", _kernel(*desc))

    def __reduce__(self):
        # the kernel closure cannot be pickled; it is rebuilt from the coefficients
        return PolynomialProblem, (self.coefficients,)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def step_array(self, xs) -> np.ndarray:
        """The map applied to every element of ``xs``.

        NaN where |f'(x)| <= POLE_EPSILON (where ``newton_step`` raises
        DerivativeZero) and where the result is not finite.
        """
        ns, ds = self._desc
        xs = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            fpx = _horner(ds, xs)
            y = _horner(ns, xs) / fpx
        return np.where(np.isfinite(y) & (np.abs(fpx) > POLE_EPSILON), y, np.nan)


def newton_step(problem: PolynomialProblem, x: float) -> float:
    """One application of the map, as ``step_array`` computes it on arrays.

    Raises DerivativeZero at a pole (|f'(x)| <= POLE_EPSILON).
    """
    ns, ds = problem._desc
    fpx = _horner(ds, x)
    if -POLE_EPSILON <= fpx <= POLE_EPSILON:
        raise DerivativeZero(x, fpx)
    return _horner(ns, x) / fpx


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
    """Iterate the map from x0 until convergence, pole, overflow, or max_steps.

    Convergence is the overlap test |x_{n+1} - x_n| <= tol*(1 + |x_n|).  The
    orbit runs on ``problem.advance`` over chunks of ``_ORBIT_CHUNK`` steps
    in one buffer whose slot 0 holds the previous iterate, and each chunk is
    tested for convergence at once.  Where the kernel stops early, f' at
    the last iterate tells a pole from an overflow.
    """
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    advance, tol = problem.advance, policy.convergence_tol
    raw = bytearray(8 * (min(_ORBIT_CHUNK, policy.max_steps) + 1))
    buf = memoryview(raw).cast("d")
    x = float(x0)
    xs = [x]
    while len(xs) <= policy.max_steps:
        k = min(_ORBIT_CHUNK, policy.max_steps + 1 - len(xs))
        buf[0] = x
        x, j = advance(x, 1, k + 1, buf)
        chunk = np.frombuffer(raw, count=j)
        prev = chunk[:-1]
        # a move or threshold past the largest double is inf, as in Python float arithmetic
        with np.errstate(over="ignore"):
            hits = np.flatnonzero(np.abs(chunk[1:] - prev) <= tol * (1.0 + np.abs(prev)))
        if hits.size:
            xs += chunk[1 : hits[0] + 2].tolist()
            return Orbit(x0, tuple(xs), OrbitStatus.CONVERGED, step=len(xs) - 1, value=xs[-1])
        xs += chunk[1:].tolist()
        if j <= k:
            fpx = _horner(problem._desc[1], x)
            pole = -POLE_EPSILON <= fpx <= POLE_EPSILON
            status = OrbitStatus.POLE_HIT if pole else OrbitStatus.OVERFLOWED
            return Orbit(x0, tuple(xs), status, step=len(xs) - 1)
    return Orbit(x0, tuple(xs), OrbitStatus.RUNNING)
