"""Operators on periodic grids: shift, frequency, wave-vector, tight binding.

Operators act on an N-point cyclic grid in one of two forms.  Shift,
frequency, wave-vector and constant-onsite tight-binding operators are
circulant, so the DFT diagonalizes them exactly: they are held as their
eigenvalue vector in DFT-mode order (mode m is ``fourier_eigenstate(grid,
m)``), applied as ``ifft(spectrum * fft(psi))`` in O(N log N), evolved by
phasing that spectrum and diagonalized analytically.  Position, callable
onsite terms, projectors and commutators are dense matrices.  Either form
exposes ``.matrix``; a circulant builds it on first access by applying
itself to the identity's columns.
"""

import math
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    pass


class NonHermitianInput(ValueError):
    pass


class HoppingRangeTooLarge(ValueError):
    pass


class BadRepresentation(ValueError):
    pass


MAX_DENSE_N = 4096
# ops_check materializes about eight N x N complex matrices (the five
# operators, T^dagger T, the DFT matrix and its image): at N = 1024 that is
# about 134 MB, and at MAX_DENSE_N it would be about 2.1 GB.
MAX_OPS_CHECK_N = 1024

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-10


@dataclass(frozen=True)
class NaturalUnits:
    """Unit system; defaults make energy identical to frequency."""

    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and self.c > 0):
            raise ValueError("all unit scales must be positive")


@dataclass(frozen=True)
class Grid:
    """Periodic grid of n_points sites with uniform spacing (dt or dx)."""

    n_points: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        if self.n_points > MAX_DENSE_N:
            raise ValueError(f"n_points capped at {MAX_DENSE_N} for dense algebra")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        # positions reach the extent and wavevectors reach pi / spacing
        if not (math.isfinite(self.extent) and math.isfinite(2.0 * math.pi / self.spacing)):
            raise ValueError(f"{self.n_points} sites of spacing {self.spacing} overflow the grid arithmetic")

    @property
    def extent(self) -> float:
        return self.n_points * self.spacing

    def positions(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing


class StateVector:
    """Normalized complex amplitude vector on a periodic grid."""

    def __init__(self, amplitudes, normalize: bool = True):
        a = np.asarray(amplitudes, dtype=complex)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("amplitudes must be a 1-D vector of length >= 2")
        nrm = np.linalg.norm(a)
        if normalize:
            if nrm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            a = a / nrm
        elif abs(nrm * nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(nrm*nrm-1.0):.3e}")
        self.amplitudes = a

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch("state dimensions differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


class LinearOp:
    """Complex square operator with lazily verified structure metadata.

    Built from a dense ``matrix``, or from the ``spectrum`` of a circulant:
    its eigenvalues in DFT-mode order, applied through the FFT.  The
    residuals are measured on ``.matrix``, which a circulant materializes
    on first access by applying itself to every basis vector.
    """

    def __init__(self, matrix=None, *, spectrum=None):
        if (matrix is None) == (spectrum is None):
            raise ValueError("give exactly one of matrix and spectrum")
        self.spectrum = None
        self._matrix = None
        if spectrum is not None:
            s = np.asarray(spectrum, dtype=complex)
            if s.ndim != 1 or s.size < 1:
                raise ValueError("spectrum must be a non-empty 1-D vector")
            self.spectrum = s
        else:
            m = np.asarray(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("matrix must be square")
            self._matrix = m
        self._eig = None

    @property
    def n(self) -> int:
        return self.spectrum.size if self.spectrum is not None else self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._apply(np.eye(self.n, dtype=complex))
        return self._matrix

    def _apply(self, a: np.ndarray) -> np.ndarray:
        """The operator applied to a vector, or to each column of a matrix."""
        if self.spectrum is None:
            return self._matrix @ a
        s = self.spectrum if a.ndim == 1 else self.spectrum[:, None]
        return np.fft.ifft(s * np.fft.fft(a, axis=0), axis=0)

    def _real_spectrum(self) -> np.ndarray:
        """A circulant is Hermitian exactly when its eigenvalues are real."""
        worst = float(np.abs(self.spectrum.imag).max())
        if not worst <= HERMITIAN_TOL:  # NaN fails too
            raise NonHermitianInput(
                f"spectrum imaginary part {worst:.3e} exceeds {HERMITIAN_TOL}"
            )
        return self.spectrum.real

    def hermiticity_residual(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def unitarity_residual(self) -> float:
        a = self.matrix.conj().T @ self.matrix
        return float(np.abs(a - np.eye(self.n)).max())

    def _require_hermitian(self):
        """The one Hermiticity rule: a real spectrum for a circulant, a
        small matrix residual for a dense operator."""
        if self.spectrum is not None:
            self._real_spectrum()
            return
        residual = self.hermiticity_residual()
        if not residual <= HERMITIAN_TOL:  # NaN fails too
            raise NonHermitianInput(f"hermiticity residual {residual:.3e} exceeds {HERMITIAN_TOL}")

    def apply(self, state: StateVector) -> np.ndarray:
        if state.dim != self.n:
            raise DimensionMismatch("operator and state dimensions differ")
        return self._apply(state.amplitudes)

    def eigh(self):
        """Cached eigendecomposition (ascending eigenvalues, eigenvector
        columns); requires Hermiticity.  A circulant's is analytic: its
        sorted real spectrum with the matching DFT columns."""
        if self._eig is None:
            if self.spectrum is not None:
                w = self._real_spectrum()
                order = np.argsort(w, kind="stable")
                self._eig = (w[order], _dft_matrix(self.n)[:, order])
            else:
                self._require_hermitian()
                self._eig = np.linalg.eigh(self.matrix)
        return self._eig


def _check_same_dim(a: LinearOp, b: LinearOp):
    if a.n != b.n:
        raise DimensionMismatch("operator dimensions differ")


def _dft_matrix(n: int) -> np.ndarray:
    """Columns are the shift-operator eigenstates (DFT modes)."""
    idx = np.arange(n)
    roots = np.exp(2j * np.pi * idx / n) / math.sqrt(n)
    return roots[np.outer(idx, idx) % n]


def shift_operator(grid: Grid) -> LinearOp:
    """Cyclic permutation mapping basis site i to i+1 (mod N); mode m has
    eigenvalue exp(-2*pi*i*m/N)."""
    n = grid.n_points
    return LinearOp(spectrum=np.exp(-2j * np.pi * np.arange(n) / n))


def frequency_values(grid: Grid) -> np.ndarray:
    """Mode frequencies 2*pi*n/(N*dt) for n = 0..N-1."""
    n = grid.n_points
    return 2.0 * np.pi * np.arange(n) / (n * grid.spacing)


def wavevector_values(grid: Grid) -> np.ndarray:
    """Mode wave numbers 2*pi*j/L folded onto the symmetric branch (-pi/dx, pi/dx]."""
    n = grid.n_points
    j = np.arange(n)
    j = np.where(j <= n // 2, j, j - n)
    return 2.0 * np.pi * j / grid.extent


def fourier_eigenstate(grid: Grid, n: int) -> StateVector:
    """Shift eigenstate with amplitudes exp(i*w_n*t_l)/sqrt(N)."""
    if not 0 <= n < grid.n_points:
        raise IndexError(f"mode index {n} outside 0..{grid.n_points - 1}")
    w = frequency_values(grid)[n]
    amps = np.exp(1j * w * grid.positions()) / math.sqrt(grid.n_points)
    return StateVector(amps, normalize=False)


def frequency_operator(grid: Grid) -> LinearOp:
    """Spectral realization of i*d/dt: DFT modes with eigenvalues 2*pi*n/T."""
    return LinearOp(spectrum=frequency_values(grid))


def wavevector_operator(grid: Grid) -> LinearOp:
    """Spectral realization of -i*d/dx with symmetric-branch eigenvalues."""
    return LinearOp(spectrum=wavevector_values(grid))


def position_operator(grid: Grid) -> LinearOp:
    return LinearOp(np.diag(grid.positions().astype(complex)))


def expectation(op: LinearOp, state: StateVector) -> complex:
    """<psi|O|psi>; real up to rounding when the operator is Hermitian."""
    return complex(np.vdot(state.amplitudes, op.apply(state)))


def projector(onto: StateVector) -> LinearOp:
    """Rank-1 projector |psi><psi|."""
    a = onto.amplitudes
    return LinearOp(np.outer(a, a.conj()))


def born_probability(state: StateVector, outcome: StateVector) -> float:
    """|<outcome|state>|^2."""
    return abs(outcome.overlap(state)) ** 2


def commutator(a: LinearOp, b: LinearOp) -> LinearOp:
    _check_same_dim(a, b)
    return LinearOp(a.matrix @ b.matrix - b.matrix @ a.matrix)


def uncertainty_product(state: StateVector, a: LinearOp, b: LinearOp) -> float:
    """sigma_A * sigma_B with sigma^2 = <A^2> - <A>^2; Hermitian inputs only."""
    a._require_hermitian()
    b._require_hermitian()

    def sigma(op: LinearOp) -> float:
        v = op.apply(state)
        mean = float(np.vdot(state.amplitudes, v).real)
        var = float(np.vdot(v, v).real) - mean * mean
        return math.sqrt(max(var, 0.0))

    return sigma(a) * sigma(b)


def gaussian_packet(grid: Grid, center: float, sigma: float, carrier: float = 0.0) -> StateVector:
    """Normalized Gaussian wave packet exp(-(x-c)^2/(4 sigma^2) + i k0 x)."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    x = grid.positions()
    amps = np.exp(-((x - center) ** 2) / (4.0 * sigma * sigma) + 1j * carrier * x)
    return StateVector(amps)


def check_hopping_range(grid: Grid, hoppings):
    """Raise HoppingRangeTooLarge unless the range len(hoppings) is below
    n/2; from n/2 on, forward and backward hops alias each other."""
    n = grid.n_points
    if len(hoppings) >= n / 2:
        raise HoppingRangeTooLarge(f"hopping range {len(hoppings)} must be < n/2 = {n / 2}")


def tight_binding_band(k, dx: float, onsite: float, hoppings) -> np.ndarray:
    """Band eps - sum_r 2*(Re t_r cos(r k dx) + Im t_r sin(r k dx)): the
    eigenvalue of tight_binding_hamiltonian's plane wave of wave number k."""
    k = np.asarray(k, dtype=float)
    terms = (
        2.0 * (t.real * np.cos(r * k * dx) + t.imag * np.sin(r * k * dx))
        for r, t in enumerate((complex(t) for t in hoppings), start=1)
    )
    return onsite - sum(terms, np.zeros_like(k))


def tight_binding_hamiltonian(grid: Grid, onsite, hoppings) -> LinearOp:
    """Onsite terms plus ranged hoppings: column i carries -t_r at row i+r
    and -conj(t_r) at row i-r, so the operator is Hermitian.

    With constant onsite eps it is circulant, with spectrum
    ``tight_binding_band`` on the DFT wave numbers (eps - 2*t_1*cos(k*dx)
    for a single real t_1).  A callable onsite(x) adds a dense diagonal.
    """
    hoppings = [complex(t) for t in hoppings]
    check_hopping_range(grid, hoppings)
    k = wavevector_values(grid)
    if not callable(onsite):
        return LinearOp(spectrum=tight_binding_band(k, grid.spacing, float(onsite), hoppings))
    eps = np.array([float(onsite(x)) for x in grid.positions()])
    hop = LinearOp(spectrum=tight_binding_band(k, grid.spacing, 0.0, hoppings))
    return LinearOp(hop.matrix + np.diag(eps))


def evolve(
    state: StateVector, hamiltonian: LinearOp, time: float, units: NaturalUnits = NaturalUnits()
) -> StateVector:
    """Apply exp(-i*H*t/hbar): a circulant H phases its own spectrum and
    applies it through the FFT; a dense H goes through its cached
    eigendecomposition."""
    if state.dim != hamiltonian.n:
        raise DimensionMismatch("operator and state dimensions differ")
    tau = time / units.hbar
    if hamiltonian.spectrum is not None:
        propagator = LinearOp(spectrum=np.exp(-1j * hamiltonian._real_spectrum() * tau))
        return StateVector(propagator.apply(state), normalize=False)
    w, v = hamiltonian.eigh()
    out = v @ (np.exp(-1j * w * tau) * (v.conj().T @ state.amplitudes))
    return StateVector(out, normalize=False)


# ---------------------------------------------------------------------------
# relativistic checks


def klein_gordon_dispersion(k, mass: float, units: NaturalUnits = NaturalUnits()):
    """Positive branch omega = sqrt(c^2 k^2 + (m c^2 / hbar)^2)."""
    if mass < 0:
        raise ValueError("mass must be >= 0")
    k = np.asarray(k, dtype=float)
    rest = mass * units.c * units.c / units.hbar
    out = np.sqrt(units.c * units.c * k * k + rest * rest)
    return float(out) if out.ndim == 0 else out


def klein_gordon_plane_wave_residual(
    grid: Grid, mode: int, mass: float, units: NaturalUnits = NaturalUnits()
) -> float:
    """Residual of the discretized wave equation on a grid plane wave.

    Spatial derivatives are spectral (k^2 on the symmetric branch) and the
    second time derivative of exp(-i w t) is inserted analytically, so the
    residual is pure rounding when omega satisfies the dispersion relation.
    """
    if not 0 <= mode < grid.n_points:
        raise IndexError(f"mode index {mode} outside 0..{grid.n_points - 1}")
    k = wavevector_values(grid)[mode]
    w = klein_gordon_dispersion(k, mass, units)
    ksq = LinearOp(spectrum=wavevector_values(grid) ** 2)
    psi = fourier_eigenstate(grid, mode)
    c, hbar = units.c, units.hbar
    resid = ksq.apply(psi) - (w * w / (c * c)) * psi.amplitudes + (mass * c / hbar) ** 2 * psi.amplitudes
    return float(np.abs(resid).max())


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dirac_alpha_beta():
    """Standard Dirac-Pauli representation: alpha_i off-diagonal, beta diagonal."""
    zero = np.zeros((2, 2), dtype=complex)
    alphas = tuple(np.block([[zero, s], [s, zero]]) for s in _PAULI)
    beta = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    return alphas, beta


@dataclass(frozen=True)
class DiracReport:
    algebra_residuals: dict
    dispersion_eigenvalues: np.ndarray


def dirac_check(
    k,
    mass: float,
    units: NaturalUnits = NaturalUnits(),
    alphas=None,
    beta=None,
) -> DiracReport:
    """Verify the anticommutation algebra and diagonalize c*alpha.k + m c^2 beta.

    The eigenvalues come out as +/- sqrt(c^2 k^2 + m^2 c^4), each doubly
    degenerate, matching the squared (Klein-Gordon) dispersion.
    """
    if alphas is None and beta is None:
        alphas, beta = dirac_alpha_beta()
    elif alphas is None or beta is None:
        raise ValueError("supply both alphas and beta, or neither")
    alphas = [np.asarray(a, dtype=complex) for a in alphas]
    beta = np.asarray(beta, dtype=complex)
    if len(alphas) != 3 or any(a.shape != (4, 4) for a in alphas) or beta.shape != (4, 4):
        raise BadRepresentation("need three 4x4 alpha matrices and one 4x4 beta")
    eye = np.eye(4)
    mats = alphas + [beta]
    res = {
        "hermiticity": max(float(np.abs(m - m.conj().T).max()) for m in mats),
        "alpha_squares": max(float(np.abs(a @ a - eye).max()) for a in alphas),
        "beta_square": float(np.abs(beta @ beta - eye).max()),
        "alpha_anticommute": max(
            float(np.abs(alphas[i] @ alphas[j] + alphas[j] @ alphas[i]).max())
            for i in range(3)
            for j in range(i + 1, 3)
        ),
        "alpha_beta_anticommute": max(
            float(np.abs(a @ beta + beta @ a).max()) for a in alphas
        ),
    }
    worst = max(res.values())
    if worst > HERMITIAN_TOL:
        raise BadRepresentation(f"algebra residual {worst:.3e} exceeds {HERMITIAN_TOL}")
    kvec = np.asarray(k, dtype=float)
    if kvec.shape != (3,):
        raise ValueError("k must be a 3-vector")
    c = units.c
    h = c * sum(kv * a for kv, a in zip(kvec, alphas)) + mass * c * c * beta
    eigs = np.linalg.eigvalsh(h)
    return DiracReport(res, eigs)


# ---------------------------------------------------------------------------
# residual suite


def ops_check(
    n: int,
    spacing: float = 1.0,
    seed: int = 0,
    evolve_steps: int = 1000,
) -> dict:
    """Residual report for the operator stack on an n-point grid.

    Every residual measures the operators as the library applies them,
    over all n basis vectors: the structure residuals are taken on the
    materialized matrices, T^n is formed from the shift's spectrum and
    materialized, and T is applied to every DFT column.
    """
    if n > MAX_OPS_CHECK_N:
        raise ValueError(f"ops_check n is capped at {MAX_OPS_CHECK_N} to bound memory, got {n}")
    if evolve_steps < 1:
        raise ValueError(f"evolve_steps must be >= 1, got {evolve_steps}")
    grid = Grid(n, spacing)
    t = shift_operator(grid)
    f = _dft_matrix(n)
    lam = np.exp(-1j * frequency_values(grid) * grid.spacing)
    dft_residual = float(np.abs(t._apply(f) - f * lam[None, :]).max())
    power = LinearOp(spectrum=t.spectrum**n).matrix
    freq = frequency_operator(grid)
    wave = wavevector_operator(grid)
    # the hopping range must stay below n/2, so the 2-site ring is onsite-only
    tb = tight_binding_hamiltonian(grid, 2.0, [1.0] if n > 2 else [])

    rng = np.random.default_rng(seed)
    psi = StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))
    born_sum = sum(born_probability(psi, fourier_eigenstate(grid, m)) for m in range(n))

    state = psi
    drift = 0.0
    for _ in range(evolve_steps):
        state = evolve(state, freq, 0.05)
        drift = max(drift, abs(state.norm() ** 2 - 1.0))
    once = evolve(psi, freq, 0.35)
    twice = evolve(evolve(psi, freq, 0.2), freq, 0.15)
    composition = float(np.abs(once.amplitudes - twice.amplitudes).max())

    return {
        "n": n,
        "shift_unitarity": t.unitarity_residual(),
        "shift_power_identity": float(np.abs(power - np.eye(n)).max()),
        "dft_eigenpair": dft_residual,
        "frequency_hermiticity": freq.hermiticity_residual(),
        "wavevector_hermiticity": wave.hermiticity_residual(),
        "tight_binding_hermiticity": tb.hermiticity_residual(),
        "born_sum_deviation": abs(born_sum - 1.0),
        "evolve_norm_drift": drift,
        "evolve_composition": composition,
    }
