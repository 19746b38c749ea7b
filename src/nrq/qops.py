"""Operators on periodic grids: shift, frequency, wave-vector, position, tight binding.

Shift, frequency, wave-vector, position and constant-onsite tight-binding
operators are held as their eigenvalue vector.  All but position are
circulant, so the DFT diagonalizes them exactly: their eigenvalues are in
DFT-mode order (mode m is ``fourier_eigenstate(grid, m)``) and they are
applied as ``ifft(spectrum * fft(psi))`` in O(N log N).  Position is
diagonal on the sites, applied as ``spectrum * psi``.  Both kinds are
evolved by phasing the spectrum and diagonalized analytically.  Every DFT
mode is read from one table of the N roots of unity at an intp index
reduced without an integer %, so mode m has the same bits wherever it is
built.  Commutators, projectors and a tight-binding operator with a
callable onsite term are compositions, known by their action alone:
A(Bv) - B(Av), psi <psi|v>, and the circulant hopping part plus the
onsite diagonal; no builder makes a dense operator.
``column_blocks`` applies any operator to the identity's columns
_BLOCK_COLUMNS at a time, which fill ``.matrix`` on each access and carry
``unitarity_residual``.  An N x N array is made only after
``_require_dense``: in ``.matrix``, a spectrum's ``eigh`` basis and
``ops_check``, which holds one, the matrix whose Hermiticity it compares.
Every state norm and inner product is ``_norms`` or ``_inner``, numpy's
pairwise sum of elementwise products, so no BLAS kernel or thread count
touches their bits.
"""

import math
import operator
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


# cap on N for an N x N complex array, 16 N^2 bytes: 16.8 MB at N = 1024
MAX_DENSE_N = 1024
# columns or rows per block: the identity's column blocks, wherever an
# operator is applied to the identity, and ops_check's evolve steps per
# norm pass
_BLOCK_COLUMNS = 64

HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-10


@dataclass(frozen=True)
class NaturalUnits:
    """Unit system; defaults make energy identical to frequency."""

    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.c < math.inf):  # NaN fails too
            raise ValueError(f"all unit scales must be finite and positive, got {self}")


@dataclass(frozen=True)
class Grid:
    """Periodic grid of an integer n_points sites with uniform spacing (dt or dx)."""

    n_points: int
    spacing: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_points", operator.index(self.n_points))
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
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


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, of a complex vector or of each
    row of a block: the pairwise sum of the real and imaginary parts
    squared."""
    x = np.ascontiguousarray(a).view(np.float64)
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> along the last axis, as the pairwise sum of conj(a) * b: one
    inner product of two vectors, or one per row of a block."""
    return np.add.reduce(a.conj() * b, axis=-1)


def _worst(residuals) -> float:
    """The largest |entry| over a sequence of residual arrays, taken one
    array at a time; np.max keeps NaN."""
    return float(np.max([np.abs(r).max() for r in residuals]))


def _column_slices(n: int) -> list:
    """range(n) in consecutive slices of at most _BLOCK_COLUMNS."""
    return [slice(j, min(j + _BLOCK_COLUMNS, n)) for j in range(0, n, _BLOCK_COLUMNS)]


def _less_identity(cols: slice, block: np.ndarray) -> np.ndarray:
    """A block of an operator's columns cols, minus the identity's, in place."""
    block[cols] -= np.eye(block.shape[1])
    return block


def _require_dense(n: int):
    """ValueError unless an N x N array of this n is within MAX_DENSE_N."""
    if n > MAX_DENSE_N:
        raise ValueError(f"an N x N array is capped at N = {MAX_DENSE_N} to bound memory, got {n}")


def _require_unit_norm(nrm) -> float:
    """A state's norm^2 deviation from 1; ValueError unless it is within NORM_TOL."""
    deviation = abs(float(nrm) ** 2 - 1.0)
    if not deviation <= NORM_TOL:  # NaN fails too
        raise ValueError(f"state norm^2 deviates from 1 by {deviation:.3e}")
    return deviation


class StateVector:
    """Normalized complex amplitude vector on a periodic grid."""

    def __init__(self, amplitudes, normalize: bool = True):
        a = np.asarray(amplitudes, dtype=complex)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("amplitudes must be a 1-D vector of length >= 2")
        nrm = float(_norms(a))
        if normalize:
            if not 0 < nrm < math.inf:
                raise ValueError(f"cannot normalize a vector of norm {nrm}")
            a = a / nrm
        else:
            _require_unit_norm(nrm)
        self.amplitudes = a

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(_norms(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch("state dimensions differ")
        return complex(_inner(self.amplitudes, other.amplitudes))


class LinearOp:
    """Complex square operator with lazily verified structure metadata.

    Built from a dense ``matrix``, or from a ``spectrum``: a circulant's
    eigenvalues in DFT-mode order, applied through the FFT, or a site
    diagonal's values (``_diagonal``), applied elementwise.  ``commutator``,
    ``projector`` and ``tight_binding_hamiltonian`` with a callable onsite
    build a third kind, a composition known by its ``_apply`` alone.
    ``.matrix`` is a dense operator's own matrix; for the other kinds it is
    filled from ``column_blocks`` on each access and never stored.  A
    spectrum's ``eigh`` basis holds, in the order that sorts it, the DFT
    modes with the bits of ``fourier_eigenstate``, or the identity's
    columns.
    """

    spectrum = None
    _matrix = None
    _on_sites = False
    _eig = None

    def __init__(self, matrix=None, *, spectrum=None):
        if (matrix is None) == (spectrum is None):
            raise ValueError("give exactly one of matrix and spectrum")
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

    @property
    def n(self) -> int:
        return self.spectrum.size if self.spectrum is not None else self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        _require_dense(self.n)
        m = np.empty((self.n, self.n), dtype=complex)
        for cols, block in self.column_blocks():
            m[:, cols] = block
        return m

    def column_blocks(self):
        """Yield (cols, A I[:, cols]) for consecutive slices cols of at most
        _BLOCK_COLUMNS columns: the operator applied to the identity one
        N x _BLOCK_COLUMNS block at a time."""
        n = self.n
        for cols in _column_slices(n):
            eye = np.zeros((n, cols.stop - cols.start), dtype=complex)
            eye[cols] = np.eye(cols.stop - cols.start)
            yield cols, self._apply(eye, out=eye)

    def _apply(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The operator applied to a vector, or to each column of a matrix,
        written into out when it is given (out may be a) and returned.  A
        circulant transforms, multiplies and transforms back in one array."""
        if self.spectrum is None:
            return np.matmul(self._matrix, a, out=out)
        s = self.spectrum if a.ndim == 1 else self.spectrum[:, None]
        if self._on_sites:
            return np.multiply(s, a, out=out)
        f = np.fft.fft(a, axis=0, out=out)
        np.multiply(s, f, out=f)
        return np.fft.ifft(f, axis=0, out=f)

    def _real_spectrum(self) -> np.ndarray:
        """An operator held as a spectrum is Hermitian exactly when it is real."""
        worst = float(np.abs(self.spectrum.imag).max())
        if not worst <= HERMITIAN_TOL:  # NaN fails too
            raise NonHermitianInput(
                f"spectrum imaginary part {worst:.3e} exceeds {HERMITIAN_TOL}"
            )
        return self.spectrum.real

    def _in_basis(self, spectrum) -> "LinearOp":
        """An operator with this spectrum in this operator's basis."""
        return _diagonal(spectrum) if self._on_sites else LinearOp(spectrum=spectrum)

    def hermiticity_residual(self) -> float:
        """max |M - M^dagger| over M = ``.matrix``, each block of columns
        compared with the conjugate of the matching rows."""
        m = self.matrix
        return _worst(m[:, cols] - m[cols].conj().T for cols in _column_slices(self.n))

    def unitarity_residual(self) -> float:
        """max |A^dagger (A I) - I| over the identity's column blocks; a
        spectrum's adjoint is its conjugate in its basis, any other
        operator's the conjugate transpose of its matrix."""
        adjoint = (self._in_basis(self.spectrum.conj()) if self.spectrum is not None
                   else LinearOp(self.matrix.conj().T))
        return _worst(_less_identity(cols, adjoint._apply(block, out=block))
                      for cols, block in self.column_blocks())

    def _require_hermitian(self):
        """The one Hermiticity rule: a real spectrum, or a small matrix
        residual for any other operator."""
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
        """Eigendecomposition (ascending eigenvalues, eigenvector columns);
        requires Hermiticity.  A spectrum's is analytic, built on each call
        and not stored: its stably sorted values with the matching DFT modes
        (``_dft_modes``) or identity columns, ones written into zeros, in one
        N x N array.  Any other operator's is LAPACK's, cached."""
        if self.spectrum is not None:
            w = self._real_spectrum()
            _require_dense(self.n)
            order = np.argsort(w, kind="stable")
            if self._on_sites:
                modes = np.zeros((self.n, self.n), dtype=complex)
                modes[np.arange(self.n), order] = 1.0
            else:
                modes = _dft_modes(self.n, order[:, None])
            return w[order], modes.T
        if self._eig is None:
            self._require_hermitian()
            self._eig = np.linalg.eigh(self.matrix)
        return self._eig


class _Composition(LinearOp):
    """An operator on n sites known by its action alone, its ``_apply`` on
    a vector or on each column of a block, action(a, out=None), whose last
    ufunc writes into out; it holds no matrix."""

    def __init__(self, n: int, action):
        self._n = n
        self._apply = action

    @property
    def n(self) -> int:
        return self._n


def _diagonal(values) -> LinearOp:
    """The operator diagonal on the sites with these values, applied elementwise."""
    op = LinearOp(spectrum=values)
    op._on_sites = True
    return op


def _dft_modes(n: int, m) -> np.ndarray:
    """Amplitudes exp(2*pi*i*m*l/n)/sqrt(n) of DFT mode m, read from one
    table of the n roots of unity at the reduced index m*l mod n.  An int m
    gives one mode; a column of mode indices, shape (k, 1), gives those k
    modes as the rows of one array, written _BLOCK_COLUMNS rows at a time.
    The index is reduced in intp as k - k // n * n, since numpy vectorizes
    that floor division but not an integer %, and gathered into the rows."""
    idx = np.arange(n)
    roots = np.exp(2j * np.pi * idx / n) / math.sqrt(n)
    modes = np.empty(np.broadcast_shapes(np.shape(m), (n,)), dtype=complex)
    rows, ms = modes.reshape(-1, n), np.reshape(m, (-1, 1))
    for block in _column_slices(len(rows)):
        k = ms[block] * idx
        k -= k // n * n
        roots.take(k, out=rows[block], mode="clip")  # "raise" would buffer out
    return modes


def shift_operator(grid: Grid) -> LinearOp:
    """Cyclic permutation mapping basis site i to i+1 (mod N); mode m has
    eigenvalue exp(-2*pi*i*m/N)."""
    n = grid.n_points
    return LinearOp(spectrum=np.exp(-2j * np.pi * np.arange(n) / n))


def frequency_values(grid: Grid) -> np.ndarray:
    """Mode frequencies 2*pi*n/(N*dt) for n = 0..N-1."""
    return 2.0 * np.pi * np.arange(grid.n_points) / (grid.n_points * grid.spacing)


def wavevector_values(grid: Grid) -> np.ndarray:
    """Mode wave numbers 2*pi*j/L folded onto the symmetric branch (-pi/dx, pi/dx]."""
    n = grid.n_points
    j = np.arange(n)
    j = np.where(j <= n // 2, j, j - n)
    return 2.0 * np.pi * j / grid.extent


def fourier_eigenstate(grid: Grid, n: int) -> StateVector:
    """Shift eigenstate with amplitudes exp(i*w_n*t_l)/sqrt(N) =
    exp(2*pi*i*n*l/N)/sqrt(N): column n of a circulant's ``eigh`` basis,
    bit for bit.  The index must be an integer."""
    n = operator.index(n)
    if not 0 <= n < grid.n_points:
        raise IndexError(f"mode index {n} outside 0..{grid.n_points - 1}")
    return StateVector(_dft_modes(grid.n_points, n), normalize=False)


def frequency_operator(grid: Grid) -> LinearOp:
    """Spectral realization of i*d/dt: DFT modes with eigenvalues 2*pi*n/T."""
    return LinearOp(spectrum=frequency_values(grid))


def wavevector_operator(grid: Grid) -> LinearOp:
    """Spectral realization of -i*d/dx with symmetric-branch eigenvalues."""
    return LinearOp(spectrum=wavevector_values(grid))


def position_operator(grid: Grid) -> LinearOp:
    """Diagonal on the sites, with eigenvalue x_l = l*dx at site l."""
    return _diagonal(grid.positions())


def expectation(op: LinearOp, state: StateVector) -> complex:
    """<psi|O|psi>; real up to rounding when the operator is Hermitian."""
    return complex(_inner(state.amplitudes, op.apply(state)))


def projector(onto: StateVector) -> LinearOp:
    """Rank-1 projector |psi><psi|, applied as psi <psi|v>: to a block,
    column by column, with one inner product per column."""
    a = onto.amplitudes
    return _Composition(a.size, lambda v, out=None: np.multiply.outer(a, _inner(a, v.T), out=out))


def born_probability(state: StateVector, outcome: StateVector) -> float:
    """|<outcome|state>|^2."""
    return abs(outcome.overlap(state)) ** 2


def commutator(a: LinearOp, b: LinearOp) -> LinearOp:
    """[A, B], applied as A(Bv) - B(Av)."""
    if a.n != b.n:
        raise DimensionMismatch("operator dimensions differ")
    return _Composition(
        a.n, lambda v, out=None: np.subtract(a._apply(b._apply(v)), b._apply(a._apply(v)), out=out)
    )


def uncertainty_product(state: StateVector, a: LinearOp, b: LinearOp) -> float:
    """sigma_A * sigma_B with sigma = ||(A - <A>) psi||, the centered form of
    sqrt(<A^2> - <A>^2), which would cancel when |<A>| >> sigma; Hermitian
    inputs only."""
    a._require_hermitian()
    b._require_hermitian()

    def sigma(op: LinearOp) -> float:
        v = op.apply(state)
        mean = _inner(state.amplitudes, v).real
        return float(_norms(v - mean * state.amplitudes))

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
    for a single real t_1).  A callable onsite(x) makes it a composition:
    that circulant with eps 0 plus the diagonal onsite(x_l).  The onsite
    energies, the hoppings and the band must be finite.
    """
    hoppings = [complex(t) for t in hoppings]
    check_hopping_range(grid, hoppings)
    on_sites = callable(onsite)
    eps = np.array([float(onsite(x)) for x in grid.positions()]) if on_sites else float(onsite)
    if not (np.isfinite(eps).all() and np.isfinite(hoppings).all()):
        raise ValueError("onsite energies and hoppings must be finite")
    band = tight_binding_band(wavevector_values(grid), grid.spacing, 0.0 if on_sites else eps, hoppings)
    if not np.isfinite(band).all():
        raise ValueError("the tight-binding band overflows")
    if not on_sites:
        return LinearOp(spectrum=band)
    hopping, sites = LinearOp(spectrum=band), _diagonal(eps)
    return _Composition(
        grid.n_points, lambda v, out=None: np.add(hopping._apply(v), sites._apply(v), out=out)
    )


def _propagator(hamiltonian: LinearOp, tau: float) -> LinearOp:
    """exp(-i*H*tau) of an H held as its spectrum: that spectrum, phased, in H's basis."""
    return hamiltonian._in_basis(np.exp(-1j * hamiltonian._real_spectrum() * tau))


def evolve(
    state: StateVector, hamiltonian: LinearOp, time: float, units: NaturalUnits = NaturalUnits()
) -> StateVector:
    """Apply exp(-i*H*t/hbar): an H held as its spectrum phases it and
    applies the result as H itself is applied; any other H, dense or a
    composition, goes through its LAPACK ``eigh``, computed once and cached."""
    if state.dim != hamiltonian.n:
        raise DimensionMismatch("operator and state dimensions differ")
    tau = time / units.hbar
    if hamiltonian.spectrum is not None:
        return StateVector(_propagator(hamiltonian, tau).apply(state), normalize=False)
    w, v = hamiltonian.eigh()
    out = v @ (np.exp(-1j * w * tau) * (v.conj().T @ state.amplitudes))
    return StateVector(out, normalize=False)


# ---------------------------------------------------------------------------
# relativistic checks


def klein_gordon_dispersion(k, mass: float, units: NaturalUnits = NaturalUnits()):
    """Positive branch omega = sqrt(c^2 k^2 + (m c^2 / hbar)^2); ValueError
    unless every omega is finite."""
    if not mass >= 0:  # NaN fails too
        raise ValueError("mass must be >= 0")
    k = np.asarray(k, dtype=float)
    rest = mass * units.c * units.c / units.hbar
    out = np.sqrt(units.c * units.c * k * k + rest * rest)
    if not np.isfinite(out).all():
        raise ValueError("the Klein-Gordon frequency is not finite for these k, mass and units")
    return float(out) if out.ndim == 0 else out


def klein_gordon_plane_wave_residual(
    grid: Grid, mode: int, mass: float, units: NaturalUnits = NaturalUnits()
) -> float:
    """Residual of the discretized wave equation on a grid plane wave.

    Spatial derivatives are spectral (k^2 on the symmetric branch) and the
    second time derivative of exp(-i w t) is inserted analytically, so the
    residual is pure rounding when omega satisfies the dispersion relation.
    """
    psi = fourier_eigenstate(grid, mode)
    kv = wavevector_values(grid)
    w = klein_gordon_dispersion(kv[mode], mass, units)
    ksq = LinearOp(spectrum=kv**2)
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
    degenerate, matching the squared (Klein-Gordon) dispersion.  Non-finite
    alphas or beta raise BadRepresentation, and a non-finite k or mass
    ValueError.
    """
    if alphas is None and beta is None:
        alphas, beta = dirac_alpha_beta()
    elif alphas is None or beta is None:
        raise ValueError("supply both alphas and beta, or neither")
    alphas = [np.asarray(a, dtype=complex) for a in alphas]
    beta = np.asarray(beta, dtype=complex)
    if len(alphas) != 3 or any(a.shape != (4, 4) for a in alphas) or beta.shape != (4, 4):
        raise BadRepresentation("need three 4x4 alpha matrices and one 4x4 beta")
    mats = alphas + [beta]
    if not all(np.isfinite(m).all() for m in mats):
        raise BadRepresentation("alpha and beta entries must be finite")
    eye = np.eye(4)
    res = {
        "hermiticity": _worst(m - m.conj().T for m in mats),
        "alpha_squares": _worst(a @ a - eye for a in alphas),
        "beta_square": _worst([beta @ beta - eye]),
        "alpha_anticommute": _worst(
            alphas[i] @ alphas[j] + alphas[j] @ alphas[i]
            for i in range(3)
            for j in range(i + 1, 3)
        ),
        "alpha_beta_anticommute": _worst(a @ beta + beta @ a for a in alphas),
    }
    largest = float(np.max(list(res.values())))
    if not largest <= HERMITIAN_TOL:  # NaN fails too
        raise BadRepresentation(f"algebra residual {largest:.3e} exceeds {HERMITIAN_TOL}")
    kvec = np.asarray(k, dtype=float)
    if kvec.shape != (3,):
        raise ValueError("k must be a 3-vector")
    if not (np.isfinite(kvec).all() and math.isfinite(mass)):
        raise ValueError(f"k and mass must be finite, got {kvec.tolist()} and {mass}")
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
    over all n basis vectors, through the public ``LinearOp`` methods: T's
    ``unitarity_residual``, the ``column_blocks`` of T^n (formed from T's
    spectrum) and the frequency, wave-vector and tight-binding operators'
    ``hermiticity_residual``.  The DFT table is taken in the same blocks as
    T^n's identity columns: T is applied to each block of its columns,
    which are its rows, the Fourier modes, as the table is symmetric, and
    those modes carry the Born sum, summed in mode order.  The evolve loop
    applies one propagator ``evolve_steps`` times, writing each step into
    the next row of one _BLOCK_COLUMNS x n block; after each block it takes
    every row's norm in one ``_norms`` call and holds each step's norm^2 to
    NORM_TOL as ``StateVector`` does, in step order.
    """
    _require_dense(n)
    if evolve_steps < 1:
        raise ValueError(f"evolve_steps must be >= 1, got {evolve_steps}")
    grid = Grid(n, spacing)
    t = shift_operator(grid)
    lam = np.exp(-1j * frequency_values(grid) * grid.spacing)
    rng = np.random.default_rng(seed)
    psi = StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))
    power, eigenpair, born = [], [], []
    for cols, block in LinearOp(spectrum=t.spectrum**n).column_blocks():
        power.append(np.abs(_less_identity(cols, block)).max())
        modes = _dft_modes(n, np.arange(n)[cols, None])
        eigenpair.append(np.abs(t._apply(modes.T) - modes.T * lam[cols]).max())
        norms = _norms(modes)
        _require_unit_norm(norms[np.abs(norms * norms - 1.0).argmax()])
        born.extend(abs(z) ** 2 for z in _inner(modes, psi.amplitudes).tolist())
    del block, modes  # free the last blocks before a Hermiticity residual's N x N
    freq = frequency_operator(grid)
    # the hopping range must stay below n/2, so the 2-site ring is onsite-only
    tb = tight_binding_hamiltonian(grid, 2.0, [1.0] if n > 2 else [])
    report = {
        "n": n,
        "shift_unitarity": t.unitarity_residual(),
        "shift_power_identity": float(np.max(power)),
        "dft_eigenpair": float(np.max(eigenpair)),
        "frequency_hermiticity": freq.hermiticity_residual(),
        "wavevector_hermiticity": wavevector_operator(grid).hermiticity_residual(),
        "tight_binding_hermiticity": tb.hermiticity_residual(),
        "born_sum_deviation": abs(sum(born) - 1.0),
    }

    step = _propagator(freq, 0.05)  # evolve(state, freq, 0.05): tau = 0.05 / hbar, hbar = 1
    block = np.empty((_BLOCK_COLUMNS, n), dtype=complex)
    a = psi.amplitudes
    drift = 0.0
    for start in range(0, evolve_steps, _BLOCK_COLUMNS):
        rows = block[:evolve_steps - start]
        for row in rows:
            a = step._apply(a, out=row)
        for nrm in _norms(rows):
            drift = max(drift, _require_unit_norm(nrm))
    once = evolve(psi, freq, 0.35)
    twice = evolve(evolve(psi, freq, 0.2), freq, 0.15)
    composition = float(np.abs(once.amplitudes - twice.amplitudes).max())

    report["evolve_norm_drift"] = drift
    report["evolve_composition"] = composition
    return report
