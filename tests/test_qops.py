"""Operator-layer tests: shift/DFT structure, uncertainty, dispersion checks."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from nrq import (
    BadRepresentation,
    DimensionMismatch,
    Grid,
    HoppingRangeTooLarge,
    LinearOp,
    NaturalUnits,
    NonHermitianInput,
    StateVector,
    born_probability,
    commutator,
    dirac_alpha_beta,
    dirac_check,
    evolve,
    expectation,
    fourier_eigenstate,
    frequency_operator,
    frequency_values,
    gaussian_packet,
    klein_gordon_dispersion,
    klein_gordon_plane_wave_residual,
    ops_check,
    position_operator,
    projector,
    shift_operator,
    tight_binding_band,
    tight_binding_hamiltonian,
    uncertainty_product,
    wavevector_operator,
    wavevector_values,
)
from nrq.qops import _BLOCK_COLUMNS, MAX_DENSE_N, _dft_modes, _norms, _propagator


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1)
    with pytest.raises(ValueError):
        Grid(8, 0.0)
    # a grid holds no N x N array, so its size is not capped
    assert Grid(8192).n_points == 8192
    # the extent, or the wavevector scale 2 pi / spacing, overflows a double
    for n, spacing in [(4, 1e308), (4, 1e-320), (2, 3e-308)]:
        with pytest.raises(ValueError, match="overflow"):
            Grid(n, spacing)
    # 6.5 sites would give 7 positions but wave numbers 2 pi j / 6.5
    for n in (6.5, 8.0):
        with pytest.raises(TypeError):
            Grid(n)
    assert Grid(np.int64(8)) == Grid(8) and type(Grid(np.int64(8)).n_points) is int
    with pytest.raises(ValueError):
        NaturalUnits(hbar=0.0)


def test_state_normalization():
    s = StateVector([3.0, 4.0])
    assert s.norm() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        StateVector([0.0, 0.0])
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0], normalize=False)  # norm^2 = 2



@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: StateVector([1.0]), "1-D vector of length >= 2"),
        (lambda: StateVector(np.eye(2)), "1-D vector of length >= 2"),
        (lambda: LinearOp(), "exactly one of matrix and spectrum"),
        (lambda: LinearOp(np.eye(2), spectrum=[1.0, 1.0]), "exactly one of matrix and spectrum"),
        (lambda: LinearOp(spectrum=[]), "non-empty 1-D vector"),
        (lambda: LinearOp(spectrum=np.ones((2, 2))), "non-empty 1-D vector"),
        (lambda: LinearOp(np.ones((2, 3))), "matrix must be square"),
        (lambda: LinearOp(np.ones(4)), "matrix must be square"),
    ],
)
def test_states_and_operators_check_their_shapes(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: a.overlap(b),
        lambda a, b: frequency_operator(Grid(8)).apply(a),
        lambda a, b: evolve(a, frequency_operator(Grid(8)), 1.0),
        lambda a, b: evolve(a, tight_binding_hamiltonian(Grid(8), lambda x: 0.1 * x, [1.0]), 1.0),
    ],
    ids=["overlap", "apply", "evolve-spectral", "evolve-dense"],
)
def test_dimension_mismatch_is_caught(call):
    with pytest.raises(DimensionMismatch):
        call(StateVector(np.ones(4)), StateVector(np.ones(8)))

@pytest.mark.parametrize(
    "make",
    [
        lambda: StateVector([math.inf, 1.0]),
        lambda: StateVector([math.nan, 1.0]),
        lambda: StateVector([math.nan, 1.0], normalize=False),
        lambda: gaussian_packet(Grid(8), math.nan, 1.0),
    ],
    ids=["inf", "nan", "nan-unnormalized", "nan-packet"],
)
def test_non_finite_amplitudes_make_no_state(make):
    # dividing by a norm of inf or NaN would give [nan, 0] or an all-NaN state
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "hamiltonian",
    [frequency_operator, lambda g: tight_binding_hamiltonian(g, lambda x: 0.1 * x, [1.0])],
    ids=["spectral", "dense"],
)
def test_evolve_for_a_nan_time_raises(hamiltonian):
    # the all-NaN result must fail the unit-norm check
    g = Grid(8)
    with pytest.raises(ValueError, match="norm"):
        evolve(gaussian_packet(g, 3.0, 1.0), hamiltonian(g), math.nan)


@pytest.mark.parametrize("scales", [{"hbar": math.inf}, {"hbar": math.nan}, {"c": math.inf}, {"c": -math.inf}])
def test_natural_units_must_be_finite(scales):
    # hbar = inf would make evolve use tau = 0
    with pytest.raises(ValueError, match="finite"):
        NaturalUnits(**scales)


def test_shift_swap_matrix():
    t = shift_operator(Grid(2))
    assert np.array_equal(t.matrix.real, [[0.0, 1.0], [1.0, 0.0]])
    eig = np.sort_complex(np.linalg.eigvals(t.matrix))
    assert np.allclose(eig, [-1.0, 1.0], atol=1e-12)


def test_shift_fourth_roots_of_unity():
    t = shift_operator(Grid(4, 1.0))
    eig = np.linalg.eigvals(t.matrix)
    expected = np.exp(-1j * frequency_values(Grid(4, 1.0)))  # {1, -i, -1, i}
    for value in expected:
        assert np.abs(eig - value).min() <= 1e-12


def test_shift_unitary_and_cyclic():
    for n in (2, 3, 8, 64):
        t = shift_operator(Grid(n))
        assert t.unitarity_residual() <= 1e-12
        power = np.linalg.matrix_power(t.matrix, n)
        assert np.abs(power - np.eye(n)).max() <= 1e-12


def test_fourier_eigenstate_two_point():
    s = fourier_eigenstate(Grid(2), 1)
    assert np.allclose(s.amplitudes, np.array([1.0, -1.0]) / math.sqrt(2.0), atol=1e-15)
    t = shift_operator(Grid(2))
    assert np.allclose(t.apply(s), -s.amplitudes, atol=1e-15)


def test_fourier_eigenstates_orthonormal():
    g = Grid(8)
    states = [fourier_eigenstate(g, n) for n in range(8)]
    gram = np.array([[abs(a.overlap(b)) for b in states] for a in states])
    assert np.abs(gram - np.eye(8)).max() <= 1e-12


def test_fourier_eigenpair_residual():
    g = Grid(8, 1.0)
    t = shift_operator(g)
    s = fourier_eigenstate(g, 3)
    lam = np.exp(-2j * np.pi * 3 / 8)
    assert np.abs(t.apply(s) - lam * s.amplitudes).max() <= 1e-12
    with pytest.raises(IndexError):
        fourier_eigenstate(g, 8)


def test_fourier_eigenstate_takes_an_integer_index():
    g = Grid(8)
    for index in (1.5, 3.0):
        with pytest.raises(TypeError):
            fourier_eigenstate(g, index)
    assert fourier_eigenstate(g, np.int64(3)).amplitudes.tobytes() == (
        fourier_eigenstate(g, 3).amplitudes.tobytes()
    )


def test_expectation_values():
    g = Grid(4)
    uniform = StateVector(np.ones(4))
    ident = LinearOp(np.eye(4))
    assert expectation(ident, uniform) == pytest.approx(1.0, abs=1e-14)
    basis0 = StateVector([1.0, 0.0, 0.0, 0.0])
    assert expectation(projector(basis0), uniform) == pytest.approx(0.25, abs=1e-14)
    diag = LinearOp(np.diag([0.0, 1.0, 2.0, 3.0]))
    assert expectation(diag, uniform) == pytest.approx(1.5, abs=1e-14)
    with pytest.raises(DimensionMismatch):
        expectation(diag, StateVector([1.0, 0.0]))


def test_projector_structure():
    e0 = StateVector([1.0, 0.0])
    p = projector(e0)
    assert np.allclose(p.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    plus = StateVector([1.0, 1.0])
    q = projector(plus)
    assert np.allclose(q.matrix, np.full((2, 2), 0.5), atol=1e-15)
    assert np.trace(q.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(q.matrix @ q.matrix - q.matrix).max() <= 1e-12


def test_born_probabilities():
    plus = StateVector([1.0, 1.0])
    e0 = StateVector([1.0, 0.0])
    e1 = StateVector([0.0, 1.0])
    assert born_probability(plus, plus) == pytest.approx(1.0, abs=1e-12)
    assert born_probability(e0, e1) == pytest.approx(0.0, abs=1e-15)
    assert born_probability(plus, e0) == pytest.approx(0.5, abs=1e-12)


def test_born_probabilities_sum_to_one():
    g = Grid(16)
    rng = np.random.default_rng(21)
    state = StateVector(rng.normal(size=16) + 1j * rng.normal(size=16))
    total = sum(born_probability(state, fourier_eigenstate(g, n)) for n in range(16))
    assert abs(total - 1.0) <= 1e-10


def test_frequency_operator_spectrum():
    g = Grid(4, 1.0)
    w = frequency_operator(g)
    assert w.hermiticity_residual() <= 1e-12
    eig = np.sort(np.linalg.eigvalsh(w.matrix))
    assert np.allclose(eig, sorted(2.0 * np.pi * np.arange(4) / 4.0), atol=1e-12)
    s = fourier_eigenstate(g, 2)
    assert np.abs(w.apply(s) - frequency_values(g)[2] * s.amplitudes).max() <= 1e-12


def test_frequency_forward_difference_converges_first_order():
    # i*(T - 1)/dt applied to a smooth state approaches the spectral form as O(dt)
    def difference_error(n):
        g = Grid(n, 1.0 / n)  # fixed total period 1
        t = shift_operator(g)
        d = 1j * (t.matrix - np.eye(n)) / g.spacing
        w = frequency_operator(g)
        psi = StateVector(
            fourier_eigenstate(g, 1).amplitudes + 0.5 * fourier_eigenstate(g, 2).amplitudes
        )
        return np.linalg.norm(d @ psi.amplitudes - w.apply(psi))

    e64, e128 = difference_error(64), difference_error(128)
    assert e64 / e128 == pytest.approx(2.0, rel=0.1)


def test_wavevector_plane_wave_eigenvalue():
    g = Grid(16, 0.5)
    k = wavevector_operator(g)
    assert k.hermiticity_residual() <= 1e-12
    for mode in (0, 3, 9, 15):
        s = fourier_eigenstate(g, mode)
        kv = wavevector_values(g)[mode]
        assert np.abs(k.apply(s) - kv * s.amplitudes).max() <= 1e-12


def test_wavevector_symmetric_branch():
    g = Grid(8, 1.0)
    values = wavevector_values(g)
    assert values.max() == pytest.approx(np.pi, abs=1e-12)
    assert values.min() == pytest.approx(-2.0 * np.pi * 3 / 8, abs=1e-12)


def test_wavevector_on_real_even_state():
    g = Grid(64, 1.0)
    x = g.positions()
    # even about the origin on the periodic grid: psi[l] = psi[N-l]
    amps = np.exp(-((np.minimum(x, 64.0 - x)) ** 2) / 30.0)
    state = StateVector(amps)
    k = wavevector_operator(g)
    assert abs(expectation(k, state)) <= 1e-12


def test_wavevector_gaussian_carrier():
    g = Grid(256, 1.0)
    k0 = 16 * 2.0 * np.pi / 256.0
    packet = gaussian_packet(g, 128.0, 8.0, carrier=k0)
    k = wavevector_operator(g)
    assert expectation(k, packet).real == pytest.approx(k0, rel=0.01)


def test_commutator_basics():
    g = Grid(8)
    w = frequency_operator(g)
    zero = commutator(w, w)
    assert np.abs(zero.matrix).max() <= 1e-12
    d1 = LinearOp(np.diag(np.arange(8.0)))
    d2 = LinearOp(np.diag(np.arange(8.0) ** 2))
    assert np.abs(commutator(d1, d2).matrix).max() <= 1e-15
    with pytest.raises(DimensionMismatch):
        commutator(d1, LinearOp(np.eye(4)))


def test_position_wavevector_commutator_on_packet():
    g = Grid(256, 1.0)
    packet = gaussian_packet(g, 128.0, 8.0)
    comm = commutator(position_operator(g), wavevector_operator(g))
    value = expectation(comm, packet)
    assert abs(value - 1j) <= 0.02


def test_commutator_error_decreases_as_grid_refines():
    # fixed physical packet, refined grid: the deviation of <[x,k]> from i
    # drops from the under-resolved level to rounding noise
    extent, sigma = 64.0, 0.8
    errors = []
    for n in (64, 128, 256):
        g = Grid(n, extent / n)
        packet = gaussian_packet(g, extent / 2.0, sigma)
        comm = commutator(position_operator(g), wavevector_operator(g))
        errors.append(abs(expectation(comm, packet) - 1j))
    assert errors[0] > 1e-6 > errors[1]
    assert errors[2] <= 1e-12


def test_uncertainty_gaussian_packet():
    g = Grid(256, 1.0)
    packet = gaussian_packet(g, 128.0, 8.0)
    product = uncertainty_product(packet, position_operator(g), wavevector_operator(g))
    assert product == pytest.approx(0.5, rel=0.05)


def test_uncertainty_eigenstate_is_zero():
    g = Grid(8)
    e3 = StateVector(np.eye(8)[3])
    product = uncertainty_product(e3, position_operator(g), projector(e3))
    assert product == 0.0


def test_uncertainty_width_sweep():
    g = Grid(256, 1.0)
    for sigma in (4.0, 8.0, 16.0):  # 4*dx .. L/16
        packet = gaussian_packet(g, 128.0, sigma)
        product = uncertainty_product(packet, position_operator(g), wavevector_operator(g))
        assert product >= 0.45


def _theta_uncertainty_product(n: int, sigma: float) -> float:
    """sigma_x * sigma_k, at 30 digits, of a packet sampled on a unit grid of
    n sites and centered on a grid point, with negligible mass at the edges.
    With q = exp(-1/(2 sigma^2)), |psi_l|^2 = q^((l - m)^2), so sigma_x^2 =
    -theta_3''(0, q) / (4 theta_3(0, q)); the DFT of the samples is
    theta_3(k/2, sqrt(q)) up to a phase, so sigma_k^2 is the second central
    moment of theta_3(k_j/2, sqrt(q))^2 over the grid's wave numbers k_j."""
    with mpmath.workdps(30):
        q = mpmath.exp(-1 / (2 * mpmath.mpf(sigma) ** 2))
        var_x = -mpmath.jtheta(3, 0, q, 2) / (4 * mpmath.jtheta(3, 0, q))
        # theta_3 is even in k, and k_j = 2 pi j / n on the branch -n/2 < j <= n/2
        weight = [mpmath.jtheta(3, mpmath.pi * j / n, mpmath.sqrt(q)) ** 2 for j in range(n // 2 + 1)]
        js = [j if j <= n // 2 else j - n for j in range(n)]
        ks = [2 * mpmath.pi * j / n for j in js]
        ws = [weight[abs(j)] for j in js]
        total = mpmath.fsum(ws)
        mean = mpmath.fsum(k * w for k, w in zip(ks, ws)) / total
        var_k = mpmath.fsum((k - mean) ** 2 * w for k, w in zip(ks, ws)) / total
        return float(mpmath.sqrt(var_x * var_k))


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 2.0, 8.0])
def test_uncertainty_product_matches_the_theta_oracle(n, sigma):
    # the packet sits near 0.7 L, so <x> >> sigma_x: sqrt(<x^2> - <x>^2) would
    # lose about (<x> / sigma_x)^2 ulps there, up to 6e-8 relative at n = 4096
    g = Grid(n, 1.0)
    packet = gaussian_packet(g, float(round(0.7 * n)), sigma)
    product = uncertainty_product(packet, position_operator(g), wavevector_operator(g))
    assert product == pytest.approx(_theta_uncertainty_product(n, sigma), rel=1e-12, abs=0)


def _dft_commutator_expectation(psi: np.ndarray, xs: np.ndarray, ks: np.ndarray) -> complex:
    """<psi|[x, k]|psi> at 30 digits: 2i Im <x psi|k psi> for Hermitian x and
    k, where <x psi|k psi> = sum_j conj(F(x psi)_j) k_j F(psi)_j / n for the
    unnormalized DFT F, summed term by term."""
    n = len(psi)
    with mpmath.workdps(30):
        roots = [mpmath.expjpi(mpmath.mpf(-2 * j) / n) for j in range(n)]
        a = [mpmath.mpc(complex(z)) for z in psi]
        xa = [mpmath.mpf(float(x)) * z for x, z in zip(xs, a)]

        def dft(v):
            return [mpmath.fsum(v[l] * roots[j * l % n] for l in range(n)) for j in range(n)]

        inner = mpmath.fsum(mpmath.conj(f) * mpmath.mpf(float(k)) * h for f, k, h in zip(dft(xa), ks, dft(a)))
        return complex(2j * (inner / n).imag)


@pytest.mark.parametrize(
    "center, sigma, carrier",
    [(128.0, 8.0, 0.0), (179.0, 0.4, 1.0)],
    ids=["criterion-7-packet", "narrow-with-carrier"],
)
def test_commutator_expectation_matches_a_30_digit_dft(center, sigma, carrier):
    # the narrow packet's <[x, k]> is far from i (0.458i): the discrete value, not i
    g = Grid(256, 1.0)
    packet = gaussian_packet(g, center, sigma, carrier)
    value = expectation(commutator(position_operator(g), wavevector_operator(g)), packet)
    oracle = _dft_commutator_expectation(packet.amplitudes, g.positions(), wavevector_values(g))
    # rounding of terms as large as |x| |k| <= 256 pi
    assert abs(value - oracle) <= 1e-13


def test_uncertainty_rejects_non_hermitian():
    g = Grid(4)
    with pytest.raises(NonHermitianInput):
        uncertainty_product(StateVector(np.ones(4)), shift_operator(g), position_operator(g))
    # a circulant needs a real spectrum, as eigh and evolve do, although this
    # one's matrix residual is only 7.8e-14
    g = Grid(256)
    k = LinearOp(spectrum=wavevector_values(g) + 1e-11j * (np.arange(256) == 5))
    assert k.hermiticity_residual() <= 1e-12
    with pytest.raises(NonHermitianInput):
        uncertainty_product(gaussian_packet(g, 128.0, 8.0), position_operator(g), k)



def test_uncertainty_rejects_a_dense_non_hermitian_operator():
    raising = LinearOp(np.diag(np.ones(3), 1))
    with pytest.raises(NonHermitianInput, match="hermiticity residual"):
        uncertainty_product(StateVector(np.ones(4)), position_operator(Grid(4)), raising)

def test_gaussian_packet_validation():
    with pytest.raises(ValueError):
        gaussian_packet(Grid(8), 4.0, 0.0)


def test_tight_binding_four_site_spectrum():
    h = tight_binding_hamiltonian(Grid(4, 1.0), 2.0, [1.0])
    eig = np.sort(np.linalg.eigvalsh(h.matrix))
    assert np.allclose(eig, [0.0, 2.0, 2.0, 4.0], atol=1e-12)
    assert h.hermiticity_residual() == 0.0


@pytest.mark.parametrize(
    "onsite, hoppings",
    [
        (math.nan, [1.0]),
        (2.0, [math.inf]),
        (2.0, [1.0, complex(0.0, math.nan)]),
        (lambda x: math.nan if x == 3.0 else 0.1 * x, [1.0]),
    ],
    ids=["nan-onsite", "inf-hopping", "nan-imaginary-hopping", "nan-callable-onsite"],
)
def test_tight_binding_rejects_non_finite_terms(onsite, hoppings):
    # a NaN onsite once gave an all-NaN spectrum, and a callable's NaN a
    # NonHermitianInput only at eigh; an inf hopping gave a spectrum of -inf
    with pytest.raises(ValueError, match="must be finite"):
        tight_binding_hamiltonian(Grid(8), onsite, hoppings)


def test_tight_binding_rejects_an_overflowing_band():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        tight_binding_hamiltonian(Grid(8), 1e308, [1e308])


def test_tight_binding_hopping_range():
    with pytest.raises(HoppingRangeTooLarge):
        tight_binding_hamiltonian(Grid(8), 0.0, [1.0, 0.5, 0.25, 0.1])


def test_tight_binding_small_k_dispersion():
    # eigenvalue minus band bottom approaches t*(k*dx)^2 with quartic error
    g = Grid(64, 1.0)
    t1 = 0.7
    h = tight_binding_hamiltonian(g, 2.0 * t1, [t1])
    k = wavevector_values(g)
    exact = np.sort(np.linalg.eigvalsh(h.matrix))
    model = np.sort(t1 * (k * g.spacing) ** 2 / g.spacing**2 * g.spacing**2)
    small = slice(0, 5)  # smallest eigenvalues sit at smallest |k|
    bound = t1 * np.sort(np.abs(k))[small] ** 4 / 12.0 * 1.05 + 1e-12
    assert (np.abs(exact[small] - model[small]) <= bound).all()


def test_tight_binding_second_neighbor_renormalizes_mass():
    g = Grid(256, 1.0)
    t1, t2 = 1.0, 0.2
    h = tight_binding_hamiltonian(g, 2.0 * t1 + 2.0 * t2, [t1, t2])
    k = wavevector_values(g)
    lam = np.linalg.eigvalsh(h.matrix)
    # circulant eigenvalues sorted by |k| for the fit
    analytic = 2 * t1 * (1 - np.cos(k)) + 2 * t2 * (1 - np.cos(2 * k))
    assert np.abs(np.sort(lam) - np.sort(analytic)).max() <= 1e-10
    window = np.abs(k) <= np.pi / 16.0
    coeffs = np.polynomial.polynomial.polyfit(
        k[window] ** 2, analytic[window], deg=[0, 1, 2]
    )
    expected = (t1 + 4.0 * t2) * g.spacing**2
    assert coeffs[1] == pytest.approx(expected, rel=0.01)


def test_evolve_identity_at_zero_time():
    g = Grid(16)
    w = frequency_operator(g)
    state = gaussian_packet(g, 8.0, 2.0)
    out = evolve(state, w, 0.0)
    assert np.abs(out.amplitudes - state.amplitudes).max() <= 1e-12


def test_evolve_eigenstate_phase():
    g = Grid(16, 1.0)
    w = frequency_operator(g)
    s = fourier_eigenstate(g, 5)
    t = 0.37
    out = evolve(s, w, t)
    phase = np.exp(-1j * frequency_values(g)[5] * t)
    assert np.abs(out.amplitudes - phase * s.amplitudes).max() <= 1e-10
    assert np.abs(np.abs(out.amplitudes) - np.abs(s.amplitudes)).max() <= 1e-12


def test_evolve_composition_and_drift():
    g = Grid(32)
    w = frequency_operator(g)
    state = gaussian_packet(g, 16.0, 3.0)
    once = evolve(state, w, 0.9)
    twice = evolve(evolve(state, w, 0.4), w, 0.5)
    assert np.abs(once.amplitudes - twice.amplitudes).max() <= 1e-9
    s = state
    for _ in range(100):
        s = evolve(s, w, 0.05)
    assert abs(s.norm() ** 2 - 1.0) <= 1e-11


def test_evolve_rejects_non_hermitian():
    g = Grid(4)
    with pytest.raises(NonHermitianInput):
        evolve(StateVector(np.ones(4)), shift_operator(g), 1.0)


def test_hbar_scaling_is_exact():
    g = Grid(16)
    w = frequency_operator(g)
    h = LinearOp(2.0 * w.matrix)  # H = hbar*omega with hbar = 2
    assert np.allclose(
        np.linalg.eigvalsh(h.matrix), 2.0 * np.linalg.eigvalsh(w.matrix), atol=1e-12
    )
    state = gaussian_packet(g, 8.0, 2.0)
    a = evolve(state, w, 1.3)
    b = evolve(state, h, 1.3, NaturalUnits(hbar=2.0))
    assert np.abs(a.amplitudes - b.amplitudes).max() <= 1e-10


def test_free_packet_moves_at_group_velocity():
    g = Grid(256, 1.0)
    t1 = 1.0
    mu = 1.0 / (2.0 * t1 * g.spacing**2)
    h = tight_binding_hamiltonian(g, 2.0 * t1, [t1])  # band bottom at zero
    k0 = 10 * 2.0 * np.pi / 256.0
    packet = gaussian_packet(g, 96.0, 12.0, carrier=k0)
    x = position_operator(g)
    elapsed = 20.0
    moved = evolve(packet, h, elapsed)
    v = (expectation(x, moved).real - expectation(x, packet).real) / elapsed
    assert v == pytest.approx(k0 / mu, rel=0.02)


def test_klein_gordon_dispersion_limits():
    units = NaturalUnits(hbar=0.5, c=3.0)
    assert klein_gordon_dispersion(2.0, 0.0, units) == pytest.approx(6.0, rel=1e-12)
    assert klein_gordon_dispersion(0.0, 1.5, units) == pytest.approx(
        1.5 * 9.0 / 0.5, rel=1e-12
    )
    with pytest.raises(ValueError):
        klein_gordon_dispersion(1.0, -1.0)


def test_klein_gordon_plane_wave_residual():
    assert klein_gordon_plane_wave_residual(Grid(64, 1.0), 5, 1.0) <= 1e-10
    assert klein_gordon_plane_wave_residual(Grid(64, 0.5), 60, 2.0) <= 1e-10


@pytest.mark.parametrize(
    "call",
    [
        lambda: klein_gordon_dispersion(1.0, math.nan),
        lambda: klein_gordon_plane_wave_residual(Grid(8), 1, math.nan),
    ],
    ids=["dispersion", "plane-wave-residual"],
)
def test_klein_gordon_rejects_a_nan_mass(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "k, units",
    [
        (math.inf, NaturalUnits()),
        (math.nan, NaturalUnits()),
        ([0.5, math.inf], NaturalUnits()),
        (1.0, NaturalUnits(1.0, 1e300)),  # c * c overflows
    ],
    ids=["inf-k", "nan-k", "inf-k-in-array", "c-1e300"],
)
def test_klein_gordon_rejects_a_non_finite_frequency(k, units):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        klein_gordon_dispersion(k, 1.0, units)


def test_klein_gordon_plane_wave_residual_takes_an_integer_mode():
    # the mode rule is fourier_eigenstate's
    with pytest.raises(TypeError):
        klein_gordon_plane_wave_residual(Grid(8), 1.5, 1.0)
    with pytest.raises(IndexError):
        klein_gordon_plane_wave_residual(Grid(8), 8, 1.0)
    assert klein_gordon_plane_wave_residual(Grid(8), np.int64(3), 1.0) == (
        klein_gordon_plane_wave_residual(Grid(8), 3, 1.0)
    )


def test_dirac_algebra_and_rest_frame():
    report = dirac_check((0.0, 0.0, 0.0), 1.0)
    assert max(report.algebra_residuals.values()) <= 1e-12
    assert np.allclose(np.sort(report.dispersion_eigenvalues), [-1, -1, 1, 1], atol=1e-12)


def test_dirac_massless():
    report = dirac_check((1.0, 0.0, 0.0), 0.0)
    assert np.allclose(np.sort(report.dispersion_eigenvalues), [-1, -1, 1, 1], atol=1e-12)


def test_dirac_matches_squared_dispersion():
    report = dirac_check((0.6, 0.0, 0.8), 1.0)  # |k| = 1
    expected = math.sqrt(2.0)
    assert np.allclose(
        np.sort(report.dispersion_eigenvalues),
        [-expected, -expected, expected, expected],
        atol=1e-10,
    )


def test_dirac_rejects_bad_representation():
    alphas, beta = dirac_alpha_beta()
    broken = [a.copy() for a in alphas]
    broken[0][0, 0] = 0.5
    with pytest.raises(BadRepresentation):
        dirac_check((1.0, 0.0, 0.0), 1.0, alphas=broken, beta=beta)
    with pytest.raises(ValueError):
        dirac_check((1.0, 0.0), 1.0)



def test_dirac_needs_both_alphas_and_beta():
    alphas, beta = dirac_alpha_beta()
    for kwargs in ({"alphas": alphas}, {"beta": beta}):
        with pytest.raises(ValueError, match="supply both alphas and beta"):
            dirac_check((1.0, 0.0, 0.0), 1.0, **kwargs)


@pytest.mark.parametrize(
    "alphas, beta",
    [
        (lambda a: a[:2], lambda b: b),
        (lambda a: a + [a[0]], lambda b: b),
        (lambda a: [a[0], a[1], a[2][:3, :3]], lambda b: b),
        (lambda a: a, lambda b: b[:3, :3]),
    ],
    ids=["two-alphas", "four-alphas", "3x3-alpha", "3x3-beta"],
)
def test_dirac_needs_three_4x4_alphas_and_a_4x4_beta(alphas, beta):
    a, b = dirac_alpha_beta()
    with pytest.raises(BadRepresentation, match="three 4x4 alpha matrices"):
        dirac_check((1.0, 0.0, 0.0), 1.0, alphas=alphas(list(a)), beta=beta(b))

@pytest.mark.parametrize(
    "k, mass",
    [((math.nan, 0.0, 0.0), 1.0), ((0.0, 0.0, 0.0), math.nan), ((0.0, math.inf, 0.0), 1.0)],
    ids=["nan-k", "nan-mass", "inf-k"],
)
def test_dirac_rejects_a_non_finite_k_or_mass(k, mass):
    # numpy's eigvalsh raised LinAlgError on the NaN entries these give
    with pytest.raises(ValueError, match="must be finite"):
        dirac_check(k, mass)


@pytest.mark.parametrize("which, entry", [(2, (0, 2)), (3, (0, 3))], ids=["alpha-3", "beta"])
def test_dirac_rejects_a_non_finite_alpha_or_beta(which, entry):
    # a NaN above the diagonal once passed: Python's max dropped the NaN
    # residuals, and eigvalsh reads only the lower triangle
    alphas, beta = dirac_alpha_beta()
    mats = [m.copy() for m in (*alphas, beta)]
    mats[which][entry] = math.nan
    with pytest.raises(BadRepresentation):
        dirac_check((1.0, 0.0, 0.0), 1.0, alphas=mats[:3], beta=mats[3])


def test_ops_check_report():
    report = ops_check(8, evolve_steps=50)
    for key, value in report.items():
        if key in ("n", "born_sum_deviation", "evolve_norm_drift", "evolve_composition"):
            continue
        assert value <= 1e-12, key
    assert report["born_sum_deviation"] <= 1e-10
    assert report["evolve_norm_drift"] <= 1e-10


@pytest.mark.parametrize(
    "n, steps, error",
    [
        (8, 0, ValueError),
        (8, -5, ValueError),
        (MAX_DENSE_N + 1, 1000, ValueError),
        (512, 64.0, TypeError),
        (512, 1.5, TypeError),
        (512, math.nan, TypeError),
    ],
    ids=["steps-0", "steps-neg5", "n-over-cap", "steps-float", "steps-1.5", "steps-nan"],
)
def test_ops_check_rejects_bad_input_before_building(n, steps, error, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("ops_check built an operator")

    for name in (
        "Grid",
        "shift_operator",
        "_dft_modes",
        "_propagator",
    ):
        monkeypatch.setattr(f"nrq.qops.{name}", no_build)
    with pytest.raises(error):
        ops_check(n, evolve_steps=steps)


def _reference_ops_check(n, spacing, seed, steps):
    """ops_check from public calls only, one operation at a time: each
    operator materialized through ``.matrix``, T applied to each DFT column
    alone, one ``fourier_eigenstate`` per Born mode, and each evolve step
    applied from its block's start state: step i of a block of _BLOCK_COLUMNS
    is the circulant with the running product s^i of the step's spectrum
    s = exp(-0.05j * omega), formed with np.cumprod as ops_check forms it."""
    grid = Grid(n, spacing)
    t = shift_operator(grid)
    freq = frequency_operator(grid)
    f = freq.eigh()[1]  # the DFT columns in mode order: the spectrum ascends
    image = np.column_stack([t.apply(StateVector(col, normalize=False)) for col in f.T])
    lam = np.exp(-1j * frequency_values(grid) * grid.spacing)
    power = LinearOp(spectrum=t.spectrum**n).matrix
    tb = tight_binding_hamiltonian(grid, 2.0, [1.0] if n > 2 else [])

    rng = np.random.default_rng(seed)
    psi = StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))
    born_sum = sum(born_probability(psi, fourier_eigenstate(grid, m)) for m in range(n))
    s = np.exp(-1j * freq.spectrum.real * 0.05)
    state = psi
    drift = 0.0
    for start in range(0, steps, _BLOCK_COLUMNS):
        m = min(_BLOCK_COLUMNS, steps - start)
        for p in np.cumprod(np.broadcast_to(s, (m, n)), axis=0):
            row = StateVector(LinearOp(spectrum=p).apply(state), normalize=False)
            drift = max(drift, abs(row.norm() ** 2 - 1.0))
        state = row
    once = evolve(psi, freq, 0.35)
    twice = evolve(evolve(psi, freq, 0.2), freq, 0.15)
    return {
        "n": n,
        "shift_unitarity": t.unitarity_residual(),
        "shift_power_identity": float(np.abs(power - np.eye(n)).max()),
        "dft_eigenpair": float(np.abs(image - f * lam[None, :]).max()),
        "frequency_hermiticity": freq.hermiticity_residual(),
        "wavevector_hermiticity": wavevector_operator(grid).hermiticity_residual(),
        "tight_binding_hermiticity": tb.hermiticity_residual(),
        "born_sum_deviation": abs(born_sum - 1.0),
        "evolve_norm_drift": drift,
        "evolve_composition": float(np.abs(once.amplitudes - twice.amplitudes).max()),
    }


@pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
def test_ops_check_matches_the_public_reference_bit_for_bit(n):
    # 63, 64, 65 and 129 steps end the evolve loop on either side of its block edges
    for spacing in (1.0, 0.37):
        for seed in (0, 7):
            for steps in (1, 50, 63, 64, 65, 129):
                expected = _reference_ops_check(n, spacing, seed, steps)
                assert ops_check(n, spacing, seed, steps) == expected, (spacing, seed, steps)


@pytest.mark.parametrize("n", [3, 64])
def test_ops_check_raises_at_the_step_a_step_at_a_time_loop_fails(n, monkeypatch):
    """A propagator whose spectrum is scaled by 1 + 6e-13 grows norm^2 by
    about 1.2e-12 a step, and one scaled by 1 - 6e-13 shrinks it as much,
    past NORM_TOL in the second block of 64 steps; ops_check raises the
    ValueError that one evolve call per step raises."""
    for scale in (1 + 6e-13, 1 - 6e-13):
        def scaled(hamiltonian, tau, scale=scale):
            return LinearOp(spectrum=_propagator(hamiltonian, tau).spectrum * scale)

        monkeypatch.setattr("nrq.qops._propagator", scaled)
        freq = frequency_operator(Grid(n))
        rng = np.random.default_rng(0)
        state = StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))
        with pytest.raises(ValueError) as step_at_a_time:
            for step in range(1, 1000):
                state = evolve(state, freq, 0.05)
        assert _BLOCK_COLUMNS < step <= 2 * _BLOCK_COLUMNS
        with pytest.raises(ValueError) as blocked:
            ops_check(n, evolve_steps=3 * _BLOCK_COLUMNS)
        assert str(blocked.value) == str(step_at_a_time.value)


@pytest.mark.parametrize("n", [2, 3, 64, 257])
def test_ops_check_evolves_the_trajectory_of_one_evolve_per_step(n, monkeypatch):
    """The states ops_check's evolve loop writes, each from its block's
    start state, stay within 1e-12 max-abs of 1000 ``evolve`` calls of one
    step each.  The gap measured at most 8.2e-14 (n = 3) over seeds 0-3 at
    these sizes, so the bound leaves a factor of about 12."""
    blocks = []

    def captured(a):
        if a.ndim == 2:
            blocks.append(a.copy())
        return _norms(a)

    monkeypatch.setattr("nrq.qops._norms", captured)
    ops_check(n, evolve_steps=1000)
    # the evolve loop's norm passes are the last 2-D ones, after the DFT blocks'
    rows = np.concatenate(blocks[-math.ceil(1000 / _BLOCK_COLUMNS):])
    assert rows.shape == (1000, n)

    freq = frequency_operator(Grid(n))
    rng = np.random.default_rng(0)
    state = StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))
    worst = 0.0
    for row in rows:
        state = evolve(state, freq, 0.05)
        worst = max(worst, float(np.abs(row - state.amplitudes).max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 7, 64, 65, 1000, 1024, 4097])
def test_norms_of_a_block_are_the_norms_of_its_rows(n):
    rng = np.random.default_rng(n)
    block = rng.normal(size=(_BLOCK_COLUMNS, n)) + 1j * rng.normal(size=(_BLOCK_COLUMNS, n))
    for rows in (block, block[:1], block[:5]):
        assert _norms(rows).tobytes() == np.array([float(_norms(row)) for row in rows]).tobytes()


@pytest.mark.parametrize("n", [2, 3, 64, 257])
def test_apply_into_a_buffer_has_the_bits_of_a_fresh_apply(n):
    """_apply(a, out=buf) returns buf with the bytes of _apply(a) and leaves
    a alone; written into a itself, as column_blocks does, the bytes hold."""
    g = Grid(n)
    rng = np.random.default_rng(n)
    ops = {
        "circulant": shift_operator(g),
        "site-diagonal": position_operator(g),
        "dense": LinearOp(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))),
        "commutator": commutator(position_operator(g), wavevector_operator(g)),
        "projector": projector(gaussian_packet(g, n / 2.0, 1.0)),
        # the hopping range must stay below n/2, so the 2-site ring is onsite-only
        "callable-onsite": tight_binding_hamiltonian(g, lambda x: 0.1 * x, [1.0] if n > 2 else []),
    }
    for kind, op in ops.items():
        for shape in ((n,), (n, _BLOCK_COLUMNS)):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            kept = a.tobytes()
            expected = op._apply(a).tobytes()
            buf = np.empty_like(a)
            assert op._apply(a, out=buf) is buf, (kind, shape)
            assert buf.tobytes() == expected, (kind, shape)
            assert a.tobytes() == kept, (kind, shape)
            assert op._apply(a, out=a) is a, (kind, shape)
            assert a.tobytes() == expected, (kind, shape)


@pytest.mark.parametrize("n", [2, 3, 64, 257])
def test_fourier_eigenstate_is_a_column_of_the_circulant_basis(n):
    for spacing in (1.0, 0.37):
        g = Grid(n, spacing)
        basis = frequency_operator(g).eigh()[1]  # the spectrum ascends: column m is mode m
        for m in range(n):
            assert fourier_eigenstate(g, m).amplitudes.tobytes() == basis[:, m].tobytes(), (spacing, m)


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_fourier_eigenstate_matches_mpmath_to_4_ulps(n):
    """Every amplitude within 4 ulps of 1/sqrt(N) of exp(2*pi*i*m*l/N)/sqrt(N)."""
    with mpmath.workdps(40):
        roots = np.array(
            [complex(mpmath.expjpi(mpmath.mpf(2 * k) / n) / mpmath.sqrt(n)) for k in range(n)]
        )
    ulp = np.spacing(1.0 / math.sqrt(n))
    for m in (1, n // 2 - 1, n - 1):
        exact = roots[(m * np.arange(n)) % n]
        amps = fourier_eigenstate(Grid(n), m).amplitudes
        assert np.abs(amps.real - exact.real).max() <= 4 * ulp, m
        assert np.abs(amps.imag - exact.imag).max() <= 4 * ulp, m


# ---------------------------------------------------------------------------
# the DFT table and the site basis against their first, unblocked builds

_TABLE_SIZES = [2, 3, 8, 64, 65, 97, 128, 256, 257, 1000, 1021, 1024]


def _reference_dft_modes(n, m):
    """The roots of unity read at an int64 (m * l) % n in one N x N gather."""
    idx = np.arange(n)
    roots = np.exp(2j * np.pi * idx / n) / math.sqrt(n)
    return roots[(m * idx) % n]


@pytest.mark.parametrize("n", _TABLE_SIZES)
def test_dft_modes_have_the_bits_of_the_reference_table(n):
    for m in (0, 1, n // 2, n - 1, np.int64(n - 1)):
        assert _dft_modes(n, m).tobytes() == _reference_dft_modes(n, m).tobytes(), m
    # columns of 1, 64 and 65 modes cross a row block's edge
    for k in (1, 64, 65):
        col = np.arange(n)[n - min(k, n):, None]
        assert _dft_modes(n, col).tobytes() == _reference_dft_modes(n, col).tobytes(), k
    perm = np.random.default_rng(n).permutation(n)[:, None]
    assert _dft_modes(n, perm).tobytes() == _reference_dft_modes(n, perm).tobytes()


@pytest.mark.parametrize("n", _TABLE_SIZES)
def test_spectral_eigh_bases_have_the_bits_of_the_reference_tables(n):
    g = Grid(n, 0.37)
    ops = {
        "frequency": frequency_operator(g),
        "tight binding": tight_binding_hamiltonian(g, 2.0, [1.0] if n > 2 else []),
        "position": position_operator(g),
    }
    for name, op in ops.items():
        order = np.argsort(op.spectrum.real, kind="stable")
        reference = (np.eye(n, dtype=complex)[order] if name == "position"
                     else _reference_dft_modes(n, order[:, None]))
        w, v = op.eigh()
        assert w.tobytes() == op.spectrum.real[order].tobytes(), name
        assert v.tobytes() == reference.T.tobytes(), name
    for m in (0, 1, n // 2, n - 1):
        amps = fourier_eigenstate(g, m).amplitudes
        assert amps.tobytes() == _reference_dft_modes(n, m).tobytes(), m


@pytest.mark.parametrize("m", [1, 46341, 49999])
def test_fourier_eigenstate_past_an_int32_index(m):
    # m * l reaches 49999 m, past 2^31 for m = 46341 and 49999: the index
    # must not be reduced in int32
    amps = fourier_eigenstate(Grid(50000), m).amplitudes
    assert amps.tobytes() == _reference_dft_modes(50000, m).tobytes()


# ---------------------------------------------------------------------------
# dense oracle: the circulant constructors as explicit N x N matrices


def _dense_dft(n):
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)


def _dense_shift(n):
    m = np.zeros((n, n), dtype=complex)
    m[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return m


def _dense_spectral(n, eigenvalues):
    f = _dense_dft(n)
    m = f @ (eigenvalues[:, None] * f.conj().T)
    return 0.5 * (m + m.conj().T)


def _dense_tight_binding(grid, onsite, hoppings):
    n = grid.n_points
    if callable(onsite):
        eps = np.array([float(onsite(x)) for x in grid.positions()])
    else:
        eps = np.full(n, float(onsite))
    m = np.diag(eps.astype(complex))
    eye = np.eye(n)
    for r, t in enumerate(hoppings, start=1):
        fwd = np.roll(eye, r, axis=0)  # maps site i -> i+r
        m -= t * fwd + np.conj(t) * fwd.T
    return m


def _dense_evolve(m, psi, time):
    w, v = np.linalg.eigh(m)
    return v @ (np.exp(-1j * w * time) * (v.conj().T @ psi))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 64])
def test_spectral_ops_match_dense_oracle(n):
    g = Grid(n, 0.7)
    hoppings = [0.7 + 0.3j, -0.2 + 0.1j][: (n - 1) // 2]  # range below n/2
    well = lambda x: 0.1 * (x - 0.35 * n) ** 2  # noqa: E731
    hermitian = {
        "frequency": (frequency_operator(g), _dense_spectral(n, frequency_values(g))),
        "wavevector": (wavevector_operator(g), _dense_spectral(n, wavevector_values(g))),
        "tight_binding": (
            tight_binding_hamiltonian(g, 1.5, hoppings),
            _dense_tight_binding(g, 1.5, hoppings),
        ),
        "tight_binding_well": (
            tight_binding_hamiltonian(g, well, hoppings),
            _dense_tight_binding(g, well, hoppings),
        ),
        "position": (position_operator(g), np.diag(g.positions()).astype(complex)),
    }
    rng = np.random.default_rng(n)
    psi = StateVector(rng.normal(size=n) + 1j * rng.normal(size=n))
    shift = shift_operator(g)
    for name, (op, dense) in {"shift": (shift, _dense_shift(n)), **hermitian}.items():
        assert np.abs(op.matrix - dense).max() <= 1e-12, name
        assert np.abs(op.apply(psi) - dense @ psi.amplitudes).max() <= 1e-12, name
    for name, (op, dense) in hermitian.items():
        out = evolve(psi, op, 1.3)
        assert np.abs(out.amplitudes - _dense_evolve(dense, psi.amplitudes, 1.3)).max() <= 1e-10, name
        w, v = op.eigh()
        assert np.abs(w - np.linalg.eigvalsh(dense)).max() <= 1e-12, name
        assert np.abs(dense @ v - v * w).max() <= 1e-12, name
    if n > 2:  # the two-site shift is the Hermitian swap
        with pytest.raises(NonHermitianInput):
            evolve(psi, shift, 1.0)
        with pytest.raises(NonHermitianInput):
            shift.eigh()


def test_circulant_matrix_is_built_on_demand():
    g = Grid(64)
    w = frequency_operator(g)
    x = position_operator(g)
    state = gaussian_packet(g, 32.0, 4.0)
    for op in (w, x):
        op.apply(state)
        evolve(state, op, 0.3)
        op.eigh()
    uncertainty_product(state, x, w)
    assert w._matrix is None and x._matrix is None
    for op in (w, x):
        assert np.abs(op.matrix @ state.amplitudes - op.apply(state)).max() <= 1e-12
    assert x.matrix.tobytes() == np.diag(g.positions().astype(complex)).tobytes()
    for op in (w, x):
        op.hermiticity_residual()
        op.unitarity_residual()
    commutator(x, w)
    assert w._matrix is None and x._matrix is None


def test_uncertainty_product_holds_no_square_matrix():
    # acceptance criterion 7's packet at the grid cap: one N x N complex
    # matrix would take 268 MB, while the operators and packet take N numbers
    g = Grid(4096)
    tracemalloc.start()
    try:
        packet = gaussian_packet(g, 2048.0, 32.0)
        product = uncertainty_product(packet, position_operator(g), wavevector_operator(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(product - 0.5) <= 1e-9
    assert peak <= 4_000_000


def _dense_unitary_case():
    rng = np.random.default_rng(50)
    m = np.linalg.qr(rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50)))[0]
    return LinearOp(m), float(np.abs(m.conj().T @ m - np.eye(50)).max()), 0.0


def _site_phase_case():
    # read as a circulant, this residual would be 0.99 away from 1.25
    g = Grid(64)
    return position_operator(g)._in_basis(1.5 * np.exp(0.3j * g.positions())), 1.25, 4e-15


@pytest.mark.parametrize(
    "case",
    [
        *[lambda n=n: (shift_operator(Grid(n)), 0.0, 2e-15) for n in (2, 3, 64, 257)],
        lambda: (_propagator(position_operator(Grid(64)), 0.3), 0.0, 2e-15),
        lambda: (LinearOp(spectrum=1.5 * shift_operator(Grid(64)).spectrum), 1.25, 4e-15),
        _site_phase_case,
        _dense_unitary_case,
    ],
    ids=["shift-2", "shift-3", "shift-64", "shift-257", "position-propagator",
         "scaled-shift", "scaled-site-phase", "dense-unitary"],
)
def test_unitarity_residual_applies_the_adjoint_in_the_operators_basis(case):
    """max |A^dagger (A I) - I| with the adjoint's spectrum conjugated in
    A's own basis; a dense operator keeps the bits of its matrix product."""
    op, expected, tol = case()
    assert abs(op.unitarity_residual() - expected) <= tol


def test_state_norms_and_inner_products_call_no_blas(monkeypatch):
    # every state norm and inner product is numpy's pairwise sum, so the
    # BLAS kernel cannot change their bits
    def no_blas(*args, **kwargs):
        raise AssertionError("a BLAS routine was called")

    monkeypatch.setattr(np, "vdot", no_blas)
    monkeypatch.setattr(np.linalg, "norm", no_blas)
    g = Grid(64)
    packet = gaussian_packet(g, 20.0, 4.0)
    ops_check(64)
    expectation(position_operator(g), packet)
    uncertainty_product(packet, position_operator(g), wavevector_operator(g))
    born_probability(packet, fourier_eigenstate(g, 3))
    assert StateVector([3.0, 4.0]).norm() == 1.0


def test_ops_check_at_the_cap_holds_one_square_matrix():
    # the Hermiticity residual's N x N complex matrix, 16.8 MB at N = 1024,
    # plus blocks of N x 64
    tracemalloc.start()
    try:
        ops_check(1024, evolve_steps=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24_000_000


def test_criterion_7_operation_holds_no_square_matrix():
    # the uncertainty product and <[x, k]> past the dense cap: the commutator
    # is applied as x(k psi) - k(x psi), with N numbers per operator
    for n in (4096, 8192):
        g = Grid(n)
        tracemalloc.start()
        try:
            packet = gaussian_packet(g, n / 2.0, 32.0)
            x, k = position_operator(g), wavevector_operator(g)
            product = uncertainty_product(packet, x, k)
            comm = expectation(commutator(x, k), packet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(product - 0.5) <= 1e-9, n
        assert abs(comm - 1j) <= 0.02, n
        assert peak <= 4_000_000, n


@pytest.mark.parametrize(
    "build",
    [frequency_operator, position_operator,
     lambda g: commutator(position_operator(g), wavevector_operator(g)),
     lambda g: tight_binding_hamiltonian(g, math.cos, [1.0])],
    ids=["frequency", "position", "commutator", "tb-callable-onsite"],
)
def test_square_arrays_past_the_dense_cap_raise_before_allocating(build):
    op = build(Grid(MAX_DENSE_N + 1))
    tracemalloc.start()
    try:
        for method in (lambda: op.matrix, op.eigh, op.hermiticity_residual):
            with pytest.raises(ValueError, match="capped"):
                method()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


@pytest.mark.parametrize(
    "build, bound",
    [(frequency_operator, 19_000_000), (position_operator, 17_500_000)],
    ids=["frequency", "position"],
)
def test_spectral_eigh_at_the_cap_holds_one_square_basis(build, bound):
    # the 16.8 MB basis at N = MAX_DENSE_N, plus a DFT table's row block of
    # indices; no N x N index or identity alongside it
    op = build(Grid(MAX_DENSE_N))
    tracemalloc.start()
    try:
        op.eigh()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_spectral_eigh_stores_no_matrix():
    op = frequency_operator(Grid(256))
    w, v = op.eigh()
    assert v.shape == (256, 256)
    # the N eigenvalues alone, 4096 B; the N x N basis is the caller's
    assert vars(op).keys() == {"spectrum"} and op.spectrum.nbytes == 4096


def test_no_builder_returns_a_dense_operator():
    g = Grid(40, 0.5)
    packet = gaussian_packet(g, 10.0, 2.0)
    x, k = position_operator(g), wavevector_operator(g)
    built = {
        "shift": shift_operator(g),
        "frequency": frequency_operator(g),
        "wavevector": k,
        "position": x,
        "projector": projector(packet),
        "commutator": commutator(x, k),
        "tb-constant": tight_binding_hamiltonian(g, 2.0, [1.0, 0.3j]),
        "tb-callable": tight_binding_hamiltonian(g, math.cos, [1.0, 0.3j]),
    }
    for name, op in built.items():
        op.apply(packet)
        assert op._matrix is None, name


@pytest.mark.parametrize("n", [8, 64, 200, MAX_DENSE_N])
def test_callable_onsite_tight_binding_matches_its_dense_build(n):
    """Hopping circulant plus onsite diagonal, as a composition: its matrix
    and eigh have the bits of the dense matrix sum of the two."""
    g = Grid(n, 0.3)

    def onsite(x):
        return 0.01 * (x - 1.0) ** 2 - math.cos(x)

    eps = [onsite(x) for x in g.positions()]
    band = tight_binding_band(wavevector_values(g), g.spacing, 0.0, [1.0, 0.25j])
    h = tight_binding_hamiltonian(g, onsite, [1.0, 0.25j])
    dense = LinearOp(LinearOp(spectrum=band).matrix + np.diag(eps))
    assert h.matrix.tobytes() == dense.matrix.tobytes()
    w, v = h.eigh()
    w_dense, v_dense = dense.eigh()
    assert w.tobytes() == w_dense.tobytes() and v.tobytes() == v_dense.tobytes()
    packet = gaussian_packet(g, n * 0.15, 2.0, 0.4)
    assert np.abs(h.apply(packet) - dense.apply(packet)).max() <= 1e-12


def _commutator_cases():
    g = Grid(8)
    d1 = LinearOp(np.diag(np.arange(8.0)))
    d2 = LinearOp(np.diag(np.arange(8.0) ** 2))
    cases = [(frequency_operator(g), frequency_operator(g)), (d1, d2)]
    for n in (64, 128, 256):
        g = Grid(n, 64.0 / n)
        cases.append((position_operator(g), wavevector_operator(g)))
    g = Grid(64)
    return cases + [(position_operator(g), frequency_operator(g))]


def test_commutators_and_projectors_hold_no_matrix():
    """Each is a composition; its .matrix, built on demand, has the bits of
    the dense product it once stored."""
    for a, b in _commutator_cases():
        comm = commutator(a, b)
        assert comm._matrix is None
        assert comm.matrix.tobytes() == (a._apply(b.matrix) - b._apply(a.matrix)).tobytes()
        assert comm._matrix is None
    rng = np.random.default_rng(3)
    for amps in ([1.0, 0.0], [1.0, 1.0], [1.0, 0.0, 0.0, 0.0], np.eye(8)[3],
                 rng.normal(size=64) + 1j * rng.normal(size=64)):
        a = StateVector(amps).amplitudes
        p = projector(StateVector(amps))
        assert p._matrix is None
        assert p.matrix.tobytes() == np.outer(a, a.conj()).tobytes()
        assert p._matrix is None


@pytest.mark.parametrize("n", [3, 64, 65, 200])
def test_blocked_residuals_match_the_whole_matrix(n):
    """column_blocks covers the identity once, in order, and the residuals
    taken block by block are those of the whole matrix, NaN included."""
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g = Grid(n)
    packet = gaussian_packet(g, n / 2.0, 1.0)
    ops = [LinearOp(m), shift_operator(g), wavevector_operator(g), position_operator(g),
           commutator(position_operator(g), wavevector_operator(g)), projector(packet)]
    for op in ops:
        full = op.matrix
        assert np.hstack([block for _, block in op.column_blocks()]).tobytes() == (
            op._apply(np.eye(n, dtype=complex)).tobytes()
        )
        assert op.hermiticity_residual() == float(np.abs(full - full.conj().T).max())
    m[n - 1, 0] = math.nan  # in the last block of columns
    assert math.isnan(LinearOp(m).hermiticity_residual())
    assert math.isnan(LinearOp(m).unitarity_residual())
