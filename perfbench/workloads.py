"""The benchmark's four workloads, as lists of operations built from a seed.

Each operation has a ``work`` step, which calls nrq and is timed, and a
``check`` step, which runs afterwards, is not timed, and raises
``checks.CheckFailed`` on a wrong output.  ``ctx.cli(argv, out)`` runs one
nrq command, in process for the warm workloads and in a fresh interpreter
for ``cli-cold``; ``ctx.nrq`` is the imported package for in-process
analysis; ``ctx.state`` carries results from one operation to a later one
of the same round.

Why these workloads:

* chaos-density: long orbits, so the Newton step loop and histogram
  binning do nearly all the work and the operator layer none.
* cycle-scan: many scalar ``newton_step`` calls inside bisection plus a
  short vector pass; the one place a kernel change that speeds orbits but
  slows scalar steps shows.  Period 8 stays in: at [-50, 50] with grid
  20000, nrq finds 224 of its 238 points.
* grid-ops: dense operator algebra (eigh, evolve, matrix_power) does
  nearly all the work and the Newton layers none.
* cli-cold: each command in a fresh interpreter, so start-up, imports,
  parsing, emission and the atomic write dominate.
"""

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import checks

WORKLOADS = ("chaos-density", "cycle-scan", "grid-ops", "cli-cold")
COLD = {"cli-cold"}

DENSITY_ITERS = 201000
DENSITY_BURNIN = 1000
CYCLE_WINDOW = (-50.0, 50.0)
CYCLE_GRID = 20000


@dataclass
class Op:
    kind: str
    work: Callable[[Any], Any]
    check: Callable[[Any, Any], dict]
    iterates: int = 0  # Newton iterates requested, burn-in included


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str
    data: bytes
    extra: dict = field(default_factory=dict)  # cold runs: import time, trace totals

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")


def _cli_facts(res: CliResult) -> dict:
    report = checks.check_report(res.rc, res.stdout, res.stderr, res.data)
    return {"sha256": checks.sha256(res.data), "report": report}


def _cli_op(kind, argv, out, check_output, iterates=0):
    """An operation that is one nrq command; ``check_output(res, report, ctx)``
    checks its output after the common report checks."""

    def work(ctx):
        return ctx.cli(argv, out)

    def check(res, ctx):
        facts = _cli_facts(res)
        facts.update(check_output(res, facts["report"], ctx) or {})
        facts.pop("report")
        return facts

    return Op(kind, work, check, iterates)


# ---------------------------------------------------------------------------
# chaos-density


def _density_op(i, seed, iters, burnin):
    argv = ["density", "--poly", "x^2+1", "--seed", str(seed), "--iters", str(iters),
            "--burnin", str(burnin)]

    def check_output(res, report, ctx):
        hist = checks.check_density_csv(res.text, iters - burnin)
        ctx.state.setdefault("hists", {})[i] = hist

    return _cli_op("density", argv, f"density-{i}.csv", check_output, iters)


def _empirical(measure, h):
    """nrq's EmpiricalDensity holding the counts of a checked histogram."""
    return measure.EmpiricalDensity(h.lo, h.hi, h.bins, h.counts, h.below, h.above, h.restarts)


def _merge_l1_op(count):
    """Merge the round's per-seed densities and measure L1 against Cauchy
    with nrq's own density_distance, as acceptance criterion 1 does."""

    def work(ctx):
        hists = [ctx.state["hists"][i] for i in range(count)]
        measure = ctx.nrq.measure
        merged = _empirical(measure, hists[0])
        for h in hists[1:]:
            merged = merged.merge(_empirical(measure, h))
        return hists, measure.density_distance(merged, measure.cauchy_density)

    def check(result, ctx):
        hists, program_l1 = result
        return checks.check_merged_l1(hists, float(program_l1))

    return Op("merge-l1", work, check)


def _interfere_narrow_op(seed):
    """delta = 0.01; its checked histogram and peaks go to the hwhm operation."""
    argv = ["interfere", "--delta", "0.01", "--seed", str(seed)]

    def check_output(res, report, ctx):
        hist = checks.check_density_csv(res.text, DENSITY_ITERS - DENSITY_BURNIN)
        peaks = sorted(_report_peaks(res))
        ctx.state["narrow"] = (hist, peaks)
        return checks.check_interfere_narrow(peaks)

    return _cli_op("interfere-narrow", argv, "interfere-narrow.csv", check_output, DENSITY_ITERS)


def _hwhm_op():
    """nrq's half_width_at_half_max at each peak of the round's delta = 0.01
    density, checked against the checker's own half widths."""

    def work(ctx):
        hist, peaks = ctx.state["narrow"]
        measure = ctx.nrq.measure
        density = _empirical(measure, hist)
        return hist, peaks, [measure.half_width_at_half_max(density, c) for c, _, _ in peaks]

    def check(result, ctx):
        return checks.check_hwhm(*result)

    return Op("hwhm", work, check)


def _interfere_broad_op(seed):
    argv = ["interfere", "--delta", "1", "--seed", str(seed), "--min-prominence", "0.01"]

    def check_output(res, report, ctx):
        checks.check_density_csv(res.text, DENSITY_ITERS - DENSITY_BURNIN)
        return checks.check_interfere_broad(_report_peaks(res))

    return _cli_op("interfere-broad", argv, "interfere-broad.csv", check_output, DENSITY_ITERS)


def _report_peaks(res: CliResult):
    try:
        peaks = json.loads(res.stdout)["statuses"]["peaks"]
    except (ValueError, KeyError, TypeError) as exc:
        raise checks.CheckFailed(f"report has no peaks: {exc}") from None
    return [tuple(p) for p in peaks]


def chaos_density(seed, tiny):
    seeds = [seed + i for i in range(1, 3 if tiny else 6)]
    ops = [_density_op(i, s, DENSITY_ITERS, DENSITY_BURNIN) for i, s in enumerate(seeds)]
    ops.append(_merge_l1_op(len(seeds)))
    ops.append(_interfere_narrow_op(seed))
    ops.append(_hwhm_op())
    ops.append(_interfere_broad_op(seed))
    return ops


# ---------------------------------------------------------------------------
# cycle-scan


def _cycles_op(period, lo, hi, grid):
    argv = ["cycles", "--poly", "x^2+1", "--period", str(period), f"--range={lo!r}:{hi!r}",
            "--grid", str(grid)]

    def check_output(res, report, ctx):
        try:
            doc = json.loads(res.text)
        except ValueError as exc:
            raise checks.CheckFailed(f"cycles output is not JSON: {exc}") from None
        return checks.check_cycles(doc, period, lo, hi)

    return _cli_op(f"cycles-p{period}", argv, f"cycles-{period}.json", check_output)


def cycle_scan(seed, tiny):
    """Periods 2-8 on [-50, 50], grid 20000, in an order drawn from the seed."""
    periods = [2, 3, 4] if tiny else list(range(2, 9))
    random.Random(seed).shuffle(periods)
    lo, hi = CYCLE_WINDOW
    return [_cycles_op(p, lo, hi, 2000 if tiny else CYCLE_GRID) for p in periods]


# ---------------------------------------------------------------------------
# grid-ops


def _ops_check_op(sizes, seed):
    argv = ["ops-check", *[a for n in sizes for a in ("--n", str(n))], "--seed", str(seed)]

    def check_output(res, report, ctx):
        try:
            doc = json.loads(res.text)
        except ValueError as exc:
            raise checks.CheckFailed(f"ops-check output is not JSON: {exc}") from None
        return checks.check_ops_report(doc, sizes)

    return _cli_op("ops-check", argv, "ops.json", check_output)


def _continuum_op(t1):
    """Acceptance criterion 5: tight-binding spectra at N = 128 and 256 on a
    fixed extent, through LinearOp.eigh."""
    extent = 128.0
    sizes = (128, 256)

    def work(ctx):
        q = ctx.nrq.qops
        out = []
        for n in sizes:
            grid = q.Grid(n, extent / n)
            h = q.tight_binding_hamiltonian(grid, 2.0 * t1, [t1])
            out.append((grid.spacing, h.eigh()[0], q.wavevector_values(grid)))
        return out

    def check(result, ctx):
        spacings, eigenvalues, wavevectors = zip(*result)
        return checks.check_continuum(t1, spacings, eigenvalues, wavevectors)

    return Op("continuum", work, check)


def _uncertainty_op(center):
    """Acceptance criterion 7: Gaussian packet on N = 256, sigma 8."""

    def work(ctx):
        q = ctx.nrq.qops
        grid = q.Grid(256, 1.0)
        packet = q.gaussian_packet(grid, center, 8.0)
        x_op = q.position_operator(grid)
        k_op = q.wavevector_operator(grid)
        product = q.uncertainty_product(packet, x_op, k_op)
        return product, q.expectation(q.commutator(x_op, k_op), packet)

    def check(result, ctx):
        return checks.check_uncertainty(*result)

    return Op("uncertainty", work, check)


def grid_ops(seed, tiny):
    rng = random.Random(seed)
    sizes = [8, 16] if tiny else [64, 256, 512]
    return [
        _ops_check_op(sizes, seed),
        _continuum_op(rng.uniform(0.5, 2.0)),
        _uncertainty_op(128.0 + rng.uniform(-16.0, 16.0)),
    ]


# ---------------------------------------------------------------------------
# cli-cold


def cli_cold(seed, tiny):
    rng = random.Random(seed)
    x0 = rng.uniform(0.1, 3.0)
    mass = rng.uniform(0.5, 2.0)
    eps = rng.uniform(1.0, 3.0)

    def orbit(res, report, ctx):
        return checks.check_orbit(res.text, x0, 100)

    def cycles(res, report, ctx):
        return checks.check_cycles(json.loads(res.text), 5, -3.0, 3.0)

    def kg_check(res, report, ctx):
        return checks.check_dispersion_kg(res.text, mass, -10.0, 10.0, 201)

    def tb_check(res, report, ctx):
        return checks.check_dispersion_tb(res.text, 64, 1.0, eps, [1.0, 0.2])

    def ops8(res, report, ctx):
        return checks.check_ops_report(json.loads(res.text), [8])

    def svg(res, report, ctx):
        return checks.check_svg(res.text, 200, overlay=True)

    ops = [
        _cli_op("orbit", ["orbit", "--poly", "x^2+1", "--x0", repr(x0), "--steps", "100"],
                "orbit.csv", orbit),
        _cli_op("dispersion-tb", ["dispersion", "--model", "tb", "--n", "64", "--eps", repr(eps),
                                  "--t", "1", "--t", "0.2"], "tb.csv", tb_check),
    ]
    if tiny:
        return ops
    return ops + [
        _cli_op("cycles", ["cycles", "--poly", "x^2+1", "--period", "5"], "cycles.json", cycles),
        _cli_op("dispersion-kg", ["dispersion", "--model", "kg", "--mass", repr(mass),
                                  "--kmin=-10", "--kmax", "10", "--samples", "201"],
                "kg.csv", kg_check),
        _density_op("short", seed + 1, 20000, 1000),
        _cli_op("ops-check-8", ["ops-check", "--n", "8", "--seed", str(seed)], "ops8.json", ops8),
        _cli_op("density-svg", ["density", "--poly", "x^2+1", "--iters", "20000", "--seed",
                                str(seed + 2), "--overlay-cauchy", "--format", "svg"],
                "density.svg", svg),
    ]


BUILDERS = {
    "chaos-density": chaos_density,
    "cycle-scan": cycle_scan,
    "grid-ops": grid_ops,
    "cli-cold": cli_cold,
}


def build(workload: str, seed: int, tiny: bool = False):
    """The workload's operations for ``seed``; nrq takes only non-negative
    seeds, so a negative one is folded onto them."""
    return BUILDERS[workload](seed % 2**32, tiny)
