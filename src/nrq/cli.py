"""Command-line front end: seeded reproducible runs emitting CSV/JSON/SVG data.

Each subcommand (orbit, density, cycles, interfere, ops-check, dispersion)
is one entry of ``COMMANDS``: its options with their defaults, its required
options, the formats it writes (default first) and its runner.  The parser,
the config resolution and the report's option echo are derived from that
table.  A runner returns one ``Result``, and ``_render`` writes it in the
requested format; a ``RunConfig`` naming a format its command does not
list is a configuration error, raised before any work.

Option precedence is CLI flags > config file (--config, JSON object) >
defaults; NRQ_SEED serves as the seed fallback.  Outputs are written
atomically and hashed, and identical configs with identical seeds produce
byte-identical files.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .measure import (
    DENSITY_CHAINS,
    EmpiricalDensity,
    accumulate_density,
    cauchy_density,
    density_steps,
    find_cycles,
    interference_polynomial,
    peak_detect,
)
from .newton import IterationPolicy, iterate_orbit
from .parsing import parse_polynomial
from .qops import (
    MAX_DENSE_N,
    Grid,
    NaturalUnits,
    check_hopping_range,
    klein_gordon_dispersion,
    ops_check,
    tight_binding_band,
    wavevector_values,
)

CSV_MAGIC = "# nrq-csv v1"

# An orbit keeps every iterate and its output is rendered as one string,
# about 260 B a step of peak RSS for csv, so this bounds it to roughly 26 MB.
MAX_ORBIT_STEPS = 100_000
# An ops-check evolve step costs about 1 us at n = 8 and 15 us at n = 1024,
# on top of about 0.17 s a size at n = 1024, so the step count and the
# number of sizes are capped: the slowest admitted run, eight sizes of 1024
# at 10000 steps each, takes about 2.8 s end to end on 2 cores.
MAX_OPS_CHECK_STEPS = 10_000
MAX_OPS_CHECK_SIZES = 8
# A dispersion sample is one csv row or two json numbers, about 40 B of
# output; 100000 samples take under a second end to end.
MAX_DISPERSION_SAMPLES = 100_000
# A tight-binding band costs four numpy calls on n values per hopping.  n = 4096
# with the most hoppings its range admits, n/2 - 1 = 2047, takes about 0.7 s
# end to end; capping n * len(t) there bounds every band, though n itself may
# reach MAX_DISPERSION_SAMPLES.
MAX_DISPERSION_WORK = 4096 * 2047

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Effective settings for one run, after precedence resolution."""

    command: str
    options: dict
    output_path: str
    output_format: str

    def __post_init__(self):
        formats = COMMANDS[self.command].formats
        if self.output_format not in formats:
            raise ConfigError(f"{self.command} writes {' or '.join(formats)}, not {self.output_format!r}")


@dataclass
class RunReport:
    command: str
    config: dict
    wall_time_s: float
    restart_count: int
    statuses: dict
    outputs: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)  # ms: parse, compute, render, write

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


# ---------------------------------------------------------------------------
# emission


def _non_finite(value) -> ValueError:
    return ValueError(f"the output holds the non-finite value {float(value)}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _non_finite(value)
        return f"{value:.17g}"
    return str(value)


def _fmt_column(values) -> list:
    """``_fmt`` of every value; a float64 or integer array is checked once
    and formatted with one call per value."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            finite = np.isfinite(values)
            if not finite.all():
                raise _non_finite(values[~finite][0])
            return list(map("{:.17g}".format, values.tolist()))
        if values.dtype.kind in "iu":
            return list(map(str, values.tolist()))
    return list(map(_fmt, values))


def emit_csv(header, columns, meta: dict | None = None) -> str:
    """CSV v1: magic line, '# key=value' metadata, header, then row i holds
    entry i of each column, floats to 17 digits.  Columns of unequal length
    raise ValueError."""
    meta = meta or {}
    lines = [CSV_MAGIC]
    lines += (f"# {key}={_fmt(meta[key])}" for key in sorted(meta))
    lines.append(",".join(header))
    lines += map(",".join, zip(*map(_fmt_column, columns), strict=True))
    return "\n".join(lines) + "\n"


@dataclass
class ParsedCsv:
    meta: dict
    columns: list
    cells: list

    def values(self) -> np.ndarray:
        return np.array([[float(c) for c in row] for row in self.cells], dtype=float)

    def reemit(self) -> str:
        # string cells are written as they are; rows of unequal length raise ValueError
        return emit_csv(self.columns, zip(*self.cells, strict=True), self.meta)


def parse_csv(text: str) -> ParsedCsv:
    lines = text.split("\n")
    if not lines or lines[0] != CSV_MAGIC:
        raise ValueError(f"missing {CSV_MAGIC!r} header")
    meta = {}
    i = 1
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    columns = lines[i].split(",")
    cells = [line.split(",") for line in lines[i + 1 :] if line]
    return ParsedCsv(meta, columns, cells)


def emit_svgdata(density: EmpiricalDensity, overlay=None, peaks=None) -> str:
    """Standalone SVG: axes, density polyline, optional analytic overlay and peak markers."""
    width, height, pad = 640, 400, 40.0
    centers = density.centers()
    dens = density.densities()
    curves = [dens]
    if overlay is not None:
        curves.append(overlay(centers) / overlay.masses(density.edges()).sum())
    ymax = max(float(c.max()) for c in curves) or 1.0
    ymax *= 1.05

    def px(x):
        return pad + (x - density.lo) / (density.hi - density.lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y / ymax) * (height - 2 * pad)

    def polyline(ys, cls):
        pts = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in zip(centers, ys))
        return f'<polyline class="{cls}" fill="none" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line class="axis" x1="{pad:.3f}" y1="{height - pad:.3f}" '
        f'x2="{width - pad:.3f}" y2="{height - pad:.3f}"/>',
        f'<line class="axis" x1="{pad:.3f}" y1="{pad:.3f}" '
        f'x2="{pad:.3f}" y2="{height - pad:.3f}"/>',
        f'<text class="tick" x="{pad:.3f}" y="{height - pad / 2:.3f}">{_fmt(density.lo)}</text>',
        f'<text class="tick" x="{width - pad:.3f}" y="{height - pad / 2:.3f}">{_fmt(density.hi)}</text>',
        polyline(dens, "density"),
    ]
    if overlay is not None:
        parts.append(polyline(curves[1], "overlay"))
    for center, height_value, _prom in peaks or []:
        parts.append(
            f'<circle class="peak" cx="{px(center):.3f}" cy="{py(height_value):.3f}" r="4"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _atomic_write(path: str, text: str):
    data = text.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    digest = hashlib.sha256(data).hexdigest()
    return {"path": path, "sha256": digest, "bytes": len(data)}


# ---------------------------------------------------------------------------
# command implementations


@dataclass
class Result:
    """What one run computed, ready to render in any format its command lists."""

    statuses: dict
    payload: dict  # the json document
    header: tuple = ()
    columns: tuple = ()  # one sequence per header name, for the csv emitter
    meta: dict = field(default_factory=dict)
    svg: Callable[[], str] | None = None
    restarts: int = 0
    iterates: int = 0  # map iterates stepped, warm-up and burn-in included; the report's throughput


def _render(result: Result, output_format: str) -> str:
    """The one place that picks the output format, and where a payload array becomes a list."""
    if output_format == "csv":
        return emit_csv(result.header, result.columns, result.meta)
    if output_format == "json":
        return json.dumps(result.payload, sort_keys=True, allow_nan=False, default=np.ndarray.tolist) + "\n"
    return result.svg()


def _with_meta(meta: dict, **arrays) -> dict:
    return {"meta": {k: _fmt(v) for k, v in meta.items()}, **arrays}


def _parse_range(text: str):
    """Split and convert lo:hi; the library checks the window."""
    lo_str, sep, hi_str = str(text).partition(":")
    if not sep:
        raise ConfigError(f"range must be lo:hi, got {text!r}")
    try:
        return float(lo_str), float(hi_str)
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from None


def _problem(options):
    try:
        return parse_polynomial(options["poly"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad polynomial: {exc}") from exc


def _accumulate(problem, opt) -> EmpiricalDensity:
    """The orbit visit density that density and interfere both write."""
    if not opt["iters"] > opt["burnin"] >= 0:
        raise ConfigError(f"need --iters > --burnin >= 0, got {opt['iters']} and {opt['burnin']}")
    lo, hi = _parse_range(opt["range"])
    return accumulate_density(
        problem, opt.get("x0"), opt["burnin"], opt["iters"], lo, hi, opt["bins"], seed=opt["seed"]
    )


def _histogram_result(
    density: EmpiricalDensity, iters: int, extra_meta: dict, statuses: dict, svg, **payload
):
    meta = {
        "lo": density.lo,
        "hi": density.hi,
        "bins": density.bins,
        "in_range": density.in_range,
        "below": density.below_count,
        "above": density.above_count,
        "total": density.total,
        "restarts": density.restarts,
        **extra_meta,
    }
    centers, densities = density.centers(), density.densities()
    return Result(
        statuses,
        _with_meta(meta, bin_centers=centers, densities=densities, **payload),
        header=("bin_center", "density"),
        columns=(centers, densities),
        meta=meta,
        svg=svg,
        restarts=density.restarts,
        iterates=len(density_steps(iters)) * DENSITY_CHAINS,
    )


def _run_orbit(opt) -> Result:
    if opt["steps"] > MAX_ORBIT_STEPS:
        raise ConfigError(f"--steps is capped at {MAX_ORBIT_STEPS}, got {opt['steps']}")
    problem = _problem(opt)
    policy = IterationPolicy(max_steps=opt["steps"], convergence_tol=opt["tol"])
    orbit = iterate_orbit(problem, opt["x0"], policy)
    statuses = {
        "status": orbit.status.value,
        "steps_recorded": len(orbit.iterates) - 1,
        "event_step": orbit.step,
        "final": float(orbit.iterates[-1]),
    }
    meta = {"poly": opt["poly"], "x0": opt["x0"], "status": orbit.status.value}
    return Result(
        statuses,
        _with_meta(meta, iterates=orbit.iterates),
        header=("step", "x"),
        columns=(np.arange(len(orbit.iterates)), orbit.iterates),
        meta=meta,
    )


def _run_density(opt) -> Result:
    density = _accumulate(_problem(opt), opt)
    statuses = {"in_range": density.in_range, "below": density.below_count, "above": density.above_count}
    overlay = cauchy_density if opt.get("overlay_cauchy") else None
    return _histogram_result(
        density,
        opt["iters"],
        {"poly": opt["poly"], "seed": opt["seed"]},
        statuses,
        lambda: emit_svgdata(density, overlay=overlay),
    )


def _run_cycles(opt) -> Result:
    problem = _problem(opt)
    lo, hi = _parse_range(opt["range"])
    scan = find_cycles(problem, opt["period"], lo, hi, opt["grid"])
    statuses = {
        "cycles_found": len(scan.cycles),
        "pole_intervals": len(scan.pole_intervals),
    }
    payload = {
        "period": opt["period"],
        "cycles": [{"points": c.points, "residual": c.residual} for c in scan.cycles],
        "pole_intervals": scan.pole_intervals,
    }
    rows = (
        (ci, pi, p)
        for ci, cycle in enumerate(scan.cycles)
        for pi, p in enumerate(cycle.points)
    )
    meta = {
        "poly": opt["poly"],
        "period": opt["period"],
        "cycles": len(scan.cycles),
        "pole_intervals": len(scan.pole_intervals),
    }
    return Result(
        statuses, payload, header=("cycle", "point_index", "x"), columns=tuple(zip(*rows)), meta=meta
    )


def _run_interfere(opt) -> Result:
    try:
        problem = interference_polynomial(opt["delta"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad --delta: {exc}") from exc
    density = _accumulate(problem, opt)
    peaks = peak_detect(density, opt["min_prominence"])
    return _histogram_result(
        density,
        opt["iters"],
        {"delta": opt["delta"], "seed": opt["seed"]},
        {"peaks": peaks, "in_range": density.in_range},
        lambda: emit_svgdata(density, peaks=peaks),
        peaks=peaks,
    )


def _run_ops_check(opt) -> Result:
    if not 1 <= opt["steps"] <= MAX_OPS_CHECK_STEPS:
        raise ConfigError(f"--steps must lie in 1..{MAX_OPS_CHECK_STEPS}, got {opt['steps']}")
    sizes = opt["n"] or [64]
    if len(sizes) > MAX_OPS_CHECK_SIZES:
        raise ConfigError(f"--n is capped at {MAX_OPS_CHECK_SIZES} sizes, got {len(sizes)}")
    # every size is checked before any runs: a size of 1024 takes about 0.2 s
    if max(sizes) > MAX_DENSE_N:
        raise ConfigError(f"--n is capped at {MAX_DENSE_N} to bound memory, got {max(sizes)}")
    reports, ms_per_size = [], []
    for n in sizes:
        started = time.perf_counter()
        reports.append(ops_check(n, spacing=opt["spacing"], seed=opt["seed"], evolve_steps=opt["steps"]))
        ms_per_size.append(1e3 * (time.perf_counter() - started))
    worst = max(
        v for r in reports for k, v in r.items() if k != "n"
    )
    statuses = {"sizes": list(sizes), "worst_residual": worst, "ms_per_size": ms_per_size}
    return Result(statuses, {"reports": reports})


def _run_dispersion(opt) -> Result:
    units = NaturalUnits(hbar=opt["hbar"], c=opt["c"])
    count = "samples" if opt["model"] == "kg" else "n"
    if opt[count] > MAX_DISPERSION_SAMPLES:
        raise ConfigError(f"--{count} is capped at {MAX_DISPERSION_SAMPLES}, got {opt[count]}")
    if opt["model"] == "kg":
        if not math.isfinite(opt["kmax"] - opt["kmin"]):
            raise ConfigError(f"--kmax minus --kmin must be finite, got {opt['kmax']} - {opt['kmin']}")
        ks = np.linspace(opt["kmin"], opt["kmax"], opt["samples"])
        omegas = klein_gordon_dispersion(ks, opt["mass"], units)
        meta = {"model": "kg", "mass": opt["mass"], "c": opt["c"], "hbar": opt["hbar"]}
    else:
        hoppings = opt["t"] or [1.0]
        if opt["n"] * len(hoppings) > MAX_DISPERSION_WORK:
            raise ConfigError(
                f"--n times the number of --t values is capped at {MAX_DISPERSION_WORK}, "
                f"got {opt['n']} x {len(hoppings)}"
            )
        grid = Grid(opt["n"], opt["spacing"])
        check_hopping_range(grid, hoppings)
        ks = np.sort(wavevector_values(grid))
        omegas = tight_binding_band(ks, grid.spacing, opt["eps"], hoppings)
        meta = {"model": "tb", "eps": opt["eps"], "n": opt["n"], "spacing": opt["spacing"]}
    return Result(
        {"model": opt["model"], "samples": len(ks)},
        _with_meta(meta, k=ks, omega=omegas),
        header=("k", "omega"),
        columns=(ks, omegas),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# the command table


@dataclass(frozen=True)
class Command:
    """One subcommand.  Each option is (config key, default, argparse
    keywords); its flag is the key with '-' for '_'."""

    help: str
    runner: Callable[[dict], Result]
    options: tuple
    formats: tuple = ("csv", "json")  # the default first
    required: tuple = ()

    def defaults(self) -> dict:
        return {key: default for key, default, _ in self.options}


_POLY = ("poly", None, {"help": "polynomial, e.g. 'x^2+1'"})
_X0 = ("x0", None, {"type": float})
_ITERS = ("iters", 201000, {"type": int})
_BURNIN = ("burnin", 1000, {"type": int})
_SEED = ("seed", None, {"type": int})
_SPACING = ("spacing", 1.0, {"type": float})

COMMANDS = {
    "orbit": Command(
        "record a Newton-map orbit",
        _run_orbit,
        (_POLY, _X0, ("steps", 100, {"type": int}), ("tol", 1e-12, {"type": float})),
        required=("poly", "x0"),
    ),
    "density": Command(
        "accumulate an orbit visit density",
        _run_density,
        (
            _POLY,
            _X0,
            _ITERS,
            _BURNIN,
            ("bins", 200, {"type": int}),
            ("range", "-10:10", {"help": "lo:hi (use --range=-10:10 for negative bounds)"}),
            _SEED,
            ("overlay_cauchy", False, {"action": "store_true"}),
        ),
        formats=("csv", "json", "svg"),
        required=("poly",),
    ),
    "cycles": Command(
        "locate periodic cycles of the map",
        _run_cycles,
        (_POLY, ("period", 1, {"type": int}), ("range", "-3:3", {}), ("grid", 1000, {"type": int})),
        formats=("json", "csv"),
        required=("poly",),
    ),
    "interfere": Command(
        "two-well interference density",
        _run_interfere,
        (
            ("delta", None, {"type": float}),
            _ITERS,
            _BURNIN,
            ("bins", 280, {"type": int}),
            ("range", "-2:5", {}),
            _X0,
            _SEED,
            ("min_prominence", 0.05, {"type": float}),
        ),
        formats=("csv", "json", "svg"),
        required=("delta",),
    ),
    "ops-check": Command(
        "operator residual report",
        _run_ops_check,
        (("n", None, {"type": int, "action": "append"}), _SPACING, ("steps", 1000, {"type": int}), _SEED),
        formats=("json",),
    ),
    "dispersion": Command(
        "emit a dispersion relation omega(k)",
        _run_dispersion,
        (
            ("model", "kg", {"choices": ("kg", "tb")}),
            ("mass", 1.0, {"type": float}),
            ("c", 1.0, {"type": float}),
            ("hbar", 1.0, {"type": float}),
            ("kmin", -10.0, {"type": float}),
            ("kmax", 10.0, {"type": float}),
            ("samples", 201, {"type": int}),
            ("n", 64, {"type": int}),
            _SPACING,
            ("eps", 2.0, {"type": float}),
            ("t", None, {"type": float, "action": "append"}),
        ),
    ),
}


def run(config: RunConfig) -> RunReport:
    """Execute one command and write its output atomically.

    The report's ``phases`` are ms; ``parse`` is 0 here and ``main`` sets it.
    A command that runs the map adds ``iterates_per_s`` to its statuses: the
    iterates stepped over the seconds of the compute phase."""
    started = time.perf_counter()
    command = COMMANDS[config.command]
    # an overflow or an invalid operation is an error, not a warning
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        result = command.runner(config.options)
        computed = time.perf_counter()
        text = _render(result, config.output_format)
    rendered = time.perf_counter()
    output = _atomic_write(config.output_path, text)
    written = time.perf_counter()
    statuses = result.statuses
    if result.iterates:
        statuses = {**statuses, "iterates_per_s": result.iterates / (computed - started)}
    options = {key: config.options.get(key) for key in sorted(command.defaults())}
    echo = {k: None if v is None else _fmt(v) for k, v in options.items()}
    return RunReport(
        command=config.command,
        config={"options": echo,
                "output_path": config.output_path,
                "output_format": config.output_format},
        wall_time_s=time.perf_counter() - started,
        restart_count=result.restarts,
        statuses=statuses,
        outputs=[output],
        phases={
            "parse": 0.0,
            "compute": 1e3 * (computed - started),
            "render": 1e3 * (rendered - computed),
            "write": 1e3 * (written - rendered),
        },
    )


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError instead of exiting, so errors emit one JSON line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; ``main`` builds one per process and reuses it."""
    parser = _Parser(
        prog="nrq",
        description="Newton-Raphson map experiments and periodic-grid operator checks",
    )
    parser.add_argument("--version", action="version", version=f"nrq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for key, _default, kwargs in command.options:
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--format", help=f"{' or '.join(command.formats)} (default {command.formats[0]})")
        p.add_argument("--out", help="output path (default nrq-<command>.<format>)")
    return parser


def _is_a(kind, value) -> bool:
    # bool is an int subclass; a float option takes a JSON int as its flag
    # takes "1", but only one that converts to a double
    if isinstance(value, bool):
        return False
    if kind is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _check_file_value(key: str, value, default, kwargs: dict) -> None:
    """Raise ConfigError unless a config-file value is one the option's flag could give."""
    kind = kwargs.get("type", str)
    action = kwargs.get("action")
    if value is None:
        ok, expected = default is None, "not null"
    elif action == "store_true":
        ok, expected = isinstance(value, bool), "true or false"
    elif action == "append":
        ok = isinstance(value, list) and all(_is_a(kind, v) for v in value)
        expected = f"a list of {kind.__name__}"
    else:
        ok = _is_a(kind, value) and ("choices" not in kwargs or value in kwargs["choices"])
        expected = f"one of {list(kwargs['choices'])}" if "choices" in kwargs else kind.__name__
    if not ok:
        raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def resolve_config(namespace: argparse.Namespace) -> RunConfig:
    """Apply precedence: CLI flags > config file > defaults (+ NRQ_SEED)."""
    command = namespace.command
    spec = COMMANDS[command]
    cli_options = {k: v for k, v in vars(namespace).items() if k != "command"}
    options = spec.defaults()
    config_path = cli_options.pop("config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_options = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_options, dict):
            raise ConfigError("config file must hold a JSON object")
        table = {key: (default, kwargs) for key, default, kwargs in spec.options}
        table.update(format=(None, {}), out=(None, {}))
        unknown = set(file_options) - set(table)
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in file_options.items():
            _check_file_value(key, value, *table[key])
        options.update(file_options)
    options.update(cli_options)

    output_format = options.pop("format", None) or spec.formats[0]
    output_path = options.pop("out", None) or f"nrq-{command}.{output_format}"

    if "seed" in options and options["seed"] is None:
        env_seed = os.environ.get("NRQ_SEED")
        if env_seed is not None:
            try:
                options["seed"] = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"bad NRQ_SEED {env_seed!r}") from exc
        else:
            options["seed"] = 0

    # NaN and inf reach no run, whether from a flag, a config value or a list element
    for key, _default, kwargs in spec.options:
        flag = "--" + key.replace("_", "-")
        value = options.get(key)
        if value is None:
            if key in spec.required:
                raise ConfigError(f"missing required option {flag}")
        elif kwargs.get("type") is float and not all(
            map(math.isfinite, value if isinstance(value, list) else [value])
        ):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
    return RunConfig(command, options, output_path, output_format)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it was, and _Parser.error raises, so a
    # failed call leaves nothing behind for the next
    return build_parser()


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        try:
            config = resolve_config(_parser().parse_args(argv))
        except SystemExit as exc:  # --help / --version
            # flushed here, so a closed stdout ends below like a report's
            sys.stdout.flush()
            return int(exc.code or 0)
        parsed = time.perf_counter()
        report = run(config)
        report.phases["parse"] = 1e3 * (parsed - started)
        print(report.to_json(), flush=True)
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - boundary: one JSON line, exit 2 or 3
        if isinstance(exc, BrokenPipeError):
            # stdout's reader is gone: the interpreter's flush at exit then
            # writes to devnull instead of failing a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ValueError, FloatingPointError)) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
