"""Tracing for the benchmark's traced runs.

``Tracer.install`` wraps nrq's public functions where their callers look
them up (``nrq.cli.accumulate_density``, ``nrq.measure.newton_step``,
``nrq.qops.LinearOp.eigh``, ...) and ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.  Each wrapper records a span (id, layer,
start, end, parent id, op id) in memory; a layer's self time is its span's
duration minus the time its child spans cover.  A function missing at the
commit under test is skipped and listed in ``absent``.

A wrapper costs up to a microsecond per call, which would swamp a layer
called ~1e5 times per round (``newton_step``).  The tracer therefore
measures that cost on a wrapped no-op (``calibrate``; run.py repeats it
before every traced round), and the layer totals and self times are net of
it: each span loses its own wrapper cost and the cost of every wrapped call
nested in it.  Span timestamps stay raw; each span also carries its net
duration.
"""

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict

# (layer, module, attribute).  A layer may sit behind several lookup sites;
# nrq.cli holds its own references to the measure and qops functions it
# calls, and measure and qops call their own module globals.
TARGETS = (
    ("parsing.parse", "nrq.cli", "parse_polynomial"),
    ("newton.orbit", "nrq.cli", "iterate_orbit"),
    ("newton.step", "nrq.measure", "newton_step"),
    ("measure.accumulate", "nrq.cli", "accumulate_density"),
    ("measure.accumulate", "nrq.measure", "accumulate_density"),
    ("measure.distance", "nrq.measure", "density_distance"),
    ("measure.peaks", "nrq.cli", "peak_detect"),
    ("measure.peaks", "nrq.measure", "peak_detect"),
    ("measure.peaks", "nrq.measure", "half_width_at_half_max"),
    ("measure.cycles", "nrq.cli", "find_cycles"),
    ("qops.ops_check", "nrq.cli", "ops_check"),
    ("qops.build", "nrq.qops", "shift_operator"),
    ("qops.build", "nrq.qops", "frequency_operator"),
    ("qops.build", "nrq.qops", "wavevector_operator"),
    ("qops.build", "nrq.qops", "position_operator"),
    ("qops.build", "nrq.qops", "tight_binding_hamiltonian"),
    ("qops.eigh", "nrq.qops", "LinearOp.eigh"),
    ("qops.evolve", "nrq.qops", "evolve"),
    ("qops.apply", "nrq.qops", "LinearOp.apply"),
    ("cli.run", "nrq.cli", "run"),
    ("cli.emit", "nrq.cli", "emit_csv"),
    ("cli.emit", "nrq.cli", "emit_svgdata"),
    ("cli.emit", "nrq.cli", "json.dumps"),
    ("cli.write", "nrq.cli", "_atomic_write"),
)

# newton_step runs ~1e5 times per cycle scan: it is timed and counted in
# aggregate instead of one span per call, through a lighter wrapper that
# keeps memory bounded.  Such a leaf layer must call no wrapped function.
LEAF_LAYERS = {"newton.step"}

# The calibration call has newton_step's shape: two positional arguments.
CALIBRATION_CALLS = 10000
CALIBRATION_REPEATS = 5

# json.dumps inside nrq.cli is emission while cli.run is on the stack; the
# stdout report it also writes, after cli.run, is not timed.
JSON_EMIT_INSIDE = "cli.run"


def _bound_argument(fn, name):
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: None

    def get(args, kwargs):
        try:
            return signature.bind(*args, **kwargs).arguments.get(name)
        except TypeError:
            return None

    return get


def _orbit_steps(counters, args, kwargs, orbit):
    counters["orbit_steps"] += len(orbit.iterates) - 1


def _cycle_counts(counters, args, kwargs, scan):
    counters["cycle_points"] += sum(len(cycle.points) for cycle in scan.cycles)
    counters["pole_intervals"] += len(scan.pole_intervals)


def _bytes_written(counters, args, kwargs, output):
    counters["bytes_written"] += int(output["bytes"])


def _counter_hook(layer, fn):
    """Counts taken from a call's arguments or result, per layer."""
    if layer == "measure.accumulate":
        requested = _bound_argument(fn, "n")

        def accumulate_counts(counters, args, kwargs, density):
            counters["iterates"] += int(requested(args, kwargs) or 0)
            counters["restarts"] += int(density.restarts)

        return accumulate_counts
    return {"newton.orbit": _orbit_steps, "measure.cycles": _cycle_counts,
            "cli.write": _bytes_written}.get(layer)


class _JsonProxy:
    """Stands in for the ``json`` module inside nrq.cli so that its
    ``dumps`` can be wrapped without touching the real module."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


def _noop(problem, x):
    return x


class Tracer:
    def __init__(self, cost=None):
        """``cost`` is a wrapper cost from ``calibrate`` (of this or another
        process on the same interpreter); by default it is measured here."""
        self.spans = []  # (id, layer, start, end, parent id, op id, net duration)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # layer -> calls, net time, net self time
        self.counters = defaultdict(int)
        self.absent = []
        self._stack = []  # frames: [span id, layer, start, net child time, nested wrapper cost]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._op = None
        self._installed = []  # (owner, attribute, original)
        self.cost = cost if cost is not None else self.calibrate()

    # -- spans --------------------------------------------------------------

    def _enter(self, layer):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, layer, time.perf_counter(), 0.0, 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def _exit(self, frame, own_cost=(0.0, 0.0)):
        """Close ``frame``; ``own_cost`` is the (inner, outer) cost of the
        wrapper that opened it, (0, 0) for an operation's root span."""
        end = time.perf_counter()
        self._stack.pop()
        sid, layer, start, child, nested = frame
        self._depth[layer] -= 1
        net = end - start - own_cost[0] - nested
        if self._stack:
            parent = self._stack[-1]
            parent[3] += net
            parent[4] += nested + own_cost[1]
        stat = self.stats[layer]
        stat[0] += 1
        if self._depth[layer] == 0:  # a layer nested in itself is timed once
            stat[1] += net
        stat[2] += net - child
        parent_id = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, layer, start, end, parent_id, self._op, net))

    @contextlib.contextmanager
    def op(self, op_id, kind):
        """One benchmark operation: the root span of everything it calls."""
        self._op = op_id
        frame = self._enter(f"op.{kind}")
        try:
            yield
        finally:
            self._exit(frame)
            self._op = None

    def _wrap(self, layer, fn, inside=None):
        if layer in LEAF_LAYERS:
            return self._wrap_leaf(layer, fn)
        hook = _counter_hook(layer, fn)
        tracer = self

        def wrapper(*args, **kwargs):
            if inside is not None and not tracer._depth[inside]:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, tracer.cost["span"])
            if hook is not None:
                try:
                    hook(tracer.counters, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    if f"{layer} counts" not in tracer.absent:
                        tracer.absent.append(f"{layer} counts")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, layer, fn):
        """Times and counts calls with no span, stack frame or hook."""
        tracer, stats, stack = self, self.stats, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                inner, outer = tracer.cost["leaf"]
                net = clock() - start - inner
                stat = stats[layer]
                stat[0] += 1
                stat[1] += net
                stat[2] += net
                if stack:
                    stack[-1][3] += net
                    stack[-1][4] += outer

        wrapper.__wrapped__ = fn
        return wrapper

    def calibrate(self, calls=CALIBRATION_CALLS, repeats=CALIBRATION_REPEATS) -> dict:
        """Seconds each kind of wrapper adds per call, as (inner, outer):
        ``inner`` falls inside the wrapped layer's own time, ``outer`` is
        everything an enclosing span sees.  Fastest of ``repeats`` loops of
        ``calls`` calls to a wrapped and an unwrapped no-op."""
        self.cost = {"span": (0.0, 0.0), "leaf": (0.0, 0.0)}
        layer = "trace.calibration"
        clock = time.perf_counter

        def loop(fn):
            start = clock()
            for _ in range(calls):
                fn(None, 0.5)
            return clock() - start

        def empty():
            start = clock()
            for _ in range(calls):
                pass
            return clock() - start

        empty_s = min(empty() for _ in range(repeats))
        direct_s = min(loop(_noop) for _ in range(repeats))
        cost = {}
        for kind, wrapped in (("span", self._wrap(layer, _noop)), ("leaf", self._wrap_leaf(layer, _noop))):
            through, inside = [], []
            for _ in range(repeats):
                self.stats.pop(layer, None)
                self.spans.clear()
                through.append(loop(wrapped))
                inside.append(self.stats[layer][1])
            inner = min(inside) - (direct_s - empty_s)
            outer = min(through) - direct_s
            cost[kind] = (max(inner, 0.0) / calls, max(outer, 0.0) / calls)
        self.stats.pop(layer, None)
        self.spans.clear()
        self._next_id = 0
        self.cost = cost
        return cost

    # -- installation --------------------------------------------------------

    def install(self):
        for layer, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            *parents, attribute = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            if path == "json.dumps":
                module = importlib.import_module(module_name)
                self._installed.append((module, "json", owner))
                module.json = _JsonProxy(owner, self._wrap(layer, original, JSON_EMIT_INSIDE))
                continue
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original))
        return self

    def uninstall(self):
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of the stats and counters, for summing across
        rounds and processes."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
            "wrapper_cost_ns": self.cost_ns(),
        }

    def cost_ns(self) -> dict:
        return {f"{kind}_{side}": round(value * 1e9, 1)
                for kind, pair in self.cost.items() for side, value in zip(("inner", "outer"), pair)}

    def reset_totals(self):
        self.stats.clear()
        self.counters.clear()

    def write_spans(self, fh):
        for sid, layer, start, end, parent, op, net in self.spans:
            fh.write(
                json.dumps(
                    {"id": sid, "name": layer, "start": start, "end": end, "parent": parent, "op": op,
                     "net_s": net}
                )
                + "\n"
            )


def add_snapshots(snapshots) -> dict:
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(int)
    absent = set()
    cost = None
    for snap in snapshots:
        cost = cost or snap.get("wrapper_cost_ns")
        for layer, (calls, total, self_time) in snap["stats"].items():
            s = stats[layer]
            s[0] += calls
            s[1] += total
            s[2] += self_time
        for key, value in snap["counters"].items():
            counters[key] += value
        absent.update(snap["absent"])
    return {"stats": dict(stats), "counters": dict(counters), "absent": sorted(absent),
            "wrapper_cost_ns": cost}


# (metric, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("import.nrq_s", "s"),
    ("import.scipy_s", "s"),
    ("parsing.parse_s", "s"),
    ("parsing.calls", "count"),
    ("newton.orbit_s", "s"),
    ("newton.orbit_steps", "count"),
    ("newton.step_calls", "count"),
    ("newton.step_s", "s"),
    ("measure.accumulate_s", "s"),
    ("measure.iterates", "count"),
    ("measure.ns_per_iterate", "ns"),
    ("measure.restarts", "count"),
    ("measure.distance_s", "s"),
    ("measure.distance_calls", "count"),
    ("measure.peaks_s", "s"),
    ("measure.cycles_s", "s"),
    ("measure.cycle_points", "count"),
    ("measure.pole_intervals", "count"),
    ("qops.ops_check_s", "s"),
    ("qops.ops_check_self_s", "s"),
    ("qops.build_s", "s"),
    ("qops.build_calls", "count"),
    ("qops.eigh_s", "s"),
    ("qops.eigh_calls", "count"),
    ("qops.evolve_s", "s"),
    ("qops.evolve_calls", "count"),
    ("qops.apply_s", "s"),
    ("cli.run_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
)


def layer_values(snapshot: dict) -> dict:
    """Per-layer metrics of one traced round (import and overhead excluded)."""
    stats, counters = snapshot["stats"], snapshot["counters"]

    def total(layer):
        return float(stats.get(layer, (0, 0.0, 0.0))[1])

    def calls(layer):
        return int(stats.get(layer, (0, 0.0, 0.0))[0])

    iterates = int(counters.get("iterates", 0))
    return {
        "parsing.parse_s": total("parsing.parse"),
        "parsing.calls": calls("parsing.parse"),
        "newton.orbit_s": total("newton.orbit"),
        "newton.orbit_steps": int(counters.get("orbit_steps", 0)),
        "newton.step_calls": calls("newton.step"),
        "newton.step_s": total("newton.step"),
        "measure.accumulate_s": total("measure.accumulate"),
        "measure.iterates": iterates,
        "measure.ns_per_iterate": total("measure.accumulate") / iterates * 1e9 if iterates else 0.0,
        "measure.restarts": int(counters.get("restarts", 0)),
        "measure.distance_s": total("measure.distance"),
        "measure.distance_calls": calls("measure.distance"),
        "measure.peaks_s": total("measure.peaks"),
        "measure.cycles_s": total("measure.cycles"),
        "measure.cycle_points": int(counters.get("cycle_points", 0)),
        "measure.pole_intervals": int(counters.get("pole_intervals", 0)),
        "qops.ops_check_s": total("qops.ops_check"),
        "qops.ops_check_self_s": float(stats.get("qops.ops_check", (0, 0.0, 0.0))[2]),
        "qops.build_s": total("qops.build"),
        "qops.build_calls": calls("qops.build"),
        "qops.eigh_s": total("qops.eigh"),
        "qops.eigh_calls": calls("qops.eigh"),
        "qops.evolve_s": total("qops.evolve"),
        "qops.evolve_calls": calls("qops.evolve"),
        "qops.apply_s": total("qops.apply"),
        "cli.run_s": total("cli.run"),
        "cli.emit_s": total("cli.emit"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": int(counters.get("bytes_written", 0)),
    }
