"""Spans and counters around fermichain's public functions, from outside.

A :class:`Tracer` replaces every binding site of a traced public name with a
wrapper: the defining module's attribute and every other ``fermichain``
module attribute that holds the same object (``closedforms.integrate_interval``
as well as ``transport.integrate_interval``, ``closedforms.SpecialFnTable``
as well as ``special.SpecialFnTable``, the package-level re-exports).  The
package itself is not edited.

Each outermost call into a layer records one span (layer, tag, function,
start, end, parent span, thread).  A call made while the same layer is
already active on that thread is part of the outer call: it is not a new
call and records no span, so a layer's seconds never count one interval
twice.  Spans and counters stay in memory until the caller writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import os
import sys
import threading
import time

# layer -> (module, public names).  None means every public function the
# module defines, so a name added or removed later is still covered.
LAYERS = {
    "transport.integrate": ("transport", ("integrate_interval",)),
    "transport.onsager": ("transport", ("onsager",)),
    "transport.counters": ("transport", ("nbar", "ebar", "qbar")),
    "dynamics.lindblad": ("dynamics", ("lindblad_trajectory",)),
    "dynamics.closed": ("dynamics", ("occ_a", "occ_b", "coherence_ab",
                                     "density_matrix")),
    "closedforms.omega": ("closedforms", ("omega", "omega_defining_integral")),
    "closedforms.sommerfeld": ("closedforms", ("nbar_fd_sommerfeld",
                                               "ebar_fd_sommerfeld",
                                               "equilibrium_sommerfeld_onsager")),
    "special.table": ("special", ("SpecialFnTable",)),
    "entropy": ("entropy", None),
    "fluctuation": ("fluctuation", None),
    "scenarios.run": ("scenarios", ("run_scenario",)),
    "scenarios.write": ("scenarios", ("write_result",)),
}

SCENARIO_IDS = ("ons1", "onsevo1", "onsevo2", "entroevo", "entroprod", "mutint",
                "onsteste1", "onsteste2", "custom")
CRITERION_IDS = tuple("c%d" % i for i in range(1, 11))

# counters each pass reports besides calls; all start at zero
EXTRA_COUNTERS = (
    "transport.integrate.levels", "transport.integrate.nodes",
    "transport.integrate.kept_nodes",
    "dynamics.lindblad.modes", "dynamics.lindblad.steps",
    "closedforms.omega.terms", "closedforms.omega.fallbacks",
    "closedforms.sommerfeld.terms", "closedforms.sommerfeld.unconverged",
    "scenarios.write.bytes", "scenarios.write.rows",
)


def public_functions(module) -> tuple:
    return tuple(sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")))


def binding_sites(obj) -> list:
    """Every (module, attribute) of the loaded fermichain package bound to obj."""
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "fermichain"
                                  or mod_name.startswith("fermichain.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is obj:
                sites.append((module, attr))
    return sites


def lindblad_mode_steps(t_grid, dt_max: float) -> int:
    """RK4 steps one mode takes over t_grid, by the stepper's own rule."""
    steps = 0
    t_now = 0.0
    for t_stop in [float(t) for t in t_grid]:
        span = t_stop - t_now
        if span > 0.0:
            steps += max(1, int(math.ceil(span / dt_max)))
            t_now = t_stop
    return steps


class MissingName(LookupError):
    """A name the tracer must wrap is not in fermichain (renamed or removed)."""


class Tracer:
    """Install with :meth:`install`, read with :meth:`pass_metrics`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (module, attr, original)
        self.wrapped = {}  # qualified name -> number of sites patched
        self.origin = time.perf_counter()
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Start a new pass: drop spans and counters recorded so far."""
        with self._lock:
            self.spans = []  # [layer, tag, fn, start, end, parent, thread]
            self.counts = dict.fromkeys(EXTRA_COUNTERS, 0)
            self._root = None

    def add(self, key: str, amount):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, layer, fn_name, fn, hook, signature, tag_of, args, kwargs):
        stack = self._stack()
        done = None
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            done = hook(self, bound)
            args, kwargs = bound.args, bound.kwargs
        if any(active == layer for _, active in stack):
            return self._finish(done, fn, args, kwargs)
        main = threading.current_thread() is threading.main_thread()
        # a pool thread's first span belongs to the main thread's open span
        parent = stack[-1][0] if stack else (None if main else self._root)
        tag = tag_of(args, kwargs) if tag_of is not None else ""
        with self._lock:
            index = len(self.spans)
            span = [layer, tag, fn_name, time.perf_counter(), None, parent,
                    threading.get_ident()]
            self.spans.append(span)
            if main and not stack:
                self._root = index
        stack.append((index, layer))
        try:
            return self._finish(done, fn, args, kwargs)
        finally:
            span[4] = time.perf_counter()
            stack.pop()
            if main and not stack:
                self._root = None

    @staticmethod
    def _finish(done, fn, args, kwargs):
        if done is None:
            return fn(*args, **kwargs)
        result = fn(*args, **kwargs)
        done(result)
        return result

    def _wrapper(self, layer, fn_name, fn, hook=None, tag_of=None):
        tracer = self

        if inspect.isclass(fn):
            class Traced(fn):
                def __init__(self, *args, **kwargs):
                    tracer._call(layer, fn_name, super().__init__, None, None,
                                 None, args, kwargs)

            Traced.__name__ = fn.__name__
            Traced.__qualname__ = fn.__qualname__
            Traced.__module__ = fn.__module__
            return Traced

        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(layer, fn_name, fn, hook, signature, tag_of,
                                args, kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, original, replacement, qualname: str):
        sites = binding_sites(original)
        for module, attr in sites:
            self._patches.append((module, attr, original))
            setattr(module, attr, replacement)
        self.wrapped[qualname] = len(sites)

    def install(self, fermichain):
        """Wrap every traced name at every site that binds it.

        Raises :class:`MissingName`, before patching anything, when a traced
        name is gone, so a rename cannot read as a layer doing no work.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        targets = []
        for layer, (mod_name, names) in LAYERS.items():
            module = getattr(fermichain, mod_name)
            for name in names if names is not None else public_functions(module):
                original = getattr(module, name, None)
                if original is None:
                    raise MissingName("fermichain has no %s.%s to trace"
                                      % (mod_name, name))
                targets.append((layer, mod_name, name, original))
        criteria = getattr(fermichain.acceptance, "CRITERIA", None)
        if criteria is None:
            raise MissingName("fermichain has no acceptance.CRITERIA to trace")
        for layer, mod_name, name, original in targets:
            hook = _HOOKS.get(name)
            tag_of = _scenario_tag if name == "run_scenario" else None
            self._patch(original, self._wrapper(layer, name, original, hook, tag_of),
                        "%s.%s" % (mod_name, name))
        traced = tuple(dataclasses.replace(
            crit, fn=self._wrapper("acceptance", crit.fn.__name__, crit.fn,
                                   tag_of=lambda a, k, cid=crit.cid: cid))
            for crit in criteria)
        self._patch(criteria, traced, "acceptance.CRITERIA")
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer counts and seconds of the spans recorded since reset."""
        with self._lock:
            spans = [list(s) for s in self.spans]
            counts = dict(self.counts)
        calls = {}
        busy = {}
        children = {}
        for index, (layer, tag, _, start, end, parent, _) in enumerate(spans):
            key = layer if layer != "acceptance" else "acceptance.%s" % tag
            calls[key] = calls.get(key, 0) + 1
            busy[key] = busy.get(key, 0.0) + (end - start)
            if layer == "scenarios.run":
                busy["scenarios.%s" % tag] = busy.get("scenarios.%s" % tag, 0.0) + (
                    end - start)
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        self_s = 0.0
        for index, span in enumerate(spans):
            if span[0] == "scenarios.run":
                self_s += (span[4] - span[3]) - _covered(
                    span[3], span[4], children.get(index, ()))
        m = {}
        for layer in LAYERS:
            if layer not in ("scenarios.run", "scenarios.write"):
                m[layer + ".calls"] = calls.get(layer, 0)
            m[layer + ".s"] = busy.get(layer, 0.0)
        m["scenarios.run.self_s"] = self_s
        for sid in SCENARIO_IDS:
            m["scenarios.%s.s" % sid] = busy.get("scenarios.%s" % sid, 0.0)
        for cid in CRITERION_IDS:
            m["acceptance.%s.s" % cid] = busy.get("acceptance.%s" % cid, 0.0)
        for key, value in counts.items():
            if key != "transport.integrate.kept_nodes":
                m[key] = value
        nodes = counts["transport.integrate.nodes"]
        m["transport.integrate.kept_ratio"] = (
            counts["transport.integrate.kept_nodes"] / nodes if nodes else 0.0)
        return m

    def span_rows(self):
        """Recorded spans with times in seconds since the tracer was made."""
        with self._lock:
            return [(layer, tag, fn, start - self.origin, end - self.origin,
                     parent, thread)
                    for layer, tag, fn, start, end, parent, thread in self.spans]


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _scenario_tag(args, kwargs) -> str:
    cfg = args[0] if args else kwargs["cfg"]
    return str(cfg.scenario)


# -- per-function hooks: called with the bound arguments before the call,
#    they may swap arguments and return a callback that sees the result --

def _integrate_hook(tracer, bound):
    f = bound.arguments["f"]
    last = [0]

    def counted(nodes):
        # counted as evaluated, so a call that then fails still shows its work
        tracer.add("transport.integrate.levels", 1)
        tracer.add("transport.integrate.nodes", len(nodes))
        last[0] = len(nodes)
        return f(nodes)

    bound.arguments["f"] = counted
    return lambda _result: tracer.add("transport.integrate.kept_nodes", last[0])


def _lindblad_hook(tracer, bound):
    mode = bound.arguments["mode"]
    modes = len(mode) if isinstance(mode, (list, tuple)) else 1
    steps = lindblad_mode_steps(bound.arguments["t_grid"], bound.arguments["dt_max"])
    tracer.add("dynamics.lindblad.modes", modes)
    tracer.add("dynamics.lindblad.steps", modes * steps)
    return None


def _omega_terms_hook(tracer, bound):
    return lambda result: tracer.add("closedforms.omega.terms", result.terms_used)


def _omega_fallback_hook(tracer, bound):
    tracer.add("closedforms.omega.fallbacks", 1)
    return _omega_terms_hook(tracer, bound)


def _sommerfeld_hook(tracer, bound):
    def done(result):
        tracer.add("closedforms.sommerfeld.terms", result.terms_used)
        tracer.add("closedforms.sommerfeld.unconverged", 0 if result.converged else 1)
    return done


def _write_hook(tracer, bound):
    result = bound.arguments["result"]
    rows = sum(len(p.columns[0]) if p.columns else 0 for p in result.panels)

    def done(paths):
        tracer.add("scenarios.write.rows", rows)
        tracer.add("scenarios.write.bytes", sum(os.path.getsize(p) for p in paths))
    return done


_HOOKS = {
    "integrate_interval": _integrate_hook,
    "lindblad_trajectory": _lindblad_hook,
    "omega": _omega_terms_hook,
    "omega_defining_integral": _omega_fallback_hook,
    "nbar_fd_sommerfeld": _sommerfeld_hook,
    "ebar_fd_sommerfeld": _sommerfeld_hook,
    "write_result": _write_hook,
}
