"""fermichain benchmark: one command, three workloads, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {figures,gate,sweep} --seed N \\
        --seconds S --trace {0,1}

fermichain is imported from the checked-out ``src/``; the run fails by name
if it would come from anywhere else.  Metric names and units are read from
``BENCHMARK.json`` next to this directory.

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are scaled to the reference host speed (see ``hostspeed.py``); the
raw times are printed and kept in the record beside them.
``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
traced ones (two traced passes at least), reports the per-layer metrics of
the traced passes (counts must repeat exactly from pass to pass; seconds
are medians) and the tracing overhead, and writes every span to
``perfbench/_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record, host facts included, is written to
``perfbench/_out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S, HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

SETUP_PROBES = 7  # measured fresh interpreters per run, after one warm-up
PRE_FILL = 0.15  # share of a run given to non-pass work before the passes
NOTE = ("Numbers come from an untuned, possibly shared host with %d CPUs "
        "(the benchmark was defined on a shared 2-CPU sandbox). Timings use "
        "only time.perf_counter (CLOCK_MONOTONIC across a set-up probe's two "
        "processes), end-to-end times are scaled by host-speed samples taken "
        "in the run (perfbench/hostspeed.py), and counts are process-local.")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    try:
        with open(SPEC_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (SPEC_PATH, exc)) from None


def import_fermichain():
    """Import fermichain from this tree's src/, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "fermichain", "__init__.py")):
        raise BenchError("no fermichain package under %s" % SRC)
    sys.path.insert(0, SRC)
    import fermichain

    src = os.path.realpath(SRC) + os.sep
    if not os.path.realpath(fermichain.__file__).startswith(src):
        raise BenchError("fermichain.__file__ is %s, outside the checked-out %s"
                         % (fermichain.__file__, SRC))
    return fermichain


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is no git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_facts(fc) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 0)
    return {"nproc": nproc, "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "fermichain": getattr(fc, "__version__", "unknown"),
            "git_commit": git_commit(),
            "note": NOTE % nproc}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class SetupProbe:
    """Fresh interpreters that import numpy and fermichain and parse a config.

    The first interpreter only writes the bytecode caches.  Later samples are
    spread over the run, between passes, so set-up time is measured under
    the same host conditions as the passes.  An interpreter runs on either
    CPU, so the host-speed samples of this process say little about it; it
    times the host-speed kernel itself once its set-up is done.  While a
    :class:`HostSpeed` is given as ``host``, it pauses for each interpreter.
    """

    def __init__(self, config):
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
                    json.dumps(config)]
        self.walls, self.kernel_s, self.numpy_s, self.fermichain_s = [], [], [], []
        self.host = None
        self._run()

    def _run(self) -> tuple:
        with self.host.paused() if self.host is not None else contextlib.nullcontext():
            tic = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run(self.cmd, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed: %s" % proc.stderr.strip())
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        return parts["ready"] - tic, parts

    def sample(self):
        wall, parts = self._run()
        self.walls.append(wall)
        self.kernel_s.append(parts["kernel_s"])
        self.numpy_s.append(parts["numpy_s"])
        self.fermichain_s.append(parts["fermichain_s"])

    def medians(self) -> dict:
        while len(self.walls) < SETUP_PROBES:
            self.sample()
        scaled = [wall * REFERENCE_S[1] / k for wall, k in zip(self.walls, self.kernel_s)]
        return {"setup_s": statistics.median(scaled),
                "setup_raw_s": statistics.median(self.walls),
                "setup.numpy_s": statistics.median(self.numpy_s),
                "setup.fermichain_s": statistics.median(self.fermichain_s)}


def run_passes(workload, seconds: float, items: list, probe=None,
               tracer=None, min_passes: int = 1, tick=None) -> tuple:
    """Whole passes until the next one would overrun seconds (at least min_passes).

    Takes a set-up sample after a pass whenever another 1/SETUP_PROBES of
    the time has gone by, and passes ``tick`` to the workload.  Returns each
    pass's (start, end) perf_counter() stamps and, when traced, each pass's
    per-layer metrics and spans.
    """
    passes, layer_metrics, spans = [], [], []
    start = time.perf_counter()
    next_probe = start + seconds / SETUP_PROBES
    while True:
        if tracer is not None:
            tracer.reset()
        tic = time.perf_counter()
        items.extend(workload.run_pass(tick))
        passes.append((tic, time.perf_counter()))
        if tracer is not None:
            layer_metrics.append(tracer.pass_metrics())
            spans.append(tracer.span_rows())
        if probe is not None and time.perf_counter() >= next_probe:
            probe.sample()
            next_probe += seconds / SETUP_PROBES
        if (len(passes) >= min_passes and time.perf_counter() - start
                + statistics.median(b - a for a, b in passes) > seconds):
            return passes, layer_metrics, spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_values(per_pass: list, spec_layer: list) -> tuple:
    """Per-layer values; seconds are medians, counts must repeat exactly."""
    values, unsteady = {}, []
    for metric in spec_layer:
        name = metric["name"]
        seen = [m[name] for m in per_pass]
        if metric["unit"] == "s":
            values[name] = statistics.median(seen)
        else:
            values[name] = seen[0]
            if any(v != seen[0] for v in seen):
                unsteady.append(name)
    return values, unsteady


def write_spans(path: str, passes: list):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["pass", "layer", "tag", "function", "start_s", "end_s",
                      "parent", "thread"])
        for number, rows in enumerate(passes):
            for layer, tag, fn, start, end, parent, thread in rows:
                out.writerow([number, layer, tag, fn, "%.9f" % start, "%.9f" % end,
                              "" if parent is None else parent, thread])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "gate", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        fc = import_fermichain()
        from tracer import MissingName, Tracer
        from workloads import WORKLOADS

        out_dir = os.path.join(OUT, args.workload)
        workload = WORKLOADS[args.workload](fc, args.seed, out_dir)
        configs = workload.config_data()
        probe = SetupProbe(configs[0] if configs else None)
    except BenchError as exc:
        print("perfbench: error: %s" % exc, file=sys.stderr)
        return 2

    items = workload.warm_up()
    timed_from = len(items)
    problems = []
    raw = None
    if args.trace == 0:
        speed = HostSpeed(workload.threads)
        probe.host = speed
        speed.start()
        start = time.perf_counter()
        # work besides the passes (the gate's short criteria) goes on both
        # sides of them
        items.extend(workload.fill(start + PRE_FILL * args.seconds, speed.tick))
        passes, _, _ = run_passes(workload, start + args.seconds - time.perf_counter(),
                                  items, probe, tick=speed.tick)
        items.extend(workload.fill(start + args.seconds, speed.tick))
        setup = probe.medians()
        speed.stop()
        timed = items[timed_from:]
        values = {"setup_s": setup["setup_s"]}
        raw = {"setup_s": setup["setup_raw_s"]}
        for out, seconds in ((values, speed.scaled), (raw, speed.raw)):
            times = workload.item_times(timed, lambda it: seconds(it.start, it.end))
            out.update(wall_s=statistics.median(seconds(a, b) for a, b in passes),
                       item_p50_ms=1e3 * statistics.median(times),
                       item_p90_ms=1e3 * statistics.quantiles(
                           times, n=10, method="inclusive")[8])
        values["peak_rss_mb"] = peak_rss_mb()
        pass_seconds = [speed.raw(a, b) for a, b in passes]
        metric_spec = spec["end_to_end"]
        samples = {"passes": len(passes), "timings": len(timed),
                   "timed_items": len(times),
                   "setup_probes": len(probe.walls),
                   "host_speed_samples": len(speed.samples),
                   "host_speed_median_s": statistics.median(speed.samples),
                   "items_beyond_p90": sum(1 for t in times
                                           if 1e3 * t > raw["item_p90_ms"])}
    else:
        untraced, _, _ = run_passes(workload, args.seconds / 2.0, items, probe)
        untraced = [b - a for a, b in untraced]
        setup = probe.medians()
        tracer = Tracer()
        try:
            tracer.install(fc)
        except MissingName as exc:
            print("perfbench: error: %s" % exc, file=sys.stderr)
            return 2
        with tracer:
            # two passes at least, so that counts are compared on every workload
            traced, per_pass, spans = run_passes(workload, args.seconds / 2.0,
                                                 items, tracer=tracer, min_passes=2)
        traced = [b - a for a, b in traced]
        pass_seconds = untraced + traced
        for metric in per_pass:
            metric["setup.numpy_s"] = setup["setup.numpy_s"]
            metric["setup.fermichain_s"] = setup["setup.fermichain_s"]
            metric["trace.overhead_s"] = (statistics.median(traced)
                                          - statistics.median(untraced))
        metric_spec = spec["per_layer"]
        values, unsteady = layer_values(per_pass, metric_spec)
        if unsteady:
            problems.append("counts differ between traced passes: %s"
                            % ", ".join(unsteady))
        os.makedirs(OUT, exist_ok=True)
        write_spans(os.path.join(OUT, "spans-%s-seed%d.csv" % (args.workload,
                                                              args.seed)), spans)
        samples = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                   "setup_probes": len(probe.walls),
                   "spans_last_pass": len(spans[-1]),
                   "sites_patched": tracer.wrapped}

    failed = [it for it in items if it.error is not None]
    for it in failed[:10]:
        problems.append("%s: %s" % (it.label, it.error))
    host = host_facts(fc)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_spec}

    print("# fermichain benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# host: " + " ".join("%s=%s" % (k, host[k]) for k in host if k != "note"))
    print("# " + host["note"])
    print("# samples: %s" % json.dumps(samples, sort_keys=True))
    print("# error_rate %.6g (%d failed of %d items attempted)"
          % (len(failed) / len(items), len(failed), len(items)))
    if samples.get("items_beyond_p90", 10) < 10:
        print("# item_p90_ms has fewer than ten items beyond it: read it as "
              "an order statistic of %d items, not a tail" % samples["timed_items"])
    for problem in problems:
        print("# problem: %s" % problem)
    for name, metric in metrics.items():
        print("%-34s %.6g %s" % (name, metric["value"], metric["unit"])
              + ("" if raw is None or name not in raw else
                 "   (raw %.6g %s)" % (raw[name], metric["unit"])))

    result = {"correct": not problems, "attempted": len(items),
              "failed": len(failed), "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  samples=samples, problems=problems, raw=raw,
                  error_rate=len(failed) / len(items),
                  pass_seconds=pass_seconds,
                  items=[[it.label, it.seconds] if raw is None else
                         [it.label, speed.raw(it.start, it.end),
                          speed.scaled(it.start, it.end)]
                         for it in items[timed_from:]],
                  host_speed_samples=None if raw is None else speed.samples)
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
