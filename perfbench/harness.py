"""Runs one workload: set-up probes, warm-up body, timed loop, checks.

Imported only after run.py has pinned the environment, because it loads
numpy and maxgain.
"""

import gc
import importlib
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import probes
import workloads
from tracing import Patches, Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 60
MIN_BODIES = 3
EVAL_SPANS = ("optim.eval_metrics", "evaluate.per_layer_gains", "evaluate.gain_report")
E2E = ("setup_s", "wall_s", "peak_rss_mb")


class Checks:
    """Operations attempted and failed; an operation fails if it raised or
    any check on its output failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def time_setup(name, seed, size):
    """Seconds to import the maxgain package afresh and build the workload's
    inputs and network: the set-up before its first timed call.

    The package's modules are executed again from their sources in this warm
    process, and the modules in use are put back afterwards. A fresh
    interpreter would add its own start-up and numpy's import, about 0.15 s
    that no change to maxgain moves and that swung by a quarter between sets
    of runs on a shared 2-vCPU host. Collection is off while timing, as in
    timeit.
    """
    def ours():
        return {k: m for k, m in sys.modules.items() if k == "maxgain" or k.startswith("maxgain.")}

    saved = ours()
    for key in saved:
        del sys.modules[key]
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        importlib.import_module("maxgain")
        workloads.WORKLOADS[name](seed, size, Recorder())
        return time.perf_counter() - t0
    finally:
        gc.enable()
        for key in ours():
            del sys.modules[key]
        sys.modules.update(saved)


def body_sample(rec, wl):
    """End-to-end figures of the body just run, read from its spans."""
    spans = rec.spans
    sample = {"wall_s": sum(rec.durations("body")),
              "steps_ms": [1e3 * d for d in rec.durations("optim.train_step")]}
    if wl.train_samples:
        sample["train_samples_per_s"] = wl.train_samples / sum(rec.durations("optim.fit"))
    if wl.eval_samples:
        eval_s = sum(t1 - t0 for name, t0, t1, parent in spans
                     if name in EVAL_SPANS and (parent < 0 or spans[parent][0] not in EVAL_SPANS))
        sample["eval_samples_per_s"] = wl.eval_samples / eval_s
    opnorm = rec.durations("gain.lipschitz")
    if opnorm:
        sample["opnorm_s"] = sum(opnorm)
    return sample


def run_body(wl, hooks, steps, checks, first=None, after_body=None):
    """Run one body and check it; returns (outputs, sample), or (None, None)
    when the body raised. after_body(rec) sees the spans before the checks."""
    hooks.rec.clear()
    steps.reports.clear()
    steps.replays.clear()
    try:
        out = wl.body(hooks)
    except Exception:
        checks.record(False, f"{wl.name} body raised:\n{traceback.format_exc()}")
        return None, None
    sample = body_sample(hooks.rec, wl)
    if after_body is not None:
        after_body(hooks.rec)
    try:
        probes.check_reports(steps.reports, checks)
        for ok, what in steps.replays:
            checks.record(ok, what)
        if first is None:
            wl.check_first(out, checks)
        else:
            wl.check_repeat(first, out, checks)
    except Exception:
        checks.record(False, f"{wl.name} check raised:\n{traceback.format_exc()}")
    return out, sample


def write_spans(spans, path):
    """The last traced body's spans as TSV: name, start and duration in
    microseconds, and the index of the parent span (-1 for none)."""
    base = spans[0][1]
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_us\tdur_us\tparent\n")
        for i, (name, t0, t1, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{(t0 - base) * 1e6:.1f}\t{(t1 - t0) * 1e6:.1f}\t{parent}\n")


def traced_body(wl, hooks, steps, checks, first, setup_totals):
    """One body with every deep probe installed; returns (per-layer values,
    wall seconds, spans), or None when it raised."""
    got = None

    def keep(rec):
        nonlocal got
        got = probes.layer_metrics(rec, setup_totals), sum(rec.durations("body")), list(rec.spans)

    deep = Patches()
    probes.install_deep(hooks.rec, deep, hooks)
    try:
        run_body(wl, hooks, steps, checks, first, after_body=keep)
    finally:
        deep.restore()
    return got


def measure(name, seed, seconds, trace, size="full", setup_probes=SETUP_PROBES, spans_path=None):
    """Run one workload; returns (result, report, notes): the final JSON
    object, every figure for the text lines, and the first failed checks.

    Untraced runs time setup_probes set-ups between bodies, spread evenly
    over the run like the body samples, so that one slow spell of the
    machine does not hold all of them. Traced runs follow each
    untraced body with a traced one and skip the set-up probes.
    """
    rec = Recorder()
    hooks = probes.Hooks(rec)
    steps = probes.StepProbe(rec)
    checks = Checks()
    light = Patches()
    setup, samples, traced_walls, layer = [], [], [], None
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.WORKLOADS[name](seed, size, rec, workdir)
        setup_totals = rec.totals()
        probes.install_light(rec, light, steps)
        # the first body is the warm-up and carries the expensive checks
        steps.replay_every = wl.replay_every
        first, _ = run_body(wl, hooks, steps, checks)
        steps.replay_every = 0
        if first is None:
            raise RuntimeError("\n".join(checks.notes))
        start = time.perf_counter()
        deadline = start + seconds
        bodies = 0
        while bodies < MIN_BODIES or time.perf_counter() < deadline:
            bodies += 1
            _, sample = run_body(wl, hooks, steps, checks, first)
            if sample is not None:
                samples.append(sample)
            if trace:
                traced = traced_body(wl, hooks, steps, checks, first, setup_totals)
                if traced is not None:
                    layer, wall, spans = traced
                    traced_walls.append(wall)
            else:
                while (len(setup) < setup_probes
                       and time.perf_counter() >= start + seconds * len(setup) / setup_probes):
                    setup.append(time_setup(name, seed, size))
        while not trace and len(setup) < setup_probes:
            setup.append(time_setup(name, seed, size))
    finally:
        light.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    if not samples or (trace and layer is None):
        raise RuntimeError("no body completed:\n" + "\n".join(checks.notes))
    if trace and spans_path:
        write_spans(spans, spans_path)

    def med(key):
        values = [s[key] for s in samples if key in s]
        return statistics.median(values) if values else None

    step_ms = [t for s in samples for t in s["steps_ms"]]
    report = {
        "setup_s": (statistics.median(setup) if setup else None, "s", f"median of {len(setup)} set-ups: maxgain import, inputs, network"),
        "wall_s": (med("wall_s"), "s", f"median of {len(samples)} bodies"),
        "train_samples_per_s": (med("train_samples_per_s"), "1/s", "samples trained / fit wall time"),
        "step_ms_p50": (statistics.median(step_ms) if step_ms else None, "ms", f"train_step, n={len(step_ms)}"),
        # a p90 needs at least ten samples beyond it
        "step_ms_p90": (statistics.quantiles(step_ms, n=10)[8] if len(step_ms) >= 100 else None,
                        "ms", f"train_step, n={len(step_ms)}"),
        "eval_samples_per_s": (med("eval_samples_per_s"), "1/s", "eval-mode samples / eval wall time"),
        "opnorm_s": (med("opnorm_s"), "s", "lipschitz_upper_bound(p=2)"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB",
                        "peak resident set of this process"),
        "failed_frac": (checks.failed / checks.attempted, "ratio",
                        f"{checks.failed} of {checks.attempted} operations"),
    }
    if trace:
        layer["trace.wall_s"] = statistics.median(traced_walls)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - med("wall_s")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in probes.PER_LAYER}
    else:
        metrics = {k: {"value": report[k][0], "unit": report[k][1]} for k in E2E}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return result, report, checks.notes
