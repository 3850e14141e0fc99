"""Where the benchmark hooks into maxgain, and the per-layer metrics it derives.

Names are patched where they are looked up: `fit` calls `train_step` through
maxgain.optim's globals, `run_config` calls `fit`/`eval_metrics` through
maxgain.experiment's, and so on. Stages are wrapped one object at a time.
maxgain.gain is reached through sys.modules because the package attribute
`maxgain.gain` is the function gain(), not the module.

Two patch sets exist:
- light (every run): train_step, fit, eval_metrics and per_layer_gains, which
  the end-to-end metrics need;
- deep (traced bodies only): everything else the per-layer metrics name.
"""

import copy
import math
import sys

import numpy as np

import maxgain as mg
from maxgain import evaluate, experiment, optim

GAIN = sys.modules["maxgain.gain"]


class Hooks:
    """What a workload body calls besides maxgain: the span recorder, and
    on_network(net), which instruments a freshly made network's stages when
    the body is traced and does nothing otherwise."""

    def __init__(self, rec):
        self.rec = rec
        self.on_network = _ignore


def _ignore(net):
    pass


def oracle_scale(gamma_hat, gamma):
    """The projection multiplier 1 / max(1, gamma_hat / gamma), written out
    here so the check does not call the code it checks."""
    return 1.0 / max(1.0, gamma_hat / gamma)


def oracle_project(w, gamma_hat, gamma):
    ratio = gamma_hat / gamma
    return w / ratio if ratio > 1.0 else w


class StepProbe:
    """Stands in for maxgain.optim.train_step: times each call, keeps each
    StepReport with its gain settings, and replays every replay_every-th step
    on a copy to check the projection (see replay_step)."""

    def __init__(self, rec):
        self.rec = rec
        self.reports = []
        self.replays = []
        self.replay_every = 0
        self._orig = None
        self._timed = None

    def install(self, patches):
        self._orig = optim.train_step
        self._timed = self.rec.wrap("optim.train_step", self._orig)
        patches.set(optim, "train_step", self.step)

    def step(self, net, x, y, optimizer, lr, maxgain=None, rng=None):
        replay = (self.replay_every and maxgain is not None
                  and len(self.reports) % self.replay_every == 0)
        if replay:
            before = copy.deepcopy((net, optimizer, rng))
        report = self._timed(net, x, y, optimizer, lr, maxgain=maxgain, rng=rng)
        self.reports.append((maxgain, report))
        if replay:
            self.replays.append(replay_step(self._orig, before, net, x, y, lr, maxgain, report))
        return report


def replay_step(train_step, before, net, x, y, lr, maxgain, report):
    """Redo one step on a pre-step copy without the constraint, project the
    copy's weights with the oracle, and compare bitwise with the real step.

    Returns (ok, message). Biases and batchnorm shifts must be untouched by
    the projection, so they must equal the unconstrained copy's exactly.
    """
    ref_net, ref_opt, ref_rng = before
    train_step(ref_net, x, y, ref_opt, lr, maxgain=None, rng=ref_rng)
    for j, (layer, ref) in enumerate(zip(net.learned_layers(), ref_net.learned_layers())):
        for name in layer.param_names:
            want = getattr(ref, name)
            if name == layer.weight_param:
                want = oracle_project(want, report.gamma_hats[j], maxgain.gamma_for(j))
            if not np.array_equal(getattr(layer, name), want):
                return False, f"layer {j} {name} differs from the oracle projection"
    return True, ""


def check_reports(reports, checks):
    """Every StepReport's scale equals the oracle scale of its gamma_hat."""
    for maxgain, report in reports:
        ok = math.isfinite(report.loss)
        if maxgain is not None:
            ok = ok and all(
                0.0 <= gh < math.inf and sc == oracle_scale(gh, maxgain.gamma_for(j))
                for j, (gh, sc) in enumerate(zip(report.gamma_hats, report.scales)))
        checks.record(ok, "StepReport scale != 1 / max(1, gamma_hat / gamma)")


def check_ledger(ledger, maxgain, checks):
    """Every train row's smallest scale equals the oracle scale of its largest
    gamma_hat (the scale falls as gamma_hat rises)."""
    for r in ledger.records:
        if r.split != "train" or r.gamma_hat_max is None:
            continue
        ok = all(sc == oracle_scale(gh, maxgain.gamma_for(j))
                 for j, (gh, sc) in enumerate(zip(r.gamma_hat_max, r.scale_min)))
        checks.record(ok, f"ledger epoch {r.epoch}: scale_min != oracle scale of gamma_hat_max")


def install_light(rec, patches, steps):
    steps.install(patches)
    patches.wrap(rec, experiment, "fit", "optim.fit")
    for module in (optim, experiment):
        patches.wrap(rec, module, "eval_metrics", "optim.eval_metrics")
    for module in (experiment, evaluate):
        patches.wrap(rec, module, "per_layer_gains", "evaluate.per_layer_gains")


def retained_bytes(caches):
    """Bytes held by one forward's StepCaches, counting each buffer once."""
    roots = {}
    todo = [caches.stage_caches, caches.xs, caches.zs]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            roots[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return sum(roots.values())


def install_deep(rec, patches, hooks):
    counts = rec.counts

    def after_forward(args, kwargs, out):
        # one measurement per (mode, batch size) keeps the callback off the hot path
        key = ("cache_bytes", out[1].mode, out[1].batch_size)
        if key not in counts:
            counts[key] = retained_bytes(out[1])

    def after_project(args, kwargs, out):
        rec.add("project_calls", 1)
        rec.add("project_hits", int(out is not args[0]))

    def after_power_iter(args, kwargs, out):
        rec.add("power_iters", out.iterations)

    def after_build(args, kwargs, net):
        instrument(rec, net)

    for module in (optim, evaluate):
        patches.wrap(rec, module, "forward", "layers.forward", after_forward)
    patches.wrap(rec, optim, "backward", "layers.backward")
    patches.wrap(rec, optim, "softmax_cross_entropy", "layers.loss")
    patches.wrap(rec, optim, "batch_max_gain", "gain.batch_max_gain")
    patches.wrap(rec, optim, "project", "optim.project", after_project)
    for module in (GAIN, evaluate):
        patches.wrap(rec, module, "instance_gains", "gain.instance_gains")
    patches.wrap(rec, GAIN, "spectral_norm_power_iteration", "gain.power_iter", after_power_iter)
    for cls in (optim.Adam, optim.SgdNesterov):
        patches.wrap(rec, cls, "update", "optim.update")
    patches.wrap(rec, experiment, "synth_spirals", "data.synth")
    patches.wrap(rec, experiment, "build_network", "experiment.build", after_build)
    patches.set(hooks, "on_network", lambda net: instrument(rec, net))


def _all_stages(stages):
    for st in stages:
        yield st
        if isinstance(st, mg.ResidualBlock):
            yield from _all_stages(st.main)
            yield from _all_stages(st.shortcut or ())


def instrument(rec, net):
    """Wrap forward/backward of every stage object (and a conv's batch-1
    apply_linear / apply_linear_adjoint) of a network made for one body."""
    for st in _all_stages(net.stages):
        kind = type(st).__name__.lower()
        after = _conv_flop_counters(rec, st) if isinstance(st, mg.Conv2d) else {}
        attrs = ("forward", "backward")
        if isinstance(st, mg.Conv2d):
            attrs += ("apply_linear", "apply_linear_adjoint")
        for attr in attrs:
            setattr(st, attr, rec.wrap(f"layers.{kind}.{attr}", getattr(st, attr), after.get(attr)))


def _conv_flop_counters(rec, conv):
    # 2 flops (multiply + add) per kernel tap per output element
    per_out = 2 * int(np.prod(conv.kernel.shape[1:]))
    return {
        "forward": lambda a, k, out: rec.add("conv_flop", out[0].size * per_out),
        # grad_kernel and grad_cols are one GEMM each of the forward's size
        "backward": lambda a, k, out: rec.add("conv_flop", 2 * a[0].size * per_out),
        "apply_linear": lambda a, k, out: rec.add("conv_flop", out.size * per_out),
        "apply_linear_adjoint": lambda a, k, out: rec.add("conv_flop", a[0].size * per_out),
    }


# name, unit, better; the order is the order BENCHMARK.json lists them in
PER_LAYER = [
    ("layers.forward_ms", "ms", "lower"),
    ("layers.backward_ms", "ms", "lower"),
    ("layers.loss_ms", "ms", "lower"),
    ("layers.conv2d.forward_ms", "ms", "lower"),
    ("layers.conv2d.backward_ms", "ms", "lower"),
    ("layers.batchnorm.forward_ms", "ms", "lower"),
    ("layers.batchnorm.backward_ms", "ms", "lower"),
    ("layers.maxpool2d.forward_ms", "ms", "lower"),
    ("layers.maxpool2d.backward_ms", "ms", "lower"),
    ("layers.dense.forward_ms", "ms", "lower"),
    ("layers.dense.backward_ms", "ms", "lower"),
    ("layers.relu.forward_ms", "ms", "lower"),
    ("layers.relu.backward_ms", "ms", "lower"),
    ("layers.conv2d.apply_linear_ms", "ms", "lower"),
    ("layers.conv2d.apply_linear_adjoint_ms", "ms", "lower"),
    ("layers.cache_mb", "MB", "lower"),
    ("layers.conv2d.gflop_per_step", "GFLOP", "lower"),
    ("layers.conv2d.gflops", "GFLOP/s", "higher"),
    ("gain.batch_max_gain_ms", "ms", "lower"),
    ("gain.power_iter_ms", "ms", "lower"),
    ("gain.power_iter_iters", "count", "lower"),
    ("gain.instance_gains_ms", "ms", "lower"),
    ("optim.update_ms", "ms", "lower"),
    ("optim.project_ms", "ms", "lower"),
    ("optim.projection_hit_ratio", "ratio", "higher"),
    ("optim.constraint_share", "ratio", "lower"),
    ("optim.step_self_ms", "ms", "lower"),
    ("optim.fit_self_ms", "ms", "lower"),
    ("optim.eval_metrics_ms", "ms", "lower"),
    ("evaluate.per_layer_gains_ms", "ms", "lower"),
    ("evaluate.gain_report_s", "s", "lower"),
    ("data.augment_ms", "ms", "lower"),
    ("data.synth_s", "s", "lower"),
    ("experiment.build_s", "s", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(rec, setup_totals):
    """Per-layer metrics of one traced body, as {name: value}; the caller
    adds trace.wall_s and trace.overhead_s.

    `_ms` values are milliseconds per unit: per train step on the training
    workloads, per audit pass on gain_audit. Stage self times include every
    forward in the body, train and eval alike. `_s` values and counts are per
    set-up plus one traced body (data.synth_s, experiment.build_s) or per
    unit (the rest).
    """
    tot = rec.totals()
    counts = rec.counts

    def inc(name):
        return tot.get(name, (0.0, 0.0, 0))[0]

    def with_setup(name):
        return inc(name) + setup_totals.get(name, (0.0, 0.0, 0))[0]

    def slf(name):
        return tot.get(name, (0.0, 0.0, 0))[1]

    steps = tot.get("optim.train_step", (0.0, 0.0, 0))[2]
    unit = steps or 1

    def ms(seconds):
        return 1e3 * seconds / unit

    step_time = inc("optim.train_step")
    conv_names = [f"layers.conv2d.{a}" for a in ("forward", "backward", "apply_linear", "apply_linear_adjoint")]
    conv_time = sum(slf(n) for n in conv_names)
    flop = counts.get("conv_flop", 0)
    calls = counts.get("project_calls", 0)
    values = {
        "layers.forward_ms": ms(sum(rec.durations("layers.forward", parent="optim.train_step"))),
        "layers.backward_ms": ms(inc("layers.backward")),
        "layers.loss_ms": ms(sum(rec.durations("layers.loss", parent="optim.train_step"))),
        "layers.cache_mb": max([v for k, v in counts.items() if isinstance(k, tuple)], default=0) / 1e6,
        "layers.conv2d.gflop_per_step": flop / 1e9 / unit,
        "layers.conv2d.gflops": flop / 1e9 / conv_time if conv_time else 0.0,
        "gain.batch_max_gain_ms": ms(inc("gain.batch_max_gain")),
        "gain.power_iter_ms": ms(inc("gain.power_iter")),
        "gain.power_iter_iters": counts.get("power_iters", 0) / unit,
        "gain.instance_gains_ms": ms(inc("gain.instance_gains")),
        "optim.update_ms": ms(inc("optim.update")),
        "optim.project_ms": ms(inc("optim.project")),
        "optim.projection_hit_ratio": counts.get("project_hits", 0) / calls if calls else 0.0,
        "optim.constraint_share": ((inc("gain.batch_max_gain") + inc("optim.project")) / step_time
                                   if step_time else 0.0),
        "optim.step_self_ms": ms(slf("optim.train_step")),
        "optim.fit_self_ms": ms(slf("optim.fit")),
        "optim.eval_metrics_ms": ms(inc("optim.eval_metrics")),
        "evaluate.per_layer_gains_ms": ms(inc("evaluate.per_layer_gains")),
        "evaluate.gain_report_s": inc("evaluate.gain_report"),
        "data.augment_ms": ms(inc("data.augment")),
        "data.synth_s": with_setup("data.synth"),
        "experiment.build_s": with_setup("experiment.build"),
        "checkpoint.save_ms": ms(inc("checkpoint.save")),
        "checkpoint.load_ms": ms(inc("checkpoint.load")),
        "checkpoint.bytes": counts.get("checkpoint_bytes", 0),
    }
    for kind in ("conv2d", "batchnorm", "maxpool2d", "dense", "relu"):
        for attr in ("forward", "backward"):
            values[f"layers.{kind}.{attr}_ms"] = ms(slf(f"layers.{kind}.{attr}"))
    for attr in ("apply_linear", "apply_linear_adjoint"):
        values[f"layers.conv2d.{attr}_ms"] = ms(slf(f"layers.conv2d.{attr}"))
    return values
