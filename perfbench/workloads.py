"""The three workloads: inputs made from a seed, one timed body, output checks.

Each workload object is built by its constructor (the set-up the benchmark
times as setup_s), then its body() runs again and again in a closed loop.
check_first() runs the expensive checks on the first body's outputs;
check_repeat() requires every later body to reproduce them exactly.
"""

import copy
import hashlib
import json
import math
import os

import numpy as np

import maxgain as mg
from maxgain import experiment

from probes import check_ledger

HERE = os.path.dirname(os.path.abspath(__file__))
GAMMA = 2.0
P = 2

# The acceptance suite's spiral configuration (tests/test_acceptance.py,
# SPIRAL_CONFIG). --seed s sets, with t = s mod 64, the run seed and the
# dataset seeds t and t + 100, so --seed 7 is that configuration exactly.
SPIRAL_MODEL = [
    {"type": "dense", "in": 2, "out": 64},
    {"type": "relu"},
    {"type": "dense", "in": 64, "out": 64},
    {"type": "relu"},
    {"type": "dense", "in": 64, "out": 2},
]
# (epochs, train instances, test instances)
SPIRAL_SIZES = {"full": (200, 2000, 1000), "tiny": (2, 128, 64)}
# Final train loss and accuracy must lie within REFERENCE_TOL of the values
# in spiral_reference.json, which the commit that added the benchmark gives
# for spiral seeds 0-63; --seed s runs spiral seed s mod 64. The tolerance
# leaves room for BLAS kernels on another CPU rounding differently over 6,400
# steps; a run without the projection misses it by 3x.
REFERENCE_TOL = 0.01

# image side, images per cnn_train body, batch, gain_audit train/test images
CNN_SIZES = {"full": (32, 128, 64, 32, 16), "tiny": (8, 16, 8, 4, 2)}
CLASSES = 10


def cnn_model(side):
    """ROADMAP's CIFAR-shaped net: conv3->32, bn, relu, residual(conv32, bn,
    relu, conv32), pool, conv32->64, relu, pool, dense -> 10."""
    def conv(c_in, c_out):
        return {"type": "conv", "in": c_in, "out": c_out, "kernel": 3, "pad": 1}

    return [
        conv(3, 32), {"type": "batchnorm", "channels": 32}, {"type": "relu"},
        {"type": "residual", "main": [
            conv(32, 32), {"type": "batchnorm", "channels": 32}, {"type": "relu"}, conv(32, 32)]},
        {"type": "maxpool", "kernel": 2},
        conv(32, 64), {"type": "relu"}, {"type": "maxpool", "kernel": 2},
        {"type": "flatten"},
        {"type": "dense", "in": 64 * (side // 4) ** 2, "out": CLASSES},
    ]


def class_images(n, side, rng):
    """(n, 3, side, side) images: one smooth random wave pattern per class
    plus unit gaussian noise (maxgain.synth_blobs with image-shaped centres)."""
    r = np.arange(side) / side
    freq = rng.integers(1, 4, size=(CLASSES, 3, 2))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(CLASSES, 3))
    waves = np.sin(2.0 * np.pi * (freq[..., 0, None, None] * r[:, None]
                                  + freq[..., 1, None, None] * r[None, :])
                   + phase[..., None, None])
    data = mg.synth_blobs(n, rng, centers=waves.reshape(CLASSES, -1), sd=1.0)
    return mg.Dataset(data.x.reshape(n, 3, side, side), data.y, CLASSES)


def load_reference():
    with open(os.path.join(HERE, "spiral_reference.json")) as fh:
        return {int(k): v for k, v in json.load(fh)["seeds"].items()}


REFERENCE = load_reference()


def weights_digest(net):
    h = hashlib.sha256()
    for layer in net.learned_layers():
        for name in layer.param_names:
            h.update(getattr(layer, name).tobytes())
    return h.hexdigest()


def instance_shapes(net, x):
    """Per learned layer, the shape of one input instance."""
    _, caches = mg.forward(net, x[:1], "eval")
    return [xs.shape[1:] for xs in caches.xs]


def l2_norm_upper_bound(layer, shape):
    """An l2 operator norm that is never below the layer's true one.

    Dense: the largest singular value (exact). BatchNorm: the library's exact
    diagonal value. Conv2d: power iteration would approach the norm from
    below, so instead embed the zero-padded input in a periodic grid of the
    padded size. There the conv is circular, with no wrap-around reaching a
    kept output, and its norm is the largest singular value of the kernel's
    DFT over all frequencies. Embedding, cropping and striding have norm at
    most 1, so that value bounds the conv's norm from above.
    """
    if isinstance(layer, mg.Dense):
        return float(np.linalg.norm(layer.w, 2))
    if isinstance(layer, mg.Conv2d):
        grid = (shape[1] + 2 * layer.pad, shape[2] + 2 * layer.pad)
        spectrum = np.fft.fft2(layer.kernel, s=grid).transpose(2, 3, 0, 1)
        return float(np.linalg.svd(spectrum, compute_uv=False).max())
    return mg.layer_operator_norm(layer, P, shape)


def check_gains_below_opnorm(net, max_gains, shapes, checks):
    """Every measured gain is at most the layer's operator norm x (1 + 1e-6).

    max_gains[j] is the largest per-instance gain of layer j seen on data.
    """
    for j, (layer, shape) in enumerate(zip(net.learned_layers(), shapes)):
        norm = l2_norm_upper_bound(layer, shape)
        checks.record(max_gains[j] <= norm * (1.0 + 1e-6),
                      f"layer {j}: gain {max_gains[j]!r} above operator norm {norm!r}")


def check_conv_adjoints(net, shapes, seed, checks):
    """<Ax, y> = <x, A^T y> for every conv, via the library's own check."""
    for layer, shape in zip(net.learned_layers(), shapes):
        if not isinstance(layer, mg.Conv2d):
            continue
        out_shape = layer.apply_linear(np.zeros(shape)).shape
        try:
            mg.spectral_norm_power_iteration(
                lambda v: layer.apply_linear(v.reshape(shape)),
                lambda u: layer.apply_linear_adjoint(u.reshape(out_shape), shape),
                int(np.prod(shape)), iters=1, rng=mg.make_rng(seed), check_adjoint=True)
            checks.record(True, "")
        except mg.AdjointMismatchError as err:
            checks.record(False, f"conv adjoint identity: {err}")


class SpiralMlp:
    """One run_config of the acceptance spiral configuration per body."""

    name = "spiral_mlp"
    replay_every = 16

    def __init__(self, seed, size, rec, workdir=None):
        epochs, n_train, n_test = SPIRAL_SIZES[size]
        seed %= len(REFERENCE)
        self.seed, self.size = seed, size
        self.config = {
            "seed": seed, "model": SPIRAL_MODEL, "optimizer": "adam", "lr": 1e-3,
            "epochs": epochs, "batch_size": 64, "maxgain": {"gamma": GAMMA, "p": P},
            "dataset": {"type": "spirals", "n": n_train, "seed": seed},
            "test_dataset": {"type": "spirals", "n": n_test, "seed": seed + 100},
        }
        self.maxgain = mg.MaxGainConfig(GAMMA, P)
        self.train_samples = epochs * n_train
        # per-epoch test eval, final train and test eval, test per_layer_gains
        self.eval_samples = epochs * n_test + n_train + 2 * n_test

    def body(self, hooks):
        with hooks.rec.span("body"):
            return experiment.run_config(self.config)

    def check_first(self, res, checks):
        check_ledger(res.ledger, self.maxgain, checks)
        loss, acc = res.train_loss, res.train_accuracy
        if self.size == "full":
            ref = REFERENCE[self.seed]
            ok = abs(loss - ref[0]) <= REFERENCE_TOL and abs(acc - ref[1]) <= REFERENCE_TOL
            what = f"train loss/accuracy {loss!r}/{acc!r}, reference {ref[0]!r}/{ref[1]!r}"
        else:
            ok, what = math.isfinite(loss), f"train loss {loss!r}"
        checks.record(ok, what)
        test = experiment.build_dataset(self.config["test_dataset"])
        check_gains_below_opnorm(res.net, res.test_max_gains, instance_shapes(res.net, test.x), checks)

    def check_repeat(self, first, res, checks):
        check_ledger(res.ledger, self.maxgain, checks)
        checks.record(res.ledger.to_text() == first.ledger.to_text()
                      and (res.train_loss, res.train_accuracy) == (first.train_loss, first.train_accuracy),
                      "spiral_mlp repeat: ledger bytes differ from the first body")


class CnnTrain:
    """fit() for one epoch on seeded images, flip + pad-4 augmentation."""

    name = "cnn_train"
    replay_every = 2

    def __init__(self, seed, size, rec, workdir=None):
        side, n, self.batch, _, _ = CNN_SIZES[size]
        self.seed, self.rec = seed, rec
        with rec.span("data.synth"):
            self.train = class_images(n, side, mg.make_rng(seed))
        with rec.span("experiment.build"):
            self.net0 = experiment.build_network({"model": cnn_model(side)}, mg.make_rng(seed))
        self.maxgain = mg.MaxGainConfig(GAMMA, P)
        self.train_samples = n
        self.eval_samples = 0

    def augment(self, xb, rng):
        with self.rec.span("data.augment"):
            return mg.augment(xb, rng, flip=True, pad=4)

    def body(self, hooks):
        net = copy.deepcopy(self.net0)
        hooks.on_network(net)
        with hooks.rec.span("body"), hooks.rec.span("optim.fit"):
            ledger = mg.fit(net, self.train, optimizer=mg.SgdNesterov(0.9),
                            schedule=mg.Schedule(0.01), epochs=1, batch_size=self.batch,
                            maxgain=self.maxgain, seed=self.seed, augment_fn=self.augment)
        return ledger, net

    def check_first(self, out, checks):
        ledger, net = out
        check_ledger(ledger, self.maxgain, checks)
        checks.record(all(math.isfinite(r.loss) for r in ledger.records), "non-finite train loss")
        check_conv_adjoints(net, instance_shapes(net, self.train.x), self.seed, checks)

    def check_repeat(self, first, out, checks):
        check_ledger(out[0], self.maxgain, checks)
        checks.record(out[0].to_text() == first[0].to_text()
                      and weights_digest(out[1]) == weights_digest(first[1]),
                      "cnn_train repeat: ledger or weights differ from the first body")


class GainAudit:
    """Checkpoint round trip, gain_report and the l2 Lipschitz bound of a
    seeded CNN: eval-mode batches plus batch-1 power iteration."""

    name = "gain_audit"
    replay_every = 0

    def __init__(self, seed, size, rec, workdir=None):
        side, _, _, n_train, n_test = CNN_SIZES[size]
        self.seed, self.workdir = seed, workdir
        self.in_shape = (3, side, side)
        rng = mg.make_rng(seed)
        with rec.span("data.synth"):
            self.train = class_images(n_train, side, rng)
            self.test = class_images(n_test, side, rng)
        with rec.span("experiment.build"):
            self.net = experiment.build_network({"model": cnn_model(side)}, mg.make_rng(seed))
        self.train_samples = 0
        self.eval_samples = n_train + n_test

    def body(self, hooks):
        rec = hooks.rec
        path = os.path.join(self.workdir, "network.txt")
        with rec.span("body"):
            with rec.span("checkpoint.save"):
                mg.save_network(self.net, path)
            with rec.span("checkpoint.load"):
                net = mg.load_network(path)
            hooks.on_network(net)
            with rec.span("evaluate.gain_report"):
                report = mg.gain_report(net, self.train, self.test, P)
            with rec.span("gain.lipschitz"):
                bound = mg.lipschitz_upper_bound(net, P, input_shape=self.in_shape)
        with open(path, "rb") as fh:
            saved = fh.read()
        rec.counts["checkpoint_bytes"] = len(saved)
        return saved, net, report, bound

    def check_first(self, out, checks):
        saved, net, report, bound = out
        checks.record(saved == mg.network_to_text(self.net).encode()
                      and mg.network_to_text(net).encode() == saved,
                      "checkpoint text does not round-trip bitwise")
        shapes = instance_shapes(net, self.train.x)
        max_gains = {}
        for row in report.rows:
            max_gains[row.layer_index] = max(max_gains.get(row.layer_index, 0.0), row.stats.max)
        check_gains_below_opnorm(net, max_gains, shapes, checks)
        check_conv_adjoints(net, shapes, self.seed, checks)
        checks.record(math.isfinite(bound) and bound > 0.0, f"Lipschitz bound {bound!r}")

    def check_repeat(self, first, out, checks):
        checks.record(out[0] == first[0] and out[2].to_text() == first[2].to_text()
                      and out[3] == first[3],
                      "gain_audit repeat: checkpoint, report or bound differ from the first body")


WORKLOADS = {w.name: w for w in (SpiralMlp, CnnTrain, GainAudit)}
