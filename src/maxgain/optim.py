"""Optimizers, the weight projection step, and the training loop.

The projection scales a learned layer's weight array by 1 / max(1, gamma_hat /
gamma) after the ordinary optimizer update, where gamma_hat is the largest
per-instance gain the layer showed on the step's minibatch, measured from the
caches recorded at the pre-update weights. Bias-like parameters (dense/conv
bias, BatchNorm beta) are never rescaled.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .data import write_text
from .errors import ConfigError, DivergenceError, EmptySampleError, InvalidValueError
from .gain import batch_max_gain
from .layers import backward, forward, softmax_cross_entropy
from .tensor import check_norm_order, spawn_rngs


@dataclass(frozen=True)
class MaxGainConfig:
    """Gain constraint: one target gamma for every learned layer, norm order p."""

    gamma: float
    p: object = 2

    def __post_init__(self):
        check_norm_order(self.p)
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise InvalidValueError(f"gamma must be positive and finite, got {self.gamma}")

    def gamma_for(self, j):
        """The target gamma of learned layer j, the one every layer shares."""
        return self.gamma


def projection_scale(gamma_hat, gamma):
    """The multiplier 1 / max(1, gamma_hat / gamma)."""
    return 1.0 / max(1.0, gamma_hat / gamma)


def project(w, gamma_hat, gamma):
    """Scale weights down just enough to bring the measured gain to gamma.

    Returns w itself (bitwise untouched) when gamma_hat <= gamma.
    """
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise InvalidValueError(f"gamma must be positive and finite, got {gamma}")
    if not (math.isfinite(gamma_hat) and gamma_hat >= 0.0):
        raise InvalidValueError(f"measured gain must be finite and >= 0, got {gamma_hat}")
    ratio = gamma_hat / gamma
    if ratio <= 1.0:
        return w
    return w / ratio


class SgdNesterov:
    """SGD with Nesterov momentum.

    v <- mu * v + g;  step = g + mu * v;  param <- param - lr * step.
    mu = 0 reduces to plain SGD.
    """

    name = "sgd-nesterov"

    def __init__(self, momentum=0.9):
        if not 0.0 <= momentum < 1.0:
            raise InvalidValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.velocity = {}

    def begin_step(self):
        pass

    def update(self, key, param, grad, lr):
        v = self.velocity.get(key)
        v = grad if v is None else self.momentum * v + grad
        self.velocity[key] = v
        return param - lr * (grad + self.momentum * v)


class Adam:
    """Adam with bias-corrected moment estimates, at the usual constants."""

    name = "adam"
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0

    def begin_step(self):
        self.t += 1

    def update(self, key, param, grad, lr):
        m = self.m.get(key, 0.0)
        v = self.v.get(key, 0.0)
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self.m[key] = m
        self.v[key] = v
        mhat = m / (1.0 - self.beta1 ** self.t)
        vhat = v / (1.0 - self.beta2 ** self.t)
        return param - lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass(frozen=True)
class Schedule:
    """Base learning rate plus multiplicative drops at given epochs.

    Each (epoch, factor) pair multiplies the rate from that epoch (1-based)
    onward; factors for all epochs <= the current one compound.
    """

    base_lr: float
    drops: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.base_lr) and self.base_lr >= 0.0):
            raise InvalidValueError(f"base_lr must be finite and >= 0, got {self.base_lr}")
        for e, f in self.drops:
            if int(e) < 1:
                raise InvalidValueError(f"drop epoch must be >= 1, got {e}")
            if not (math.isfinite(f) and f > 0.0):
                raise InvalidValueError(f"drop factor must be positive, got {f}")

    def lr_at(self, epoch):
        lr = self.base_lr
        for e, f in self.drops:
            if epoch >= e:
                lr *= f
        return lr


@dataclass
class StepReport:
    loss: float
    batch_size: int
    n_correct: int
    gamma_hats: list = None   # per learned layer, None when the constraint is off
    scales: list = None


def train_step(net, x, y, optimizer, lr, maxgain=None, rng=None):
    """One minibatch step: forward, backward, optimizer update, projection.

    gamma_hat for each learned layer is measured from the caches this step's
    forward pass recorded (the pre-update weights); the projection is applied
    to the freshly updated weights. Returns a StepReport.
    """
    logits, caches = forward(net, x, "train", rng=rng)
    if not np.all(np.isfinite(logits)):
        raise DivergenceError("non-finite logits")
    loss, loss_grad = softmax_cross_entropy(logits, y)
    if not math.isfinite(loss):
        raise DivergenceError(f"non-finite training loss {loss}")
    grads = backward(net, caches, loss_grad)
    layers = net.learned_layers()
    for pgrads in grads.by_layer:
        for g in pgrads.values():
            if not np.all(np.isfinite(g)):
                raise DivergenceError("non-finite parameter gradient")
    optimizer.begin_step()
    for j, (layer, pgrads) in enumerate(zip(layers, grads.by_layer)):
        for name in layer.param_names:
            setattr(layer, name, optimizer.update((j, name), getattr(layer, name), pgrads[name], lr))
    gamma_hats = None
    scales = None
    if maxgain is not None:
        gamma_hats = []
        scales = []
        for j, layer in enumerate(layers):
            gh = batch_max_gain(layer, caches.xs[j], caches.zs[j], maxgain.p)
            wname = layer.weight_param
            setattr(layer, wname, project(getattr(layer, wname), gh, maxgain.gamma))
            gamma_hats.append(gh)
            scales.append(projection_scale(gh, maxgain.gamma))
    n_correct = int(np.sum(np.argmax(logits, axis=1) == np.asarray(y)))
    return StepReport(loss=loss, batch_size=x.shape[0], n_correct=n_correct,
                      gamma_hats=gamma_hats, scales=scales)


@dataclass
class EpochRecord:
    epoch: int
    split: str
    loss: float
    accuracy: float
    gamma_hat_max: list = None  # per learned layer, max over the epoch's steps
    scale_min: list = None      # per learned layer, smallest applied multiplier


@dataclass
class TrainingLedger:
    """Per-epoch records plus their line-oriented text form.

    Train rows serialize as: epoch, split, loss, accuracy, then for every
    learned layer the epoch-max gamma_hat and the smallest projection scale.
    Test rows carry the four leading fields only. Tab separated, floats at 17
    significant digits, so identical runs produce identical bytes.
    """

    records: list = field(default_factory=list)

    def to_text(self):
        lines = []
        for r in self.records:
            parts = [str(r.epoch), r.split, f"{r.loss:.17g}", f"{r.accuracy:.17g}"]
            if r.split == "train" and r.gamma_hat_max is not None:
                for gh, sc in zip(r.gamma_hat_max, r.scale_min):
                    parts.append(f"{gh:.17g}")
                    parts.append(f"{sc:.17g}")
            lines.append("\t".join(parts))
        return "\n".join(lines) + "\n"

    def write(self, path):
        write_text(path, self.to_text())


def eval_metrics(net, x, y):
    """Mean cross-entropy loss and accuracy of the eval-mode network."""
    n = x.shape[0]
    if n == 0:
        raise EmptySampleError("eval_metrics needs at least one instance")
    loss_sum = 0.0
    correct = 0
    b = evaluate._EVAL_BATCH
    for i in range(0, n, b):
        xb, yb = x[i:i + b], y[i:i + b]
        logits, _ = forward(net, xb, "eval")
        loss, _ = softmax_cross_entropy(logits, yb)
        loss_sum += loss * xb.shape[0]
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
    return loss_sum / n, correct / n


def fit(net, train, *, optimizer, schedule, epochs, batch_size=64,
        maxgain=None, seed=0, test=None, augment_fn=None):
    """Train the network and return the TrainingLedger.

    Shuffling, dropout, and augmentation draw from three independent streams
    derived from the seed, so the whole run is a pure function of (initial
    weights, data, seed, hyperparameters). augment_fn, when given, maps
    (x_batch, rng) to a transformed batch before each step. A non-finite loss
    or gradient raises DivergenceError carrying the global step index and the
    partial ledger.
    """
    if int(epochs) < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if int(batch_size) < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    rng_shuffle, rng_dropout, rng_augment = spawn_rngs(seed, 3)
    n = train.x.shape[0]
    n_layers = len(net.learned_layers())
    ledger = TrainingLedger()
    global_step = 0
    for epoch in range(1, int(epochs) + 1):
        lr = schedule.lr_at(epoch)
        perm = rng_shuffle.permutation(n)
        loss_sum = 0.0
        correct = 0
        gh_steps = [[] for _ in range(n_layers)]
        scale_steps = [[] for _ in range(n_layers)]
        for i in range(0, n, int(batch_size)):
            idx = perm[i:i + int(batch_size)]
            global_step += 1
            xb = train.x[idx]
            if augment_fn is not None:
                xb = augment_fn(xb, rng_augment)
            try:
                report = train_step(net, xb, train.y[idx], optimizer, lr,
                                    maxgain=maxgain, rng=rng_dropout)
            except DivergenceError as err:
                raise DivergenceError(f"{err} at step {global_step} (epoch {epoch})",
                                      step=global_step, ledger=ledger) from None
            loss_sum += report.loss * report.batch_size
            correct += report.n_correct
            if report.gamma_hats is not None:
                for j in range(n_layers):
                    gh_steps[j].append(report.gamma_hats[j])
                    scale_steps[j].append(report.scales[j])
        record = EpochRecord(epoch=epoch, split="train",
                             loss=loss_sum / n, accuracy=correct / n)
        if maxgain is not None:
            record.gamma_hat_max = [max(g) for g in gh_steps]
            record.scale_min = [min(s) for s in scale_steps]
        ledger.records.append(record)
        if test is not None:
            test_loss, test_acc = eval_metrics(net, test.x, test.y)
            ledger.records.append(EpochRecord(
                epoch=epoch, split="test", loss=test_loss, accuracy=test_acc))
    return ledger
