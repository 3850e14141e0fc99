"""Top-level acceptance suite: ten checks, one printed verdict line each.

Run with -s (``pytest tests/test_acceptance.py -v -s``) to see the verdict
lines as they happen; without -s they still appear in pytest's captured
output, and every check fails the normal way when a bound is violated.
"""

import contextlib
import io
import json
import math
import statistics
import time

import numpy as np
import pytest

from maxgain import (
    Adam,
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    FoldProtocol,
    MaxGainConfig,
    MaxPool2d,
    Network,
    ReLU,
    ResidualBlock,
    SgdNesterov,
    backward,
    batch_max_gain,
    build_dataset,
    forward,
    gain_stats,
    make_folds,
    make_rng,
    paired_t_test,
    per_layer_gains,
    run_config,
    softmax_cross_entropy,
    spectral_norm_power_iteration,
    synth_blobs,
    train_step,
)
from maxgain.cli import main as cli_main
from maxgain.tensor import operator_norm_exact
from oracles import (
    backward_with_input_grad,
    brute_force_operator_norm_p1,
    brute_force_operator_norm_pinf,
    gain,
    gradient_rel_error,
    keep_pair,
    materialize_linear,
    numeric_gradient,
    paired_t_oracle,
)

NORM_ORDERS = (1, 2, math.inf)


def verdict(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def pnorm(v, p):
    v = np.abs(np.asarray(v, dtype=np.float64).reshape(-1))
    if p == 1:
        return float(v.sum())
    if p == 2:
        return float(np.sqrt((v * v).sum()))
    return float(v.max())


def random_tiny_layer(rng, kind):
    """One random learned layer plus its single-instance input shape."""
    if kind == "dense":
        n_out, n_in = (int(v) for v in rng.integers(1, 33, size=2))
        return Dense(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out)), (n_in,)
    if kind == "conv":
        cin, cout = (int(v) for v in rng.integers(1, 3, size=2))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        layer = Conv2d(rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout),
                       stride=stride, pad=pad)
        return layer, (cin, 6, 6)
    channels = int(rng.integers(1, 17))
    layer = BatchNorm(rng.normal(size=channels), rng.normal(size=channels))
    layer.running_mean = rng.normal(size=channels)
    layer.running_var = rng.uniform(0.5, 2.0, size=channels)
    shape = (channels,) if rng.integers(0, 2) == 0 else (channels, 2, 2)
    return layer, shape


def test_01_gain_oracle_equivalence():
    start = time.perf_counter()
    rng = make_rng(11)
    worst = 0.0
    pairs = 0
    for i in range(50):
        layer, shape = random_tiny_layer(rng, ("dense", "conv", "batchnorm")[i % 3])
        mat = materialize_linear(layer, shape)
        for _ in range(3):
            x = rng.normal(size=shape)
            for p in NORM_ORDERS:
                implicit = gain(layer, x, p)
                explicit = pnorm(mat @ x.reshape(-1), p) / pnorm(x, p)
                worst = max(worst, abs(implicit - explicit) / max(implicit, explicit))
                pairs += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    verdict(1, ok, f"50 layers, {pairs} implicit/materialized gain pairs, "
                   f"worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_02_operator_norms():
    start = time.perf_counter()
    rng = make_rng(17)
    exact_misses = 0
    for _ in range(20):
        m, n = (int(v) for v in rng.integers(1, 33, size=2))
        w = rng.normal(size=(m, n))
        exact_misses += operator_norm_exact(w, 1) != brute_force_operator_norm_p1(w)
    for _ in range(15):
        m = int(rng.integers(1, 33))
        n = int(rng.integers(1, 13))
        w = rng.normal(size=(m, n))
        exact_misses += operator_norm_exact(w, math.inf) != brute_force_operator_norm_pinf(w)
    worst_spectral = 0.0
    for i in range(20):
        m, n = (int(v) for v in rng.integers(2, 33, size=2))
        w = rng.normal(size=(m, n))
        reference = math.sqrt(float(np.linalg.eigvalsh(w.T @ w).max()))
        result = spectral_norm_power_iteration(
            lambda v: w @ v, lambda u: w.T @ u, n,
            iters=5000, tol=1e-13, rng=make_rng(100 + i))
        worst_spectral = max(worst_spectral, abs(result.value - reference) / reference)
    elapsed = time.perf_counter() - start
    ok = exact_misses == 0 and worst_spectral <= 1e-6 and elapsed < 30.0
    verdict(2, ok, f"35 exact norms bitwise ({exact_misses} misses), power iteration "
                   f"worst rel diff {worst_spectral:.2e} on 20 matrices, {elapsed:.1f}s")


def test_03_gradient_checks():
    start = time.perf_counter()
    rng = make_rng(29)
    worst = {}

    def note(name, analytic, numeric):
        worst[name] = max(worst.get(name, 0.0), gradient_rel_error(analytic, numeric))

    def weighted(layer, v, r, mode="train"):
        return float((layer.forward(v, mode)[0] * r).sum())

    for _ in range(10):
        n_in, n_out, batch = (int(v) for v in rng.integers(1, 7, size=3))
        layer = Dense(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
        x = rng.normal(size=(batch, n_in))
        r = rng.normal(size=(batch, n_out))
        _, cache = layer.forward(x, "train")
        gx, pg = layer.backward(r, cache)
        note("dense", gx, numeric_gradient(lambda v: weighted(layer, v, r), x))
        note("dense", pg["w"],
             numeric_gradient(lambda w: weighted(Dense(w, layer.b), x, r), layer.w))
        note("dense", pg["b"],
             numeric_gradient(lambda b: weighted(Dense(layer.w, b), x, r), layer.b))

    for _ in range(10):
        batch = int(rng.integers(1, 4))
        cin, cout = (int(v) for v in rng.integers(1, 3, size=2))
        hw = int(rng.integers(4, 7))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        layer = Conv2d(rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout),
                       stride=stride, pad=pad)
        x = rng.normal(size=(batch, cin, hw, hw))
        y, cache = layer.forward(x, "train")
        r = rng.normal(size=y.shape)
        gx, pg = layer.backward(r, cache)
        note("conv", gx, numeric_gradient(lambda v: weighted(layer, v, r), x))
        note("conv", pg["kernel"], numeric_gradient(
            lambda k: weighted(Conv2d(k, layer.b, stride=stride, pad=pad), x, r),
            layer.kernel))
        note("conv", pg["b"], numeric_gradient(
            lambda b: weighted(Conv2d(layer.kernel, b, stride=stride, pad=pad), x, r),
            layer.b))

    for i in range(10):
        if i % 2 == 0:
            channels = int(rng.integers(1, 7))
            x = rng.normal(size=(int(rng.integers(3, 7)), channels))
        else:
            channels = int(rng.integers(1, 3))
            hw = int(rng.integers(2, 4))
            x = rng.normal(size=(int(rng.integers(2, 4)), channels, hw, hw))
        layer = BatchNorm(rng.normal(size=channels), rng.normal(size=channels))
        y, cache = layer.forward(x, "train")
        r = rng.normal(size=y.shape)
        gx, pg = layer.backward(r, cache)
        note("batchnorm", gx, numeric_gradient(lambda v: weighted(layer, v, r), x))
        note("batchnorm", pg["alpha"], numeric_gradient(
            lambda a: weighted(BatchNorm(a, layer.beta), x, r), layer.alpha))
        note("batchnorm", pg["beta"], numeric_gradient(
            lambda b: weighted(BatchNorm(layer.alpha, b), x, r), layer.beta))

    for _ in range(10):
        rate = float(rng.uniform(0.1, 0.7))
        net = Network([Dropout(rate)])
        x = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 7))))
        mask_seed = int(rng.integers(0, 1000))
        y, caches = forward(net, x, "train", rng=make_rng(mask_seed))
        r = rng.normal(size=y.shape)
        grad_x, _ = backward_with_input_grad(net, caches, r)

        def dropped(v):
            return float((forward(net, v, "train", rng=make_rng(mask_seed))[0] * r).sum())

        note("dropout", grad_x, numeric_gradient(dropped, x))

    for _ in range(10):
        layer = ReLU()
        x = rng.normal(size=tuple(int(v) for v in rng.integers(1, 6, size=2)))
        x = x + 0.2 * np.sign(x)  # keep every element off the kink
        y, cache = layer.forward(x, "train")
        r = rng.normal(size=y.shape)
        gx, _ = layer.backward(r, cache)
        note("relu", gx, numeric_gradient(lambda v: weighted(layer, v, r), x))

    for _ in range(10):
        batch = int(rng.integers(1, 3))
        channels = int(rng.integers(1, 3))
        hw = int(rng.choice([4, 6]))
        layer = MaxPool2d(2)
        # well separated values so the argmax is stable under the probe
        x = (rng.permutation(batch * channels * hw * hw) * 0.37).reshape(
            batch, channels, hw, hw)
        y, cache = layer.forward(x, "train")
        r = rng.normal(size=y.shape)
        gx, _ = layer.backward(r, cache)
        note("maxpool", gx, numeric_gradient(lambda v: weighted(layer, v, r), x))

    for _ in range(10):
        layer = Flatten()
        x = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 3)), 2, 2))
        y, cache = layer.forward(x, "train")
        r = rng.normal(size=y.shape)
        gx, _ = layer.backward(r, cache)
        note("flatten", gx, numeric_gradient(lambda v: weighted(layer, v, r), x))

    for i in range(10):
        width = int(rng.integers(2, 7))
        batch = int(rng.integers(2, 5))
        main = [Dense(rng.normal(size=(width, width)), rng.normal(size=width)), ReLU()]
        shortcut = None if i % 2 == 0 else [Dense(rng.normal(size=(width, width)),
                                                  rng.normal(size=width))]
        net = Network([ResidualBlock(main, shortcut)])
        x = rng.normal(size=(batch, width)) + 0.5
        y, caches = forward(net, x, "train")
        r = rng.normal(size=y.shape)
        # backward uses its caches up, so the oracle walk gets a forward of its own
        grad_x, _ = backward_with_input_grad(net, forward(net, x, "train")[1], r)

        def through_block(v):
            return float((forward(net, v, "train")[0] * r).sum())

        note("residual", grad_x, numeric_gradient(through_block, x))

        def through_main_w(w):
            rebuilt = Network([ResidualBlock([Dense(w, main[0].b), ReLU()], shortcut)])
            return float((forward(rebuilt, x, "train")[0] * r).sum())

        note("residual", backward(net, caches, r)[0]["w"],
             numeric_gradient(through_main_w, main[0].w))

    for _ in range(10):
        batch = int(rng.integers(1, 7))
        classes = int(rng.integers(2, 6))
        logits = rng.normal(size=(batch, classes))
        labels = rng.integers(0, classes, size=batch)
        _, analytic = softmax_cross_entropy(logits, labels)
        note("loss", analytic,
             numeric_gradient(lambda z: softmax_cross_entropy(z, labels)[0], logits))

    elapsed = time.perf_counter() - start
    peak = max(worst, key=worst.get)
    ok = max(worst.values()) <= 1e-5 and elapsed < 60.0
    verdict(3, ok, f"{len(worst) - 1} stage kinds + loss, 10 shapes each, worst "
                   f"rel err {worst[peak]:.2e} ({peak}), {elapsed:.1f}s")


def random_step_layer(rng, kind):
    """A learned layer suitable for a one-layer training step (>= 2 outputs)."""
    if kind == "dense":
        n_out = int(rng.integers(2, 17))
        n_in = int(rng.integers(2, 17))
        layer = Dense(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
        return Network([layer]), layer, (n_in,), n_out
    if kind == "conv":
        cin = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 3))
        hw = int(rng.integers(5, 7))
        stride = int(rng.integers(1, 3))
        layer = Conv2d(rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout),
                       stride=stride, pad=1)
        out_hw = (hw + 2 - 3) // stride + 1
        return (Network([layer, Flatten()]), layer, (cin, hw, hw),
                cout * out_hw * out_hw)
    channels = int(rng.integers(2, 9))
    layer = BatchNorm(rng.normal(size=channels), rng.normal(size=channels))
    return Network([layer]), layer, (channels,), channels


def test_04_projection_exactness():
    rng = make_rng(41)
    worst = 0.0
    clipped = 0
    untouched = 0
    touched_within_budget = 0
    for i in range(100):
        net, layer, in_shape, n_out = random_step_layer(
            rng, ("dense", "conv", "batchnorm")[i % 3])
        p = NORM_ORDERS[int(rng.integers(0, 3))]
        batch = int(rng.integers(2, 9))
        x = rng.normal(size=(batch,) + in_shape)
        y = rng.integers(0, n_out, size=batch)

        _, probe = forward(net, x, "eval", gain=keep_pair)
        rough = batch_max_gain(*probe.gains[0], p)
        if i % 2 == 0:
            gamma = rough * float(rng.uniform(0.3, 0.9))
        else:
            gamma = rough * float(rng.uniform(1.1, 3.0))
        before = np.array(getattr(layer, layer.weight_param), copy=True)

        report = train_step(net, x, y, SgdNesterov(momentum=0.0), 0.0,
                            maxgain=MaxGainConfig(gamma=gamma, p=p))
        gamma_hat = report.gamma_hats[0]
        target = min(gamma_hat, gamma)
        _, caches = forward(net, x, "eval", gain=keep_pair)
        post = batch_max_gain(*caches.gains[0], p)
        worst = max(worst, abs(post - target) / max(1.0, target))
        if gamma_hat > gamma:
            clipped += 1
        else:
            untouched += 1
            same = getattr(layer, layer.weight_param).tobytes() == before.tobytes()
            touched_within_budget += not same
    ok = (worst <= 1e-12 and clipped >= 25 and untouched >= 25
          and touched_within_budget == 0)
    verdict(4, ok, f"100 triples ({clipped} clipped, {untouched} within budget), "
                   f"worst |post - min(gh, gamma)| {worst:.2e}, "
                   f"{touched_within_budget} spurious weight changes")


SPIRAL_CONFIG = {
    "seed": 7,
    "model": [
        {"type": "dense", "in": 2, "out": 64},
        {"type": "relu"},
        {"type": "dense", "in": 64, "out": 64},
        {"type": "relu"},
        {"type": "dense", "in": 64, "out": 2},
    ],
    "optimizer": "adam",
    "lr": 1e-3,
    "epochs": 200,
    "batch_size": 64,
    "maxgain": {"gamma": 2.0, "p": 2},
    "dataset": {"type": "spirals", "n": 2000, "seed": 7},
    "test_dataset": {"type": "spirals", "n": 1000, "seed": 107},
}
SWEEP_GAMMAS = (0.5, 1.0, 2.0, 4.0, 8.0)
SWEEP_SEEDS = (7, 8, 9)


@pytest.fixture(scope="module")
def spiral_sweep():
    """The 15 spiral training runs shared by the sweep and transfer checks."""
    start = time.perf_counter()
    runs = {(g, s): run_config({**SPIRAL_CONFIG, "seed": s, "maxgain": {"gamma": g, "p": 2}})
            for g in SWEEP_GAMMAS for s in SWEEP_SEEDS}
    return runs, time.perf_counter() - start


def test_05_gamma_sweep_underfitting(spiral_sweep):
    runs, elapsed = spiral_sweep
    acc = {g: statistics.median(runs[(g, s)].train_accuracy for s in SWEEP_SEEDS)
           for g in SWEEP_GAMMAS}
    loss = {g: statistics.median(runs[(g, s)].train_loss for s in SWEEP_SEEDS)
            for g in SWEEP_GAMMAS}
    gap = acc[8.0] - acc[0.5]
    noise_tol = 0.02
    monotone = all(loss[b] <= loss[a] + noise_tol
                   for a, b in zip(SWEEP_GAMMAS, SWEEP_GAMMAS[1:]))
    ok = gap >= 0.05 and monotone and elapsed < 600.0
    losses = " ".join(f"{loss[g]:.4f}" for g in SWEEP_GAMMAS)
    verdict(5, ok, f"median train acc {acc[0.5]:.4f} (gamma 0.5) vs {acc[8.0]:.4f} "
                   f"(gamma 8), gap {100 * gap:.1f} pp; median losses [{losses}] "
                   f"monotone={monotone}; sweep {elapsed:.0f}s")


def test_06_gain_transfer(spiral_sweep):
    runs, _ = spiral_sweep
    train = build_dataset(SPIRAL_CONFIG["dataset"])
    test = build_dataset(SPIRAL_CONFIG["test_dataset"])
    fields = ("min", "lower_quartile", "median", "upper_quartile", "max")
    worst_gain = 0.0
    worst_shift = 0.0
    for s in SWEEP_SEEDS:
        net = runs[(2.0, s)].net
        for tr, te in zip(per_layer_gains(net, train.x, 2),
                          per_layer_gains(net, test.x, 2)):
            stats_tr, stats_te = gain_stats(tr), gain_stats(te)
            worst_gain = max(worst_gain, stats_te.max)
            scale = max(stats_tr.max, stats_te.max)
            for f in fields:
                shift = abs(getattr(stats_tr, f) - getattr(stats_te, f)) / scale
                worst_shift = max(worst_shift, shift)
    ok = worst_gain <= 2.5 and worst_shift < 0.20
    verdict(6, ok, f"gamma=2 runs x 3 seeds: worst held-out layer gain "
                   f"{worst_gain:.3f} (bound 2.5), worst train/test summary shift "
                   f"{100 * worst_shift:.1f}% of the gain scale (bound 20%)")


def test_07_unconstrained_equivalence():
    data = synth_blobs(400, make_rng(3), centers=[[-2.0, -2.0], [2.0, 2.0]], sd=0.8)

    def fresh_net():
        rng = make_rng(5)
        return Network([
            Dense(rng.normal(size=(16, 2)) * 0.5, np.zeros(16)),
            ReLU(),
            Dense(rng.normal(size=(2, 16)) * 0.5, np.zeros(2)),
        ])

    plain, huge = fresh_net(), fresh_net()
    opt_plain, opt_huge = Adam(), Adam()
    config = MaxGainConfig(gamma=1e9, p=2)
    first_divergence = None
    rig_active = True
    for step in range(50):
        lo = step * 8
        xb, yb = data.x[lo:lo + 8], data.y[lo:lo + 8]
        train_step(plain, xb, yb, opt_plain, 1e-3)
        report = train_step(huge, xb, yb, opt_huge, 1e-3, maxgain=config)
        rig_active = rig_active and report.gamma_hats is not None \
            and all(s == 1.0 for s in report.scales)
        for la, lb in zip(plain.learned_layers(), huge.learned_layers()):
            for name in la.param_names:
                if getattr(la, name).tobytes() != getattr(lb, name).tobytes():
                    first_divergence = first_divergence or (step, name)
    ok = first_divergence is None and rig_active
    verdict(7, ok, f"50 steps, gamma=1e9 vs no projection: "
                   f"{'bitwise identical' if first_divergence is None else f'diverged at {first_divergence}'}, "
                   f"measurement rig {'active' if rig_active else 'NOT RUNNING'}")


def test_08_paired_t_test():
    rng = make_rng(33)
    worst_t = 0.0
    worst_p = 0.0
    for i in range(20):
        k = int(rng.integers(3, 11))
        b = rng.normal(0.6, 0.15, size=k)
        a = b + rng.normal(0.0, 0.1, size=k) + (0.0, 0.15, 0.4)[i % 3]
        result = paired_t_test(a, b)
        t_ref, p_ref = paired_t_oracle(a, b)
        worst_t = max(worst_t, abs(result.t - t_ref))
        worst_p = max(worst_p, abs(result.p - p_ref))
    asymmetric = 0
    worst_shift = 0.0
    for _ in range(1000):
        k = int(rng.integers(3, 13))
        a = rng.normal(size=k)
        b = a + rng.normal(size=k) * 0.5
        fwd, rev = paired_t_test(a, b), paired_t_test(b, a)
        asymmetric += not (fwd.t == -rev.t and fwd.p == rev.p)
        c = float(rng.uniform(-10.0, 10.0))
        shifted = paired_t_test(a + c, b + c)
        worst_shift = max(worst_shift,
                          abs(shifted.t - fwd.t) / max(1.0, abs(fwd.t)),
                          abs(shifted.p - fwd.p) / max(1.0, fwd.p))
    ok = (worst_t <= 1e-9 and worst_p <= 1e-9 and asymmetric == 0
          and worst_shift <= 1e-12)
    verdict(8, ok, f"20 oracle samples: |dt| {worst_t:.1e}, |dp| {worst_p:.1e}; "
                   f"1000 cases: {asymmetric} antisymmetry misses, "
                   f"worst shift deviation {worst_shift:.1e}")


def test_09_fold_protocol(tmp_path):
    start = time.perf_counter()
    protocol = make_folds(100000, 10, 9000, 1000, make_rng(0))
    shapes_ok = (len(protocol.folds) == 10
                 and all(f.train.shape == (9000,) and f.test.shape == (1000,)
                         for f in protocol.folds))
    every_index = np.concatenate(
        [np.concatenate([f.train, f.test]) for f in protocol.folds])
    partition_ok = np.array_equal(np.sort(every_index), np.arange(100000))

    path = tmp_path / "folds.json"
    protocol.save(path)
    reloaded = FoldProtocol.load(path)
    roundtrip_ok = (reloaded.n_instances == protocol.n_instances
                    and all(np.array_equal(a.train, b.train)
                            and np.array_equal(a.test, b.test)
                            for a, b in zip(protocol.folds, reloaded.folds)))
    elapsed = time.perf_counter() - start
    ok = shapes_ok and partition_ok and roundtrip_ok and elapsed < 10.0
    verdict(9, ok, f"k=10 9000/1000 on n=100000: shapes={shapes_ok}, exhaustive "
                   f"partition={partition_ok}, file roundtrip={roundtrip_ok}, "
                   f"{elapsed:.1f}s")


def test_10_training_determinism(tmp_path):
    config = {
        "seed": 7,
        "model": [
            {"type": "dense", "in": 2, "out": 16},
            {"type": "relu"},
            {"type": "dense", "in": 16, "out": 2},
        ],
        "optimizer": "adam",
        "lr": 0.01,
        "epochs": 5,
        "batch_size": 32,
        "maxgain": {"gamma": 2.0, "p": 2},
        "dataset": {"type": "spirals", "n": 200, "seed": 7},
        "test_dataset": {"type": "spirals", "n": 100, "seed": 8},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    with contextlib.redirect_stdout(io.StringIO()):
        code_a = cli_main(["train", str(config_path), "--out", str(out_a)])
        code_b = cli_main(["train", str(config_path), "--out", str(out_b)])
    ledgers_equal = ((out_a / "ledger.tsv").read_bytes()
                     == (out_b / "ledger.tsv").read_bytes())
    checkpoints_equal = ((out_a / "checkpoint.txt").read_bytes()
                         == (out_b / "checkpoint.txt").read_bytes())
    ok = code_a == 0 and code_b == 0 and ledgers_equal and checkpoints_equal
    verdict(10, ok, f"cmd_train twice: exit codes ({code_a}, {code_b}), "
                    f"ledgers byte-identical={ledgers_equal}, "
                    f"checkpoints byte-identical={checkpoints_equal}")
