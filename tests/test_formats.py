"""The exact bytes every file writer produces on hand-built records.

Ledgers, gain reports, fold scores, sweep tables and checkpoints share one
number format (17 significant digits, small integers as themselves) and one
tab-separated layout; these pins keep each writer's output fixed.
"""

import numpy as np
import pytest

from maxgain import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    EpochRecord,
    Flatten,
    FoldScores,
    GainReport,
    GainReportRow,
    GainStats,
    MaxPool2d,
    Network,
    ReLU,
    ResidualBlock,
    SweepResult,
    SweepRow,
    TrainingLedger,
    network_from_text,
    network_to_text,
)


@pytest.mark.parametrize("constrained, text", [
    (False, "1\ttrain\t0.30000000000000004\t0.75\n"
            "1\ttest\t1e-300\t1\n"),
    (True, "1\ttrain\t0.30000000000000004\t0.75\t2.5\t0.80000000000000004\t0.33333333333333331\t1\n"
           "1\ttest\t1e-300\t1\n"),
])
def test_ledger(constrained, text):
    extra = {"gamma_hat_max": [2.5, 1 / 3], "scale_min": [0.8, 1.0]} if constrained else {}
    ledger = TrainingLedger([EpochRecord(1, "train", 0.1 + 0.2, 0.75, **extra),
                             EpochRecord(1, "test", 1e-300, 1.0)])
    assert ledger.to_text() == text


def test_gain_report():
    report = GainReport(rows=(GainReportRow(0, "test", GainStats(0.0, 0.25, 1 / 3, 2.0, 1e20, 7)),
                              GainReportRow(1, "train", GainStats(5e-324, 0.1, 0.1, 0.1, 0.1, 1))))
    assert report.to_text() == (
        "layer_index\tsplit\tn\tmin\tlq\tmedian\tuq\tmax\n"
        "0\ttest\t7\t0\t0.25\t0.33333333333333331\t2\t1e+20\n"
        "1\ttrain\t1\t4.9406564584124654e-324\t0.10000000000000001\t0.10000000000000001"
        "\t0.10000000000000001\t0.10000000000000001\n")


def test_fold_scores():
    scores = FoldScores(scores=((0, 2 / 3), (1, 1.0), (2, 0.0)))
    assert scores.to_text() == "fold\taccuracy\n0\t0.66666666666666663\n1\t1\n2\t0\n"


def test_sweep_table():
    sweep = SweepResult(rows=(SweepRow(0.5, 0.9, 0.1 + 0.2, 1.0, 2.0, (1.5, 1 / 3)),
                              SweepRow(8.0, 0.0, 1e-7, 0.5, 123456789.0, (0.25,))))
    assert sweep.to_text() == (
        "gamma\ttrain_accuracy\ttrain_loss\ttest_accuracy\ttest_loss\ttest_max_gain_per_layer\n"
        "0.5\t0.90000000000000002\t0.30000000000000004\t1\t2\t1.5,0.33333333333333331\n"
        "8\t0\t9.9999999999999995e-08\t0.5\t123456789\t0.25\n")


CHECKPOINT = """\
maxgain-checkpoint v1
stages 7
stage conv stride=1 pad=1
array kernel 4 2 1 2 2
0 0.14285714285714285 0.2857142857142857 0.42857142857142855 0.5714285714285714 0.7142857142857143 \
0.8571428571428571 1
array b 1 2
0 -1e-300
end
stage batchnorm momentum=0.5 eps=0.001
array alpha 1 2
1.5 -0
array beta 1 2
0.10000000000000001 2
array running_mean 1 2
-0.25 0.33333333333333331
array running_var 1 2
0 4.9406564584124654e-324
end
stage residual
main 1
stage relu
end
shortcut 1
stage conv stride=1 pad=0
array kernel 4 2 2 1 1
0.5 -2 0.5 -2
array b 1 2
0 0
end
end
stage residual
main 1
stage dropout rate=0.25
end
shortcut 0
end
stage maxpool kernel=2 stride=1
end
stage flatten
end
stage dense
array w 2 2 8
1.0000000000000001e-05 1.0000000000000001e-05 1.0000000000000001e-05 1.0000000000000001e-05 \
1.0000000000000001e-05 1.0000000000000001e-05 1.0000000000000001e-05 1.0000000000000001e-05 3 3 3 3 3 3 3 3
array b 1 2
0.10000000000000001 0.20000000000000001
end
"""


def test_checkpoint():
    bn = BatchNorm(np.array([1.5, -0.0]), np.array([0.1, 2.0]), momentum=0.5, eps=1e-3)
    bn.running_mean = np.array([-0.25, 1 / 3])
    bn.running_var = np.array([0.0, 5e-324])
    conv = Conv2d(np.arange(8.0).reshape(2, 1, 2, 2) / 7.0, np.array([0.0, -1e-300]), stride=1, pad=1)
    shortcut = Conv2d(np.array([[[[0.5]], [[-2.0]]]] * 2), np.zeros(2))
    dense = Dense(np.array([[1e-5] * 8, [3.0] * 8]), np.array([0.1, 0.2]))
    net = Network([conv, bn, ResidualBlock([ReLU()], [shortcut]), ResidualBlock([Dropout(0.25)]),
                   MaxPool2d(2, stride=1), Flatten(), dense])
    assert network_to_text(net) == CHECKPOINT
    assert network_to_text(network_from_text(CHECKPOINT)) == CHECKPOINT
