"""Self-test of the benchmark's own arithmetic and reference checks.

    python3 perfbench/test_harness.py        # or: python3 -m pytest perfbench

Needs neither the package under test nor a run of the benchmark.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import harness  # noqa: E402
import jobs  # noqa: E402


def _raises(fn, exc=ValueError) -> bool:
    try:
        fn()
    except exc:
        return True
    return False


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 101))           # 1..100
    assert harness.percentile(xs, 50) == 50.5
    assert harness.percentile(xs, 90) == 90.1
    assert harness.percentile([7.0], 90) == 7.0
    assert harness.median([3, 1, 2]) == 2


def test_tail_percentile_needs_ten_samples_beyond():
    xs = list(range(100))
    assert harness.samples_beyond(xs, 90) == 10
    assert harness.tail_percentile(xs) == harness.percentile(xs, 90)
    assert _raises(lambda: harness.tail_percentile(list(range(91))))   # 9 beyond
    assert _raises(lambda: harness.tail_percentile([1.0] * 200))  # nothing lies beyond a tie


def test_failed_ratio():
    assert harness.failed_ratio(132, 56) == 56 / 132
    assert harness.failed_ratio(5, 0) == 0.0
    assert _raises(lambda: harness.failed_ratio(0, 0))
    assert _raises(lambda: harness.failed_ratio(3, 4))


def test_time_to_rse_scales_with_the_square_of_rse():
    assert math.isclose(harness.time_to_rse([(2.0, 0.01)]), 2.0)
    assert math.isclose(harness.time_to_rse([(2.0, 0.02), (1.0, 0.005)]), 8.0 + 0.25)
    assert harness.time_to_rse([]) == 0.0
    assert _raises(lambda: harness.time_to_rse([(1.0, float("nan"))]))


def test_self_time_subtracts_child_coverage():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 3.0, 0),     # child
        (2.0, 4.0, 0),     # overlapping child: union with the first is [1, 4]
        (6.0, 12.0, 0),    # child running past its parent is clipped to [6, 10]
        (1.5, 2.5, 1),     # grandchild: counts against span 1 only
    ]
    assert harness.self_times(spans) == [10.0 - 3.0 - 4.0, 2.0 - 1.0, 2.0, 6.0, 1.0]
    assert harness.covered_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_closed_form_feasibility():
    half = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    assert checks.mean_feasible(half, [Fraction(1, 2)] * 2)
    assert not checks.mean_feasible(half, [Fraction(1), Fraction(0)])     # top-1 sum 1 > 3/4
    assert not checks.mean_feasible(half, [Fraction(1, 2), Fraction(1, 4)])  # wrong total
    # Instances built from a joint pmf are always feasible.
    import numpy as np
    rng = np.random.default_rng(5)
    for d in (3, 4, 5):
        p, theta = jobs.sum_law_and_means(jobs.random_joint(rng, d), d)
        assert checks.mean_feasible(p, theta)
        assert checks.joint_equations(jobs.random_joint(rng, d), p, theta) is not None


def test_region_volume_reference_by_hand():
    # Box [0.25, 0.35]^2; the last-coordinate window [0.35, 0.45] keeps
    # x1 + x2 within 0.05 of 0.6, which is 3/4 of the triangular law of the
    # sum.  Surface volume: sqrt(3) * 0.01 * 3/4.
    job = {"p": [0.3, 0.3, 0.4], "eps": 0.05}
    want = 0.5 * math.log(3) + math.log(0.01 * 0.75)
    assert math.isclose(checks.region_volume_reference(job), want, rel_tol=1e-12)


def test_local_calibration_is_a_windowed_mean():
    marks = [(0, 1.0), (3, 9.0), (5, 2.0), (8, 4.0)]
    # Job 4 lies between the marks at positions 3 and 5.
    assert harness.local_calibration(marks, 4, window=1) == 5.5
    assert harness.local_calibration(marks, 4, window=2) == 4.0
    assert harness.local_calibration(marks, 0, window=5) == 4.0
    assert harness.local_calibration(marks, 9, window=1) == 4.0


def test_scaling_uses_the_kernel_power():
    ref = harness.CAL_REF_S
    assert math.isclose(harness.scaled(1.0, 2 * ref["python"], "python"), 0.5)
    assert math.isclose(harness.scaled(1.0, 4 * ref["numpy_threads"], "numpy_threads"), 0.5)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
