"""Metric arithmetic of the benchmark.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import cProfile
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics as m  # noqa: E402
from perfbench.layers import Tracer, layer_seconds  # noqa: E402


class TestQuantileWithTail:
    def test_p90_needs_ten_samples_beyond(self):
        # n=100: rank 90 leaves exactly 10 beyond; n=99: rank 90, 9 beyond.
        assert m.quantile_with_tail(range(1, 101), 0.9) == 90
        assert m.quantile_with_tail(range(1, 100), 0.9) is None

    def test_fig15_sized_grid_has_no_p90_but_a_median(self):
        cells = [float(i) for i in range(56)]
        assert m.quantile_with_tail(cells, 0.9) is None
        assert m.quantile_with_tail(cells, 0.5) == 27.0

    def test_nearest_rank_on_unsorted_input(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # n=20
        assert m.quantile_with_tail(values, 0.5) == 3.0
        assert m.quantile_with_tail(values, 0.5, min_beyond=11) is None

    def test_rejects_bad_quantile_and_empty_input(self):
        with pytest.raises(ValueError):
            m.quantile_with_tail([1.0], 0.0)
        assert m.quantile_with_tail([], 0.5) is None


class TestSpanSelfTimes:
    def test_children_are_subtracted_from_their_parent(self):
        spans = [
            (0, None, "SweepExecutor.run", 0.0, 10.0),
            (1, 0, "simulate_cell", 1.0, 4.0),
            (2, 1, "repro.sim.simulate", 1.5, 3.5),
            (3, 0, "simulate_cell", 5.0, 9.0),
        ]
        self_times = m.span_self_times(spans)
        assert self_times == {0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0}
        assert sum(self_times.values()) == 10.0

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            (0, None, "root", 0.0, 10.0),
            (1, 0, "a", 2.0, 6.0),
            (2, 0, "b", 4.0, 8.0),
            (3, 0, "late", 9.0, 12.0),
        ]
        assert m.span_self_times(spans)[0] == pytest.approx(3.0)

    def test_tracer_records_parentage(self):
        tracer = Tracer()
        with tracer.span("SweepExecutor.run"):
            with tracer.span("simulate_cell", design="PoM"):
                pass
        with tracer.span("write_trace"):
            pass
        (run, cell, export) = tracer.tuples()
        assert run[1] is None and cell[1] == run[0] and export[1] is None
        assert tracer.spans[1]["design"] == "PoM"
        self_times = m.span_self_times(tracer.tuples())
        assert self_times[run[0]] == pytest.approx(
            (run[4] - run[3]) - (cell[4] - cell[3])
        )


class TestOverheadAndFailRatio:
    def test_serial_overhead_is_wall_minus_cells(self):
        assert m.overhead_ms_per_cell(1, 10.0, [2.0, 3.0, 4.0]) == pytest.approx(
            1000.0 * 1.0 / 3
        )

    def test_pooled_overhead_charges_every_worker(self):
        # 2 workers for 5 s hold 10 worker-seconds; cells used 8.
        assert m.overhead_ms_per_cell(2, 5.0, [2.0] * 4) == pytest.approx(500.0)

    def test_no_cells_no_overhead(self):
        assert m.overhead_ms_per_cell(2, 5.0, []) == 0.0

    def test_fail_ratio(self):
        assert m.fail_ratio(0, 124) == 0.0
        assert m.fail_ratio(3, 12) == 0.25
        assert m.fail_ratio(0, 0) == 0.0
        with pytest.raises(ValueError):
            m.fail_ratio(5, 4)


class TestPaperErrorAndSpread:
    def test_paper_error_is_mean_absolute_gap(self):
        reference = {"Chameleon": 9.2, "Chameleon-Opt": 40.6}
        simulated = {"Chameleon": 10.0, "Chameleon-Opt": 44.6}
        assert m.paper_error_pp(simulated, reference) == pytest.approx(2.4)

    def test_spread_matches_statistics_quantiles(self):
        values = [4.0, 4.2, 3.9, 4.1, 4.5, 4.0, 4.3, 3.8, 4.4, 4.1]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert m.quartile_spread(values) == pytest.approx((q3 - q1) / median)


def _busy(n: int) -> int:
    return sum(range(n))


def test_builtin_time_is_charged_to_the_caller():
    """``sum``/``range`` are builtins; their time belongs to the
    benchmark file that called them, which is the ``other`` layer."""
    profile = cProfile.Profile()
    profile.enable()
    _busy(200_000)
    profile.disable()
    layers = layer_seconds(profile)
    assert set(layers) == {"other"}
    assert layers["other"] > 0.0


def test_package_time_lands_in_its_layer():
    from repro.stats import CounterSet

    counters = CounterSet()
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(20_000):
        counters.add("dram.stacked.accesses")
    profile.disable()
    layers = layer_seconds(profile)
    assert layers["stats"] > 0.0
    assert set(layers) <= {"stats", "other"}
