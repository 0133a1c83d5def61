"""The sweep executor: parallel/serial equivalence, cache integration,
failure isolation, metrics accounting, and the run_design_sweep
rewiring.

Cache-exactness tests pass ``faults=None`` so their hit/miss
assertions stay valid when the whole file runs under an injected
``$REPRO_FAULTS`` plan (the CI fault matrix); everything else keeps
the environment plan active on purpose — equivalence and accounting
must hold *under* injected crashes, hangs, and transient errors.
"""

import multiprocessing

import pytest

from repro.check import result_digest
from repro.experiments import SMOKE_SCALE
from repro.experiments.runner import clear_sweep_cache, run_design_sweep
from repro.runtime import (
    FaultPlan,
    InjectedFault,
    ResultCache,
    SweepExecutor,
    SweepJobError,
)
from repro.telemetry import InvariantViolation

DESIGNS = ("PoM", "Chameleon-Opt")

#: The ``DESIGNS`` x ``SMOKE_SCALE`` grid in dispatch order (6 cells).
GRID = [(d, w) for d in DESIGNS for w in SMOKE_SCALE.benchmarks]


def plan_faulting_first(**counts):
    """A one-fault plan (``crashes=1`` or ``errors=1``) whose fault
    lands on the first dispatched cell, so the rest of the sweep runs
    after it on the same worker slots."""
    for seed in range(1000):
        plan = FaultPlan(seed=seed, **counts)
        if set(plan.materialise(GRID)) == {GRID[0]}:
            return plan
    raise AssertionError(f"no seed puts {counts} on {GRID[0]}")


class TestParallelEquivalence:
    def test_parallel_matches_serial_exactly(self):
        """The acceptance bar: 4 workers, bit-identical to serial."""
        serial = SweepExecutor(jobs=1).run(SMOKE_SCALE, DESIGNS)
        parallel = SweepExecutor(jobs=4).run(SMOKE_SCALE, DESIGNS)
        assert set(serial) == set(parallel)
        for cell in serial:
            assert parallel[cell] == serial[cell]
            assert parallel[cell].geomean_ipc == serial[cell].geomean_ipc
            assert parallel[cell].fast_hit_rate == serial[cell].fast_hit_rate
            assert parallel[cell].swaps == serial[cell].swaps

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_unknown_design_rejected_before_running(self):
        with pytest.raises(KeyError):
            SweepExecutor().run(SMOKE_SCALE, ("NotADesign",))


class TestTelemetryCapture:
    """Telemetry is observational: identical results with it on or off,
    no events in the cache, streams merged at the parent."""

    def test_results_bit_identical_with_telemetry_and_audit(self):
        from repro.telemetry import EventBus

        plain = SweepExecutor(jobs=1).run(SMOKE_SCALE, DESIGNS)
        traced_executor = SweepExecutor(
            jobs=1, telemetry=EventBus(), audit=True
        )
        traced = traced_executor.run(SMOKE_SCALE, DESIGNS)
        assert set(traced) == set(plain)
        for cell in plain:
            assert traced[cell].to_dict() == plain[cell].to_dict()
        # ... and the traced run actually captured something.
        assert set(traced_executor.events) == set(plain)
        assert all(traced_executor.events.values())

    def test_pooled_capture_matches_serial_capture(self):
        from repro.telemetry import EventBus, EventLog, TelemetryEvent

        serial = SweepExecutor(jobs=1, telemetry=EventBus())
        serial.run(SMOKE_SCALE, DESIGNS)
        for jobs in (2, 4):
            bus = EventBus()
            log = bus.subscribe(EventLog())
            pooled = SweepExecutor(jobs=jobs, telemetry=bus)
            pooled.run(SMOKE_SCALE, DESIGNS)
            assert set(serial.events) == set(pooled.events)
            for cell, stream in serial.events.items():
                assert [e.to_dict() for e in pooled.events[cell]] == [
                    e.to_dict() for e in stream
                ]
                # Events cross the worker pipe as objects, not dicts.
                assert all(
                    isinstance(e, TelemetryEvent)
                    for e in pooled.events[cell]
                )
                assert pooled.events[cell] == stream
            # The parent bus saw exactly the captured objects, cell by
            # cell in completion order.
            completed = [
                (c.design, c.workload) for c in pooled.metrics.cells
            ]
            replayed = [e for e in log.events if e.kind != "job_retry"]
            assert replayed == [
                event for cell in completed for event in pooled.events[cell]
            ]

    def test_trace_bytes_do_not_depend_on_jobs(self, tmp_path):
        from repro.telemetry import EventBus, write_trace

        # CAMEO cells take several PoM cells' time, so at jobs=2 a PoM
        # cell completes before the last CAMEO one.
        designs = ("CAMEO", "PoM")
        cells = [(d, w) for d in designs for w in SMOKE_SCALE.benchmarks]
        exports = {}
        for jobs in (1, 2):
            executor = SweepExecutor(jobs=jobs, telemetry=EventBus())
            executor.run(SMOKE_SCALE, designs)
            assert list(executor.events) == cells
            tracks = {
                f"{design}/{workload}": stream
                for (design, workload), stream in executor.events.items()
            }
            for suffix in (".json", ".jsonl"):
                path = tmp_path / f"jobs{jobs}{suffix}"
                write_trace(tracks, path)
                exports[jobs, suffix] = path.read_bytes()
        assert exports[1, ".json"] == exports[2, ".json"]
        assert exports[1, ".jsonl"] == exports[2, ".jsonl"]

    def test_events_replay_onto_the_parent_bus(self):
        from repro.telemetry import EventBus, EventLog

        bus = EventBus()
        log = bus.subscribe(EventLog())
        executor = SweepExecutor(jobs=1, telemetry=bus)
        executor.run(SMOKE_SCALE, ("PoM",))
        # Host-side retry notifications share the bus but are not part
        # of any cell's captured stream.
        cell_events = [e for e in log.events if e.kind != "job_retry"]
        assert len(cell_events) == sum(
            len(stream) for stream in executor.events.values()
        )

    def test_cached_cells_stay_event_free_and_identical(self, tmp_path):
        from repro.telemetry import EventBus

        cold = SweepExecutor(
            jobs=1, cache=ResultCache(tmp_path), faults=None
        )
        first = cold.run(SMOKE_SCALE, ("PoM",))
        warm = SweepExecutor(
            jobs=1,
            cache=ResultCache(tmp_path),
            telemetry=EventBus(),
            faults=None,
        )
        second = warm.run(SMOKE_SCALE, ("PoM",))
        # Warm-cache replay is bit-identical to the traced-off run and
        # produces no events (cells were never re-simulated).
        assert warm.metrics.simulated == 0
        assert warm.events == {}
        for cell in first:
            assert second[cell].to_dict() == first[cell].to_dict()

    def test_audit_runs_inside_workers(self):
        # Pooled path: the auditor attaches inside each worker process;
        # a clean sweep over real designs must not raise.
        from repro.telemetry import EventBus

        executor = SweepExecutor(jobs=4, telemetry=EventBus(), audit=True)
        results = executor.run(SMOKE_SCALE, ("Chameleon",))
        assert len(results) == len(SMOKE_SCALE.benchmarks)


class TestCacheIntegration:
    def test_warm_cache_serves_without_simulating(self, tmp_path):
        cold = SweepExecutor(
            jobs=2, cache=ResultCache(tmp_path), faults=None
        )
        first = cold.run(SMOKE_SCALE, DESIGNS)
        assert cold.metrics.simulated == len(first)
        assert cold.metrics.disk_hits == 0

        warm = SweepExecutor(
            jobs=2, cache=ResultCache(tmp_path), faults=None
        )
        second = warm.run(SMOKE_SCALE, DESIGNS)
        assert warm.metrics.simulated == 0
        assert warm.metrics.disk_hits == len(second)
        assert warm.metrics.cache_hit_rate == pytest.approx(1.0)
        assert second == first

    def test_partial_cache_simulates_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache, faults=None).run(SMOKE_SCALE, ("PoM",))
        executor = SweepExecutor(cache=ResultCache(tmp_path), faults=None)
        executor.run(SMOKE_SCALE, DESIGNS)
        n_workloads = len(SMOKE_SCALE.benchmarks)
        assert executor.metrics.disk_hits == n_workloads
        assert executor.metrics.simulated == n_workloads


class TestFailureIsolation:
    """A failing job surfaces as SweepJobError naming exactly which
    (design, workload) cell died — never a bare pool exception."""

    def test_serial_failure_carries_job_context(self):
        plan = FaultPlan(seed=0, errors=1)
        executor = SweepExecutor(
            jobs=1, retries=0, faults=plan, backoff=0.0
        )
        with pytest.raises(SweepJobError) as excinfo:
            executor.run(SMOKE_SCALE, ("PoM",))
        err = excinfo.value
        assert err.design == "PoM"
        assert err.workload in SMOKE_SCALE.benchmarks
        assert err.attempts == 1
        assert isinstance(err.__cause__, InjectedFault)
        assert err.design in str(err) and err.workload in str(err)

    def test_pooled_failure_carries_job_context(self):
        plan = FaultPlan(seed=0, errors=1)
        executor = SweepExecutor(
            jobs=2, retries=0, faults=plan, backoff=0.0
        )
        with pytest.raises(SweepJobError) as excinfo:
            executor.run(SMOKE_SCALE, ("PoM",))
        err = excinfo.value
        assert (err.design, err.workload) in [
            ("PoM", w) for w in SMOKE_SCALE.benchmarks
        ]
        assert executor.metrics.errors == 1

    def test_crash_is_isolated_and_retried(self):
        plan = FaultPlan(seed=1, crashes=1)
        executor = SweepExecutor(
            jobs=2, retries=1, faults=plan, backoff=0.0
        )
        results = executor.run(SMOKE_SCALE, ("PoM",))
        # The dead worker cost one retry of its own job; every other
        # cell completed untouched.
        assert len(results) == len(SMOKE_SCALE.benchmarks)
        assert executor.metrics.crashes == 1
        assert executor.metrics.retries == 1


class TestMetrics:
    def test_accounting_shape(self):
        executor = SweepExecutor(jobs=1)
        executor.run(SMOKE_SCALE, ("PoM",))
        metrics = executor.metrics
        assert metrics.cells_total == len(SMOKE_SCALE.benchmarks)
        assert metrics.simulated == metrics.cells_total
        assert metrics.sweeps == 1
        assert metrics.wall_seconds > 0
        assert metrics.busy_seconds > 0
        assert 0.0 < metrics.worker_utilisation <= 1.0
        assert metrics.mean_cell_seconds > 0
        assert "cells=" in metrics.summary()

    def test_progress_callback_sees_every_cell(self):
        seen = []
        executor = SweepExecutor(
            on_cell=lambda stat, done, total: seen.append(
                (stat.design, stat.workload, done, total)
            )
        )
        executor.run(SMOKE_SCALE, ("PoM",))
        total = len(SMOKE_SCALE.benchmarks)
        assert len(seen) == total
        assert seen[-1][2:] == (total, total)

    def test_metrics_accumulate_across_sweeps(self):
        executor = SweepExecutor()
        executor.run(SMOKE_SCALE, ("PoM",))
        executor.run(SMOKE_SCALE, ("Chameleon-Opt",))
        assert executor.metrics.sweeps == 2
        assert executor.metrics.cells_total == 2 * len(
            SMOKE_SCALE.benchmarks
        )


class TestRunDesignSweepRewiring:
    def test_explicit_executor_is_used(self, tmp_path):
        clear_sweep_cache()
        executor = SweepExecutor(jobs=2, cache=ResultCache(tmp_path))
        results = run_design_sweep(
            SMOKE_SCALE, ("PoM",), use_cache=False, executor=executor
        )
        assert executor.metrics.cells_total == len(results)

    def test_memo_shortcuts_the_executor(self, tmp_path):
        clear_sweep_cache()
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        first = run_design_sweep(SMOKE_SCALE, ("PoM",), executor=executor)
        again = run_design_sweep(SMOKE_SCALE, ("PoM",), executor=executor)
        # The in-process memo returns the same objects without another
        # executor round (no new cells recorded).
        assert again[("PoM", "mcf")] is first[("PoM", "mcf")]
        assert executor.metrics.cells_total == len(first)
        clear_sweep_cache()

    def test_disk_cache_refills_after_memo_clear(self, tmp_path):
        clear_sweep_cache()
        executor = SweepExecutor(cache=ResultCache(tmp_path), faults=None)
        run_design_sweep(SMOKE_SCALE, ("PoM",), executor=executor)
        clear_sweep_cache()
        warm = SweepExecutor(cache=ResultCache(tmp_path), faults=None)
        run_design_sweep(SMOKE_SCALE, ("PoM",), executor=warm)
        assert warm.metrics.simulated == 0
        assert warm.metrics.disk_hits == len(SMOKE_SCALE.benchmarks)
        clear_sweep_cache()


class TestWorkerLifecycle:
    """A pooled sweep forks one long-lived worker per job slot, replaces
    one only after a crash or timeout, and stops them all at sweep end."""

    def test_fault_free_sweep_starts_one_worker_per_slot(self):
        executor = SweepExecutor(jobs=2, faults=None)
        results = executor.run(SMOKE_SCALE, DESIGNS)
        assert len(results) == len(GRID) >= 6
        assert executor.metrics.workers_started == 2
        assert "workers=2" in executor.metrics.summary()

    def test_crash_costs_one_replacement_worker(self):
        executor = SweepExecutor(
            jobs=2,
            faults=plan_faulting_first(crashes=1),
            retries=1,
            backoff=0.0,
        )
        executor.run(SMOKE_SCALE, DESIGNS)
        assert executor.metrics.crashes == 1
        assert executor.metrics.workers_started == 3

    def test_single_cell_sweep_starts_one_worker(self):
        executor = SweepExecutor(jobs=2, faults=None)
        executor.run_cells(SMOKE_SCALE, [GRID[0]])
        assert executor.metrics.workers_started == 1

    def test_serial_sweep_starts_no_worker(self):
        executor = SweepExecutor(jobs=1, faults=None)
        executor.run(SMOKE_SCALE, ("PoM",))
        assert executor.metrics.workers_started == 0
        assert "workers=0" in executor.metrics.summary()

    def test_worker_that_raised_keeps_serving_byte_identically(self):
        reference = SweepExecutor(jobs=1, faults=None).run(
            SMOKE_SCALE, DESIGNS
        )
        executor = SweepExecutor(
            jobs=2,
            faults=plan_faulting_first(errors=1),
            retries=1,
            backoff=0.0,
        )
        results = executor.run(SMOKE_SCALE, DESIGNS)
        assert executor.metrics.errors == 1
        assert executor.metrics.workers_started == 2
        assert {c: result_digest(r) for c, r in results.items()} == {
            c: result_digest(r) for c, r in reference.items()
        }

    def test_no_worker_survives_a_completed_sweep(self):
        SweepExecutor(jobs=2, faults=None).run(SMOKE_SCALE, DESIGNS)
        assert multiprocessing.active_children() == []

    def test_no_worker_survives_exhausted_retries(self):
        executor = SweepExecutor(
            jobs=2,
            faults=plan_faulting_first(errors=1),
            retries=0,
            backoff=0.0,
        )
        with pytest.raises(SweepJobError):
            executor.run(SMOKE_SCALE, DESIGNS)
        assert multiprocessing.active_children() == []

    def test_no_worker_survives_an_interrupted_sweep(self):
        class Abort(BaseException):
            pass

        def abort(stat, done, total):
            raise Abort()

        executor = SweepExecutor(jobs=2, faults=None, on_cell=abort)
        # Holding the traceback keeps the sweep's frames alive, so the
        # workers must be stopped by the executor, not by collection.
        with pytest.raises(Abort) as excinfo:
            executor.run(SMOKE_SCALE, DESIGNS)
        assert multiprocessing.active_children() == []
        assert excinfo.traceback

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched cell must be inherited by forked workers",
    )
    def test_no_worker_survives_an_invariant_violation(self, monkeypatch):
        import repro.runtime.cells as cells

        simulate_cell = cells.simulate_cell

        def violating(scale, design, workload, *args, **kwargs):
            if (design, workload) == GRID[1]:
                raise InvariantViolation("injected SRRT violation")
            return simulate_cell(scale, design, workload, *args, **kwargs)

        monkeypatch.setattr(cells, "simulate_cell", violating)
        with pytest.raises(InvariantViolation, match="injected"):
            SweepExecutor(jobs=2, faults=None).run(SMOKE_SCALE, DESIGNS)
        assert multiprocessing.active_children() == []
