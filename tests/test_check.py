"""The conformance subsystem: canonical digests, the golden store,
sampling, the check runner's verdicts, the fuzz generator, and the
CLI exit codes — including the mandated regression test that an
injected digest mismatch makes ``check`` exit non-zero.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

import repro
from repro.check import (
    GOLDEN_BLESSED,
    GOLDEN_MATCH,
    GOLDEN_MISMATCH,
    REPORT_SCHEMA_VERSION,
    GoldenRecord,
    GoldenStore,
    canonical_json_bytes,
    cell_key,
    conformance_grid,
    events_digest,
    generate_cases,
    payload_digest,
    result_digest,
    run_check,
    sample_cells,
    scale_identity,
)
from repro.check.fuzz import ACCESSES_RANGE, COPIES_CHOICES, FAST_MB_CHOICES
from repro.experiments.__main__ import main
from repro.experiments.designs import REGISTRY
from repro.experiments.runner import SMOKE_SCALE, Scale
from tests.conftest import tiny_scale

COMMITTED_GOLDENS = Path(__file__).parent / "goldens"

TINY = tiny_scale(accesses=60, num_copies=1)


class _FakeResult:
    def __init__(self, payload):
        self.payload = payload

    def to_dict(self):
        return self.payload


class TestCanonicalDigests:
    def test_key_order_never_leaks(self):
        assert canonical_json_bytes({"b": 1, "a": 2}) == canonical_json_bytes(
            {"a": 2, "b": 1}
        )
        assert payload_digest({"b": 1, "a": 2}) == payload_digest(
            {"a": 2, "b": 1}
        )

    def test_value_changes_change_the_digest(self):
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})
        assert payload_digest({"a": 1.0}) != payload_digest({"a": 1.0000001})

    def test_result_digest_accepts_object_or_mapping(self):
        payload = {"x": 3, "hit_rate": 0.5}
        assert result_digest(_FakeResult(payload)) == result_digest(payload)

    def test_events_digest_is_order_sensitive(self):
        a = {"kind": "epoch", "epoch": 0}
        b = {"kind": "epoch", "epoch": 1}
        assert events_digest([a, b]) != events_digest([b, a])

    def test_infrastructure_events_are_transparent(self):
        semantic = [{"kind": "epoch", "epoch": 0}]
        noisy = [
            {"kind": "arena", "action": "attach"},
            semantic[0],
            {"kind": "job_retry", "attempt": 2},
            {"kind": "serve", "action": "admit"},
        ]
        assert events_digest(noisy) == events_digest(semantic)

    def test_empty_stream_digest_is_stable(self):
        assert events_digest([]) == events_digest(
            [{"kind": "arena", "action": "attach"}]
        )


class TestGoldenStore:
    def test_put_get_round_trip(self, runtime_dirs):
        store = GoldenStore(runtime_dirs.goldens)
        record = store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "initial")
        loaded = store.get(TINY, "PoM", "mcf")
        assert loaded == record
        assert loaded.note == "initial"
        assert loaded.recorded_version == repro.__version__
        assert len(store) == 1

    def test_blessing_requires_a_note(self, runtime_dirs):
        store = GoldenStore(runtime_dirs.goldens)
        with pytest.raises(ValueError, match="note"):
            store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "  ")

    def test_missing_cell_is_none_damage_raises(self, runtime_dirs):
        store = GoldenStore(runtime_dirs.goldens)
        assert store.get(TINY, "PoM", "mcf") is None
        store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "x")
        path = store.path_for(TINY, "PoM", "mcf")
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            store.get(TINY, "PoM", "mcf")

    def test_key_is_version_independent(self, runtime_dirs, monkeypatch):
        """The store's whole point: a version bump must NOT retire a
        golden (the result cache does the opposite on purpose)."""
        store = GoldenStore(runtime_dirs.goldens)
        store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "recorded at 1.5")
        before = cell_key(TINY, "PoM", "mcf")
        monkeypatch.setattr(repro, "__version__", "99.0.0")
        assert cell_key(TINY, "PoM", "mcf") == before
        survived = store.get(TINY, "PoM", "mcf")
        assert survived is not None
        assert survived.recorded_version != "99.0.0"

    def test_key_distinguishes_cell_and_scale_but_not_siblings(self):
        base = cell_key(TINY, "PoM", "mcf")
        assert base != cell_key(TINY, "Chameleon", "mcf")
        assert base != cell_key(TINY, "PoM", "bwaves")
        assert base != cell_key(tiny_scale(accesses=61, num_copies=1),
                                "PoM", "mcf")
        # Sweep siblings never affect a cell's own result.
        sibling = tiny_scale(
            accesses=60, num_copies=1, benchmarks=("mcf", "bwaves")
        )
        assert base == cell_key(sibling, "PoM", "mcf")
        assert "benchmarks" not in scale_identity(TINY)

    def test_record_schema_gate(self):
        with pytest.raises(ValueError, match="unsupported golden schema"):
            GoldenRecord.from_dict({"schema": None})

    def test_failed_rebless_leaves_previous_golden(
        self, runtime_dirs, monkeypatch
    ):
        """A ``--bless`` killed mid-publish must not tear a golden:
        the previous record stays byte-identical, no temp file stays."""
        store = GoldenStore(runtime_dirs.goldens)
        store.put(TINY, "PoM", "mcf", "a" * 64, "b" * 64, "initial")
        path = store.path_for(TINY, "PoM", "mcf")
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("injected: publish failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected"):
            store.put(TINY, "PoM", "mcf", "c" * 64, "d" * 64, "re-bless")
        assert path.read_bytes() == before
        assert [p.name for p in runtime_dirs.goldens.iterdir()] == [path.name]

    def test_committed_golden_names_match_their_address(self):
        """Every committed golden sits exactly where ``path_for``
        looks for it, so a change to the cell-key encoding cannot
        silently orphan a golden (no simulation needed)."""
        store = GoldenStore(COMMITTED_GOLDENS)
        records = list(store.records())
        assert len(records) == 45
        for path, record in records:
            address = store.path_for(
                Scale(**record.scale), record.design, record.workload
            )
            assert path.name == address.name


class TestSampling:
    def test_grid_covers_full_registry(self):
        grid = conformance_grid(SMOKE_SCALE)
        assert len(grid) == len(REGISTRY.labels()) * len(
            SMOKE_SCALE.benchmarks
        )

    def test_sample_is_deterministic_subset_in_grid_order(self):
        grid = conformance_grid(SMOKE_SCALE)
        a = sample_cells(SMOKE_SCALE, 6, seed=0)
        assert a == sample_cells(SMOKE_SCALE, 6, seed=0)
        assert a != sample_cells(SMOKE_SCALE, 6, seed=1)
        assert len(a) == 6
        assert [c for c in grid if c in a] == a

    def test_zero_or_oversized_sample_is_the_whole_grid(self):
        grid = conformance_grid(SMOKE_SCALE)
        assert sample_cells(SMOKE_SCALE, 0, seed=0) == grid
        assert sample_cells(SMOKE_SCALE, 10_000, seed=0) == grid


def quiet(_line):
    pass


class TestRunCheck:
    """Fast-path (``deep=False``) bless/verify cycles at a tiny scale."""

    def test_bless_then_verify_passes(self, runtime_dirs):
        blessed = run_check(
            TINY, bless=True, note="initial tiny goldens",
            goldens_dir=runtime_dirs.goldens, deep=False, echo=quiet,
        )
        assert blessed.passed
        assert all(c.golden_status == GOLDEN_BLESSED for c in blessed.cells)
        assert len(blessed.cells) == len(conformance_grid(TINY))

        verified = run_check(
            TINY, sample=0, goldens_dir=runtime_dirs.goldens,
            deep=False, fuzz=0, echo=quiet,
        )
        assert verified.passed
        assert all(c.golden_status == GOLDEN_MATCH for c in verified.cells)

    def test_tampered_golden_is_a_mismatch(self, runtime_dirs):
        run_check(
            TINY, bless=True, note="initial", deep=False,
            goldens_dir=runtime_dirs.goldens, echo=quiet,
        )
        store = GoldenStore(runtime_dirs.goldens)
        victim = store.path_for(TINY, "PoM", "mcf")
        data = json.loads(victim.read_text())
        data["result_digest"] = "0" * 64
        victim.write_text(json.dumps(data))

        report = run_check(
            TINY, sample=0, goldens_dir=runtime_dirs.goldens,
            deep=False, fuzz=0, echo=quiet,
        )
        assert not report.passed
        bad = [c for c in report.cells if c.golden_status == GOLDEN_MISMATCH]
        assert [(c.design, c.workload) for c in bad] == [("PoM", "mcf")]
        assert "re-blessed" in bad[0].golden_detail

    def test_verify_without_goldens_is_an_error(self, runtime_dirs):
        report = run_check(
            TINY, goldens_dir=runtime_dirs.goldens, deep=False, echo=quiet,
        )
        assert not report.passed
        assert "no goldens" in report.error

    def test_bless_without_note_is_an_error(self, runtime_dirs):
        report = run_check(
            TINY, bless=True, goldens_dir=runtime_dirs.goldens,
            deep=False, echo=quiet,
        )
        assert "--note" in report.error
        assert not report.passed

    def test_report_schema_and_write(self, runtime_dirs):
        report = run_check(
            TINY, bless=True, note="n", deep=False,
            goldens_dir=runtime_dirs.goldens, echo=quiet,
        )
        wire = report.to_dict()
        assert wire["schema"] == REPORT_SCHEMA_VERSION
        assert wire["version"] == repro.__version__
        assert wire["summary"]["passed"] is True
        assert wire["scale"] == scale_identity(TINY)
        out = report.write(runtime_dirs.scratch / "CHECK_report.json")
        assert json.loads(out.read_text()) == wire


class TestFuzzGenerator:
    def test_seeded_and_bounded(self):
        cases = generate_cases(7, 12)
        assert cases == generate_cases(7, 12)
        assert cases != generate_cases(8, 12)
        names = set(REGISTRY.labels())
        for case in cases:
            assert case.design in names
            assert case.scale.fast_mb in FAST_MB_CHOICES
            assert case.scale.num_copies in COPIES_CHOICES
            assert (
                ACCESSES_RANGE[0]
                <= case.scale.accesses_per_core
                < ACCESSES_RANGE[1]
            )
            assert 0 <= case.scale.warmup_per_core < (
                case.scale.accesses_per_core
            )
            assert case.scale.benchmarks == (case.workload,)


class TestCheckCli:
    def test_bless_without_note_is_usage_error(self, capsys):
        assert main(["check", "--bless"]) == 2
        assert "--note" in capsys.readouterr().err

    def test_injected_mismatch_exits_nonzero(
        self, tmp_path, monkeypatch, capsys
    ):
        """The acceptance regression test: tamper one committed golden
        digest and the full CLI (deep oracle included) must exit 1."""
        tampered = tmp_path / "goldens"
        shutil.copytree(COMMITTED_GOLDENS, tampered)
        (victim_design, victim_workload) = sample_cells(
            SMOKE_SCALE, 1, seed=0
        )[0]
        victim = GoldenStore(tampered).path_for(
            SMOKE_SCALE, victim_design, victim_workload
        )
        data = json.loads(victim.read_text())
        data["result_digest"] = "0" * 64
        victim.write_text(json.dumps(data))

        monkeypatch.chdir(tmp_path)
        code = main(
            ["check", "--sample", "1", "--seed", "0", "--fuzz", "0",
             "--goldens", str(tampered)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        report = json.loads((tmp_path / "CHECK_report.json").read_text())
        assert report["summary"]["cells_failed"] == 1

    @pytest.mark.slow
    def test_check_passes_against_committed_goldens(
        self, tmp_path, monkeypatch, capsys
    ):
        """End-to-end PASS against the real committed store, report
        written where --out says."""
        out = tmp_path / "CHECK_report.json"
        code = main(
            ["check", "--sample", "2", "--seed", "0", "--fuzz", "1",
             "--goldens", str(COMMITTED_GOLDENS), "--out", str(out)]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["summary"]["passed"] is True
        assert report["summary"]["paths"] >= 2
