"""Checkpoint journals: durability, torn tails, resume semantics."""

import json

import pytest

from repro.errors import CheckpointError
from repro.experiments import run_experiment
from repro.experiments.fig11_degree1 import build_cells
from repro.runner import ExecutionPolicy, run_cells, set_policy
from repro.runner.checkpoint import (CheckpointJournal, RUNS_DIR,
                                     SCHEMA_VERSION, validate_run_id)


@pytest.fixture
def sweep(tiny_options):
    return build_cells(tiny_options, degree=1)


class TestRunIds:
    @pytest.mark.parametrize("good", ["r1", "fig11-2026.08.06", "A_b-c.d"])
    def test_safe_ids_accepted(self, good):
        assert validate_run_id(good) == good

    @pytest.mark.parametrize("bad", ["", "../escape", "a/b", ".hidden",
                                     "-dash", "x" * 200, "sp ace"])
    def test_unsafe_ids_rejected(self, bad):
        with pytest.raises(CheckpointError, match="invalid run id"):
            validate_run_id(bad)


class TestJournalRoundTrip:
    def test_fresh_open_writes_header(self, tmp_path):
        with CheckpointJournal.open(tmp_path, "r1") as journal:
            journal.record("k1")
            journal.record("k2", status="retried")
        lines = (tmp_path / RUNS_DIR / "r1.ckpt").read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": SCHEMA_VERSION,
                                        "run_id": "r1"}
        assert [json.loads(l)["key"] for l in lines[1:]] == ["k1", "k2"]

    def test_duplicate_records_written_once(self, tmp_path):
        with CheckpointJournal.open(tmp_path, "r1") as journal:
            journal.record("k1")
            journal.record("k1")
        reloaded = CheckpointJournal.open(tmp_path, "r1", resume=True)
        assert reloaded.seen == {"k1"}
        assert len(reloaded.path.read_text().splitlines()) == 2
        reloaded.close()

    def test_fresh_open_truncates_stale_journal(self, tmp_path):
        with CheckpointJournal.open(tmp_path, "r1") as journal:
            journal.record("old")
        with CheckpointJournal.open(tmp_path, "r1") as journal:
            assert journal.seen == set()
        resumed = CheckpointJournal.open(tmp_path, "r1", resume=True)
        assert resumed.seen == set()
        resumed.close()

    def test_append_starts_a_missing_journal(self, tmp_path):
        with CheckpointJournal.open(tmp_path, "r1", append=True) as journal:
            journal.record("k1")
        with CheckpointJournal.open(tmp_path, "r1", append=True) as journal:
            assert journal.seen == {"k1"}

    def test_torn_tail_tolerated(self, tmp_path):
        """A SIGKILL mid-append leaves a partial last line; everything
        before it must still load."""
        with CheckpointJournal.open(tmp_path, "r1") as journal:
            journal.record("k1")
            journal.record("k2")
        path = tmp_path / RUNS_DIR / "r1.ckpt"
        path.write_text(path.read_text() + '{"key": "k3", "sta')
        resumed = CheckpointJournal.open(tmp_path, "r1", resume=True)
        assert resumed.seen == {"k1", "k2"}
        resumed.close()

    def test_corrupt_middle_record_rejected(self, tmp_path):
        with CheckpointJournal.open(tmp_path, "r1") as journal:
            journal.record("k1")
        path = tmp_path / RUNS_DIR / "r1.ckpt"
        lines = path.read_text().splitlines()
        lines.insert(1, "not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt checkpoint record"):
            CheckpointJournal.open(tmp_path, "r1", resume=True)

    def test_resume_of_unknown_run_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointJournal.open(tmp_path, "ghost", resume=True)

    def test_resume_of_non_journal_file_rejected(self, tmp_path):
        path = tmp_path / RUNS_DIR / "r1.ckpt"
        path.parent.mkdir(parents=True)
        path.write_text('{"some": "other json"}\n')
        with pytest.raises(CheckpointError, match="not a v"):
            CheckpointJournal.open(tmp_path, "r1", resume=True)


class TestSchedulerIntegration:
    def test_resume_skips_journaled_cells(self, tmp_path, tiny_options, sweep):
        cache = tmp_path / "c"
        first = ExecutionPolicy(use_cache=True, cache_dir=cache, run_id="r1")
        partial, m1 = run_cells(sweep[:3], tiny_options, first)
        assert m1.run_id == "r1" and m1.misses == 3

        resumed = ExecutionPolicy(jobs=2, use_cache=True, cache_dir=cache,
                                  run_id="r1", resume=True)
        payloads, m2 = run_cells(sweep, tiny_options, resumed)
        assert m2.hits == 3 and m2.misses == len(sweep) - 3
        assert payloads[:3] == partial

        reference, _ = run_cells(sweep, tiny_options,
                                 ExecutionPolicy(use_cache=False))
        assert payloads == reference

    def test_journal_records_every_completed_cell(self, tmp_path,
                                                  tiny_options, sweep):
        cache = tmp_path / "c"
        run_cells(sweep, tiny_options,
                  ExecutionPolicy(jobs=2, use_cache=True, cache_dir=cache,
                                  run_id="r1"))
        journal = CheckpointJournal(cache / RUNS_DIR / "r1.ckpt", "r1")
        assert len(journal.load()) == len(sweep)

    def test_failed_cells_not_journaled_and_rerun_on_resume(
            self, tmp_path, tiny_options, sweep):
        from repro.faults import FaultPlan
        cache = tmp_path / "c"
        crashing = ExecutionPolicy(use_cache=True, cache_dir=cache,
                                   run_id="r1", retries=0, keep_going=True,
                                   faults=FaultPlan(crash_attempts=1))
        payloads, m1 = run_cells(sweep, tiny_options, crashing)
        assert m1.failed == len(sweep) and payloads == [None] * len(sweep)
        journal = CheckpointJournal(cache / RUNS_DIR / "r1.ckpt", "r1")
        assert journal.load() == set()

        healed = ExecutionPolicy(use_cache=True, cache_dir=cache,
                                 run_id="r1", resume=True)
        payloads2, m2 = run_cells(sweep, tiny_options, healed)
        assert m2.hits == 0 and m2.misses == len(sweep)
        assert all(p is not None for p in payloads2)

    def test_journaled_key_with_evicted_artifact_reexecutes(
            self, tmp_path, tiny_options, sweep):
        """The journal is an optimisation, not a source of truth: a
        journaled cell whose artifact is gone simply runs again."""
        from repro.runner import ResultStore
        cache = tmp_path / "c"
        first, _ = run_cells(sweep[:2], tiny_options,
                             ExecutionPolicy(use_cache=True, cache_dir=cache,
                                             run_id="r1"))
        ResultStore(cache).clear()
        payloads, manifest = run_cells(
            sweep[:2], tiny_options,
            ExecutionPolicy(use_cache=True, cache_dir=cache,
                            run_id="r1", resume=True))
        assert manifest.hits == 0 and manifest.misses == 2
        assert payloads == first

    def test_experiments_of_one_run_share_its_journal(self, tmp_path,
                                                      tiny_options):
        """Each experiment makes its own run_cells call; the second must
        append to the run's journal, not truncate the first's records."""
        set_policy(ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "c",
                                   run_id="demo"))
        fig12 = run_experiment("fig12", tiny_options).manifest
        fig09 = run_experiment("fig09", tiny_options).manifest
        assert (fig12.n_cells, fig09.n_cells) == (1, 5)
        journal = CheckpointJournal(tmp_path / "c" / RUNS_DIR / "demo.ckpt", "demo")
        assert journal.load() == {c.key for c in fig12.cells + fig09.cells}
        assert len(journal.path.read_text().splitlines()) == 1 + 6

    def test_run_id_requires_cache(self, tiny_options, sweep):
        with pytest.raises(CheckpointError, match="artifact cache"):
            run_cells(sweep[:1], tiny_options,
                      ExecutionPolicy(use_cache=False, run_id="r1"))

    def test_resume_requires_run_id(self):
        with pytest.raises(ValueError, match="run_id"):
            ExecutionPolicy(use_cache=True, resume=True)
