"""Manifest schema: versioned round-trip, validation, utilization math."""

import pytest

from repro.errors import RunnerError
from repro.runner import MANIFEST_SCHEMA_VERSION
from repro.runner.manifest import RunManifest


def _sample() -> RunManifest:
    manifest = RunManifest(jobs=2, mode="pool", wall_s=4.0)
    manifest.record_hit("k1", "trace:oltp:domino:d1")
    manifest.record_executed("k2", "trace:oltp:stms:d1", wall_s=3.0, cpu_s=2.5)
    manifest.record_executed("k3", "trace:oltp:isb:d1", wall_s=1.0, cpu_s=0.9)
    return manifest


class TestRoundTrip:
    def test_to_dict_carries_version_and_totals(self):
        data = _sample().to_dict()
        assert data["version"] == MANIFEST_SCHEMA_VERSION
        assert data["wall_s"] == 4.0
        assert data["executed_s"] == 4.0
        assert data["executed_cpu_s"] == pytest.approx(3.4)
        assert len(data["cells"]) == 3

    def test_from_dict_round_trips(self):
        original = _sample()
        restored = RunManifest.from_dict(original.to_dict())
        assert restored.to_dict() == original.to_dict()
        assert restored.hits == 1 and restored.misses == 2

    def test_json_serialisable(self):
        import json
        json.dumps(_sample().to_dict())  # must not raise


class TestValidation:
    def test_missing_version_rejected(self):
        data = _sample().to_dict()
        del data["version"]
        with pytest.raises(RunnerError, match="no 'version'"):
            RunManifest.from_dict(data)

    def test_unknown_version_rejected_with_both_versions_named(self):
        data = _sample().to_dict()
        data["version"] = 99
        with pytest.raises(RunnerError) as exc:
            RunManifest.from_dict(data)
        message = str(exc.value)
        assert "99" in message and str(MANIFEST_SCHEMA_VERSION) in message

    def test_malformed_cell_rejected(self):
        data = _sample().to_dict()
        del data["cells"][0]["label"]
        with pytest.raises(RunnerError, match="malformed manifest cell"):
            RunManifest.from_dict(data)


class TestAccounting:
    def test_utilization_bounded_by_capacity(self):
        manifest = _sample()   # 4.0s executed over 2 jobs x 4.0s wall
        assert manifest.utilization == pytest.approx(0.5)

    def test_utilization_zero_without_timed_work(self):
        assert RunManifest().utilization == 0.0
        idle = RunManifest(jobs=4, wall_s=0.0)
        idle.record_hit("k", "cell")
        assert idle.utilization == 0.0

    def test_utilization_clamped_to_one(self):
        manifest = RunManifest(jobs=1, wall_s=1.0)
        manifest.record_executed("k", "cell", wall_s=5.0)  # timer skew
        assert manifest.utilization == 1.0


class TestFailureStatuses:
    def _mixed(self) -> RunManifest:
        manifest = RunManifest(jobs=1, mode="serial")
        manifest.record_hit("k1", "a")
        manifest.record_executed("k2", "b", wall_s=1.0)
        manifest.record_executed("k3", "c", wall_s=2.0,
                                 status="retried", attempts=3)
        manifest.record_failed("k4", "d", status="failed", attempts=2,
                               error="InjectedFault: injected crash")
        manifest.record_failed("k5", "e", status="timeout", attempts=1,
                               error="RunnerTimeoutError: 0.5s")
        return manifest

    def test_counts(self):
        manifest = self._mixed()
        assert manifest.hits == 1 and manifest.misses == 4
        assert manifest.failed == 2 and manifest.retried == 1
        assert not manifest.complete
        assert _sample().complete

    def test_cell_ok_property(self):
        by_status = {c.status: c for c in self._mixed().cells}
        assert by_status["hit"].ok and by_status["ok"].ok
        assert by_status["retried"].ok
        assert not by_status["failed"].ok and not by_status["timeout"].ok

    def test_round_trip_preserves_failure_fields(self):
        original = self._mixed()
        restored = RunManifest.from_dict(original.to_dict())
        assert restored.to_dict() == original.to_dict()
        assert restored.failed == 2
        by_status = {c.status: c for c in restored.cells}
        assert by_status["failed"].attempts == 2
        assert "injected crash" in by_status["failed"].error

    def test_invalid_status_rejected(self):
        manifest = RunManifest()
        with pytest.raises(RunnerError, match="status"):
            manifest.record_failed("k", "cell", status="exploded",
                                   attempts=1, error="boom")
