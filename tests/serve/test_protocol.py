"""Wire framing and JobSpec validation/lowering."""

import pytest

from repro.errors import ProtocolError
from repro.runner import Cell
from repro.runner.cells import cell_key
from repro.serve import JobSpec
from repro.serve import protocol


class TestFraming:
    def test_round_trip(self):
        msg = {"type": "submit", "id": "r1", "spec": {"workload": "oltp"}}
        assert protocol.decode_line(protocol.encode_message(msg)) == msg

    def test_decode_accepts_str(self):
        assert protocol.decode_line('{"type":"bye"}')["type"] == "bye"

    def test_oversize_frame_rejected(self):
        frame = b'{"type":"x","pad":"' + b"a" * protocol.MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_line(frame)

    @pytest.mark.parametrize("frame", [
        b"", b"   \n", b"not json\n", b"[1, 2]\n", b'"just a string"\n',
        b'{"no_type": 1}\n', b'{"type": 7}\n', b"\xff\xfe\n",
    ])
    def test_bad_frames_rejected(self, frame):
        with pytest.raises(ProtocolError):
            protocol.decode_line(frame)

    def test_unserialisable_message_rejected(self):
        with pytest.raises(ProtocolError, match="unserialisable"):
            protocol.encode_message({"type": "x", "bad": object()})


class TestHandshake:
    def test_parse_hello_returns_tenant(self):
        assert protocol.parse_hello(protocol.hello("team-a")) == "team-a"

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="hello"):
            protocol.parse_hello({"type": "submit"})

    def test_version_mismatch_rejected(self):
        msg = protocol.hello("a", proto=protocol.PROTO_VERSION + 1)
        with pytest.raises(ProtocolError, match="version"):
            protocol.parse_hello(msg)

    @pytest.mark.parametrize("tenant", [
        "", "UPPER", "spa ce", "-leading", "x" * 65, 42, None,
    ])
    def test_bad_tenants_rejected(self, tenant):
        with pytest.raises(ProtocolError, match="tenant"):
            protocol.parse_hello({"type": "hello", "tenant": tenant,
                                  "proto": protocol.PROTO_VERSION})


class TestJobSpecValidation:
    def test_minimal_spec(self):
        spec = JobSpec.from_dict({"workload": "oltp"})
        assert spec.prefetcher == "domino"
        assert spec.degrees == (4,)

    def test_round_trip(self):
        spec = JobSpec.from_dict({"workload": "oltp", "degrees": [1, 8],
                                  "n_accesses": 2000, "seed": 9,
                                  "overrides": {"eit_assoc": 8}})
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_degree_singular_alias(self):
        assert JobSpec.from_dict({"workload": "oltp", "degree": 2}).degrees == (2,)

    def test_degree_and_degrees_conflict(self):
        with pytest.raises(ProtocolError, match="both"):
            JobSpec.from_dict({"workload": "oltp", "degree": 2, "degrees": [2]})

    @pytest.mark.parametrize("patch", [
        {"workload": "no_such"},
        {"prefetcher": "no_such"},
        {"kind": "table1"},
        {"degrees": []},
        {"degrees": [0]},
        {"degrees": [65]},
        {"degrees": list(range(1, protocol.MAX_CELLS_PER_JOB + 2))},
        {"degrees": "4"},
        {"n_accesses": 10},
        {"n_accesses": 10**9},
        {"n_accesses": True},
        {"warmup_frac": 0.95},
        {"seed": -1},
        {"seed": 2**32},
        {"config_name": "huge"},
        {"overrides": {"not_a_field": 1}},
        {"overrides": {"eit_assoc": "8"}},
        {"overrides": [1, 2]},
        {"mystery_knob": 1},
    ])
    def test_invalid_specs_rejected(self, patch):
        with pytest.raises(ProtocolError):
            JobSpec.from_dict({"workload": "oltp", **patch})

    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            JobSpec.from_dict(["workload"])

    def test_baseline_accepted_for_multicore(self):
        spec = JobSpec.from_dict({"workload": "oltp", "kind": "multicore",
                                  "prefetcher": "baseline"})
        assert spec.prefetcher == "baseline"


class TestCompile:
    def test_trace_spec_fans_one_cell_per_degree(self):
        spec = JobSpec.from_dict({"workload": "oltp", "degrees": [1, 4, 8],
                                  "n_accesses": 2000})
        cells, options = spec.compile()
        assert [c.degree for c in cells] == [1, 4, 8]
        assert all(c.kind == "trace" and c.workload == "oltp" for c in cells)
        assert options.n_accesses == 2000

    def test_compiled_cell_matches_hand_built_batch_cell(self):
        """Cache-key identity with the batch path, field for field."""
        spec = JobSpec.from_dict({"workload": "oltp", "degrees": [4],
                                  "n_accesses": 2000, "seed": 7})
        cells, options = spec.compile()
        batch = Cell(kind="trace", workload="oltp", prefetcher="domino",
                     degree=4, config_name="default", overrides=())
        assert cells[0] == batch
        assert cell_key(cells[0], options) == cell_key(batch, options)

    def test_explicit_degree_decouples_key_from_options_default(self):
        spec = JobSpec.from_dict({"workload": "oltp", "degrees": [4]})
        cells, options = spec.compile()
        assert cell_key(cells[0], options) == cell_key(
            cells[0], options.scaled(degree=13))

    def test_opportunity_single_cell(self):
        cells, _ = JobSpec.from_dict(
            {"workload": "oltp", "kind": "opportunity"}).compile()
        assert len(cells) == 1
        assert cells[0].kind == "opportunity"

    def test_multicore_defaults_to_timing_config(self):
        cells, _ = JobSpec.from_dict(
            {"workload": "oltp", "kind": "multicore"}).compile()
        assert cells[0].config_name == "timing"


class TestLifecycleFrames:
    def test_cancel_and_ack_builders(self):
        frame = protocol.cancel("j1", "r1")
        assert frame["type"] == protocol.CANCEL
        assert frame["job"] == "j1" and frame["id"] == "r1"
        ack = protocol.cancelling("j1", protocol.REASON_CLIENT_CANCEL, "r1")
        assert ack["type"] == protocol.CANCELLING
        assert ack["reason"] == protocol.REASON_CLIENT_CANCEL

    def test_job_status_round_trip(self):
        request = protocol.job_status_request("j1")
        assert request["type"] == protocol.JOB_STATUS
        reply = protocol.job_status("j1", protocol.STATE_RUNNING,
                                    accesses_done=4096, cells_done=1,
                                    n_cells=4)
        assert reply["state"] == protocol.STATE_RUNNING
        assert reply["accesses_done"] == 4096
        assert reply["cells_done"] == 1 and reply["of"] == 4

    def test_new_client_types_are_dispatchable(self):
        assert protocol.CANCEL in protocol.CLIENT_TYPES
        assert protocol.JOB_STATUS in protocol.CLIENT_TYPES

    def test_terminal_statuses(self):
        assert protocol.TERMINAL_STATUSES == {
            "ok", "failed", "cancelled", "deadline_exceeded"}

    def test_submit_carries_lifecycle_options(self):
        spec = {"workload": "oltp"}
        plain = protocol.submit("r1", spec)
        assert "deadline_s" not in plain
        assert "cancel_on_disconnect" not in plain
        rich = protocol.submit("r1", spec, deadline_s=2.5,
                               cancel_on_disconnect=True)
        assert rich["deadline_s"] == 2.5
        assert rich["cancel_on_disconnect"] is True

    def test_parse_submit_deadline(self):
        assert protocol.parse_submit_deadline({"type": "submit"}) is None
        assert protocol.parse_submit_deadline(
            {"type": "submit", "deadline_s": 1.5}) == 1.5
        for bad in (0, -1.0, "soon", True):
            with pytest.raises(ProtocolError):
                protocol.parse_submit_deadline(
                    {"type": "submit", "deadline_s": bad})

    def test_parse_submit_cancel_on_disconnect(self):
        assert protocol.parse_submit_cancel_on_disconnect(
            {"type": "submit"}) is None
        assert protocol.parse_submit_cancel_on_disconnect(
            {"type": "submit", "cancel_on_disconnect": False}) is False
        for bad in (1, "yes", 0):
            with pytest.raises(ProtocolError):
                protocol.parse_submit_cancel_on_disconnect(
                    {"type": "submit", "cancel_on_disconnect": bad})

    def test_done_reason_is_optional(self):
        plain = protocol.done("r1", "j1", "ok", 1, 0, 0.1, 0.2)
        assert "reason" not in plain
        cancelled = protocol.done("r1", "j1", protocol.STATUS_CANCELLED,
                                  0, 0, 0.1, 0.2,
                                  reason=protocol.REASON_CLIENT_CANCEL)
        assert cancelled["reason"] == protocol.REASON_CLIENT_CANCEL
