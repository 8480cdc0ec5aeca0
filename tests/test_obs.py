"""Telemetry bus, trace export round-trips, manifests, and reports."""

import json
from collections import Counter

import pytest

from repro.obs import (
    RunManifest,
    Telemetry,
    load_report,
    read_trace,
    write_trace,
)
from repro.obs.report import RunReport
from repro.sim.network import DumbbellNetwork, FlowSpec, run_dumbbell
from repro.util.config import LinkConfig


class TestTelemetryBus:
    def test_counters_accumulate(self):
        obs = Telemetry()
        obs.count("x")
        obs.count("x", 4)
        assert obs.counter("x") == 5
        assert obs.counter("never") == 0.0

    def test_events_are_typed_and_queryable(self):
        obs = Telemetry()
        obs.event("cc.state", time=1.5, cc="bbr", **{"from": "STARTUP",
                                                     "to": "DRAIN"})
        obs.event("link.drop", time=2.0, flow_id=0)
        states = obs.events_named("cc.state")
        assert len(states) == 1
        assert states[0].fields["to"] == "DRAIN"
        assert states[0].time == 1.5

    def test_max_events_cap_counts_drops(self):
        obs = Telemetry(max_events=2)
        for i in range(5):
            obs.event("e", time=float(i))
        assert len(obs.events) == 2
        assert obs.dropped_records == 3

    def test_snapshot_is_json_serializable(self):
        obs = Telemetry()
        obs.count("c", 3)
        obs.event("e", time=0.0)
        obs.sample(0.0, 0, cwnd=10.0)
        snap = obs.snapshot()
        json.dumps(snap)  # Must not raise.
        assert snap["counters"]["c"] == 3
        assert snap["events"] == 1
        assert snap["samples"] == 1

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(max_events=0)
        with pytest.raises(ValueError):
            Telemetry(sample_interval=-0.1)


class TestInstrumentedPacketRun:
    @pytest.fixture(scope="class")
    def traced_run(self):
        obs = Telemetry(sample_interval=0.05)
        link = LinkConfig.from_mbps_ms(5, 20, 2)
        net = DumbbellNetwork(
            link, [FlowSpec("cubic"), FlowSpec("bbr")], obs=obs
        )
        result = net.run(duration=15.0)
        return obs, net, result

    def test_bbr_phase_transitions_recorded(self, traced_run):
        obs, _net, _result = traced_run
        states = obs.events_named("cc.state")
        assert states, "expected cc.state events from the BBR flow"
        pairs = {(e.fields["from"], e.fields["to"]) for e in states}
        assert ("STARTUP", "DRAIN") in pairs
        assert obs.counter("cc.state_transitions") == len(states)

    def test_drop_and_loss_counters(self, traced_run):
        obs, _net, result = traced_run
        assert obs.counter("link.dropped_packets") > 0
        assert obs.counter("link.dropped_bytes") > 0
        assert obs.counter("flow.lost_packets") > 0
        assert result.drop_rate > 0

    def test_tracer_attached_and_mirrored(self, traced_run):
        # The network polls every sender onto the bus each 0.05 s of
        # the 15 s run.
        obs, _net, _result = traced_run
        polls = Counter(s["flow_id"] for s in obs.samples)
        assert sorted(polls) == [0, 1]
        assert polls[0] == polls[1] == pytest.approx(300, abs=1)

    def test_retransmits_surface_in_flow_results(self, traced_run):
        _obs, _net, result = traced_run
        cubic = result.by_cc("cubic")[0]
        assert cubic.retransmits > 0
        assert cubic.loss_rate > 0

    def test_event_count_matches_result(self, traced_run):
        obs, _net, result = traced_run
        assert result.events_processed > 0
        assert obs.counter("sim.events") == result.events_processed


class TestTraceRoundTrip:
    def test_tracer_and_events_unify_in_jsonl(self, tmp_path):
        # A bus with a sample interval has the network poll its
        # senders onto it: samples and events share the one trace file.
        obs = Telemetry(sample_interval=0.1)
        link = LinkConfig.from_mbps_ms(5, 20, 2)
        net = DumbbellNetwork(link, [FlowSpec("cubic"), FlowSpec("bbr")],
                              obs=obs)
        net.run(duration=10.0)

        path = str(tmp_path / "run.jsonl")
        written = write_trace(path, obs)
        assert written > 0

        trace = read_trace(path)
        assert len(trace.samples) == len(obs.samples)
        assert len(trace.samples) == pytest.approx(2 * 100, abs=2)
        assert trace.events_named("cc.state")
        assert trace.counters["link.dropped_packets"] > 0
        assert trace.flow_ids() == [0, 1]
        # Samples are time-sorted on export.
        times = [s["time"] for s in trace.samples]
        assert times == sorted(times)

    def test_event_payload_kind_key_survives(self, tmp_path):
        # cc.backoff events carry a "kind" field, which must not collide
        # with the record envelope's own "kind" discriminator.
        obs = Telemetry()
        obs.event("cc.backoff", time=1.0, kind="multiplicative_decrease",
                  beta=0.7)
        path = str(tmp_path / "t.jsonl")
        write_trace(path, obs)
        trace = read_trace(path)
        (event,) = trace.events
        assert event.fields["kind"] == "multiplicative_decrease"

    def test_dropped_records_are_written_and_reported(self, tmp_path):
        # A capped bus writes a partial trace; the file says so, and
        # the report warns instead of presenting it as a whole run.
        obs = Telemetry(max_events=1)
        for t in (1.0, 2.0):
            obs.event("cc.backoff", time=t, flow_id=0, cc="cubic")
        path = str(tmp_path / "capped.jsonl")
        write_trace(path, obs)
        trace = read_trace(path)
        assert len(trace.events) == 1
        assert trace.counters["obs.dropped_records"] == 1
        assert "per-flow counts are partial" in RunReport.from_trace(
            trace
        ).render()

    def test_uncapped_trace_has_no_dropped_records(self, tmp_path):
        obs = Telemetry()
        obs.event("cc.backoff", time=1.0, flow_id=0, cc="cubic")
        path = str(tmp_path / "whole.jsonl")
        write_trace(path, obs)
        trace = read_trace(path)
        assert "obs.dropped_records" not in trace.counters
        assert "partial" not in RunReport.from_trace(trace).render()

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "nope"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            read_trace(str(path))
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_trace(str(path))


class TestManifest:
    @staticmethod
    def _manifest():
        return RunManifest.build(
            label="test",
            link=LinkConfig.from_mbps_ms(100, 40, 5),
            mix=[("cubic", 2), ("bbr", 1)],
            backend="fluid",
            duration=30.0,
            seed=7,
            flows=[{"flow_id": 0, "cc": "cubic"}],
        )

    def test_round_trip(self):
        manifest = self._manifest()
        data = json.loads(json.dumps(manifest.to_dict()))
        assert "counters" not in data
        loaded = RunManifest.from_dict(data)
        assert loaded == manifest
        assert loaded.mix == [("cubic", 2), ("bbr", 1)]
        assert loaded.seed == 7
        assert loaded.flows == [{"flow_id": 0, "cc": "cubic"}]

    def test_record_with_counters_still_loads(self, tmp_path):
        # Traces written when the manifest still copied the bus's
        # counters carry a "counters" key; it is ignored on load.
        record = {"kind": "manifest", **self._manifest().to_dict(),
                  "counters": {"sim.events": 42.0}}
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(record) + "\n")
        manifest = read_trace(str(path)).manifest
        assert manifest.label == "test"
        assert manifest.seed == 7
        assert not hasattr(manifest, "counters")


class TestReport:
    def test_phase_dwell_and_per_flow_table(self, tmp_path):
        obs = Telemetry(sample_interval=0.1)
        link = LinkConfig.from_mbps_ms(5, 20, 2)
        result = run_dumbbell(
            link, [FlowSpec("cubic"), FlowSpec("bbr")],
            duration=15.0, obs=obs,
        )
        manifest = RunManifest.build(
            label="report-test", link=link,
            mix=[("cubic", 1), ("bbr", 1)], backend="packet",
            duration=15.0, seed=0,
            flows=[
                {
                    "flow_id": f.flow_id,
                    "cc": f.cc,
                    "throughput_mbps": f.throughput_mbps,
                    "loss_rate": f.loss_rate,
                    "retransmits": f.retransmits,
                }
                for f in result.flows
            ],
        )
        path = str(tmp_path / "run.jsonl")
        write_trace(path, obs, manifest=manifest)

        report = load_report(path)
        assert len(report.flows) == 2
        bbr = next(f for f in report.flows if f.cc == "bbr")
        assert bbr.dwell, "BBR flow should have phase dwell times"
        assert sum(bbr.dwell.values()) == pytest.approx(15.0, rel=0.05)
        rendered = report.render()
        assert "report-test" in rendered
        assert "phase dwell" in rendered
        assert "STARTUP" in rendered

    def test_every_counter_is_printed(self, tmp_path):
        """The report is the one view of a run's counters: controller
        and flow counters print beside the link's."""
        obs = Telemetry()
        run_dumbbell(
            LinkConfig.from_mbps_ms(5, 20, 2),
            [FlowSpec("cubic"), FlowSpec("bbr")],
            duration=10.0,
            obs=obs,
        )
        path = str(tmp_path / "run.jsonl")
        write_trace(path, obs)
        rendered = load_report(path).render()
        assert obs.counter("cc.state_transitions") > 0
        for name in obs.counters:
            assert f"  {name} " in rendered, name
