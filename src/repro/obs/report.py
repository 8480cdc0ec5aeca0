"""Run-summary reports rendered from one JSONL trace.

``repro-bbr report run.jsonl`` lands here: given a trace written by
:func:`repro.obs.export.write_trace` (its embedded manifest, when
present, supplies the header and per-flow outcomes), build a per-flow
table of throughput, losses, retransmits, and
congestion-controller phase dwell times — the §2.1/§3.2 evidence (how
long each BBR flow spent in PROBE_BW, how often each CUBIC flow took a
0.7 backoff) that raw mean throughputs hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.export import DROPPED_RECORDS, TraceData, read_trace

__all__ = ["FlowReport", "RunReport", "load_report"]

#: Event names produced by the congestion controllers / substrates.
STATE_EVENT = "cc.state"
BACKOFF_EVENT = "cc.backoff"
RETX_EVENT = "flow.retransmit"


@dataclass
class FlowReport:
    """Aggregates for one flow, derived from the trace streams."""

    flow_id: int
    cc: str = "?"
    retransmits: int = 0
    backoffs: int = 0
    dwell: Dict[str, float] = field(default_factory=dict)
    throughput_mbps: Optional[float] = None
    loss_rate: Optional[float] = None

    def dwell_summary(self) -> str:
        """Compact ``STATE:seconds`` rendering of the dwell map."""
        if not self.dwell:
            return "-"
        parts = [
            f"{state}:{seconds:.1f}s"
            for state, seconds in sorted(
                self.dwell.items(), key=lambda kv: -kv[1]
            )
        ]
        return " ".join(parts)


@dataclass
class RunReport:
    """A parsed trace reduced to per-flow and per-link aggregates."""

    trace: TraceData
    flows: List[FlowReport] = field(default_factory=list)

    @classmethod
    def from_trace(cls, trace: TraceData) -> "RunReport":
        """Reduce a parsed trace into per-flow aggregates."""
        manifest = trace.manifest
        end_time = trace.end_time
        if manifest is not None and manifest.duration:
            end_time = max(end_time, manifest.duration)

        reports: Dict[int, FlowReport] = {}

        def flow(fid: int) -> FlowReport:
            if fid not in reports:
                reports[fid] = FlowReport(flow_id=fid)
            return reports[fid]

        for s in trace.samples:
            fid = s.get("flow_id")
            if fid is None:
                continue
            fr = flow(fid)
            if fr.cc == "?" and s.get("cc"):
                fr.cc = s["cc"]

        # Phase dwell from cc.state transition events: each event carries
        # the state being *entered*; dwell accrues from entry until the
        # next transition (or the end of the run).  The state in force
        # before the first transition (STARTUP for BBR-family) is taken
        # from the first event's "from" field, accruing from t=0.
        transitions: Dict[int, List] = {}
        for e in trace.events:
            fid = e.fields.get("flow_id")
            if fid is None:
                continue
            fr = flow(fid)
            if fr.cc == "?" and e.fields.get("cc"):
                fr.cc = e.fields["cc"]
            if e.name == STATE_EVENT:
                transitions.setdefault(fid, []).append(e)
            elif e.name == BACKOFF_EVENT:
                fr.backoffs += 1
            elif e.name == RETX_EVENT:
                fr.retransmits += int(e.fields.get("packets", 1))

        for fid, events in transitions.items():
            fr = flow(fid)
            events.sort(key=lambda e: e.time)
            first = events[0]
            prior = first.fields.get("from")
            if prior and first.time > 0:
                fr.dwell[prior] = fr.dwell.get(prior, 0.0) + first.time
            for current, nxt in zip(events, events[1:]):
                state = current.fields.get("to", "?")
                fr.dwell[state] = fr.dwell.get(state, 0.0) + (
                    nxt.time - current.time
                )
            last = events[-1]
            state = last.fields.get("to", "?")
            if end_time > last.time:
                fr.dwell[state] = fr.dwell.get(state, 0.0) + (
                    end_time - last.time
                )

        # Manifest per-flow summary fills in cc names and outcome columns.
        if manifest is not None:
            for row in manifest.flows:
                fid = row.get("flow_id")
                if fid is None:
                    continue
                fr = flow(fid)
                if row.get("cc"):
                    fr.cc = row["cc"]
                if "throughput_mbps" in row:
                    fr.throughput_mbps = row["throughput_mbps"]
                if "loss_rate" in row:
                    fr.loss_rate = row["loss_rate"]
                if "retransmits" in row and fr.retransmits == 0:
                    fr.retransmits = int(row["retransmits"])

        return cls(
            trace=trace,
            flows=[reports[fid] for fid in sorted(reports)],
        )

    def render(self) -> str:
        """Terminal rendering: header, per-flow table, every counter."""
        lines: List[str] = []
        manifest = self.trace.manifest
        if manifest is not None:
            link = manifest.link
            lines.append(
                f"== run: {manifest.label} "
                f"({link['capacity_mbps']:g} Mbps, {link['rtt_ms']:g} ms, "
                f"{link['buffer_bdp']:g} BDP) "
                f"backend={manifest.backend} duration={manifest.duration:g}s "
                f"seed={manifest.seed} =="
            )
            if manifest.wall_time_s:
                lines.append(f"wall time: {manifest.wall_time_s:.2f}s")
        dropped = self.trace.counters.get(DROPPED_RECORDS)
        if dropped:
            lines.append(
                f"warning: {dropped:g} events/samples were dropped at the "
                "telemetry cap; per-flow counts are partial"
            )

        header = (
            f"{'flow':>4} {'cc':>8} {'mbps':>8} {'loss%':>7} "
            f"{'retx':>6} {'backoffs':>8}  phase dwell"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for fr in self.flows:
            mbps = (
                f"{fr.throughput_mbps:8.2f}"
                if fr.throughput_mbps is not None
                else f"{'-':>8}"
            )
            loss = (
                f"{fr.loss_rate * 100:7.2f}"
                if fr.loss_rate is not None
                else f"{'-':>7}"
            )
            lines.append(
                f"{fr.flow_id:>4} {fr.cc:>8} {mbps} {loss} "
                f"{fr.retransmits:>6} {fr.backoffs:>8}  "
                f"{fr.dwell_summary()}"
            )

        if self.trace.counters:
            lines.append("")
            lines.append("counters:")
            for name, value in sorted(self.trace.counters.items()):
                lines.append(f"  {name:<28} {value:g}")
        return "\n".join(lines)


def load_report(trace_path: str) -> RunReport:
    """Read a trace and reduce it to a :class:`RunReport`."""
    return RunReport.from_trace(read_trace(trace_path))
