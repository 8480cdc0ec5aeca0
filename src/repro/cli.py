"""Command-line interface: ``repro-bbr``.

Subcommands:

* ``predict``  — run the analytical model for one configuration.
* ``nash``     — predict the Nash Equilibrium distribution.
* ``simulate`` — run a flow mix on either simulator backend.
* ``figure``   — regenerate a paper figure (fig1 … fig12) and render it.
* ``validate`` — score the model vs Ware et al. against a simulator sweep.
* ``evolve``   — play the CCA-selection game via best-response dynamics.
* ``population`` — evolve internet-scale CCA adoption dynamics under a
  tiered payoff oracle (``run``, ``plot``; see docs/POPULATION.md).
* ``report``   — summarize a JSONL trace written by ``simulate
  --trace-out``.
* ``campaign`` — run/resume/inspect declarative scenario campaigns
  (``run``, ``resume``, ``status``, ``validate``, ``report``; see
  docs/CAMPAIGNS.md); ``campaign status --follow`` follows a live run.
* ``trace``    — inspect exported span traces (``report``).
* ``cc``       — inspect the canonical congestion-control table
  (``list``: every algorithm, its substrates, and law parameters).
* ``cache``    — inspect (``info``) or prune (``clear``) the result cache.
* ``list``     — list figures, congestion controls, and bundled campaigns.

``simulate``, ``figure``, and ``campaign run`` accept the scenario
flags ``--aqm {droptail,red,codel}``, ``--ecn`` (mark instead of drop),
and ``--capacity-trace SPEC`` (piecewise capacity scaling, e.g.
``steps:5@0.5,10@1.0``); see docs/SIMULATORS.md.

The simulating commands -- ``simulate``, ``figure``, ``population
run``, ``campaign run``/``resume`` -- share one group of *session
flags*, all handled by :func:`run_session` (one table in
docs/OBSERVABILITY.md): the execution-engine flags ``--jobs N`` (fan
independent scenario points out over N worker processes),
``--cache-dir [DIR]`` (the content-addressed result cache; default
location ``~/.cache/repro-bbr`` when DIR is omitted, or
``$REPRO_CACHE_DIR``) and ``--no-cache`` (see docs/PERFORMANCE.md);
``--check`` (equivalently ``REPRO_CHECK=1``), the runtime invariant
sanitizer of docs/CHECKS.md; ``--progress`` (live done/total, cache-hit
rate, points/s, EWMA-smoothed ETA on stderr); and ``--spans-out
PATH``, a span export producing Chrome trace-event JSON for Perfetto /
``chrome://tracing`` and ``repro-bbr trace report``.  ``simulate``
also accepts ``--trace-out PATH``: its one point then runs in this
process, uncached, with a telemetry bus that records it, and the run
manifest plus the bus's samples, events and counters go to PATH as
JSONL (read back by ``repro-bbr report``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Iterator, List, Optional

# Each command imports what it runs: ``import repro.cli`` loads no
# model, simulator, figure generator or process pool.
from repro.scenario.spec import BottleneckSpec


def _add_link_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mbps", type=float, default=100.0, help="link capacity in Mbps"
    )
    parser.add_argument(
        "--rtt-ms", type=float, default=40.0, help="base RTT in ms"
    )
    parser.add_argument(
        "--buffer-bdp",
        type=float,
        default=5.0,
        help="bottleneck buffer size in BDP",
    )


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """Scenario-schema flags (see docs/SIMULATORS.md, repro.scenario)."""
    parser.add_argument(
        "--aqm",
        choices=("droptail", "red", "codel"),
        default=None,
        help="bottleneck queue discipline (default droptail)",
    )
    parser.add_argument(
        "--ecn",
        action="store_true",
        help="ECN-mark instead of dropping when the AQM fires "
        "(requires --aqm red or codel)",
    )
    parser.add_argument(
        "--capacity-trace",
        default=None,
        metavar="SPEC",
        help="time-varying capacity: 'steps:T@SCALE,T@SCALE,...' or "
        "'trace:PERIOD:S1,S2,...' (scales of the base capacity)",
    )


def _scenario_kwargs(args: argparse.Namespace) -> dict:
    """The scenario-flag values of ``args`` as from_mbps_ms kwargs."""
    return {
        "aqm": getattr(args, "aqm", None),
        "ecn": True if getattr(args, "ecn", False) else None,
        "capacity_trace": getattr(args, "capacity_trace", None),
    }


def _link_from(args: argparse.Namespace) -> BottleneckSpec:
    return BottleneckSpec.from_mbps_ms(
        args.mbps, args.rtt_ms, args.buffer_bdp, **_scenario_kwargs(args)
    )


def _positive_float(value: str) -> float:
    parsed = float(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(
            f"must be positive, got {value}"
        )
    return parsed


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _add_session_args(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`run_session` reads, for a simulating command."""
    parser.add_argument(
        "--spans-out",
        default=None,
        metavar="PATH",
        help="write hierarchical wall-clock spans as Chrome "
        "trace-event JSON to PATH (loadable in Perfetto or "
        "chrome://tracing; a .gz suffix compresses)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live done/total, cache-hit rate, points/s and "
        "ETA line on stderr (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run independent scenario points in up to N worker "
        "processes (default 1: inline execution)",
    )
    parser.add_argument(
        "--cache-dir",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="enable the content-addressed result cache; omit DIR for "
        "the default location (~/.cache/repro-bbr or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even if $REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="enable the runtime invariant sanitizer (repro.check); "
        "equivalent to REPRO_CHECK=1 (see docs/CHECKS.md)",
    )


class _CliError(Exception):
    """A one-line diagnostic for stderr; :func:`main` exits 2."""


@contextmanager
def _scenario_errors() -> Iterator[None]:
    """A ``ValueError`` from building or running a scenario becomes one
    ``bad scenario:`` line (exit 2), the same for every command."""
    try:
        yield
    except ValueError as exc:
        raise _CliError(f"bad scenario: {exc}") from None


class _Session:
    """What :func:`run_session` hands the command it wraps."""

    def __init__(self, engine) -> None:
        self.engine = engine
        #: Whether exit prints the ``exec:`` line; cleared by commands
        #: that never printed one (``simulate``, a figure that ran no
        #: point, an interrupted campaign).
        self.exec_summary = True
        self._line_open = False

    def draw(self, text: str) -> None:
        """Redraw the live stderr status line."""
        print("\r" + text, end="", file=sys.stderr, flush=True)
        self._line_open = True

    def end_line(self) -> None:
        """Terminate the live line, if one is open, before other output
        (run_session does on exit; commands do once their run is over)."""
        if self._line_open:
            print(file=sys.stderr)
            self._line_open = False


@contextmanager
def run_session(
    args: argparse.Namespace, label: Optional[str]
) -> Iterator[_Session]:
    """The ambient state of one simulating command, for its duration.

    Entry builds what the session flags ask for and installs each as
    its process default: ``--check`` a checker and ``--spans-out`` a
    tracer (both exported as ``REPRO_CHECK`` / ``REPRO_TRACE`` too, so
    ``--jobs`` workers inherit them), and always an engine from
    ``--jobs`` and the cache flags (``--cache-dir``, bare for the
    default root, or ``$REPRO_CACHE_DIR``; ``--no-cache`` wins; by
    default nothing is persisted).  Under ``--progress`` the engine's
    points feed a tracker named ``label``, drawn on stderr; a command
    that draws its own coarser progress (population ticks, campaign
    units) passes None and gets an engine with its callbacks free.

    A clean exit ends the live line, prints the exec summary and writes
    ``--spans-out`` (unwritable: exit 2), in that order.  Every exit --
    clean, error or invariant violation -- closes the engine and puts
    back each default and environment variable the session replaced.
    """
    from repro import check, obs
    from repro import exec as exec_
    from repro.obs import trace

    if args.no_cache and args.cache_dir is not None:
        raise _CliError(
            "--no-cache and --cache-dir are contradictory; drop one"
        )

    def setenv(name: str, value: Optional[str]) -> None:
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value

    with ExitStack() as stack:

        def export(name: str) -> None:
            stack.callback(setenv, name, os.environ.get(name))
            setenv(name, "1")

        if args.check:
            export("REPRO_CHECK")
            stack.enter_context(check.use(check.Checker()))
        tracer = None
        if args.spans_out:
            export("REPRO_TRACE")
            tracer = stack.enter_context(trace.use(trace.Tracer()))
        tracker = None
        if args.progress and label is not None:
            tracker = obs.ProgressTracker(label=label)

        def on_points(done: int, submitted: int, hits: int) -> None:
            tracker.update(done, submitted, hits)
            session.draw(tracker.render())

        cache = None
        if args.cache_dir is not None:
            cache = exec_.ResultCache(args.cache_dir or None)
        elif os.environ.get("REPRO_CACHE_DIR") and not args.no_cache:
            cache = exec_.ResultCache(None)
        engine = stack.enter_context(
            exec_.Engine(
                jobs=args.jobs,
                cache=cache,
                progress=on_points if tracker else None,
                heartbeat=tracker.heartbeat if tracker else None,
            )
        )
        stack.enter_context(exec_.use(engine))
        session = _Session(engine)
        try:
            yield session
        finally:
            session.end_line()
        if session.exec_summary:
            stats = engine.stats
            print(
                f"exec: {stats['submitted']} points, "
                f"{stats['cache_hits']} cache hits, "
                f"{stats['simulated']} simulated, jobs={engine.jobs}"
            )
        if tracer is not None:
            try:
                events = obs.write_chrome_trace(args.spans_out, tracer.spans)
            except OSError as exc:
                raise _CliError(f"cannot write spans: {exc}") from None
            print(f"(wrote {events} span events to {args.spans_out})")


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core import (
        predict_multi_flow,
        predict_two_flow,
        ware_prediction,
    )

    two_flow = args.cubic == 1 and args.bbr == 1
    with _scenario_errors():
        link = _link_from(args)
        if args.cubic < 1 or args.bbr < 1:
            # The models split a link between BBR and CUBIC flows.
            raise ValueError(
                "predict needs at least one CUBIC and one BBR flow, got "
                f"--cubic {args.cubic} --bbr {args.bbr}"
            )
        if two_flow:
            pred = predict_two_flow(link)
        else:
            pred = predict_multi_flow(link, args.cubic, args.bbr)
    print(f"link: {link.describe()}")
    if two_flow:
        print(
            f"2-flow model: BBR {pred.bbr_bandwidth * 8 / 1e6:.2f} Mbps "
            f"({pred.bbr_fraction * 100:.1f}%), "
            f"CUBIC {pred.cubic_bandwidth * 8 / 1e6:.2f} Mbps"
        )
        print(
            f"  RTT+ {pred.rtt_plus * 1e3:.1f} ms, "
            f"b_cmin {pred.cubic_min_buffer / link.mss:.0f} pkts, "
            f"valid={pred.in_validity_range}"
        )
    else:
        lo, hi = pred.per_flow_bbr_bounds()
        print(
            f"multi-flow model ({args.cubic} CUBIC vs {args.bbr} BBR): "
            f"per-flow BBR in [{lo * 8 / 1e6:.2f}, {hi * 8 / 1e6:.2f}] Mbps"
        )
    ware = ware_prediction(link, n_bbr=args.bbr)
    print(
        f"ware et al. baseline: aggregate BBR "
        f"{ware.bbr_bandwidth * 8 / 1e6:.2f} Mbps"
    )
    return 0


def _cmd_nash(args: argparse.Namespace) -> int:
    from repro.core import predict_nash

    with _scenario_errors():
        link = _link_from(args)
        pred = predict_nash(link, args.flows)
    print(f"link: {link.describe()}, {args.flows} flows")
    print(
        f"predicted NE: {pred.n_cubic_low:.1f}-{pred.n_cubic_high:.1f} "
        f"CUBIC flows / {pred.n_bbr_desync:.1f}-{pred.n_bbr_sync:.1f} BBR "
        f"flows (valid={pred.in_validity_range})"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.exec import ScenarioPoint
    from repro.experiments.runner import run_mix_batch, run_trials

    with _scenario_errors():
        link = _link_from(args)
    mix = []
    for item in args.mix:
        try:
            cc, count = item.split(":")
            mix.append((cc, int(count)))
        except ValueError:
            print(f"bad mix entry {item!r}; use name:count", file=sys.stderr)
            return 2
    if args.trace_out and args.trials > 1:
        # Flow ids restart with every trial: a trace of N would merge N.
        print("--trace-out records one trial; drop --trials", file=sys.stderr)
        return 2
    with run_session(args, "simulate") as session:
        # One point, at --trials seeds: the "cache:" line is its summary.
        session.exec_summary = False
        engine = session.engine
        bus = None
        if args.trace_out:
            from repro.obs import Telemetry, write_trace

            bus = Telemetry(sample_interval=args.sample_interval)
        wall_start = perf_counter()
        with _scenario_errors():
            point = ScenarioPoint(
                link=link,
                mix=tuple(mix),
                duration=args.duration,
                warmup=args.warmup,
                backend=args.backend,
                seed=args.seed,
            )
            if bus is None:
                [result] = run_trials([point], args.trials, engine)
            else:
                # The bus records this simulation, here and uncached:
                # a worker or a cache hit would leave it empty.
                [result] = run_mix_batch([point], obs=bus)
        wall_time = perf_counter() - wall_start
        session.end_line()
        print(f"link: {link.describe()}  backend={args.backend}")
        for cc, count in mix:
            if count == 0:
                continue
            key = cc.lower()
            line = (
                f"  {cc:>8} ×{count}: "
                f"{result.per_flow_mbps(cc):6.2f} Mbps/flow"
            )
            if key in result.loss_rate:
                line += (
                    f"  loss {result.loss_rate[key] * 100:5.2f}%"
                    f"  retx {result.retransmits.get(key, 0.0):6.1f}"
                )
            print(line)
        print(f"  queuing delay: {result.mean_queuing_delay * 1e3:.1f} ms")
        print(f"  drop rate: {result.drop_rate * 100:.2f}%")
        if bus is None and engine.cache is not None:
            hit = engine.hits == engine.submitted
            print(
                f"  cache: {'hit' if hit else 'miss'} ({engine.cache.root})"
            )
        if bus is not None:
            manifest = _simulate_manifest(
                args, link, mix, point.warmup, result, wall_time
            )
            try:
                records = write_trace(args.trace_out, bus, manifest=manifest)
            except OSError as exc:
                raise _CliError(f"cannot write trace: {exc}") from None
            print(f"  wrote {records} trace records to {args.trace_out}")
    return 0


def _simulate_manifest(
    args: argparse.Namespace, link, mix, warmup, result, wall_time: float
):
    """The run manifest of an instrumented simulate run."""
    from repro.obs import RunManifest

    flow_rows = []
    flow_id = 0
    for cc, count in mix:
        key = cc.lower()
        for _ in range(count):
            row = {
                "flow_id": flow_id,
                "cc": key,
                "throughput_mbps": result.per_flow_mbps(cc),
                "retransmits": result.retransmits.get(key, 0.0),
            }
            if key in result.loss_rate:
                row["loss_rate"] = result.loss_rate[key]
            flow_rows.append(row)
            flow_id += 1
    return RunManifest.build(
        label="simulate",
        link=link,
        mix=mix,
        backend=args.backend,
        duration=args.duration,
        seed=args.seed,
        trials=args.trials,
        warmup=warmup,
        wall_time_s=wall_time,
        flows=flow_rows,
    )


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import FIGURE_IDS

    key = args.id if args.id in FIGURE_IDS else f"fig{args.id}"
    if key not in FIGURE_IDS:
        print(
            f"unknown figure {args.id!r}; available: {sorted(FIGURE_IDS)}",
            file=sys.stderr,
        )
        return 2
    from repro.experiments.figures import FIGURES
    from repro.scenario import scenario_overrides

    if args.csv_dir:
        try:
            os.makedirs(args.csv_dir, exist_ok=True)
        except OSError as exc:
            raise _CliError(f"cannot write --csv-dir: {exc}") from None
    # Figures drive the engine internally without an engine parameter;
    # they pick it up as the process default the session installed,
    # and the scenario flags reach their internally built links the
    # same way.
    with run_session(args, key) as session:
        engine = session.engine
        if not args.progress:
            engine.progress = lambda done, submitted, hits: session.draw(
                f"  points {done}/{submitted} ({hits} cached)"
            )
        with _scenario_errors(), scenario_overrides(**_scenario_kwargs(args)):
            produced = FIGURES[key](scale=args.scale)
        session.end_line()
        session.exec_summary = engine.done > 0
        figures = produced if isinstance(produced, list) else [produced]
        for fig in figures:
            print(fig.render())
            print()
            if args.csv_dir:
                fig.save(args.csv_dir)
                print(f"(wrote {args.csv_dir}/{fig.figure_id}.csv, .txt)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import load_report

    try:
        report = load_report(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import validate_two_flow

    with _scenario_errors():
        report = validate_two_flow(
            _link_from(args),
            buffer_bdps=args.buffers,
            duration=args.duration,
            backend=args.backend,
            trials=args.trials,
            seed=args.seed,
        )
    print(report.render())
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.core.game import GroupGame
    from repro.experiments.runner import distribution_payoff_fn

    with _scenario_errors():
        link = _link_from(args)
        payoff = distribution_payoff_fn(
            link,
            args.flows,
            challenger=args.challenger,
            incumbent=args.incumbent,
            duration=args.duration,
            backend="fluid",
            seed=args.seed,
        )

        def announced(*states):
            payoff.points(states)  # an unknown CCA is rejected here
            print(
                f"link: {link.describe()}, {args.flows} flows "
                f"({args.incumbent} vs {args.challenger})"
            )
            print("measuring all distributions (fluid simulator)...")
            return payoff(*states)

        game = GroupGame([args.flows], announced)
        # One round: the start is asked for with the whole table, so a
        # start outside the game is rejected before anything is
        # announced or run.
        game.payoffs((args.start,), *game.states())
    path = [k for (k,) in game.best_response_path((args.start,))]
    print(f"best-response path (#{args.challenger} flows): " +
          " -> ".join(str(k) for k in path))
    # The same (known) payoffs, asked again with a tolerance.
    lenient = GroupGame(
        game.sizes, game.payoffs, 0.02 * link.capacity / args.flows
    )
    equilibria = [k for (k,) in lenient.nash_equilibria()]
    print(f"equilibria (±2% tolerance): {equilibria}")
    final = path[-1]
    print(
        f"converged mix: {args.flows - final} {args.incumbent} / "
        f"{final} {args.challenger}"
    )
    return 0


# -- population subcommands --------------------------------------------------


def _rtt_class_list(value: str) -> List[float]:
    """Parse ``--rtt-classes`` comma lists like ``10,40,120``."""
    try:
        items = [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated RTTs in ms, got {value!r}"
        ) from None
    if not items or any(v <= 0 for v in items):
        raise argparse.ArgumentTypeError(
            f"RTT classes must be positive, got {value!r}"
        )
    return items


def _population_cells(args: argparse.Namespace):
    """One cell per RTT class (or a single cell at the base link)."""
    from repro.population import CellSpec

    if args.rtt_classes:
        return [
            CellSpec(
                link=BottleneckSpec.from_mbps_ms(
                    args.mbps, rtt, args.buffer_bdp
                ),
                n_flows=args.flows,
                label=f"rtt{rtt:g}ms",
            )
            for rtt in args.rtt_classes
        ]
    return [
        CellSpec(link=_link_from(args), n_flows=args.flows, label="base")
    ]


def _write_population_out(out_dir: str, result) -> None:
    """Persist one run: summary.json, trajectory.csv, error_map.json."""
    import csv as csv_mod
    import json
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(
        json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    result.error_map.save(str(out / "error_map.json"))
    labels = result.cell_labels()
    with open(
        out / "trajectory.csv", "w", newline="", encoding="utf-8"
    ) as handle:
        writer = csv_mod.writer(handle)
        writer.writerow(["tick", "cell", "strategy", "share", "payoff"])
        for entry in result.trajectory:
            for i, label in enumerate(labels):
                for j, strategy in enumerate(result.strategies):
                    writer.writerow(
                        [
                            entry["tick"],
                            label,
                            strategy,
                            entry["shares"][i][j],
                            entry["payoffs"][i][j],
                        ]
                    )
        for i, label in enumerate(labels):
            for j, strategy in enumerate(result.strategies):
                writer.writerow(
                    [
                        result.ticks,
                        label,
                        strategy,
                        result.final_shares[i][j],
                        "",
                    ]
                )


def _cmd_population_run(args: argparse.Namespace) -> int:
    from repro.population import (
        DynamicsConfig,
        TieredOracle,
        run_population,
    )

    cells = _population_cells(args)
    config = DynamicsConfig(
        name=args.dynamics,
        step=args.step,
        inertia=args.inertia,
        epsilon=args.epsilon,
        mutation=args.mutation,
    )
    total_flows = sum(cell.n_flows for cell in cells)
    challenger = args.challenger
    with run_session(args, None) as session:
        oracle = TieredOracle(
            engine=session.engine,
            error_threshold=args.error_threshold,
            bound=args.bound,
            duration=args.duration,
            trials=args.trials,
            seed=args.seed,
            force_tier=None if args.tier == "auto" else int(args.tier),
        )
        progress = None
        if args.progress:

            def progress(done: int, total: int) -> None:
                session.draw(f"tick {done}/{total}")

        print(
            f"population: {len(cells)} cell(s), {total_flows} flows, "
            f"dynamics={config.name}, ticks={args.ticks}, seed={args.seed}"
        )
        result = run_population(
            cells,
            dynamics=config,
            ticks=args.ticks,
            seed=args.seed,
            strategies=(args.incumbent, challenger),
            init_share=args.init_share,
            oracle=oracle,
            progress=progress,
        )
        session.end_line()
        for i, label in enumerate(result.cell_labels()):
            share = result.final_shares[i][-1]
            ne = result.ne[i]
            reference = (
                f" (NE sync {ne['share_sync']:.3f}, "
                f"desync {ne['share_desync']:.3f})"
                if ne
                else ""
            )
            print(
                f"  {label}: final {challenger} share "
                f"{share:.3f}{reference}"
            )
        print(
            f"overall {challenger} share: "
            f"{result.final_share(challenger):.3f}  "
            + (
                "converged"
                if result.converged
                else f"not converged (max recent delta "
                f"{result.max_recent_delta:.4f})"
            )
        )
        stats = result.oracle
        print(
            f"oracle: {stats['queries']} queries "
            f"(tier0 {stats['tier0']}, tier1 {stats['tier1']}), "
            f"{stats['memo_hits']} memo hits, "
            f"{stats['calibrations']} calibrations, "
            f"{stats['sim_points']} sim points"
        )
        escalated = result.error_map.escalated()
        print(
            "escalated regions: "
            + (", ".join(escalated) if escalated else "(none)")
        )
        if args.out:
            _write_population_out(args.out, result)
            print(f"wrote {args.out}/summary.json, trajectory.csv, "
                  f"error_map.json")
    return 0


def _cmd_population_plot(args: argparse.Namespace) -> int:
    import csv as csv_mod
    import json
    from pathlib import Path

    from repro.experiments.ascii_plot import render_plot

    out = Path(args.dir)
    try:
        summary = json.loads(
            (out / "summary.json").read_text(encoding="utf-8")
        )
        rows = list(
            csv_mod.DictReader(
                (out / "trajectory.csv")
                .read_text(encoding="utf-8")
                .splitlines()
            )
        )
    except (OSError, ValueError) as exc:
        print(
            f"cannot load population run from {out}: {exc}",
            file=sys.stderr,
        )
        return 2
    challenger = summary["strategies"][-1]
    labels = [
        cell["label"] or f"cell{i}"
        for i, cell in enumerate(summary["cells"])
    ]
    series = []
    for label in labels:
        ticks = [
            float(row["tick"])
            for row in rows
            if row["cell"] == label and row["strategy"] == challenger
        ]
        shares = [
            float(row["share"])
            for row in rows
            if row["cell"] == label and row["strategy"] == challenger
        ]
        series.append((label, ticks, shares))
    last_tick = float(summary["ticks"])
    for i, ne in enumerate(summary["ne"]):
        if ne:
            series.append(
                (
                    f"{labels[i]} NE",
                    [0.0, last_tick],
                    [ne["share_sync"], ne["share_sync"]],
                )
            )
    print(
        render_plot(
            series, xlabel="tick", ylabel=f"{challenger} share"
        )
    )
    final = summary["final_share"][challenger]
    state = "converged" if summary["converged"] else "not converged"
    print(f"final {challenger} share: {final:.3f} ({state})")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.campaign import bundled_campaign_dir, list_bundled_campaigns
    from repro.cc import available_algorithms
    from repro.experiments import FIGURE_IDS

    print("figures:", ", ".join(sorted(FIGURE_IDS)))
    print("congestion controls:", ", ".join(available_algorithms()))
    specs = list_bundled_campaigns()
    if specs:
        print(
            "campaigns:",
            ", ".join(path.name for path in specs),
            f"(in {bundled_campaign_dir()})",
        )
    return 0


# -- campaign subcommands ----------------------------------------------------


def _campaign_errors(fn):
    """Turn campaign-layer exceptions into one-line diagnostics (exit 2)."""

    def wrapper(args: argparse.Namespace) -> int:
        from repro.campaign import CampaignError, JournalError, SpecError

        try:
            return fn(args)
        except (SpecError, CampaignError, JournalError) as exc:
            print(f"campaign error: {exc}", file=sys.stderr)
            return 2

    return wrapper


def _override_campaign_scenario(spec, args: argparse.Namespace):
    """Apply --aqm/--ecn/--capacity-trace to a loaded campaign spec.

    The overridden link lands in the frozen ``spec.json`` the run
    writes, so later resumes stay consistent without re-passing flags.
    """
    from dataclasses import replace

    kwargs = _scenario_kwargs(args)
    if all(value is None for value in kwargs.values()):
        return spec
    link = spec.link
    if kwargs["aqm"] is not None or kwargs["ecn"] is not None:
        link = link.with_aqm(
            kwargs["aqm"] if kwargs["aqm"] is not None else link.aqm,
            ecn=kwargs["ecn"],
        )
    if kwargs["capacity_trace"] is not None:
        link = link.with_capacity_trace(kwargs["capacity_trace"])
    return replace(spec, link=link)


@_campaign_errors
def _run_campaign_cmd(args: argparse.Namespace) -> int:
    """``campaign run`` and ``campaign resume``."""
    from repro.campaign import load_campaign, load_spec, run_campaign

    resume = args.campaign_command == "resume"
    if resume:
        out_dir = args.dir
        spec = load_campaign(out_dir)
    else:
        spec = load_spec(args.spec)
        out_dir = args.out
        try:
            spec = _override_campaign_scenario(spec, args)
        except ValueError as exc:
            print(f"bad scenario: {exc}", file=sys.stderr)
            return 2
    with run_session(args, None) as session:
        print(
            f"campaign '{spec.name}'"
            + (f": {spec.description}" if spec.description else "")
        )
        # The live --progress line replaces the per-unit log lines.
        log = on_progress = None
        if args.progress:

            def on_progress(tracker) -> None:
                session.draw(tracker.render())

        else:

            def log(line: str) -> None:
                print(line, file=sys.stderr)

        summary = run_campaign(
            spec,
            out_dir,
            engine=session.engine,
            resume=resume,
            stop_after=args.stop_after,
            log=log,
            on_progress=on_progress,
        )
        session.end_line()
        if summary.interrupted:
            session.exec_summary = False
            print(
                f"campaign '{summary.name}' stopped after "
                f"{summary.executed} new unit(s); resume with: "
                f"repro-bbr campaign resume {summary.out_dir}"
            )
            return 3
        print(
            f"campaign '{summary.name}': {summary.total_units} units, "
            f"{summary.from_journal} from journal, "
            f"{summary.executed} executed, {summary.rows} rows"
        )
        print(f"wrote {summary.csv_path}")
    return 0


#: Refresh period of ``campaign status --follow`` (seconds).
FOLLOW_INTERVAL_S = 2.0


@_campaign_errors
def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import json
    from time import sleep

    from repro.campaign import (
        campaign_progress,
        load_campaign,
        render_status,
    )

    description = load_campaign(args.dir).description
    try:
        while True:
            status = campaign_progress(args.dir)
            if args.json:
                print(json.dumps(status, indent=2))
            else:
                print(render_status(status, description))
            if not args.follow or status["state"] == "complete":
                return 0
            sleep(FOLLOW_INTERVAL_S)
            print()
    except KeyboardInterrupt:
        print()
        return 0


@_campaign_errors
def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import model_error_report

    report = model_error_report(
        args.dir,
        compare=args.compare,
        reference=args.reference,
        share_cc=args.share_cc,
    )
    print(report.render())
    print(f"wrote {report.csv_path}")
    return 0


@_campaign_errors
def _cmd_campaign_validate(args: argparse.Namespace) -> int:
    from repro.campaign import expand_units, load_spec

    spec = load_spec(args.spec)
    units = expand_units(spec)
    print(f"campaign '{spec.name}': OK")
    if spec.description:
        print(f"  {spec.description}")
    print(f"  fingerprint: {spec.fingerprint()}")
    print(
        "  axes: "
        + ", ".join(
            f"{axis.name}[{len(axis.values)}]" for axis in spec.axes
        )
        + f" ({spec.expand})"
    )
    print(
        "  stages: "
        + ", ".join(
            f"{stage.name} ({stage.kind})" for stage in spec.stages
        )
    )
    print(f"  units: {len(units)}")
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import read_chrome_trace, render_span_report

    try:
        parsed = read_chrome_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    print(render_span_report(parsed.spans))
    return 0


def _cmd_cc(args: argparse.Namespace) -> int:
    from repro.cc.laws import ALGORITHMS, kernel_parameters

    if args.action == "list":
        for name, spec in sorted(ALGORITHMS.items()):
            substrates = "+".join(spec.substrates)
            kind = "loss-based" if spec.loss_based else "not loss-based"
            print(f"{name}  [{substrates}]  ({kind})")
            print(f"  {spec.summary}")
            params = kernel_parameters(name)
            if params:
                joined = ", ".join(
                    f"{key}={value!r}" for key, value in params.items()
                )
                print(f"  law parameters ({spec.laws}): {joined}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec import ResultCache

    cache = ResultCache(args.cache_dir or None)
    if args.action == "info":
        stats = cache.stats()
        print(f"cache: {stats['root']}")
        print(f"  entries: {stats['entries']}")
        print(f"  bytes: {stats['bytes']}")
        print(f"  schema: {stats['schema']}")
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the repro-bbr argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-bbr",
        description=(
            "Reproduction toolkit for 'Are we heading towards a "
            "BBR-dominant Internet?' (IMC 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="run the throughput model")
    _add_link_args(p)
    p.add_argument("--cubic", type=int, default=1, help="# CUBIC flows")
    p.add_argument("--bbr", type=int, default=1, help="# BBR flows")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("nash", help="predict the NE distribution")
    _add_link_args(p)
    p.add_argument("--flows", type=int, default=50, help="total flows")
    p.set_defaults(func=_cmd_nash)

    p = sub.add_parser("simulate", help="simulate a flow mix")
    _add_link_args(p)
    p.add_argument(
        "mix",
        nargs="+",
        help="flow mix entries like cubic:5 bbr:5",
    )
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument(
        "--warmup",
        type=float,
        default=None,
        help="seconds excluded from the measurement window "
        "(default: duration/6; must lie in [0, duration))",
    )
    p.add_argument(
        "--backend",
        choices=("packet", "fluid"),
        default="fluid",
    )
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="run the one trial here, uncached, and write its JSONL "
        "event/sample/counter trace (first record: the run manifest) "
        "to PATH",
    )
    p.add_argument(
        "--trace-interval",
        dest="sample_interval",
        metavar="SECONDS",
        type=_positive_float,
        default=0.1,
        help="per-flow sampling period in seconds for --trace-out",
    )
    _add_scenario_args(p)
    _add_session_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("id", help="figure id, e.g. fig5 or 5")
    p.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="quick = CI-sized, full = paper parameters",
    )
    p.add_argument(
        "--csv-dir", default=None, help="also write CSVs and renderings here"
    )
    _add_scenario_args(p)
    _add_session_args(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "validate",
        help="score the model vs Ware et al. against a simulator sweep",
    )
    _add_link_args(p)
    p.add_argument(
        "--buffers",
        type=float,
        nargs="+",
        default=[2, 5, 10, 20],
        help="buffer depths in BDP",
    )
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument(
        "--backend",
        choices=("packet", "fluid"),
        default="packet",
    )
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "evolve",
        help="play the CCA-selection game via best-response dynamics",
    )
    _add_link_args(p)
    p.add_argument("--flows", type=int, default=10, help="total flows")
    p.add_argument("--incumbent", default="cubic")
    p.add_argument("--challenger", default="bbr")
    p.add_argument(
        "--start", type=int, default=1, help="initial challenger count"
    )
    p.add_argument("--duration", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser(
        "population",
        help="evolve internet-scale CCA adoption dynamics "
        "(see docs/POPULATION.md)",
    )
    population_sub = p.add_subparsers(
        dest="population_command", required=True
    )

    pp = population_sub.add_parser(
        "run", help="run one seeded adoption trajectory"
    )
    _add_link_args(pp)
    pp.add_argument(
        "--flows",
        type=_positive_int,
        default=100,
        help="flows per cell (default 100)",
    )
    pp.add_argument(
        "--rtt-classes",
        type=_rtt_class_list,
        default=None,
        metavar="MS,MS,...",
        help="comma-separated RTT classes in ms; one population cell "
        "per class (default: a single cell at --rtt-ms)",
    )
    pp.add_argument(
        "--dynamics",
        choices=("replicator", "best-response", "logit"),
        default="replicator",
        help="population update rule (default replicator)",
    )
    pp.add_argument("--ticks", type=_positive_int, default=80)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument(
        "--step",
        type=_positive_float,
        default=0.5,
        help="replicator step size",
    )
    pp.add_argument(
        "--epsilon",
        type=_positive_float,
        default=0.2,
        help="fraction of flows reconsidering per tick (logit rule)",
    )
    pp.add_argument(
        "--mutation",
        type=float,
        default=0.0,
        help="uniform exploration rate mixed into every update",
    )
    pp.add_argument(
        "--inertia",
        type=float,
        default=0.5,
        help="best-response inertia (share kept at the old mix)",
    )
    pp.add_argument(
        "--init-share",
        type=float,
        default=0.1,
        help="initial challenger share in every cell (default 0.1)",
    )
    pp.add_argument("--incumbent", default="cubic")
    pp.add_argument("--challenger", default="bbr")
    pp.add_argument(
        "--bound",
        choices=("sync", "desync", "mid"),
        default="sync",
        help="which side of the model's predicted region tier 0 "
        "reports (default sync)",
    )
    pp.add_argument(
        "--tier",
        choices=("auto", "0", "1"),
        default="auto",
        help="force the payoff tier (auto: calibrate per region "
        "against the fluid substrate)",
    )
    pp.add_argument(
        "--error-threshold",
        type=_positive_float,
        default=0.1,
        help="calibration error (fraction of fair share) above which "
        "a region escalates to tier-1 simulation (default 0.1)",
    )
    pp.add_argument(
        "--duration",
        type=_positive_float,
        default=30.0,
        help="simulated seconds per tier-1/calibration point",
    )
    pp.add_argument("--trials", type=_positive_int, default=1)
    pp.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write summary.json, trajectory.csv and error_map.json "
        "to DIR (the input of 'population plot')",
    )
    _add_session_args(pp)
    pp.set_defaults(func=_cmd_population_run)

    pp = population_sub.add_parser(
        "plot",
        help="ASCII-plot a saved adoption trajectory vs its NE",
    )
    pp.add_argument("dir", help="directory written by population run")
    pp.set_defaults(func=_cmd_population_plot)

    p = sub.add_parser(
        "report",
        help="summarize a JSONL trace written by simulate --trace-out",
    )
    p.add_argument("trace", help="path to the JSONL trace file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "campaign",
        help="run declarative scenario campaigns (see docs/CAMPAIGNS.md)",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    cp = campaign_sub.add_parser(
        "run", help="run a campaign spec into an output directory"
    )
    cp.add_argument("spec", help="path to a .toml/.json campaign spec")
    cp.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="campaign output directory (journal, CSV, manifest)",
    )
    cp.add_argument(
        "--stop-after",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stop cleanly after N newly executed units (simulates an "
        "interrupted campaign; exit code 3)",
    )
    _add_scenario_args(cp)
    _add_session_args(cp)
    cp.set_defaults(func=_run_campaign_cmd)

    cp = campaign_sub.add_parser(
        "resume", help="resume an interrupted campaign directory"
    )
    cp.add_argument("dir", help="campaign output directory to resume")
    cp.add_argument(
        "--stop-after",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stop cleanly after N newly executed units (exit code 3)",
    )
    _add_session_args(cp)
    cp.set_defaults(func=_run_campaign_cmd)

    cp = campaign_sub.add_parser(
        "status", help="show a campaign directory's progress"
    )
    cp.add_argument("dir", help="campaign output directory")
    cp.add_argument(
        "--json",
        action="store_true",
        help="print machine-readable progress (elapsed, per-stage "
        "done/total, rate, ETA) as JSON",
    )
    cp.add_argument(
        "--follow",
        action="store_true",
        help=f"refresh every {FOLLOW_INTERVAL_S:g}s until the campaign "
        "is complete (Ctrl-C stops following)",
    )
    cp.set_defaults(func=_cmd_campaign_status)

    cp = campaign_sub.add_parser(
        "validate", help="parse and validate a campaign spec"
    )
    cp.add_argument("spec", help="path to a .toml/.json campaign spec")
    cp.set_defaults(func=_cmd_campaign_validate)

    cp = campaign_sub.add_parser(
        "report",
        help="per-scenario-family model error from a completed "
        "campaign that sweeps a backend axis",
    )
    cp.add_argument("dir", help="campaign output directory")
    cp.add_argument(
        "--compare",
        default="backend",
        metavar="AXIS",
        help="axis whose values are compared (default: backend)",
    )
    cp.add_argument(
        "--reference",
        default="packet",
        metavar="VALUE",
        help="axis value treated as ground truth (default: packet)",
    )
    cp.add_argument(
        "--share-cc",
        default="bbr",
        metavar="CC",
        help="CC whose aggregate-throughput share is scored "
        "(default: bbr)",
    )
    cp.set_defaults(func=_cmd_campaign_report)

    p = sub.add_parser(
        "trace",
        help="inspect exported span traces (see docs/OBSERVABILITY.md)",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    tp = trace_sub.add_parser(
        "report",
        help="per-span self/total wall-time table from a Chrome "
        "trace-event JSON file (--spans-out)",
    )
    tp.add_argument("trace", help="path to the span trace (.json[.gz])")
    tp.set_defaults(func=_cmd_trace_report)

    p = sub.add_parser(
        "cache", help="inspect or clear the scenario result cache"
    )
    p.add_argument(
        "action", choices=("info", "clear"), help="what to do"
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: ~/.cache/repro-bbr or "
        "$REPRO_CACHE_DIR)",
    )
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "cc",
        help="inspect the congestion-control algorithm table",
    )
    p.add_argument(
        "action",
        choices=("list",),
        help="list: every algorithm with substrates and law parameters",
    )
    p.set_defaults(func=_cmd_cc)

    p = sub.add_parser("list", help="list figures and algorithms")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.check import InvariantViolation

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly instead
        # of tracebacking (redirect stdout so shutdown flush is safe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
