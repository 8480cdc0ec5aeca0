"""Golden fixtures: one registry, one writer, one loader.

An identity test pins what the code computes for a fixed set of inputs
against a JSON file written at an earlier commit, so "same answers" is
a comparison rather than an argument.  Every such file is registered in
:data:`FIXTURES` with the function that recomputes its outputs for the
inputs the file already holds, and with the named exceptions its test
allows (entries that moved on purpose since the file was written).

Rewrite fixtures from whichever ``repro`` is importable::

    PYTHONPATH=src python -m tests.identity sim game

Each file gets that tree's commit as ``generated_at``.  To re-pin at
another commit (say, the parent of a change that moves a pin on
purpose), run the same command from the repo root against a clone at
that commit::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout <commit>
    PYTHONPATH=/tmp/parent/src python -m tests.identity sim

A moved pin is explained — which entry, and why — before it is
re-pinned; a regenerated file that differs in anything but
``generated_at`` and its named exceptions is a behaviour change.
"""

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Mapping

import repro
from repro.campaign import (
    expand_units,
    fig9_campaign,
    list_bundled_campaigns,
    load_spec,
    parse_spec,
    run_campaign,
)
from repro.cli import build_parser
from repro.core.game import GroupGame, ThroughputTable, bisect_nash
from repro.exec import (
    Engine,
    ResultCache,
    ScenarioPoint,
    fingerprint_payload,
)
from repro.experiments.runner import (
    distribution_payoff_fn,
    group_payoff_fn,
    run_trials,
)
from repro.scenario import BottleneckSpec
from repro.sim import DumbbellNetwork, FlowSpec
from repro.util.config import LinkConfig
from tests.conftest import CountingEngine

HERE = Path(__file__).resolve().parent


# -- one writer, one loader --------------------------------------------------


def hexed(value):
    """``value`` with every float as ``float.hex()``: exact, and what a
    diff of two runs shows digit for digit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [hexed(item) for item in value]
    return value


def dumps(doc):
    """The one fixture layout: each key of the top-level object on its
    own line, and under it one line per item of a list or object."""

    def entry(key, value):
        return f"{json.dumps(key)}: {value}"

    def block(value):
        if isinstance(value, dict) and value:
            items = [entry(k, json.dumps(v)) for k, v in value.items()]
            return "{\n" + ",\n".join(f"  {i}" for i in items) + "\n }"
        if isinstance(value, list) and value:
            items = [json.dumps(item) for item in value]
            return "[\n" + ",\n".join(f"  {i}" for i in items) + "\n ]"
        return json.dumps(value)

    lines = [f" {entry(key, block(value))}" for key, value in doc.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load(name):
    """Fixture ``name`` as its test reads it (without ``generated_at``)."""
    doc = json.loads((HERE / FIXTURES[name].file).read_text())
    doc.pop("generated_at", None)
    return doc


def write(name, doc, generated_at):
    (HERE / FIXTURES[name].file).write_text(
        dumps({"generated_at": generated_at, **doc})
    )


def tree_commit():
    """The commit of the tree ``repro`` is imported from, marked when
    its ``src/`` has uncommitted changes."""
    root = Path(repro.__file__).resolve().parents[2]

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git tree)"
    return commit + (" + uncommitted changes under src/" if dirty else "")


# -- cli_options.json: every (sub)command's options --------------------------


def parser_surface(parser, prefix=""):
    """``{"sub command": sorted option strings}`` for a parser tree."""
    surface = {
        prefix: sorted(
            option
            for action in parser._actions
            for option in action.option_strings
        )
    }
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(
                    parser_surface(sub, f"{prefix} {name}".strip())
                )
    return surface


# -- campaign_identity.json: spec fingerprints and unit ids ------------------


def campaign_specs():
    """Every bundled spec, the figure-9 presets and the test suite's
    every-option specs, by name."""
    from tests import test_campaign_vocab as vocab  # It imports us.

    specs = {path.name: load_spec(path) for path in list_bundled_campaigns()}
    specs["fig9-quick"] = fig9_campaign()
    specs["fig9-full"] = fig9_campaign(scale="full")
    for data in (
        vocab.NE_SEARCH,
        vocab.WARM_RESUME,
        vocab.EVERY_SWEEP,
        vocab.EVERY_ADAPTIVE,
        vocab.EVERY_POPULATION,
    ):
        specs[data["name"]] = parse_spec(json.loads(json.dumps(data)))
    return specs


def campaign_table():
    """Spec fingerprint + ordered unit ids (digested) per pinned spec."""
    table = {}
    for name, spec in sorted(campaign_specs().items()):
        ids = [unit.unit_id() for unit in expand_units(spec)]
        table[name] = {
            "fingerprint": spec.fingerprint(),
            "first_unit_id": ids[0],
            "last_unit_id": ids[-1],
            "ordered_unit_ids_sha256": hashlib.sha256(
                "\n".join(ids).encode("ascii")
            ).hexdigest(),
            "units": len(ids),
        }
    return table


# -- sim_identity.json: full packet-substrate results ------------------------


def run_case(case):
    """One pinned dumbbell run: the network and its result."""
    net = DumbbellNetwork(
        BottleneckSpec.from_mbps_ms(**case["link"]),
        [FlowSpec(**flow) for flow in case["flows"]],
    )
    return net, net.run(case["duration"], case.get("warmup", 0.0))


def sim_result(result):
    """Everything a dumbbell run returns except the event count, floats
    hexed."""
    doc = dataclasses.asdict(result)
    del doc["events_processed"]
    return hexed(doc)


def build_sim(doc):
    for case in doc["cases"]:
        case["result"] = sim_result(run_case(case)[1])
    return doc


# -- point_identity.json: fingerprints, payload bytes, group payoffs ---------


def pinned_fingerprint(point, trials=1):
    """``point``'s fingerprint as the pins record it, asked ``trials``
    times.  Every pin predates points losing ``trials`` (repetition
    became seed points above the engine), when the hashed descriptor
    carried the key: that key is the one named exception of a pinned
    fingerprint, and the rest of the descriptor must not have moved."""
    return fingerprint_payload(
        "run_mix", {**point.params(), "trials": trials}
    )


def scenario_point(entry):
    """An entry's point; its ``trials`` are :func:`point_pins`'."""
    kwargs = {k: v for k, v in entry["kwargs"].items() if k != "trials"}
    return ScenarioPoint(
        link=LinkConfig.from_mbps_ms(**entry["link"]),
        mix=tuple(tuple(e) for e in entry["mix"]),
        **kwargs,
    )


def point_pins(entry, cache_dir):
    """A point's pinned fingerprint, and the sha256 of the cache entry
    of its result under that fingerprint: the mean of its seed points,
    read back from the entries a cold run stored under ``cache_dir``."""
    point = scenario_point(entry)
    trials = entry["kwargs"].get("trials", 1)
    cache = ResultCache(cache_dir)
    run_trials([point], trials, Engine(cache=cache))
    [result] = run_trials([point], trials, Engine(cache=cache))
    fingerprint = pinned_fingerprint(point, trials)
    stored = cache.put(fingerprint, result.to_dict()).read_bytes()
    return {
        "fingerprint": fingerprint,
        "payload_sha256": hashlib.sha256(stored).hexdigest(),
    }


def group_payoff(group, engine=None, trials=1):
    """The pinned §4.5 game's payoff function."""
    return group_payoff_fn(
        LinkConfig.from_mbps_ms(**group["link"]),
        group["group_rtts"],
        group["group_sizes"],
        duration=group["duration"],
        trials=trials,
        engine=engine,
    )


def build_point(doc):
    for entry in doc["points"]:
        with tempfile.TemporaryDirectory() as cache_dir:
            entry.update(point_pins(entry, cache_dir))
    group = doc["group_game"]
    for trials, goldens in group["by_trials"].items():
        states = [tuple(golden["state"]) for golden in goldens]
        measured = group_payoff(group, trials=int(trials))(*states)
        for golden, pairs in zip(goldens, measured):
            golden["payoffs"] = [list(pair) for pair in pairs]
    return doc


# -- game_identity.json: NE lists, bisections, walks, submitted points -------


def throughput_table(entry):
    return ThroughputTable(
        entry["n_flows"], entry["lambda_a"], entry["lambda_b"]
    )


def walk(game, start):
    """A one-group game's best-response path from ``start``."""
    return [k for (k,) in game.best_response_path((start,))]


def group_walk(game, start):
    """A group game's best-response path from ``start``, as lists."""
    return [list(s) for s in game.best_response_path(tuple(start))]


def table_answers(entry, tol, keys):
    """A synthetic table's NE list and bisection at tolerance ``tol``
    (and, if ``keys`` asks, its walk from every start)."""
    table = throughput_table(entry)
    game = table.game(float(tol))
    found, evaluated = bisect_nash(table.game(float(tol)))
    answers = {
        "ne": [k for (k,) in game.nash_equilibria()],
        "bisect_ne": found,
        "bisect_evaluated": sorted(evaluated),
    }
    if "group_paths" in keys:
        answers["group_paths"] = [
            walk(game, start) for start in range(entry["n_flows"] + 1)
        ]
    return answers


def tabled_game(entry, tol):
    """A synthetic group game over the payoffs ``entry`` lists."""
    table = {
        tuple(state): [tuple(pair) for pair in pairs]
        for state, pairs in entry["payoffs"]
    }
    return GroupGame(
        entry["sizes"],
        lambda *states: [table[state] for state in states],
        float(tol),
    )


def measured_search(pinned, engine):
    """A measured same-RTT bisection: its answer, what it evaluated and
    the fingerprints ``engine`` (a ``CountingEngine``) was sent."""
    payoff = distribution_payoff_fn(
        LinkConfig.from_mbps_ms(**pinned["link"]),
        pinned["n_flows"],
        duration=pinned["duration"],
        engine=engine,
    )
    found, evaluated = bisect_nash(GroupGame([pinned["n_flows"]], payoff))
    return {
        "ne": found,
        "evaluated": sorted(evaluated),
        "fingerprints": submitted(engine),
    }


def submitted(engine):
    """The pinned fingerprints of every point ``engine`` was sent."""
    return sorted(
        pinned_fingerprint(point)
        for batch in engine.batches
        for point in batch
    )


def measured_group_walk(pinned, engine):
    """A measured 2×2-flow group game: each start's walk, where
    ``settle`` lands and the fingerprints ``engine`` was sent."""
    game = GroupGame(
        pinned["group_sizes"], group_payoff(pinned, engine=engine)
    )
    starts = [tuple(start) for start in pinned["starts"]]
    return {
        "paths": [group_walk(game, start) for start in starts],
        "ne": [list(s) for s in game.settle(starts)],
        "fingerprints": submitted(engine),
    }


#: (table, start) -> the best-response path now, where the larger
#: incumbent-ward gain beats the challenger-ward move the table rule
#: took first when ``game_identity.json`` was written.
LARGER_GAIN = {
    ("noisy-b-n3", 2): [2, 1],
    ("noisy-b-n10", 8): [8, 7, 6, 5],
    ("noisy-a-n50", 11): [11, 10, 9, 8, 7],
    ("noisy-a-n50", 15): [15, 14],
    ("noisy-a-n50", 19): [19, 18],
    ("noisy-a-n50", 26): [26, 25, 24, 23],
    ("noisy-a-n50", 32): [32, 31, 30, 29, 28, 27],
    ("noisy-a-n50", 37): [37, 36],
    ("noisy-a-n50", 43): [43, 42],
    ("noisy-b-n50", 5): [5, 4, 3, 2, 1],
    ("noisy-b-n50", 8): [8, 7],
    ("noisy-b-n50", 18): [18, 17, 16, 15, 14, 13, 12, 11, 10, 9],
}


def build_game(doc):
    for entry in doc["tables"]:
        for tol, pinned in entry["by_tolerance"].items():
            pinned.update(table_answers(entry, tol, pinned))
        game = throughput_table(entry).game()
        entry["table_paths"] = [
            walk(game, start) for start in range(entry["n_flows"] + 1)
        ]
    for entry in doc["group_games"]:
        for tol, pinned in entry["by_tolerance"].items():
            game = tabled_game(entry, tol)
            pinned["ne"] = [list(s) for s in game.nash_equilibria()]
            starts = [start for start, _ in pinned["paths"]]
            pinned["paths"] = [[s, group_walk(game, s)] for s in starts]
    doc["measured_search"].update(
        measured_search(doc["measured_search"], CountingEngine())
    )
    doc["measured_group_walk"].update(
        measured_group_walk(doc["measured_group_walk"], CountingEngine())
    )
    return doc


# -- lockstep_identity.json: a population campaign's CSV and error map -------


def population_artifacts(spec_data, out):
    """Run the pinned population campaign into ``out``; its CSV and
    ``error_map.json`` text."""
    spec = parse_spec(spec_data)
    run_campaign(spec, out, engine=Engine())
    return {
        "csv": (Path(out) / spec.csv_name).read_text(),
        "error_map": (Path(out) / "error_map.json").read_text(),
    }


def build_lockstep(doc):
    with tempfile.TemporaryDirectory() as out:
        doc.update(population_artifacts(doc["spec"], out))
    return doc


# -- the registry ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Fixture:
    """A golden file under ``tests/``, the function that recomputes its
    outputs from the inputs it holds, and what its test lets differ."""

    file: str
    build: Callable[[Dict], Dict]
    exceptions: Mapping[str, object] = dataclasses.field(
        default_factory=dict
    )


FIXTURES = {
    "cli_options": Fixture(
        "cli_options.json",
        lambda doc: dict(sorted(parser_surface(build_parser()).items())),
    ),
    "campaign": Fixture(
        "campaign_identity.json", lambda doc: campaign_table()
    ),
    "sim": Fixture("sim_identity.json", build_sim),
    "point": Fixture(
        "point_identity.json",
        build_point,
        # trials=3 payoffs are per-trial-then-mean now, the pooled mean
        # then: equal to the last ulps.  Fingerprints are pinned with
        # the trials key points no longer carry.
        {"pooled_mean_rel": 1e-12, "fingerprint": pinned_fingerprint},
    ),
    "game": Fixture(
        "game_identity.json",
        build_game,
        # The larger gain wins where both directions pay; a walk stops
        # at the first state it visits twice (it ran all 1 000 steps
        # around a cycle, so the file records the prefix + 1 001).
        # Submitted fingerprints are pinned with the trials key points
        # no longer carry.
        {
            "larger_gain": LARGER_GAIN,
            "cycle_length": 1001,
            "fingerprint": pinned_fingerprint,
        },
    ),
    "lockstep": Fixture("lockstep_identity.json", build_lockstep),
}


def main(names):
    unknown = sorted(set(names) - set(FIXTURES))
    if not names or unknown:
        print(
            f"usage: python -m tests.identity NAME... "
            f"(NAME: {', '.join(FIXTURES)}); unknown: {unknown}",
            file=sys.stderr,
        )
        return 2
    generated_at = tree_commit()
    for name in names:
        write(name, FIXTURES[name].build(load(name)), generated_at)
        print(f"{FIXTURES[name].file}: written at {generated_at}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
