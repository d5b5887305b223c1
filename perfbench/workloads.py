"""The three workloads: seeded inputs, operations and their checks.

Round r of a workload is a list of batches made from its own seeded share
of inputs; a batch is a list of operations that share state (the games on
one back-and-forth pair) and one check over their outputs.  Set-up builds
round 0's share; later shares are built between rounds, off the clock, so
a run never replays an input.  Every share has the same heights, and the
game sizes of STRATA consecutive shares together are spread evenly over
their ranges, so a run's mix does not depend on how many rounds it plays.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable

import checks

STRATA = 5

# the largest top w*k of the grown conditions of persistency and ef
MAX_TOP = 80

# persistency: heights, conditions per height and games per condition in a round
PERSISTENCY_HEIGHTS = range(1, 11)
PERSISTENCY_PER_HEIGHT = 3
PERSISTENCY_GAMES = 2
PERSISTENCY_MAX_ROUNDS = 64

# ef: heights, conditions per height, games per pair in a round, and the
# ranges of game rounds and move caps
EF_HEIGHTS = range(1, 5)
EF_PER_HEIGHT = 3
EF_GAMES = 4
EF_ROUNDS = (3, 10)
EF_MOVE_CAPS = (2, 5)
EF_PRESETS = ("default", "constant-heavy")

# towers: (height, least and greatest family size k of a top w*k), towers
# of each kind in a round, and the task pairs and pool size of the candidates
# they are picked from
TOWER_SLOTS = ((11, 55, 80), (12, 55, 80))
TOWERS_PER_ROUND = 4
TOWER_PAIRS = 9
TOWER_POOL = 80
TOWER_BUDGET = 64
TOWER_LAYER_CAP = 3
TOWER_PERSISTENCY_ROUNDS = 24
TOWER_EF_ROUNDS = 4
TOWER_EF_MOVE_CAP = 3


@dataclass
class Batch:
    ops: list[Callable[[], object]]
    check: Callable[[list], list[str]]
    cleanup: Callable[[], None] = field(default=lambda: None)
    # per-layer counts the benchmark measures itself, added to the traced run's sums
    counters: Callable[[list], dict] | None = None


def _rng(*parts) -> random.Random:
    return random.Random("/".join(map(str, parts)))


def _sizes(rng: random.Random, count: int, lo: int, hi: int, r: int) -> list[int]:
    """Round r's `count` values of lo..hi, shuffled.

    The values of STRATA consecutive rounds together are spread evenly over
    lo..hi: round r takes every STRATA-th of them, from the (r mod STRATA)-th.
    """
    total = count * STRATA
    values = [lo + (k * (hi - lo + 1)) // total for k in range(r % STRATA, total, STRATA)]
    rng.shuffle(values)
    return values


def grown_condition(mods, rng: random.Random, height: int):
    """A condition of the given height and a top of at most w*MAX_TOP.

    It grows from the seed condition one random covering target at a time,
    with targets drawn as for the acceptance suite's built conditions (block
    below 8, target below w*3 + 12, budget 16).  A chain that jumps over the
    height, outgrows the top, or stops growing because it covers every target
    that can be drawn, starts again.
    """
    forcing, ordinal = mods["forcing"], mods["ordinal"]
    limit = ordinal.omega_times(MAX_TOP)
    while True:
        cond = forcing.seed_condition()
        for _ in range(4 * height):
            if cond.frag.height >= height or cond.top_theta > limit:
                break
            target = (rng.randrange(8), ordinal.omega_times(rng.randrange(4), rng.randrange(12)))
            cond = forcing.extend_to_cover(cond, target, 16)
        if cond.frag.height == height and cond.top_theta <= limit:
            forcing.fragment_of(cond)  # validates, as the command line does
            return cond


def _condition_share(mods, rng, heights, per_height: int, games: int, game_specs) -> list[tuple]:
    """`per_height` conditions of each height, each with its games from ``game_specs(n)``."""
    share = []
    for height in heights:
        specs = game_specs(per_height * games)
        for j in range(per_height):
            share.append((grown_condition(mods, rng, height), specs[j * games:(j + 1) * games]))
    return share


def _rounds(build, make_share):
    """Set-up and round functions for a workload whose round r plays share r.

    ``build(mods, share, rng, r, env)`` turns a share into batches; ``rng``
    seeds the round's challengers.
    """

    def setup(mods, seed) -> dict:
        return {"share": make_share(mods, seed, 0)}

    def make_round(mods, state, seed, r: int, env) -> list[Batch]:
        share = state.pop("share") if r == 0 else make_share(mods, seed, r)
        return build(mods, share, _rng(build.__name__, seed, "round", r), r, env)

    return setup, make_round


# ---------------------------------------------------------------------------
# persistency


def persistency_share(mods, seed, r: int) -> list[tuple]:
    rng = _rng("persistency", seed, "share", r)
    return _condition_share(
        mods, rng, PERSISTENCY_HEIGHTS, PERSISTENCY_PER_HEIGHT, PERSISTENCY_GAMES,
        lambda n: _sizes(rng, n, 1, PERSISTENCY_MAX_ROUNDS, r),
    )


def persistency(mods, share, rng, r: int, env) -> list[Batch]:
    return [
        _persistency_batch(mods, cond.frag, length, rng.randrange(10**9))
        for cond, lengths in share
        for length in lengths
    ]


def _persistency_batch(mods, frag, length: int, game_seed: int) -> Batch:
    persistency = mods["persistency"]

    def play():
        player = persistency.morass_strategy(frag)
        challenger = persistency.random_challenges(frag, game_seed)
        transcript = persistency.play_persistency(frag, challenger, player, length)
        return transcript, player.history

    def check(outputs):
        ((transcript, history),) = outputs
        return checks.check_persistency_game(
            mods, mods["oracles"], frag, transcript, history, length, game_seed
        )

    return Batch([play], check)


# ---------------------------------------------------------------------------
# back-and-forth


def ef_share(mods, seed, r: int) -> list[tuple]:
    rng = _rng("ef", seed, "share", r)

    def games(n):
        rounds, caps = _sizes(rng, n, *EF_ROUNDS, r), _sizes(rng, n, *EF_MOVE_CAPS, r)
        return [[k, cap, EF_PRESETS[g % 2]] for g, (k, cap) in enumerate(zip(rounds, caps))]

    return _condition_share(mods, rng, EF_HEIGHTS, EF_PER_HEIGHT, EF_GAMES, games)


def ef(mods, share, rng, r: int, env) -> list[Batch]:
    return [
        _ef_batch(mods, cond.frag, [(*game, rng.randrange(10**9)) for game in games])
        for cond, games in share
    ]


def _ef_batch(mods, frag, games) -> Batch:
    efgame, structures, ordinal = mods["efgame"], mods["structures"], mods["ordinal"]
    pair = []

    def game(n_rounds, move_cap, preset, game_seed):
        if not pair:
            # the first game's caller builds the pair; later games share its layer cache
            pair.extend(structures.make_ab(frag, [ordinal.ZERO, ordinal.ONE]))
        a_struct, b_struct, _ = pair
        config = efgame.EFConfig(rounds=n_rounds, move_cap=move_cap)
        challenger = efgame.random_forall(
            a_struct, b_struct, config, game_seed, efgame.WEIGHT_PRESETS[preset]
        )
        player = efgame.ef_exists_strategy(a_struct, b_struct)
        return efgame.play_ef(a_struct, b_struct, challenger, player, config), player, config

    def check(outputs):
        a_struct, b_struct, _ = pair
        problems = []
        for transcript, player, config in outputs:
            problems += checks.check_ef_game(mods, a_struct, b_struct, transcript, player, config)
        return problems

    ops = [lambda spec=spec: game(*spec) for spec in games]
    return Batch(ops, check, cleanup=pair.clear)


# ---------------------------------------------------------------------------
# towers through the command line


def tower_tasks(rng: random.Random, pairs: int) -> list:
    """Alternating targets [pairs - i + a, "b"] and [0, "w*(i+2)"]: a tall tower."""
    tasks = []
    for i in range(pairs):
        tasks.append([pairs - i + rng.randrange(3), str(1 + rng.randrange(4))])
        tasks.append([0, f"w*{i + 2}"])
    return tasks


def towers_share(mods, seed, r: int) -> list:
    """TOWERS_PER_ROUND task lists per slot, the first that fit in a seeded candidate pool.

    Every one of the TOWER_POOL candidates is built, so the work does not
    depend on how soon the seed's draws fit; a pool too short for a slot
    (under 1% of seeds) grows by another pool.  The order alternates slots.
    """
    forcing, ordinal = mods["forcing"], mods["ordinal"]
    rng = _rng("towers", seed, "share", r)
    picked: dict[tuple, list] = {slot: [] for slot in TOWER_SLOTS}
    while any(len(tasks) < TOWERS_PER_ROUND for tasks in picked.values()):
        for _ in range(TOWER_POOL):
            tasks = tower_tasks(rng, TOWER_PAIRS)
            targets = [(block, ordinal.parse_ordinal(text)) for block, text in tasks]
            frag = forcing.build_fragment(forcing.seed_condition(), targets, TOWER_BUDGET).frag
            for (height, least, greatest), chosen in picked.items():
                if (frag.height == height and least <= frag.top_theta.terms[0][1] <= greatest
                        and len(chosen) < TOWERS_PER_ROUND):
                    chosen.append(tasks)
    return [picked[slot][i] for i in range(TOWERS_PER_ROUND) for slot in TOWER_SLOTS]


def towers(mods, share, rng, r: int, env) -> list[Batch]:
    batches = []
    for i, tasks in enumerate(share):
        layer_u = ["0", str(1 + rng.randrange(3)), f"{rng.choice(('w', 'w*2'))} + {1 + rng.randrange(3)}"]
        params = {
            "u": layer_u,
            "pp_seed": rng.randrange(10**9),
            "ef_seed": rng.randrange(10**9),
            "weights": EF_PRESETS[(i // len(TOWER_SLOTS)) % 2],
        }
        d = os.path.join(env.workdir, f"r{r}-t{i}")
        batches.append(_tower_batch(mods, tasks, params, d, env.clear_caches))
    return batches


def _tower_commands(d: str, params: dict) -> list[tuple[str, list[str]]]:
    cond = os.path.join(d, "condition.json")
    return [
        ("build", ["build", os.path.join(d, "tasks.json"), "-o", cond, "--budget", str(TOWER_BUDGET)]),
        ("validate", ["validate", cond, "--json", os.path.join(d, "report.json")]),
        ("export", ["export", cond, "-o", os.path.join(d, "export.json")]),
        ("show-layer", ["show-layer", "--condition", cond, "--u", ",".join(params["u"]),
                        "--value-cap", str(TOWER_LAYER_CAP), "-o", os.path.join(d, "layer.json")]),
        ("play-persistency", ["play-persistency", "--condition", cond,
                              "--rounds", str(TOWER_PERSISTENCY_ROUNDS), "--seed", str(params["pp_seed"]),
                              "--trace", os.path.join(d, "persistency.json")]),
        ("play-ef", ["play-ef", "--condition", cond, "--base-u", "0,1",
                     "--rounds", str(TOWER_EF_ROUNDS), "--move-cap", str(TOWER_EF_MOVE_CAP),
                     "--weights", params["weights"], "--seed", str(params["ef_seed"]),
                     "--trace", os.path.join(d, "ef.json")]),
    ]


def run_command(mods, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def _tower_batch(mods, tasks, params, d: str, clear_caches) -> Batch:
    def pipeline():
        os.makedirs(d)
        with open(os.path.join(d, "tasks.json"), "w", encoding="utf-8") as fh:
            json.dump(tasks, fh)
        results = {}
        for name, argv in _tower_commands(d, params):
            # each command stands for its own process: nothing cached carries over
            clear_caches()
            results[name] = run_command(mods, argv)
        return results

    def check(outputs):
        (results,) = outputs
        problems = [
            f"{name} exited {code}: {err.strip()}" for name, (code, _, err) in results.items() if code != 0
        ]
        if problems:
            return problems
        problems += check_tower_outputs(mods, d, params)
        return problems

    def counters(outputs):
        (results,) = outputs
        printed = sum(len(out.encode()) for _, out, _ in results.values())
        return {"cli.output_bytes": output_bytes(d) + printed}

    return Batch([pipeline], check, cleanup=lambda: shutil.rmtree(d, ignore_errors=True), counters=counters)


def _load(d: str, name: str):
    with open(os.path.join(d, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_tower_outputs(mods, d: str, params: dict) -> list[str]:
    report = _load(d, "report.json")
    problems = [] if report["valid"] else ["validate reports violations"]
    problems += checks.check_export(_load(d, "export.json"))
    cond = mods["forcing"].condition_from_json(_load(d, "condition.json"))
    problems += checks.check_layer(mods, cond.frag, _load(d, "layer.json"), params["u"], TOWER_LAYER_CAP)
    problems += checks.check_persistency_trace(_load(d, "persistency.json"), TOWER_PERSISTENCY_ROUNDS)
    problems += checks.check_ef_trace(_load(d, "ef.json"), TOWER_EF_ROUNDS)
    return problems


def output_bytes(d: str) -> int:
    return sum(os.path.getsize(os.path.join(d, n)) for n in os.listdir(d))


WORKLOADS = {
    "persistency": _rounds(persistency, persistency_share),
    "ef": _rounds(ef, ef_share),
    "towers": _rounds(towers, towers_share),
}
