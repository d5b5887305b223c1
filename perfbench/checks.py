"""Correctness checks on the outputs of each workload.

Every check returns a list of problems; an empty list means the output
passed.  Checks recompute what they compare against, with the independent
oracles of ``tests/oracles.py`` or from a property the method must have;
none of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import lru_cache

# Fragments up to this height are small enough for the exhaustive oracles.
ORACLE_MAX_HEIGHT = 4
# mu values compared with the oracle per persistency game.
MU_SAMPLES = 4


def memoize_oracles(oracles) -> None:
    """Memoize the oracles' pure helpers so checks stay cheap on long games.

    The oracles call each other through module globals, so replacing the
    globals makes every caller use the memoized versions; results are
    unchanged.
    """
    if hasattr(oracles.oracle_predecessor, "cache_info"):
        return
    words = oracles.family_words
    oracles.family_words = lru_cache(maxsize=4096)(lambda frag, a, b: tuple(words(frag, a, b)))
    oracles.oracle_predecessor = lru_cache(maxsize=1 << 16)(oracles.oracle_predecessor)
    oracles.oracle_mu = lru_cache(maxsize=1 << 16)(oracles.oracle_mu)


# ---------------------------------------------------------------------------
# persistency


def check_persistency_game(mods, oracles, frag, transcript, history, rounds: int, seed: int) -> list[str]:
    """A won game whose positions grow one challenge at a time.

    On small fragments the defender's two rules are replayed with the
    oracles' predecessors and cover levels, the final position is tested
    with the definition oracle, and sampled ``mu`` values are compared with
    the exhaustive family search.
    """
    persistency = mods["persistency"]
    problems = []
    if not transcript.won:
        problems.append(f"game lost at round {transcript.stuck_at}")
    if len(transcript.rounds) != rounds:
        problems.append(f"{len(transcript.rounds)} rounds played, {rounds} asked")
    previous: dict = {}
    for j, (xi, position) in enumerate(transcript.rounds):
        current = dict(position.entries)
        if xi not in current:
            problems.append(f"round {j}: challenge {xi} not covered")
        if any(current.get(k) != v for k, v in previous.items()):
            problems.append(f"round {j}: position does not extend the previous one")
        if set(current) - set(previous) - {xi}:
            problems.append(f"round {j}: position names elements never challenged")
        previous = current
    if dict(history) != previous:
        problems.append("defender history differs from the final position")
    if not persistency.claim_check(history, frag):
        problems.append("claim_check failed: two used values admit dominating witnesses")
    if frag.height <= ORACLE_MAX_HEIGHT and not problems:
        problems += _oracle_replay(mods, oracles, frag, transcript, seed)
    return problems


def _oracle_replay(mods, oracles, frag, transcript, seed: int) -> list[str]:
    problems = []
    chosen: list = []
    for j, (xi, position) in enumerate(transcript.rounds):
        value = position.get(xi)
        if any(k == xi for k, _ in chosen):
            continue
        expected = None
        for xi_i, alpha_i in chosen:
            if oracles.oracle_preceq_at(frag, alpha_i, xi, xi_i):
                expected = alpha_i
                break
        if expected is None:
            floor = -1
            for xi_i, alpha_i in chosen:
                floor = max(floor, alpha_i, oracles.oracle_mu(frag, xi_i, xi))
            expected = floor + 1
        if value != expected:
            problems.append(f"round {j}: value {value} for {xi}, the strategy gives {expected}")
            return problems
        chosen.append((xi, value))
    final = transcript.final_position()
    grid = oracles.sample_grid(frag)
    if not oracles.oracle_in_family(frag, final, grid):
        problems.append("final position rejected by the membership definition oracle")
    keys = [k for k, _ in final.entries]
    rng = random.Random(seed)
    for _ in range(MU_SAMPLES if len(keys) > 1 else 0):
        x, y = rng.sample(keys, 2)
        if mods["morass"].mu(frag, x, y) != oracles.oracle_mu(frag, x, y):
            problems.append(f"mu({x}, {y}) disagrees with the family search")
    return problems


# ---------------------------------------------------------------------------
# back-and-forth


def check_ef_game(mods, a_struct, b_struct, transcript, player, config) -> list[str]:
    """A won game whose every round is a coherent family of singleton shifts.

    Each round keeps the constant pair, fixes every ordinal, and moves each
    touched layer by XOR with one singleton, whose catalog function is the
    restriction of the defender's simulated function.  Shifts of nested
    touched layers agree under ``project``.
    """
    structures = mods["structures"]
    problems = []
    if not transcript.won:
        problems.append(f"game lost at round {transcript.loss_at}: {transcript.reason}")
    if len(transcript.rounds) != config.rounds:
        problems.append(f"{len(transcript.rounds)} rounds played, {config.rounds} asked")
    f_sim = mods["persistency"].PFunc.from_pairs(player.sim.history)
    previous: dict = {}
    shifts: dict = {}
    for j, rnd in enumerate(transcript.rounds):
        psi = dict(rnd.response)
        where = f"round {j}"
        if len(psi) != len(rnd.response):
            problems.append(f"{where}: an element is mapped twice")
        if len(set(psi.values())) != len(psi):
            problems.append(f"{where}: the map is not injective")
        if any(psi.get(x) != y for x, y in previous.items()):
            problems.append(f"{where}: response does not extend the previous one")
        if any(x not in psi for x in rnd.challenge_a):
            problems.append(f"{where}: a challenge on the first structure is not covered")
        images = set(psi.values())
        if any(y not in images for y in rnd.challenge_b):
            problems.append(f"{where}: a challenge on the second structure is not covered")
        if psi.get(a_struct.constant) != b_struct.constant:
            problems.append(f"{where}: the constant pair is not kept")
        shifts = {}
        for x, y in psi.items():
            if isinstance(x, structures.OrdElement):
                if y != x:
                    problems.append(f"{where}: ordinal {x!r} is not fixed")
                continue
            if not isinstance(y, structures.SetElement) or y.u != x.u:
                problems.append(f"{where}: {x!r} leaves its layer")
                continue
            shifts.setdefault(x.u, set()).add(x.members ^ y.members)
        for u, diffs in shifts.items():
            if len(diffs) != 1 or len(next(iter(diffs))) != 1:
                problems.append(f"{where}: layer {u} is not moved by one singleton XOR")
                continue
            (idx,) = next(iter(diffs))
            layer = structures.enumerate_layer(a_struct, u)
            if layer.func_at(idx) != f_sim.restrict(u):
                problems.append(f"{where}: the shift on layer {u} is not the simulated function")
        previous = psi
        if problems:
            return problems
    singles = {u: next(iter(d)) for u, d in shifts.items()}
    for u, v in itertools.permutations(singles, 2):
        if set(u) < set(v):
            image = structures.project(a_struct, u, v, structures.SetElement(v, singles[v]))
            if image.members != singles[u]:
                problems.append(f"shifts on layers {u} and {v} disagree under project")
    return problems


# ---------------------------------------------------------------------------
# towers (JSON artifacts of the command line)

_OMEGA_MULTIPLE = re.compile(r"(?:w(?:\*(\d+))?|0)\Z")


def omega_multiple(text: str) -> int | None:
    """k for the rendering of w*k (``0``, ``w``, ``w*k``); None otherwise."""
    m = _OMEGA_MULTIPLE.match(text)
    if not m:
        return None
    if text == "0":
        return 0
    return int(m.group(1)) if m.group(1) else 1


def check_export(payload: dict) -> list[str]:
    """With level 0 = w and top = w*k: exactly k family maps tiling [0, top) in w-blocks."""
    frag = payload["condition"]["frag"]
    if not payload["report"]["valid"]:
        return ["export reports an invalid condition"]
    if not frag["levels"] or frag["levels"][0]["theta"] != "w":
        return ["export check needs level 0 = w"]
    k = omega_multiple(frag["top_theta"])
    if not k:
        return [f"export check needs top = w*k, got {frag['top_theta']}"]
    maps = payload["family_bottom_to_top"]
    problems = []
    if len(maps) != k:
        problems.append(f"family has {len(maps)} maps, top w*{k} needs {k}")
    blocks = []
    for m in maps:
        pieces = m["pieces"]
        if m["source"] != "w" or m["target"] != frag["top_theta"] or len(pieces) != 1:
            problems.append(f"family map {m} is not one w-block translation")
            continue
        lo, hi, img = pieces[0]
        start = omega_multiple(img)
        if (lo, hi) != ("0", "w") or start is None:
            problems.append(f"family map {m} does not send [0, w) onto an w-block")
            continue
        blocks.append(start)
    if sorted(blocks) != list(range(k)):
        problems.append("family images do not tile [0, top) in w-blocks")
    return problems


def check_layer(mods, frag, payload: dict, u: list, value_cap: int) -> list[str]:
    """The catalog is exactly the set of assignments on u that membership accepts."""
    persistency = mods["persistency"]
    parse = mods["ordinal"].parse_ordinal
    elements = sorted((parse(x) for x in u), key=lambda x: x.terms)
    accepted = set()
    for values in itertools.product(range(value_cap + 1), repeat=len(elements)):
        f = persistency.PFunc(tuple(zip(elements, values)))
        if persistency.in_family(frag, f):
            accepted.add(tuple(zip(map(str, elements), values)))
    catalog = [tuple((k, v) for k, v in entry["pairs"]) for entry in payload["catalog"]]
    problems = []
    if payload["size"] != len(catalog) or len(set(catalog)) != len(catalog):
        problems.append("catalog size or uniqueness is wrong")
    if set(catalog) != accepted:
        problems.append(
            f"catalog differs from brute force: {len(set(catalog) - accepted)} extra,"
            f" {len(accepted - set(catalog))} missing"
        )
    return problems


def check_persistency_trace(trace: dict, rounds: int) -> list[str]:
    """Positions extend round by round and cover every challenge."""
    problems = []
    if trace["outcome"] != "win":
        problems.append(f"persistency outcome {trace['outcome']}")
    if len(trace["rounds"]) != rounds:
        problems.append(f"{len(trace['rounds'])} persistency rounds, {rounds} asked")
    previous: dict = {}
    for j, rnd in enumerate(trace["rounds"]):
        current = {k: v for k, v in rnd["response"]["pairs"]}
        if rnd["challenge"] not in current:
            problems.append(f"persistency round {j}: challenge not covered")
        if any(current.get(k) != v for k, v in previous.items()):
            problems.append(f"persistency round {j}: position does not extend the previous one")
        previous = current
    return problems


def _key(element) -> str:
    return repr(sorted(element.items()))


def check_ef_trace(trace: dict, rounds: int) -> list[str]:
    """Maps extend round by round and cover both sides' challenges."""
    problems = []
    if trace["outcome"] != "win":
        problems.append(f"back-and-forth outcome {trace['outcome']}")
    if len(trace["rounds"]) != rounds:
        problems.append(f"{len(trace['rounds'])} back-and-forth rounds, {rounds} asked")
    previous: dict = {}
    for j, rnd in enumerate(trace["rounds"]):
        current = {_key(x): _key(y) for x, y in rnd["response"]}
        if len(current) != len(rnd["response"]):
            problems.append(f"back-and-forth round {j}: an element is mapped twice")
        if any(current.get(k) != v for k, v in previous.items()):
            problems.append(f"back-and-forth round {j}: map does not extend the previous one")
        if any(_key(x) not in current for x in rnd["challenge_a"]):
            problems.append(f"back-and-forth round {j}: first-side challenge not covered")
        images = set(current.values())
        if any(_key(y) not in images for y in rnd["challenge_b"]):
            problems.append(f"back-and-forth round {j}: second-side challenge not covered")
        previous = current
    return problems
