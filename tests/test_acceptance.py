"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and count is pinned here; the random workloads are
seeded, so the suite is reproducible.
"""

import random
import time

import pytest

from morasslab.efgame import (
    EFConfig,
    WEIGHT_PRESETS,
    ef_exists_strategy,
    play_ef,
    random_forall,
)
from morasslab.forcing import (
    BlockMap,
    Condition,
    amalgamate,
    build_fragment,
    leq,
    seed_condition,
    validate_condition,
)
from morasslab.morass import mu, preceq, preceq_at
from morasslab.ordinal import (
    OrdinalCNF,
    add,
    compare,
    left_subtract,
    omega_times,
    random_ordinal_below,
)
from morasslab.persistency import (
    PFunc,
    claim_check,
    in_family,
    morass_strategy,
    play_persistency,
    random_challenges,
)
from morasslab.structures import (
    OrdElement,
    SetElement,
    check_partial_iso,
    classify_partial_iso,
    enumerate_layer,
    make_ab,
    normalize_u,
    project,
)
from oracles import (
    all_challenge_sequences,
    ef_game_solver,
    oracle_add,
    oracle_compare,
    oracle_in_family,
    oracle_left_subtract,
    oracle_mu,
    persistency_game_solver,
    predecessor_witness_vector,
    sample_grid,
)

from conftest import o


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, name


@pytest.fixture(scope="module")
def driver_pool():
    """The 100 driver-built conditions of criterion 1, with their build time."""
    rng = random.Random(0xC0FFEE)
    conditions = []
    start = time.monotonic()
    for _ in range(100):
        tasks = [
            (rng.randrange(8), omega_times(rng.randrange(4), rng.randrange(12)))
            for _ in range(rng.randint(1, 5))
        ]
        conditions.append(build_fragment(seed_condition(), tasks, 16))
    elapsed = time.monotonic() - start
    return conditions, elapsed


def test_criterion_1_fragment_soundness(driver_pool):
    conditions, build_time = driver_pool
    start = time.monotonic()
    failures = [c for c in conditions if not validate_condition(c).ok]
    elapsed = build_time + (time.monotonic() - start)
    ok = not failures and len(conditions) == 100 and elapsed < 60.0
    report(
        "criterion 1: fragment soundness",
        ok,
        f"100 conditions, {elapsed:.2f}s, {len(failures)} failures",
    )


def test_criterion_2_predecessor_uniqueness_and_order_laws(driver_pool):
    conditions, _ = driver_pool
    rng = random.Random(2)
    bad_unique = bad_order = 0
    triples_checked = 0
    for cond in conditions:
        frag = cond.frag
        sample = [random_ordinal_below(frag.top_theta, rng) for _ in range(500)]
        for xi in sample:
            witnesses = predecessor_witness_vector(frag, xi)
            if any(len(w) != 1 for w in witnesses):
                bad_unique += 1
        for xi in sample[:40]:
            if not preceq(frag, xi, xi):
                bad_order += 1
        for _ in range(10):
            x, y, z = (random_ordinal_below(frag.top_theta, rng) for _ in range(3))
            triples_checked += 1
            if preceq(frag, x, y) and preceq(frag, y, z) and not preceq(frag, x, z):
                bad_order += 1
            if preceq(frag, x, y) and not x <= y:
                bad_order += 1
    ok = bad_unique == 0 and bad_order == 0 and triples_checked == 1000
    report(
        "criterion 2: predecessor uniqueness and order laws",
        ok,
        f"{triples_checked} triples, {bad_unique + bad_order} counterexamples",
    )


def _delta_system_variant(cond: Condition, rng: random.Random) -> Condition:
    """An isomorphic condition overlapping `cond` in an initial block prefix."""
    blocks = cond.blocks.blocks
    keep = rng.randrange(len(blocks))
    top = blocks[-1][0]
    relocated = tuple(
        (top + 1 + i, rho) for i, (_, rho) in enumerate(blocks[keep:])
    )
    return Condition(cond.frag, BlockMap(blocks[:keep] + relocated))


def test_criterion_3_amalgamation_contract(driver_pool):
    conditions, _ = driver_pool
    rng = random.Random(3)
    failures = 0
    for k in range(100):
        p = conditions[k % len(conditions)]
        q = _delta_system_variant(p, rng)
        r = amalgamate(p, q)
        ok = (
            r.delta == p.delta + 1
            and validate_condition(r).ok
            and leq(r, p)
            and leq(r, q)
        )
        emb_r, emb_p, emb_q = r.embedding(), p.embedding(), q.embedding()
        if ok:
            for t in sample_grid(p.frag, per_block=8):
                x = emb_r.index_of(*emb_p.pair_at(t))
                y = emb_r.index_of(*emb_q.pair_at(t))
                if not preceq_at(r.frag, p.delta, x, y):
                    ok = False
                    break
        failures += not ok
    report("criterion 3: amalgamation contract", failures == 0, f"{failures} failures")


def test_criterion_4_strategic_persistency(driver_pool):
    conditions, _ = driver_pool
    rng = random.Random(4)
    failures = 0
    games = 0
    for cond in conditions:
        frag = cond.frag
        for _ in range(10):
            games += 1
            rounds = rng.randint(1, 64)
            player = morass_strategy(frag)
            transcript = play_persistency(
                frag, random_challenges(frag, rng.randrange(10**9)), player, rounds
            )
            # the referee already enforced membership of every position
            if not transcript.won or not claim_check(player.history, frag):
                failures += 1
    report(
        "criterion 4: strategic persistency",
        failures == 0 and games == 1000,
        f"{games} games, {failures} failures",
    )


def test_criterion_5_ef_strategy_soundness(driver_pool):
    conditions, _ = driver_pool
    rng = random.Random(5)
    failures = 0
    games = 0
    for cond in conditions[:10]:
        a_struct, b_struct, _ = make_ab(cond.frag, [o("0"), o("1")])
        for g in range(20):
            games += 1
            config = EFConfig(rounds=rng.randint(1, 16), move_cap=rng.randint(1, 8))
            preset = "default" if g % 2 == 0 else "constant-heavy"
            adversary = random_forall(
                a_struct,
                b_struct,
                config,
                seed=rng.randrange(10**9),
                weights=WEIGHT_PRESETS[preset],
            )
            transcript = play_ef(
                a_struct, b_struct, adversary, ef_exists_strategy(a_struct, b_struct), config
            )
            if not transcript.won:
                failures += 1
                continue
            for rnd in transcript.rounds:
                psi = dict(rnd.response)
                if psi.get(a_struct.constant) != b_struct.constant:
                    failures += 1
                    break
                cls = classify_partial_iso(psi, a_struct, b_struct)
                if not (
                    cls.identity_on_ord
                    and cls.is_shift_family
                    and cls.coherent
                    and cls.n_psi == 1
                ):
                    failures += 1
                    break
    report(
        "criterion 5: back-and-forth strategy soundness",
        failures == 0 and games == 200,
        f"{games} games, {failures} failures",
    )


def test_criterion_6a_membership_oracle(frag0):
    grid = sample_grid(frag0, per_block=12)
    elements = [o("1"), o("3"), o("w+1"), o("w+3")]
    values = [None, 0, 1, 2, 3]
    mismatches = 0
    total = 0
    for assignment in (
        (v0, v1, v2, v3)
        for v0 in values
        for v1 in values
        for v2 in values
        for v3 in values
    ):
        pairs = [(x, v) for x, v in zip(elements, assignment) if v is not None]
        f = PFunc.from_pairs(pairs)
        total += 1
        if in_family(frag0, f) != oracle_in_family(frag0, f, grid):
            mismatches += 1
    report(
        "criterion 6a: membership agrees with the definition oracle",
        mismatches == 0 and total == 625,
        f"{total} functions",
    )


def test_criterion_6b_mu_matches_family_search(driver_pool):
    conditions, _ = driver_pool
    rng = random.Random(6)
    small = [c.frag for c in conditions if c.frag.height <= 4][:6]
    mismatches = 0
    for frag in small:
        for _ in range(30):
            x = random_ordinal_below(frag.top_theta, rng)
            y = random_ordinal_below(frag.top_theta, rng)
            if mu(frag, x, y) != oracle_mu(frag, x, y):
                mismatches += 1
    report(
        "criterion 6b: cover level agrees with exhaustive family search",
        bool(small) and mismatches == 0,
        f"{len(small)} fragments",
    )


def test_criterion_6c_strategies_stay_in_winning_regions(frag0):
    rounds = 3
    # persistency: pool of 6 universe elements, all challenge sequences
    pool = tuple(o(s) for s in ("0", "1", "3", "w", "w+1", "w+3"))
    value_cap = frag0.height + len(pool) + 1
    win = persistency_game_solver(frag0, pool, rounds, value_cap)
    ok = win((), 0)
    if ok:
        for seq in all_challenge_sequences(pool, rounds):
            player = morass_strategy(frag0)
            for r, xi in enumerate(seq):
                position = player.respond(xi)
                if not win(position.entries, r + 1):
                    ok = False
                    break
            if not ok:
                break
    # back-and-forth: 6-element pool closed under the round shifts
    a_struct, b_struct, f_star = make_ab(frag0, [o("0"), o("1")])
    base = a_struct.constant.u
    layer = enumerate_layer(a_struct, base)
    star = layer.index_of(f_star)
    other = next(i for i in range(len(layer)) if i != star)
    ef_pool = (
        a_struct.constant,
        b_struct.constant,
        SetElement(base, frozenset({other})),
        SetElement(base, frozenset({other, star})),
        OrdElement(o("0")),
        OrdElement(o("1")),
    )
    ef_win, freeze = ef_game_solver(a_struct, b_struct, ef_pool, rounds)
    ok = ok and ef_win((), 0)
    if ok:
        moves = [(e, side) for e in ef_pool for side in "ab"]
        for seq in all_challenge_sequences(moves, rounds):
            player = ef_exists_strategy(a_struct, b_struct)
            for r, (elem, side) in enumerate(seq):
                ca, cb = ((elem,), ()) if side == "a" else ((), (elem,))
                psi = player.respond(ca, cb)
                if not ef_win(freeze(psi), r + 1):
                    ok = False
                    break
            if not ok:
                break
    report("criterion 6c: strategies stay inside the winning regions", ok)


def test_criterion_7_cancellation_and_homomorphism(frag0):
    struct, _, _ = make_ab(frag0, [o("0"), o("1")], value_cap=2)
    u = normalize_u([o("3")])
    v = normalize_u([o("3"), o("w+3")])
    w = normalize_u([o("1"), o("3"), o("w+3")])
    layer_v = enumerate_layer(struct, v)
    f1, f2 = layer_v.func_at(1), layer_v.func_at(2)
    ok = (
        f1 != f2
        and f1.restrict(u) == f2.restrict(u)
        and project(struct, u, v, SetElement(v, frozenset({1, 2}))) == SetElement(u)
    )
    rng = random.Random(7)
    size_v = len(layer_v)
    for _ in range(500):
        b1 = SetElement(v, frozenset(rng.sample(range(size_v), rng.randint(0, 3))))
        b2 = SetElement(v, frozenset(rng.sample(range(size_v), rng.randint(0, 3))))
        lhs = project(struct, u, v, SetElement(v, b1.members ^ b2.members)).members
        rhs = project(struct, u, v, b1).members ^ project(struct, u, v, b2).members
        if lhs != rhs:
            ok = False
            break
    size_w = len(enumerate_layer(struct, w))
    for _ in range(100):
        b = SetElement(w, frozenset(rng.sample(range(size_w), rng.randint(0, 3))))
        via = project(struct, u, v, project(struct, v, w, b))
        if via != project(struct, u, w, b):
            ok = False
            break
    report("criterion 7: cancellation and homomorphism laws", ok)


def test_criterion_8_ordinal_arithmetic_oracle():
    sample = [omega_times(j, i) for j in range(8) for i in range(25)]
    assert len(sample) == 200
    mismatches = 0
    for a in sample:
        for b in sample:
            if compare(a, b) != oracle_compare(a, b):
                mismatches += 1
            if add(a, b) != oracle_add(a, b):
                mismatches += 1
            if a <= b:
                hits = oracle_left_subtract(a, b, k_max=9, m_max=51)
                if hits != [left_subtract(a, b)]:
                    mismatches += 1
    report(
        "criterion 8: ordinal arithmetic against the order-type oracle",
        mismatches == 0,
        "200-ordinal sample, all pairs",
    )
