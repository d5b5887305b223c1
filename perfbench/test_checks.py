"""The benchmark's checkers accept real outputs and reject planted wrong ones.

Run from the root of a checkout:

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench/test_checks.py)
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MODS = {name: importlib.import_module(f"morasslab.{name}") for name in
        ("ordinal", "morass", "forcing", "persistency", "structures", "efgame", "cli")}
MODS["oracles"] = importlib.import_module("oracles")
checks.memoize_oracles(MODS["oracles"])


def _persistency_game(height: int, rounds: int, seed: int):
    persistency = MODS["persistency"]
    frag = workloads.grown_condition(MODS, random.Random(seed), height).frag
    player = persistency.morass_strategy(frag)
    challenger = persistency.random_challenges(frag, seed)
    return frag, persistency.play_persistency(frag, challenger, player, rounds), player.history


class PersistencyCheck(unittest.TestCase):
    def setUp(self):
        # a game whose last challenge is new, on a fragment the oracles can handle
        for seed in range(100):
            frag, transcript, history = _persistency_game(3, 12, seed)
            keys = [xi for xi, _ in transcript.rounds]
            if keys[-1] not in keys[:-1]:
                break
        self.frag, self.transcript, self.history = frag, transcript, history

    def check(self, transcript, history):
        return checks.check_persistency_game(
            MODS, MODS["oracles"], self.frag, transcript, history, 12, seed=0
        )

    def test_real_game_passes(self):
        self.assertEqual(self.check(self.transcript, self.history), [])

    def test_final_value_changed_is_rejected(self):
        persistency = MODS["persistency"]
        xi, position = self.transcript.rounds[-1]
        changed = dict(position.entries)
        changed[xi] += 1
        rounds = self.transcript.rounds[:-1] + ((xi, persistency.PFunc.from_pairs(changed.items())),)
        history = [(k, v + 1 if k == xi else v) for k, v in self.history]
        planted = persistency.PersistencyTranscript(rounds)
        self.assertNotEqual(self.check(planted, history), [])

    def test_earlier_value_changed_is_rejected(self):
        persistency = MODS["persistency"]
        xi, position = self.transcript.rounds[5]
        key, value = position.entries[0]
        changed = dict(position.entries)
        changed[key] = value + 1
        rounds = list(self.transcript.rounds)
        rounds[5] = (xi, persistency.PFunc.from_pairs(changed.items()))
        planted = persistency.PersistencyTranscript(tuple(rounds))
        self.assertNotEqual(self.check(planted, self.history), [])


class EFCheck(unittest.TestCase):
    def setUp(self):
        efgame, structures, ordinal = MODS["efgame"], MODS["structures"], MODS["ordinal"]
        frag = workloads.grown_condition(MODS, random.Random(5), 2).frag
        self.a, self.b, _ = structures.make_ab(frag, [ordinal.ZERO, ordinal.ONE])
        self.config = efgame.EFConfig(rounds=4, move_cap=3)
        challenger = efgame.random_forall(self.a, self.b, self.config, 7)
        self.player = efgame.ef_exists_strategy(self.a, self.b)
        self.transcript = efgame.play_ef(self.a, self.b, challenger, self.player, self.config)

    def check(self, transcript):
        return checks.check_ef_game(MODS, self.a, self.b, transcript, self.player, self.config)

    def test_real_game_passes(self):
        self.assertEqual(self.check(self.transcript), [])

    def test_swapped_images_are_rejected(self):
        efgame = MODS["efgame"]
        rounds = list(self.transcript.rounds)
        last = rounds[-1]
        pairs = list(last.response)
        i, j = next(
            (i, j) for i in range(len(pairs)) for j in range(i + 1, len(pairs)) if pairs[i][1] != pairs[j][1]
        )
        pairs[i], pairs[j] = (pairs[i][0], pairs[j][1]), (pairs[j][0], pairs[i][1])
        rounds[-1] = efgame.EFRound(last.challenge_a, last.challenge_b, tuple(pairs))
        self.assertNotEqual(self.check(efgame.EFTranscript(tuple(rounds))), [])


class TowerChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = HERE / "out" / f"test-checks-{os.getpid()}"
        cls.dir.mkdir(parents=True)
        rng = random.Random(3)
        tasks = workloads.tower_tasks(rng, 4)
        (cls.dir / "tasks.json").write_text(json.dumps(tasks))
        cls.params = {"u": ["0", "2", "w + 1"], "pp_seed": 1, "ef_seed": 2, "weights": "default"}
        for name, argv in workloads._tower_commands(str(cls.dir), cls.params):
            code, _, err = workloads.run_command(MODS, argv)
            assert code == 0, (name, err)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def load(self, name):
        return json.loads((self.dir / name).read_text())

    def layer_check(self, payload):
        frag = MODS["forcing"].condition_from_json(self.load("condition.json")).frag
        return checks.check_layer(MODS, frag, payload, self.params["u"], workloads.TOWER_LAYER_CAP)

    def test_real_outputs_pass(self):
        self.assertEqual(workloads.check_tower_outputs(MODS, str(self.dir), self.params), [])

    def test_export_missing_a_map_is_rejected(self):
        payload = self.load("export.json")
        self.assertEqual(checks.check_export(payload), [])
        del payload["family_bottom_to_top"][len(payload["family_bottom_to_top"]) // 2]
        self.assertNotEqual(checks.check_export(payload), [])

    def test_catalog_missing_an_entry_is_rejected(self):
        payload = self.load("layer.json")
        self.assertEqual(self.layer_check(payload), [])
        del payload["catalog"][len(payload["catalog"]) // 2]
        payload["size"] -= 1
        self.assertNotEqual(self.layer_check(payload), [])


class ChecksApart(unittest.TestCase):
    """Checks run in a forked child; what they find must come back."""

    def test_problems_come_back(self):
        self.assertEqual(run.apart(lambda: run.run_check(lambda outputs: [f"bad {outputs}"], 3)), ["bad 3"])

    def test_a_raising_check_fails(self):
        (found,) = run.apart(lambda: run.run_check(lambda outputs: 1 / 0, None))
        self.assertIn("ZeroDivisionError", found)

    def test_a_dying_child_is_reported(self):
        with self.assertRaises(RuntimeError):
            run.apart(lambda: os._exit(3))


if __name__ == "__main__":
    unittest.main()
