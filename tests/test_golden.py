"""Golden outputs: sha256 digests of what the command line writes.

Each case runs ``cli.main`` in a temporary directory on a condition built
from a fixed task list and pins the exit code, the stdout and every file
the command writes or changes.  A refactor that keeps the behaviour keeps
every digest; a digest that moves is a change in output bytes.  Digests
must not depend on hash order, so the file passes under any
``PYTHONHASHSEED``.

To print fresh digests after an intended output change::

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.print_digests()"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

import morasslab.cli as cli
from morasslab.efgame import EFConfig, ef_exists_strategy, play_ef, random_forall
from morasslab.forcing import build_fragment, condition_from_json, condition_to_json, seed_condition, tasks_from_json
from morasslab.morass import map_to_json
from morasslab.ordinal import parse_ordinal
from morasslab.structures import element_sort_key, make_ab

TASK_LISTS = {
    "short": [[1, "0"], [0, "w+1"]],
    "tall": [[5, "1"], [0, "w*2"], [4, "2"], [0, "w*3"], [3, "1"], [0, "w*4"]],
}

PERSISTENCY_SCRIPT = ["w*2+1", "w+3", "3", "w*2", "w+1", "0", "w*2+1", "1"]
EF_SCRIPT = [
    {"a": [{"layer": ["0", "1"], "members": []}]},
    {"b": [{"layer": ["0", "1", "w"], "members": []}], "a": [{"ord": "w+1"}, {"ord": "3"}]},
]

# case name -> argv; "cond.json" is the condition built from the task list
CASES = {
    "build": ["build", "tasks.json", "-o", "built.json"],
    "validate": ["validate", "cond.json", "--json", "report.json"],
    "export": ["export", "cond.json", "-o", "export.json"],
    "show-layer-0,1": ["show-layer", "--condition", "cond.json", "--u", "0,1", "-o", "layer.json"],
    "show-layer-0,3,w+1": [
        "show-layer", "--condition", "cond.json", "--u", "0,3,w+1", "--value-cap", "4", "-o", "layer.json",
    ],
    **{
        f"play-persistency-seed{seed}": [
            "play-persistency", "--condition", "cond.json", "--rounds", "30", "--seed", str(seed),
            "--trace", "trace.json",
        ]
        for seed in (0, 1)
    },
    "play-persistency-script": [
        "play-persistency", "--condition", "cond.json", "--adversary", "script",
        "--script", "persistency-script.json", "--rounds", "10", "--trace", "trace.json",
    ],
    **{
        f"play-ef-seed{seed}-{weights}": [
            "play-ef", "--condition", "cond.json", "--rounds", "5", "--move-cap", "3",
            "--seed", str(seed), "--weights", weights, "--trace", "trace.json",
        ]
        for seed in (0, 1)
        for weights in ("default", "constant-heavy")
    },
    "play-ef-script": [
        "play-ef", "--condition", "cond.json", "--adversary", "script", "--script", "ef-script.json",
        "--rounds", "3", "--move-cap", "3", "--trace", "trace.json",
    ],
}

DIGESTS = {
    "short/build": "2556d09dad5d375259ae513bc37256d0bcd45bdf5aaa80ff726bdf81186edfdf",
    "short/validate": "04e274341fe4c1823ab11fb88169d8e6bd358aedea88f81407af1a9cfe6cb74b",
    "short/export": "4b958916b94186c2d48e3d43cbd974c2e2cd64b4b265d7a86c10139e92925b11",
    "short/show-layer-0,1": "abe8c798c08c05932908f8ed2a8a3c0799680103fd9062dae79b73b1382d90e8",
    "short/show-layer-0,3,w+1": "eead9999ebf466da3486d87002196ef5cb82625da82aacff1c3dabd8b8691a1b",
    "short/play-persistency-seed0": "c7e581fbed6029d3052e048070e3dcb562c3b2892036e7e838776e52b933cd5d",
    "short/play-persistency-seed1": "dad5e474da20933f3899445c638479b4e9181f17f55d98be5bd4a6d3f1ba0d9f",
    "short/play-persistency-script": "845473330fd88e17d2146353234ef9a723c7c0dd335c92a2c7ad64c4997bd17d",
    "short/play-ef-seed0-default": "4cf3a578febcccb9d18c7e3e0fd3a037791d0e073e1f9987d45d003a9bc29bc0",
    "short/play-ef-seed0-constant-heavy": "a890f2bdb21a5cc55bba615b8aee7f1e7d52e808711e3ef89f63f2b7fa36809f",
    "short/play-ef-seed1-default": "8a706022d1f7734540fe03b06f2490499403d5f6cc720d15518add22f48ea2fe",
    "short/play-ef-seed1-constant-heavy": "dc2ba99cf0ea1efef17d73e0fbbcf48e9c41e3dfb454fec027bbbfd7c53e1f4d",
    "short/play-ef-script": "841b41ce5a80463ec506dec0d1aa118b0c4a6dd1231c3c9d32f7d66320fed1ca",
    "tall/build": "0f26b0bef0eaf973b350b4470eac475cb45d9ca694b2ed8864001a6a2835fe72",
    "tall/validate": "04e274341fe4c1823ab11fb88169d8e6bd358aedea88f81407af1a9cfe6cb74b",
    "tall/export": "6e675499d094976ff2b93bcf386e19941c238ca0be34235e8d07c821a8c95c9d",
    "tall/show-layer-0,1": "f6ec6c44e356acb99fe79b2d4196d37b5c6acc9da397027510dfd084f68579f1",
    "tall/show-layer-0,3,w+1": "eead9999ebf466da3486d87002196ef5cb82625da82aacff1c3dabd8b8691a1b",
    "tall/play-persistency-seed0": "5c2f6280f4fd363c6985f24d749c023d2c10ba5a05410cf557fe6cdcbdb60f87",
    "tall/play-persistency-seed1": "efa3903c01391a1316401f29bc3177cee2a733596c7ea92c34cf07acb46cd1da",
    "tall/play-persistency-script": "845473330fd88e17d2146353234ef9a723c7c0dd335c92a2c7ad64c4997bd17d",
    "tall/play-ef-seed0-default": "046700058a026b1cf55b35f6c186c505888db1bc168a9fdc492eb7f5242bed53",
    "tall/play-ef-seed0-constant-heavy": "3b4d9872916a8bad951601bd7920be0b7fc6d87ba8c387297a788fb0cc3b4849",
    "tall/play-ef-seed1-default": "f9140fdded80e8a019fd549b82f3e1af2cbd7e38b6521799d55c690c5a382e5d",
    "tall/play-ef-seed1-constant-heavy": "ba3a108be12f17292e4a76f538807fdfd15a620a4d1dbc721857267b9dccb385",
    "tall/play-ef-script": "7a1576ed3a2c009e1b0f898bbe710870d5ee5d7e06d7ba85e5f7ed66db67f344",
}


def prepare(directory: Path, tasks: list) -> None:
    """The input files every case reads."""
    inputs = {
        "tasks.json": tasks,
        "cond.json": condition_to_json(build_fragment(seed_condition(), tasks_from_json(tasks), 16)),
        "persistency-script.json": PERSISTENCY_SCRIPT,
        "ef-script.json": EF_SCRIPT,
    }
    for name, obj in inputs.items():
        (directory / name).write_text(json.dumps(obj), encoding="utf-8")


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def run_case(directory: Path, argv: list[str]) -> str:
    """Digest of the exit code, the stdout and the files written by one command."""
    before = _snapshot(directory)
    out = io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    written = {n: b.hex() for n, b in sorted(_snapshot(directory).items()) if before.get(n) != b}
    for name in written:
        (directory / name).unlink()
    blob = json.dumps({"exit": code, "stdout": out.getvalue(), "files": written}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    dirs = {}
    for name, tasks in TASK_LISTS.items():
        dirs[name] = tmp_path_factory.mktemp(name)
        prepare(dirs[name], tasks)
    return dirs


@pytest.mark.parametrize("tasks", sorted(TASK_LISTS))
@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_digest(inputs, tasks, case):
    assert run_case(inputs[tasks], CASES[case]) == DIGESTS[f"{tasks}/{case}"]


def _spell_out_families(directory: Path, keep=lambda m: True) -> None:
    """Write the successor families of cond.json into it, keeping the maps ``keep`` accepts."""
    path = directory / "cond.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    frag = condition_from_json(obj).frag
    obj["frag"]["successor_families"] = [
        [map_to_json(m) for m in frag.successor_family(alpha) if keep(m)] for alpha in range(frag.height)
    ]
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_spelled_out_canonical_families_change_no_output(tmp_path):
    prepare(tmp_path, TASK_LISTS["short"])
    _spell_out_families(tmp_path)
    for case, argv in CASES.items():
        assert run_case(tmp_path, argv) == DIGESTS[f"short/{case}"], case


def test_non_canonical_family_is_an_input_error(tmp_path, capsys):
    prepare(tmp_path, TASK_LISTS["short"])
    _spell_out_families(tmp_path, keep=lambda m: m.is_identity())
    commands = [argv for case, argv in CASES.items() if case != "build"]
    commands.append(["build", "tasks.json", "--seed-condition", "cond.json"])
    with contextlib.chdir(tmp_path):
        for argv in commands:
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "canonical successor family" in err and err.count("\n") == 1, err


class _PlantedDefender:
    """The defender, with its response at round ``at`` spoilt by ``plant``."""

    def __init__(self, a_struct, b_struct, at, plant):
        self.inner = ef_exists_strategy(a_struct, b_struct)
        self.at, self.plant = at, plant
        self.round = 0
        self.prev: dict = {}

    def respond(self, ca, cb):
        psi = self.inner.respond(ca, cb)
        if self.round == self.at:
            psi = self.plant(self.prev, psi)
        self.round += 1
        self.prev = dict(psi)
        return psi


def _new_keys(prev, psi):
    return sorted((x for x in psi if x not in prev), key=element_sort_key)


def _swap_images(prev, psi):
    new = _new_keys(prev, psi)
    if len(new) < 2:
        return psi
    x1, x2 = new[-2:]
    return {**psi, x1: psi[x2], x2: psi[x1]}


def _break_constant(constant):
    def plant(prev, psi):
        others = [x for x in _new_keys(prev, psi) if x != constant]
        if constant not in psi or constant in prev or not others:
            return psi
        x = others[0]
        return {**psi, constant: psi[x], x: psi[constant]}

    return plant


# (task list, planter, seed, round planted) -> (loss_at, reason)
PLANTED = {
    ('short', 'swap', 0, 0): (0, 'projection link broken on (Set[0,1][], Set[0,1,w*2 + 2][])'),
    ('short', 'constant', 0, 0): (0, 'constant not respected at Set[0,1][] -> Set[0,1][]'),
    ('short', 'swap', 1, 1): (None, None),
    ('short', 'constant', 1, 0): (0, 'constant not respected at Set[0,1][] -> Set[0,1][]'),
    ('short', 'swap', 2, 2): (2, 'projection link broken on (Set[0,1][26, 38, 43], Set[0,1,2][186, 268, 303])'),
    ('short', 'constant', 2, 0): (0, 'constant not respected at Set[0,1][] -> Set[0,1][]'),
    ('tall', 'swap', 0, 0): (0, 'projection link broken on (Set[0,1][], Set[0,1,w*4 + 4][])'),
    ('tall', 'constant', 0, 0): (0, 'constant not respected at Ord(w*2 + 2) -> Set[0,1][1]'),
    ('tall', 'swap', 1, 1): (1, 'projection link broken on (Set[0,1][4, 77], Set[0,1,w*4 + 2][44, 852])'),
    ('tall', 'constant', 1, 0): (0, 'constant not respected at Ord(w*4 + 2) -> Set[0,1][1]'),
    ('tall', 'swap', 2, 2): (2, 'projection link broken on (Set[0,1][20], Set[0,1,w*3][217])'),
    ('tall', 'constant', 2, 0): (0, 'constant not respected at Set[0,1][] -> Set[0,1][]'),
}


def planted_outcomes() -> dict:
    out = {}
    for name in sorted(TASK_LISTS):
        frag = build_fragment(seed_condition(), tasks_from_json(TASK_LISTS[name]), 16).frag
        for seed in range(3):
            a_struct, b_struct, _ = make_ab(frag, [parse_ordinal("0"), parse_ordinal("1")])
            planters = {"swap": _swap_images, "constant": _break_constant(a_struct.constant)}
            for kind, plant in planters.items():
                at = 0 if kind == "constant" else seed
                config = EFConfig(rounds=4, move_cap=3)
                adv = random_forall(a_struct, b_struct, config, seed)
                t = play_ef(a_struct, b_struct, adv, _PlantedDefender(a_struct, b_struct, at, plant), config)
                out[(name, kind, seed, at)] = (t.loss_at, t.reason)
    return out


def test_planted_defender_losses():
    assert planted_outcomes() == PLANTED


def print_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, tasks in sorted(TASK_LISTS.items()):
            directory = Path(tmp) / name
            directory.mkdir()
            prepare(directory, tasks)
            for case, argv in CASES.items():
                print(f'    "{name}/{case}": "{run_case(directory, argv)}",')
    for key, value in planted_outcomes().items():
        print(f"    {key!r}: {value!r},")
