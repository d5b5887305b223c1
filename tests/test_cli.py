import json

import pytest

import morasslab.cli as cli
from morasslab.forcing import condition_from_json, condition_to_json, seed_condition, validate_condition

from conftest import o


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_build_and_validate(tmp_path, capsys):
    tasks = tmp_path / "tasks.json"
    out = tmp_path / "cond.json"
    write_json(tasks, [[1, "0"], [2, "0"]])
    assert cli.main(["build", str(tasks), "-o", str(out)]) == 0
    cond = condition_from_json(read_json(out))
    assert len(cond.blocks.blocks) == 3
    assert validate_condition(cond).ok
    assert cli.main(["validate", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("ok")


def test_build_empty_tasks_echoes_seed(tmp_path):
    tasks = tmp_path / "tasks.json"
    out = tmp_path / "cond.json"
    write_json(tasks, [])
    assert cli.main(["build", str(tasks), "-o", str(out)]) == 0
    assert condition_from_json(read_json(out)) == seed_condition()


def test_build_malformed_ordinal_is_input_error(tmp_path, capsys):
    tasks = tmp_path / "tasks.json"
    write_json(tasks, [[0, "wobble"]])
    assert cli.main(["build", str(tasks)]) == 2
    assert "input error" in capsys.readouterr().err


def test_build_budget_exhaustion_fails(tmp_path, capsys):
    tasks = tmp_path / "tasks.json"
    write_json(tasks, [[0, "w^2"]])
    assert cli.main(["build", str(tasks), "--budget", "4"]) == 1
    assert "build failed" in capsys.readouterr().err


def test_build_unreachable_target_fails_before_any_step(tmp_path, capsys):
    # w^2 lies above every top that doublings and amalgamations of w can reach
    tasks = tmp_path / "tasks.json"
    write_json(tasks, [[0, "w^2"]])
    assert cli.main(["build", str(tasks), "--budget", "256"]) == 1
    err = capsys.readouterr().err
    assert "build failed" in err and "leading exponent 2 is above 1" in err, err


def test_validate_corrupted_condition(tmp_path, capsys):
    out = tmp_path / "cond.json"
    obj = condition_to_json(seed_condition())
    obj["blocks"] = {"0": "w+1"}
    write_json(out, obj)
    report = tmp_path / "report.json"
    assert cli.main(["validate", str(out), "--json", str(report)]) == 1
    assert "violation" in capsys.readouterr().out
    assert read_json(report)["valid"] is False


def test_play_persistency_random_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    rc = cli.main(
        ["play-persistency", "--rounds", "24", "--seed", "5", "--trace", str(trace)]
    )
    assert rc == 0
    assert "outcome=win rounds=24" in capsys.readouterr().out
    assert read_json(trace)["outcome"] == "win"


def test_play_persistency_scripted(tmp_path, capsys):
    tasks = tmp_path / "tasks.json"
    cond = tmp_path / "cond.json"
    script = tmp_path / "script.json"
    trace = tmp_path / "trace.json"
    write_json(tasks, [[1, "0"]])
    assert cli.main(["build", str(tasks), "-o", str(cond)]) == 0
    write_json(script, ["w+3", "3"])
    rc = cli.main(
        [
            "play-persistency",
            "--condition",
            str(cond),
            "--adversary",
            "script",
            "--script",
            str(script),
            "--rounds",
            "2",
            "--trace",
            str(trace),
        ]
    )
    assert rc == 0
    rounds = read_json(trace)["rounds"]
    assert rounds[1]["response"]["pairs"] == [["3", 0], ["w + 3", 0]]


def test_play_ef_scripted_first_move(tmp_path, capsys):
    script = tmp_path / "script.json"
    trace = tmp_path / "trace.json"
    write_json(script, [{"a": [{"layer": ["0", "1"], "members": []}]}])
    rc = cli.main(
        [
            "play-ef",
            "--adversary",
            "script",
            "--script",
            str(script),
            "--rounds",
            "1",
            "--trace",
            str(trace),
        ]
    )
    assert rc == 0
    data = read_json(trace)
    assert data["outcome"] == "win"
    pairs = data["rounds"][0]["response"]
    empty_to_star = [p for p in pairs if p[0] == {"layer": ["0", "1"], "members": []}]
    assert len(empty_to_star) == 1
    assert len(empty_to_star[0][1]["members"]) == 1


@pytest.mark.parametrize(
    "tasks, challenge, message",
    [
        # the w*2 universe of a built condition has no w*5
        ([[1, "0"]], {"ord": "w*5"}, "Ord(w*5) outside the ordinal part"),
        # the 25-entry layer over 0,1 of the seed condition has no index 31
        (None, {"layer": ["0", "1"], "members": ["11111"]}, "Set[0,1][31] has members outside the layer catalog"),
    ],
)
def test_play_ef_challenge_outside_structures_is_input_error(tmp_path, capsys, tasks, challenge, message):
    script = tmp_path / "script.json"
    write_json(script, [{"a": [challenge]}])
    args = ["play-ef", "--adversary", "script", "--script", str(script)]
    if tasks is not None:
        cond = tmp_path / "cond.json"
        write_json(tmp_path / "tasks.json", tasks)
        assert cli.main(["build", str(tmp_path / "tasks.json"), "-o", str(cond)]) == 0
        args += ["--condition", str(cond)]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "outcome" not in captured.out
    assert captured.err == f"error: illegal challenge at round 0: {message}\n"


def test_play_ef_random_deterministic(tmp_path):
    t1 = tmp_path / "a.json"
    t2 = tmp_path / "b.json"
    args = ["play-ef", "--rounds", "4", "--move-cap", "3", "--seed", "11"]
    assert cli.main(args + ["--trace", str(t1)]) == 0
    assert cli.main(args + ["--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_show_layer(tmp_path):
    tasks = tmp_path / "tasks.json"
    cond = tmp_path / "cond.json"
    out = tmp_path / "layer.json"
    write_json(tasks, [[1, "0"]])
    assert cli.main(["build", str(tasks), "-o", str(cond)]) == 0
    rc = cli.main(
        ["show-layer", "--condition", str(cond), "--u", "3,w+3", "--value-cap", "2", "-o", str(out)]
    )
    assert rc == 0
    data = read_json(out)
    assert data["size"] == 7 and data["bits"] == 3


def test_export_round_trips(tmp_path):
    tasks = tmp_path / "tasks.json"
    cond = tmp_path / "cond.json"
    out = tmp_path / "export.json"
    write_json(tasks, [[1, "0"]])
    assert cli.main(["build", str(tasks), "-o", str(cond)]) == 0
    assert cli.main(["export", str(cond), "-o", str(out)]) == 0
    data = read_json(out)
    assert data["report"]["valid"] is True
    assert condition_from_json(data["condition"]) == condition_from_json(read_json(cond))


def test_missing_file_is_input_error(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "command, content",
    [
        (["build"], 5),
        (["build"], [5]),
        (["build"], [[0, 5]]),
        (["build"], [["0", "w"]]),
        (["validate"], {"frag": 3, "blocks": {}}),
        (["validate"], []),
        (["validate"], {"frag": {"height": 0, "levels": [], "top_theta": "w"}, "blocks": []}),
        (["validate"], {"frag": {"height": 1, "levels": ["w"], "top_theta": "w"}, "blocks": {}}),
        (["play-persistency", "--adversary", "script", "--script"], 5),
        (["play-ef", "--adversary", "script", "--script"], [5]),
        (["play-ef", "--adversary", "script", "--script"], [{"a": 3}]),
        (["play-ef", "--adversary", "script", "--script"], [{"a": [{"layer": "0", "members": [1]}]}]),
    ],
)
def test_malformed_json_shapes_are_input_errors(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    write_json(path, content)
    assert cli.main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON" in err and err.count("\n") == 1, err


def test_interactive_persistency(monkeypatch, capsys):
    answers = iter(["bogus", "3", "5"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    rc = cli.main(["play-persistency", "--adversary", "interactive", "--rounds", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "illegal input" in out and "outcome=win" in out
