"""Command-line entry point.

Subcommands: build, validate, play-persistency, play-ef, show-layer,
export.  All artifacts are JSON with ordinals rendered as strings; a
fixed seed makes random runs byte-for-byte reproducible.  Exit codes:
0 success, 1 game loss or validation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import efgame, forcing, persistency, structures
from .jsonshape import expect
from .ordinal import OrdinalParseError, parse_ordinal
from .structures import make_ab


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_condition(path: str | None) -> forcing.Condition:
    if path is None:
        return forcing.seed_condition()
    return forcing.condition_from_json(_read_json(path))


def cmd_build(args) -> int:
    tasks = forcing.tasks_from_json(_read_json(args.tasks))
    seed = _load_condition(args.seed_condition)
    try:
        built = forcing.build_fragment(seed, tasks, args.budget)
    except forcing.BudgetExhaustedError as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return 1
    report = forcing.validate_condition(built)
    if not report.ok:
        print("built condition failed validation:", file=sys.stderr)
        for v in report.violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    _write(args.output, _dumps(forcing.condition_to_json(built)))
    return 0


def cmd_validate(args) -> int:
    condition = _load_condition(args.condition)
    report = forcing.validate_condition(condition)
    if args.json:
        _write(args.json, _dumps(report.to_json()))
    if report.ok:
        print("ok")
        return 0
    for v in report.violations:
        print(f"violation: {v}")
    return 1


def cmd_play_persistency(args) -> int:
    condition = _load_condition(args.condition)
    frag, _ = forcing.fragment_of(condition)
    if args.adversary == "random":
        challenger = persistency.random_challenges(frag, args.seed)
    elif args.adversary == "script":
        script = expect(_read_json(args.script), list, "a challenge script", persistency.PersistencyError)
        moves = [parse_ordinal(s) for s in script]
        challenger = persistency.scripted_challenges(moves)
    else:
        challenger = _interactive_persistency_challenger(frag)
    defender = persistency.morass_strategy(frag)
    transcript = persistency.play_persistency(frag, challenger, defender, args.rounds)
    if args.trace:
        _write(args.trace, _dumps(transcript.to_json()))
    outcome = "win" if transcript.won else f"stuck-at:{transcript.stuck_at}"
    print(f"outcome={outcome} rounds={len(transcript.rounds)}")
    return 0 if transcript.won else 1


def _interactive_persistency_challenger(frag):
    def player(j: int, prior: tuple):
        while True:
            line = input(f"round {j} challenge (ordinal below {frag.top_theta}): ").strip()
            try:
                xi = parse_ordinal(line)
                frag.check_element(xi)
            except ValueError as exc:
                print(f"illegal input ({exc}); try again")
                continue
            if prior:
                print(f"  defender so far: {prior[-1][1].entries}")
            return xi

    return player


def cmd_play_ef(args) -> int:
    condition = _load_condition(args.condition)
    frag, _ = forcing.fragment_of(condition)
    base_u = [parse_ordinal(t) for t in args.base_u.split(",") if t.strip()]
    a_struct, b_struct, _f_star = make_ab(frag, base_u, args.value_cap)
    config = efgame.EFConfig(rounds=args.rounds, move_cap=args.move_cap)
    if args.adversary == "random":
        challenger = efgame.random_forall(
            a_struct, b_struct, config, args.seed, efgame.WEIGHT_PRESETS[args.weights]
        )
    elif args.adversary == "script":
        moves = efgame.script_from_json(a_struct, _read_json(args.script))
        challenger = efgame.scripted_forall(moves)
    else:
        challenger = efgame.interactive_forall(a_struct, b_struct, config)
    defender = efgame.ef_exists_strategy(a_struct, b_struct)
    transcript = efgame.play_ef(a_struct, b_struct, challenger, defender, config)
    if args.trace:
        _write(args.trace, _dumps(efgame.transcript_to_json(transcript, a_struct)))
    if args.adversary == "interactive" and transcript.rounds:
        last = transcript.rounds[-1]
        for x, y in last.response:
            print(f"  {x!r} -> {y!r}")
    outcome = "win" if transcript.won else f"loss-at:{transcript.loss_at}"
    print(f"outcome={outcome} rounds={len(transcript.rounds)}")
    if not transcript.won:
        print(f"reason: {transcript.reason}")
    return 0 if transcript.won else 1


def cmd_show_layer(args) -> int:
    condition = _load_condition(args.condition)
    frag, _ = forcing.fragment_of(condition)
    u = [parse_ordinal(t) for t in args.u.split(",") if t.strip()]
    cap = args.value_cap if args.value_cap is not None else frag.height + len(u) + 2
    struct = structures.CStructure(frag, cap, structures.SetElement(structures.normalize_u(u)))
    _write(args.output, _dumps(structures.layer_to_json(struct, u)))
    return 0


def cmd_export(args) -> int:
    condition = _load_condition(args.condition)
    report = forcing.validate_condition(condition)
    from .morass import family, map_to_json

    top_family = family(condition.frag, 0, condition.delta)
    payload = {
        "condition": forcing.condition_to_json(condition),
        "report": report.to_json(),
        "embedding": forcing.embedding_to_json(condition.embedding()),
        "family_bottom_to_top": [map_to_json(m) for m in top_family],
    }
    _write(args.output, _dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morasslab",
        description="build and validate morass fragments; play the persistency and back-and-forth games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="extend a seed condition to cover a task list")
    p.add_argument("tasks", help="JSON file: list of [block, ordinal-string] targets")
    p.add_argument("--seed-condition", help="condition JSON to start from (default: minimal seed)")
    p.add_argument("--budget", type=int, default=16, help="extension steps allowed per task")
    p.add_argument("-o", "--output", help="output condition file (default stdout)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="validate a condition file")
    p.add_argument("condition")
    p.add_argument("--json", help="also write a JSON report here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("play-persistency", help="run the persistency game")
    p.add_argument("--condition", help="condition file providing the fragment")
    p.add_argument("--rounds", type=int, default=16)
    p.add_argument("--adversary", choices=["random", "script", "interactive"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--script", help="JSON list of ordinal strings (adversary=script)")
    p.add_argument("--trace", help="write the transcript JSON here")
    p.set_defaults(func=cmd_play_persistency)

    p = sub.add_parser("play-ef", help="run the back-and-forth game on the constant expansions")
    p.add_argument("--condition", help="condition file providing the fragment")
    p.add_argument("--base-u", default="0,1", help="comma-separated base domain, e.g. 0,1")
    p.add_argument("--value-cap", type=int, help="value cap for layer catalogs")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--move-cap", type=int, default=4)
    p.add_argument("--adversary", choices=["random", "script", "interactive"], default="random")
    p.add_argument("--weights", choices=sorted(efgame.WEIGHT_PRESETS), default="default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--script", help="JSON rounds [{'a': [...], 'b': [...]}] (adversary=script)")
    p.add_argument("--trace", help="write the transcript JSON here")
    p.set_defaults(func=cmd_play_ef)

    p = sub.add_parser("show-layer", help="dump a layer catalog")
    p.add_argument("--condition", help="condition file providing the fragment")
    p.add_argument("--u", required=True, help="comma-separated layer domain, e.g. 3,w+3")
    p.add_argument("--value-cap", type=int)
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_show_layer)

    p = sub.add_parser("export", help="re-emit a condition with its report, embedding and family")
    p.add_argument("condition")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OrdinalParseError, json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
