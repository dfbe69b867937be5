"""The command-line contract: every subcommand's help and defaults and every
option's argparse settings match the snapshot in `cli_contract.json`.

Rendered `--help` text is not compared, since argparse lays it out
differently across Python versions and terminal widths.  To record the
snapshot again after an intended change to the CLI, run
`PYTHONPATH=src python tests/test_cli_contract.py > tests/cli_contract.json`.
"""

import argparse
import json
import sys
from pathlib import Path

from gradedmt.cli import build_parser

SNAPSHOT = Path(__file__).with_name("cli_contract.json")


def _name(value):
    return None if value is None else getattr(value, "__name__", repr(value))


def _option(action: argparse.Action) -> dict:
    return {
        "flags": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "const": action.const,
        "nargs": action.nargs,
        "type": _name(action.type),
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "help": action.help,
        "metavar": action.metavar,
        "action": type(action).__name__,
    }


def contract(parser: argparse.ArgumentParser) -> dict:
    """The parser's subcommands and options as plain JSON data, in `--help` order."""
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {
        "prog": parser.prog,
        "description": parser.description,
        "command_dest": sub.dest,
        "command_required": sub.required,
        "commands": [
            {
                "name": name,
                "help": helps[name],
                "defaults": {key: _name(value) if callable(value) else value
                             for key, value in sorted(command._defaults.items())},
                "options": [_option(action) for action in command._actions],
            }
            for name, command in sub.choices.items()
        ],
    }


def test_cli_matches_the_recorded_contract():
    assert contract(build_parser()) == json.loads(SNAPSHOT.read_text())


if __name__ == "__main__":
    sys.stdout.write(json.dumps(contract(build_parser()), indent=1) + "\n")
