"""The argument surface of the ``asphere`` parser, pinned.

The record walks ``build_parser()`` through every subparser in declaration
order and lists, for each argument, what a user can type and what the handler
receives.  ``--help`` text is not pinned: its wrapping follows the terminal
width and its layout the argparse version.
"""
import argparse
import hashlib
import json

from asphere.cli import build_parser

COMMANDS = [
    "word",
    "present validate",
    "present hat",
    "present solve",
    "present lot",
    "present cosets",
    "monoid validate",
    "monoid tensor",
    "monoid dominion",
    "monoid wdom",
    "peiffer boundary",
    "peiffer check",
    "peiffer search",
    "peiffer verify",
    "peiffer fiber",
    "peiffer scramble",
    "relmod gmap",
    "xmod check",
    "xmod project",
    "suite",
]

SURFACE_SHA256 = "9f6a82bf90bf6e39493ba66a3e996d1e5d5f9ccb190b8def8cf9410d3c7f8a34"


def _argument(action: argparse.Action) -> dict:
    return {
        "options": list(action.option_strings),
        "dest": action.dest,
        "nargs": action.nargs,
        "default": repr(action.default),
        "type": None if action.type is None else action.type.__name__,
        "choices": list(action.choices) if action.choices is not None else None,
        "required": action.required,
        "help": action.help,
        "action": type(action).__name__,
    }


def _walk(parser: argparse.ArgumentParser, path: tuple, rows: list) -> None:
    handler = parser.get_default("handler")
    rows.append({
        "command": " ".join(path),
        "handler": None if handler is None else handler.__name__,
        "arguments": [_argument(a) for a in parser._actions],
    })
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                _walk(child, path + (name,), rows)


def surface() -> list:
    rows: list = []
    _walk(build_parser(), (), rows)
    return rows


def test_every_command_path_in_order():
    commands = [row["command"] for row in surface() if row["handler"] is not None]
    assert commands == COMMANDS


def test_groups_have_no_handler():
    groups = [row["command"] for row in surface() if row["handler"] is None]
    assert groups == ["", "present", "monoid", "peiffer", "relmod", "xmod"]


def test_argument_surface_is_pinned():
    record = json.dumps(surface(), sort_keys=True).encode()
    assert hashlib.sha256(record).hexdigest() == SURFACE_SHA256
