"""Flag parity across the execution-sharing CLI commands.

``sweep run``, ``whatif run``, ``serve``, and ``dist worker`` all build
on :func:`repro.cli._execution_parent`, so the operator learns one set
of execution flags once.  These tests pin that contract: the five shared
flags exist on every command, with identical option strings, and
``--execution`` stays on ``serve`` alone — the cell-running commands
pre-warm their shard pool from ``--jobs``.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _build_parser

#: The unified execution surface every run-shaped command must expose.
SHARED_FLAGS = {
    "--jobs",
    "--trace",
    "--metrics",
    "--no-cache",
    "--cache-dir",
}

#: (top-level command, nested action) pairs sharing ``_execution_parent``.
UNIFIED_COMMANDS = [
    ("sweep", "run"),
    ("whatif", "run"),
    ("serve", None),
    ("dist", "worker"),
]

#: The commands that still choose where work executes.
EXECUTION_COMMANDS = [("serve", None)]


def _subparser(
    parser: argparse.ArgumentParser, name: str
) -> argparse.ArgumentParser:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            if name in action.choices:
                return action.choices[name]
    raise AssertionError(f"no subcommand {name!r} under {parser.prog}")


def _command_parser(command: str, action: str | None) -> argparse.ArgumentParser:
    parser = _subparser(_build_parser(), command)
    if action is not None:
        parser = _subparser(parser, action)
    return parser


@pytest.mark.parametrize("command,action", UNIFIED_COMMANDS)
def test_unified_commands_expose_shared_flags(command, action):
    parser = _command_parser(command, action)
    missing = SHARED_FLAGS - set(parser._option_string_actions)
    label = command if action is None else f"{command} {action}"
    assert not missing, f"{label} is missing unified flags: {sorted(missing)}"


@pytest.mark.parametrize("command,action", UNIFIED_COMMANDS)
def test_shared_flags_bind_canonical_destinations(command, action):
    parser = _command_parser(command, action)
    dests = {
        flag: parser._option_string_actions[flag].dest for flag in SHARED_FLAGS
    }
    assert dests == {
        "--jobs": "jobs",
        "--trace": "trace",
        "--metrics": "metrics",
        "--no-cache": "no_cache",
        "--cache-dir": "cache_dir",
    }


@pytest.mark.parametrize("command,action", EXECUTION_COMMANDS)
def test_execution_choices_are_uniform(command, action):
    parser = _command_parser(command, action)
    choices = parser._option_string_actions["--execution"].choices
    assert tuple(choices) == ("process", "thread")


def test_execution_defaults_fit_each_command():
    # serve keeps the warm process pool; the cell-running commands have
    # no --execution at all (--jobs alone decides whether they pre-warm).
    defaults = {
        (command, action): _command_parser(command, action)
        ._option_string_actions["--execution"]
        .default
        for command, action in EXECUTION_COMMANDS
    }
    assert defaults == {("serve", None): "process"}
    for command, action in UNIFIED_COMMANDS:
        if (command, action) not in EXECUTION_COMMANDS:
            parser = _command_parser(command, action)
            assert "--execution" not in parser._option_string_actions


def test_status_and_report_actions_stay_minimal():
    # Read-only actions must not grow execution flags: parity cuts both
    # ways — the unified parent belongs to run-shaped commands only.
    for command, action in [
        ("sweep", "status"),
        ("whatif", "report"),
        ("dist", "status"),
    ]:
        parser = _command_parser(command, action)
        present = SHARED_FLAGS & set(parser._option_string_actions)
        assert "--jobs" not in present
        assert "--execution" not in present
