"""The CLI and API surface, pinned and documented.

* ``build_parser()`` exposes exactly the pinned option strings and
  defaults, so generating flags from the option declarations can neither
  add nor drop a flag nor move a default;
* ``docs/cli.md`` lists every flag of every command with its default,
  and ``docs/api.md`` every request option with its default and bound,
  so neither reference can drift from the code.
"""

import argparse
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.bounds import BOOLEAN
from repro.flat import FlatConfig
from repro.lang.kinds import Arch
from repro.promising.exhaustive import ExploreConfig
from repro.service.core import ServiceConfig, request_bounds
from repro.tools.cli import build_parser

DOCS = Path(__file__).resolve().parent.parent / "docs"

#: Every option string and default ``build_parser()`` exposes, per command
#: (``""`` = the global options).
PINNED_SURFACE = {
    "": {
        "--arch": Arch.ARM,
        "--backend": "packed",
        "--log-format": "text",
        "--log-level": "info",
        "--loop-bound": 2,
        "--sample-depth": 4096,
        "--samples": 256,
        "--seed": 0,
        "--strategy": "dfs",
    },
    "agreement": {
        "--cache-dir": None,
        "--max-tests": 40,
        "--timeout": None,
        "--workers": 1,
    },
    "catalogue": {},
    "fuzz": {
        "--archs": "arm,riscv",
        "--backend-url": None,
        "--cache-dir": None,
        "--distributed": False,
        "--expected": False,
        "--external-workers": False,
        "--families": None,
        "--max-per-family": 64,
        "--max-tests": None,
        "--models": "promising,axiomatic",
        "--report": None,
        "--stall-timeout": None,
        "--timeout": None,
        "--workers": 1,
    },
    "interactive": {
        "--file": None,
        "--test": "MP",
    },
    "run": {
        "--axiomatic": False,
        "--file": None,
        "--test": "MP",
    },
    "serve": {
        "--batch-delay-ms": 10.0,
        "--batch-max-size": 16,
        "--cache-dir": None,
        "--host": "127.0.0.1",
        "--lru-capacity": 4096,
        "--max-pending-jobs": 1024,
        "--port": 8765,
        "--queue-url": None,
        "--quota-refill": 1.0,
        "--quota-tokens": None,
        "--timeout": 60.0,
        "--workers": 2,
    },
    "sweep": {
        "--backend-url": None,
        "--cache-dir": None,
        "--catalogue": False,
        "--distributed": False,
        "--external-workers": False,
        "--max-tests": 40,
        "--models": "promising,axiomatic",
        "--report": None,
        "--stall-timeout": None,
        "--timeout": None,
        "--workers": 1,
    },
    "work": {
        "--backend-url": None,
        "--cache-dir": None,
        "--idle-exit": None,
        "--lease-seconds": 30.0,
        "--max-jobs": None,
        "--poll-seconds": 0.1,
        "--worker-id": None,
    },
}


def parser_actions(parser: argparse.ArgumentParser) -> dict:
    """``{command: {option string: action}}`` of ``parser`` and its sub-commands."""
    surface: dict = {}

    def walk(command: str, current: argparse.ArgumentParser) -> None:
        options = surface.setdefault(command, {})
        for action in current._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(name, sub)
            elif not isinstance(action, argparse._HelpAction):
                options.update(dict.fromkeys(action.option_strings, action))

    walk("", parser)
    return surface


def test_parser_surface_is_pinned():
    surface = parser_actions(build_parser())
    exposed = {
        command: {flag: action.default for flag, action in options.items()}
        for command, options in surface.items()
    }
    assert exposed == PINNED_SURFACE


# -- docs/cli.md -------------------------------------------------------------


def cli_doc_sections() -> dict:
    """``{command: section text}`` of docs/cli.md (``""`` = global options)."""
    text = (DOCS / "cli.md").read_text()
    sections = {}
    parts = re.split(r"^(## Global options|### `promising-arm [a-z]+`)$", text, flags=re.M)
    for heading, body in zip(parts[1::2], parts[2::2]):
        command = "" if heading.startswith("## ") else heading.split()[-1].strip("`")
        sections[command] = body
    return sections


def rendered(default: object) -> str:
    if default is None:
        return "none"
    if default is False:
        return "off"
    if isinstance(default, Arch):
        return default.value.lower()
    return str(default)


def option_lines(section: str) -> dict:
    """``{flag: line}`` of a section's ``- `--flag ...`` bullets."""
    return {
        match.group(1): match.group(0)
        for match in re.finditer(r"^- `(--[a-z-]+)[^\n]*$", section, flags=re.M)
    }


def test_cli_doc_lists_every_flag_with_its_default():
    sections = cli_doc_sections()
    surface = parser_actions(build_parser())
    assert set(sections) == set(surface)
    for command, options in surface.items():
        lines = option_lines(sections[command])
        assert set(lines) == set(options), command
        for flag, action in options.items():
            line = lines[flag]
            if action.required:
                assert "Required." in line, (command, flag)
            else:
                assert f"Default `{rendered(action.default)}`" in line, (command, flag)
            for choice in action.choices or ():
                assert f"`{choice}`" in line, (command, flag, choice)


def test_cli_doc_examples_parse():
    text = (DOCS / "cli.md").read_text()
    # Synopsis lines carry placeholders (<...>, [...]); examples do not.
    examples = [
        line.split(maxsplit=1)[1]
        for line in re.findall(r"^promising-arm .*$", text, flags=re.M)
        if not re.search(r"[<\[]", line)
    ]
    assert len(examples) == len(cli_doc_sections())
    for example in examples:
        build_parser().parse_args(shlex.split(example))


# -- docs/api.md -------------------------------------------------------------


def api_option_rows() -> dict:
    """``{option: table row}`` of the request-options table in docs/api.md."""
    text = (DOCS / "api.md").read_text()
    block = text.split("#### Request options", 1)[1].split("Response (`200`)", 1)[0]
    return {
        match.group(1): match.group(0)
        for match in re.finditer(r"^\| `([a-z_]+)` \|.*$", block, flags=re.M)
    }


def documented_request_options():
    """``(name, defaults, bound)`` of every request option."""
    config = ServiceConfig()
    for name, bound in request_bounds(config).items():
        # The value a job config receives when the option is left out:
        # the declared default, or the model's own where its config
        # overrides the field (max_states).
        defaults = {
            next(f.default for f in dataclasses.fields(cls) if f.name == name)
            for cls in (ExploreConfig, FlatConfig)
        }
        yield name, defaults, bound
    yield "timeout", {config.default_timeout}, config.timeout_bound()
    yield "include_outcomes", {True}, BOOLEAN


@pytest.mark.parametrize("name, defaults, bound", list(documented_request_options()))
def test_api_doc_lists_every_request_option(name, defaults, bound):
    row = api_option_rows()[name]
    for default in defaults:
        assert f"`{json.dumps(default)}`" in row, (name, default)
    if bound.choices:
        for choice in bound.choices:
            assert f"`{choice}`" in row, (name, choice)
    else:
        assert bound.describe() in row, (name, bound.describe())


def test_api_doc_lists_no_other_option():
    documented = {name for name, *_ in documented_request_options()}
    assert set(api_option_rows()) == documented
