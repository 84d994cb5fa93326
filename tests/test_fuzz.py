"""Parser and command-line fuzz tests: arbitrary text gets an answer or a
ValueError, and a command exits 0, 1 or 2 without raising."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twistpoly.bouquet import parse_signed_rotation
from twistpoly.cli import run
from twistpoly.core import parse_dm
from twistpoly.gf2 import parse_gf2, parse_graph

# Arbitrary text, and text over the characters the formats use, so that
# examples also reach past the header checks.
TEXT = st.text(max_size=60) | st.text("0123456789-, ()\n", max_size=60)


@settings(max_examples=100, deadline=None)
@given(TEXT)
def test_parsers_raise_only_value_error(text):
    for parse in (parse_dm, parse_gf2, parse_graph, parse_signed_rotation):
        try:
            parse(text)
        except ValueError:
            pass


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["twist", "--set", "0"],
        ["twist-poly"],
        ["from-matrix"],
        ["from-graph"],
        ["intersection-graph"],
    ],
    ids=lambda argv: argv[0],
)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(text=TEXT)
def test_file_commands_exit_0_1_or_2(tmp_path, command, text):
    path = tmp_path / "input"
    path.write_text(text)
    assert _exit_code([command[0], str(path), *command[1:]]) in (0, 1, 2)


@pytest.mark.parametrize("command", ["from-bouquet", "genus-poly"])
@settings(max_examples=60, deadline=None)
@given(text=TEXT)
def test_rotation_commands_exit_0_1_or_2(command, text):
    # "--" keeps a rotation that starts with "-" from being read as an option
    assert _exit_code([command, "--", text]) in (0, 1, 2)
