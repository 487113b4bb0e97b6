"""The CLI's help, usage and error texts, byte for byte, and how the
parser is built: one call builds only the invoked command's flags."""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from lcpkit import cli
from lcpkit.cli import build_parser, main

_GOLDEN = Path(__file__).parent / "golden"

# argv of each recorded case, by the name of its file tests/golden/cli_<name>.json;
# the unknown-flag cases give every required flag, so that the unknown one
# is what argparse reports
CLI_TEXT_CASES = {
    "help": ["--help"],
    "solve_help": ["solve", "--help"],
    "check_help": ["check", "--help"],
    "table_help": ["table", "--help"],
    "gen_help": ["gen", "--help"],
    "no_arguments": [],
    "unknown_command": ["frobnicate"],
    "solve_unknown_flag": ["solve", "--method", "npgs", "--bogus"],
    "check_unknown_flag": ["check", "--method", "npgs", "--bogus"],
    "table_unknown_flag": ["table", "table1", "--bogus"],
    "gen_unknown_flag": ["gen", "--family", "example1", "--matrix", "a.mtx",
                         "--sigma", "s.vec", "--bogus"],
    "solve_missing_required": ["solve"],
    "check_missing_required": ["check"],
    "table_missing_required": ["table"],
    "gen_missing_required": ["gen"],
}


def record(argv):
    """main(argv)'s record as JSON text: how it ended (a return or a
    SystemExit, with the code), its stdout and its stderr.  The caller
    pins COLUMNS, which sets argparse's help width."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ended = {"how": "return", "code": main(argv)}
        except SystemExit as exc:
            ended = {"how": "SystemExit", "code": exc.code}
    return json.dumps({**ended, "stdout": out.getvalue(), "stderr": err.getvalue()},
                      indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CLI_TEXT_CASES))
def test_cli_text_matches_golden(monkeypatch, name):
    # the golden files hold an earlier version's output, recorded when
    # every call still built every command's flags, under Python 3.11 (as
    # CI runs): later argparse versions word some messages differently
    monkeypatch.setenv("COLUMNS", "80")
    golden = (_GOLDEN / f"cli_{name}.json").read_text(encoding="ascii")
    assert record(CLI_TEXT_CASES[name]) == golden


def _spy_on_flags(monkeypatch):
    """The names of the commands whose flag functions run, in call order."""
    calls = []
    for name in ("solve", "check", "table", "gen"):
        flags = getattr(cli, f"_{name}_flags")

        def spy(p, name=name, flags=flags):
            calls.append(name)
            flags(p)
        monkeypatch.setattr(cli, f"_{name}_flags", spy)
    return calls


_CHECK = ["check", "--family", "example1", "--m", "3", "--method", "npgs"]


def test_parser_check_builds_only_the_check_flags(capsys, monkeypatch):
    calls = _spy_on_flags(monkeypatch)
    assert main(_CHECK) == 0 and "structural conditions" in capsys.readouterr().out
    assert calls == ["check"]
    # no parser is kept: the next call builds the check flags again
    assert main(_CHECK) == 0 and calls == ["check", "check"]


def _parsers(parser):
    """parser and its subcommands' parsers."""
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [parser, *sub.choices.values()]


def test_parser_builds_share_no_parser(monkeypatch):
    calls = _spy_on_flags(monkeypatch)
    first, second = build_parser(), build_parser()
    assert not {id(p) for p in _parsers(first)} & {id(p) for p in _parsers(second)}
    assert calls == []
    args = first.parse_args(_CHECK)
    assert (args.command, args.func, args.m, args.method) == ("check", cli.cmd_check, 3, "npgs")
    args = second.parse_args(["gen", "--family", "random", "--matrix", "a", "--sigma", "s"])
    assert (args.command, args.func, args.seed) == ("gen", cli.cmd_gen, 0)
    assert not hasattr(args, "method") and calls == ["check", "gen"]
    args = second.parse_args(_CHECK)
    assert (args.command, args.m, args.format) == ("check", 3, "md")
    assert calls == ["check", "gen", "check"]
