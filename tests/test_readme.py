"""README's CLI table lists each command's flags as the parser declares them.

A table row names a command in its first cell and its flags (``--name``
tokens) in the second; ``+ model flags`` stands for the flags that the
sentence beginning "The model flags are" lists.  Commands are the parser's
leaves, nested subcommands joined by a space (``reproduce fig1``), and
argparse's own ``--help`` is left out.
"""

import argparse
import re
from pathlib import Path

from invarbin import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FLAG = re.compile(r"--[a-z][a-z0-9-]*")


def readme_flags(text: str) -> dict[str, set[str]]:
    model = set(FLAG.findall(text.split("The model flags are", 1)[1].split("\n\n", 1)[0]))
    table = {}
    for line in text.splitlines():
        if line.startswith("| `"):
            command, flags = (cell.strip() for cell in line.strip("|").split("|"))
            table[command.strip("`")] = set(FLAG.findall(flags)) | (
                model if "+ model flags" in flags else set()
            )
    return table


def parser_flags(parser: argparse.ArgumentParser, prefix: str = "") -> dict[str, set[str]]:
    commands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not commands:
        return {prefix: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}}
    flags = {}
    for name, sub in commands[0].choices.items():
        flags.update(parser_flags(sub, f"{prefix} {name}".strip()))
    return flags


def mismatches(text: str, parser: argparse.ArgumentParser) -> list[str]:
    documented, declared = readme_flags(text), parser_flags(parser)
    found = []
    for command in sorted(documented.keys() | declared.keys()):
        if command not in documented:
            found.append(f"{command}: not in the README table")
        elif command not in declared:
            found.append(f"{command}: no such command")
        else:
            doc, dec = documented[command], declared[command]
            found += [f"{command}: README lists {f}, the parser does not"
                      for f in sorted(doc - dec)]
            found += [f"{command}: the parser has {f}, README does not"
                      for f in sorted(dec - doc)]
    return found


def test_readme_table_matches_the_parser():
    assert mismatches(README.read_text(encoding="utf-8"), cli.build_parser()) == []


def test_the_check_sees_a_planted_mismatch():
    text = (
        "The model flags are `--alpha` (default 0.1) and `--tau`.\n\n"
        "| command | flags |\n|---|---|\n"
        "| `fit` | `--out --data` + model flags |\n"
        "| `run go` | `--out --seed` (default 0) |\n"
        "| `gone` | `--out` |\n"
    )
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    fit = sub.add_parser("fit")
    for flag in ("--out", "--data", "--alpha", "--tau"):
        fit.add_argument(flag)
    go = sub.add_parser("run").add_subparsers().add_parser("go")
    for flag in ("--out", "--seeds"):
        go.add_argument(flag)
    sub.add_parser("extra").add_argument("--out")
    assert mismatches(text, parser) == [
        "extra: not in the README table",
        "gone: no such command",
        "run go: README lists --seed, the parser does not",
        "run go: the parser has --seeds, README does not",
    ]
