"""A command line read from a table of commands, as argparse reads it.

:class:`CommandLine` reads argv against the table with argparse's grammar
and messages, without importing argparse, whose help translation imports
``gettext`` and ``locale`` too.  Options go before, between or after the
positionals, as ``--opt value`` or ``--opt=value``, cut to any unique prefix;
the last of a repeated option wins; ``--`` ends the options; ``-`` and
negative numbers are positionals.  A usage error prints the usage line and
``<prog> <command>: error: <message>`` to stderr with :func:`report` and
raises ``SystemExit(2)``; ``-h`` prints help and raises ``SystemExit(0)``.

The table maps a command's name to ``(function, help, positionals,
options)``.  A positional is ``(name, convert, help)``; an option is ``(flag,
value, default, help)``, where ``value`` is None for a flag (default False),
a tuple of choices, or the function that converts its text.  A conversion
raises ValueError with the message to report.

This is a module apart from ``cli`` because ``python -m pigeonproof.cli``
compiles ``cli`` from its source on every run unless bytecode is cached, and
the parse tree of one module holding both sets a ``gen-proof`` child's peak
memory.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Callable, Iterable, NoReturn

_HELP = ("-h", "--help")


def report(message: str) -> None:
    """Print the diagnostic ``message`` to stderr, or nowhere when stderr is
    closed (None), where ``print`` would write it to stdout."""
    if sys.stderr is not None:
        print(message, file=sys.stderr)


def _dest(flag: str) -> str:
    """The attribute of the parsed arguments that holds the option ``flag``."""
    return flag[2:].replace("-", "_")


def _invocation(flag: str, value: object) -> str:
    if value is None:
        return flag
    if type(value) is tuple:
        return f"{flag} {{{','.join(value)}}}"
    return f"{flag} {_dest(flag).upper()}"


def _negative_number(arg: str) -> bool:
    """Whether ``arg`` matches argparse's ``^-\\d+$|^-\\d*\\.\\d+$``, whose
    ``$`` also matches before a final newline."""
    whole, dot, fraction = arg[1:].removesuffix("\n").partition(".")
    if dot:
        return (whole == "" or whole.isdecimal()) and fraction.isdecimal()
    return whole.isdecimal()


def _invalid_choice(name: str, text: str, choices: Iterable[str]) -> str:
    listed = ", ".join(map(repr, choices))
    return f"argument {name}: invalid choice: {text!r} (choose from {listed})"


class CommandLine:
    """The command line of ``prog``: the commands of the table ``commands``,
    under help that starts with ``about``."""

    def __init__(self, prog: str, about: str, commands: dict[str, tuple]) -> None:
        self.prog = prog
        self.about = about
        self.commands = commands

    def parse(self, argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
        """The function of the command ``argv`` names, and its arguments."""
        extras = []
        for at, arg in enumerate(argv):
            if arg == "--":  # argparse reads it as the command if a word follows
                option = None if at + 1 < len(argv) else (None, None)
            else:
                option = self._option(arg, _HELP, None)
            if option is None:
                if arg not in self.commands:
                    self.fail(None, _invalid_choice("command", arg, self.commands))
                func, args, more = self._parse_command(arg, argv[at + 1:])
                if extras + more:
                    self.fail(None, f"unrecognized arguments: {' '.join(extras + more)}")
                return func, args
            if option[0] is not None:
                self._show_help(None, option[1])
            extras.append(arg)
        self.fail(None, "the following arguments are required: command")

    def _parse_command(self, command: str, argv: list[str]) -> tuple:
        """The function of ``command``, its arguments from ``argv``, and the
        words of ``argv`` it did not take."""
        func, _, positionals, options = self.commands[command]
        table = {option[0]: option for option in options}
        flags = (*_HELP, *table)
        # Every word is classified before any is used, as argparse does: after
        # the first "--" all are positionals (kind None), and an ambiguous
        # prefix fails first.
        kinds, ended = [], False
        for arg in argv:
            kind = None if ended else "--" if arg == "--" else self._option(arg, flags, command)
            kinds.append(kind)
            ended = ended or kind == "--"
        values = {_dest(flag): default for flag, _, default, _ in options}
        extras, taken, filled = [], 0, False
        at = 0
        while at < len(argv):
            arg, kind = argv[at], kinds[at]
            at += 1
            was_filled, filled = filled, False
            if kind is None and taken < len(positionals):
                name, convert, _ = positionals[taken]
                values[name] = self._convert(command, name, convert, arg)
                taken += 1
                filled = True
            elif kind == "--":
                # Taken with the positional on either side of it, if there is one.
                if not (was_filled or taken < len(positionals) and at < len(argv)):
                    extras.append(arg)
            elif kind is None or kind[0] is None:
                extras.append(arg)
            elif kind[0] in _HELP:
                self._show_help(command, kind[1])
            else:
                flag, explicit = kind
                _, value, _, _ = table[flag]
                if value is None:
                    if explicit is not None:
                        message = f"ignored explicit argument {explicit!r}"
                        self.fail(command, f"argument {flag}: {message}")
                    explicit = True
                else:
                    if explicit is None:
                        if at == len(argv) or kinds[at] is not None:
                            self.fail(command, f"argument {flag}: expected one argument")
                        explicit, at = argv[at], at + 1
                    explicit = self._convert(command, flag, value, explicit)
                values[_dest(flag)] = explicit
        if taken < len(positionals):
            missing = ", ".join(name for name, _, _ in positionals[taken:])
            self.fail(command, f"the following arguments are required: {missing}")
        return func, SimpleNamespace(**values), extras

    def _option(self, arg: str, flags: tuple[str, ...], command: str | None) -> tuple | None:
        """``(flag, explicit value or None)`` of the option ``arg`` among
        ``flags``, flag None for an unknown one; None for a positional."""
        if arg[:1] != "-" or arg == "-":
            return None
        name, equals, explicit = arg.partition("=")
        matches = [flag for flag in flags if flag.startswith(name)] if arg[1] == "-" else []
        if arg in flags or equals and name in flags:
            flag = name
        elif arg[:2] == "-h":  # the one short option, and the rest of the word
            flag, explicit, equals = "-h", arg[2:], True
        elif len(matches) > 1:
            self.fail(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
        elif matches:
            flag = matches[0]
        else:
            return None if _negative_number(arg) or " " in arg else (None, None)
        if flag == "-h" and explicit:  # "-hh" is "-h -h"
            explicit = explicit.lstrip("h") or None
        return flag, explicit if equals else None

    def _convert(self, command: str, name: str, value, text: str):
        if type(value) is tuple:
            if text not in value:
                self.fail(command, _invalid_choice(name, text, value))
            return text
        try:
            return value(text)
        except ValueError as exc:
            self.fail(command, f"argument {name}: {exc}")

    def _show_help(self, command: str | None, explicit: str | None) -> NoReturn:
        if explicit is not None:
            self.fail(command, f"argument -h/--help: ignored explicit argument {explicit!r}")
        print(self.help(command), end="")
        raise SystemExit(0)

    def usage(self, command: str | None) -> str:
        if command is None:
            return f"{self.prog} [-h] {{{','.join(self.commands)}}} ..."
        _, _, positionals, options = self.commands[command]
        words = [f"[{_invocation(flag, value)}]" for flag, value, _, _ in options]
        return " ".join([f"{self.prog} {command} [-h]", *words, *(p[0] for p in positionals)])

    def help(self, command: str | None) -> str:
        """The text of ``-h``, laid out as argparse lays it out."""
        if command is None:
            about = f"\n{self.about}"
            positionals = [(f"  {{{','.join(self.commands)}}}", "")]
            positionals += [(f"    {name}", row[1]) for name, row in self.commands.items()]
            options = []
        else:
            about = ""
            _, _, params, opts = self.commands[command]
            positionals = [(f"  {name}", text) for name, _, text in params]
            options = [(f"  {_invocation(flag, value)}", text) for flag, value, _, text in opts]
        options.insert(0, ("  -h, --help", "show this help message and exit"))
        column = min(max(len(invocation) for invocation, _ in positionals + options) + 2, 24)

        def section(title: str, rows: list[tuple[str, str]]) -> str:
            lines = [
                f"{invocation}\n{'':{column}}{text}" if text and len(invocation) + 2 > column
                else f"{invocation:{column}}{text}".rstrip()
                for invocation, text in rows
            ]
            return f"\n{title}:\n" + "\n".join(lines) + "\n"

        return (f"usage: {self.usage(command)}\n{about}"
                + section("positional arguments", positionals) + section("options", options))

    def fail(self, command: str | None, message: str) -> NoReturn:
        """Report a usage error of ``command`` (None: of the program) and exit 2."""
        prog = self.prog if command is None else f"{self.prog} {command}"
        report(f"usage: {self.usage(command)}\n{prog}: error: {message}")
        raise SystemExit(2)
