"""The argparse parser of the command line, for help and usage errors.

``cli._read_argv`` reads every well-formed call from the option table
``cli._COMMANDS``.  An argv it declines (--help, ``--``, an abbreviation, a
repeat, a separate value that starts with ``-``, a value its converter
refuses) goes to the parser that ``build_arg_parser`` makes from the same
table, so argparse prints every help text and usage error.  ``cli`` imports
this module, and argparse with gettext and locale, only for such an argv.
"""

import argparse

from .cli import _COMMANDS, _REQUIRED


def build_arg_parser():
    """The argparse parser of ``_COMMANDS``: it reads every argv that
    ``_read_argv`` declines, and prints every help text and usage error."""

    def typed(convert):
        def read(text):
            try:
                return convert(text)
            except ValueError as exc:  # argparse prints an ArgumentTypeError as it is
                raise argparse.ArgumentTypeError(str(exc)) from None
        return read

    class Store(argparse.Action):
        # argparse drops a "--" even from an explicit ``--opt=--``, and would
        # store the empty list of values that is left
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    def add(target, flags, convert, default, text):
        if convert is bool:
            return target.add_argument(*flags, action="store_true", help=text)
        required = default is _REQUIRED
        target.add_argument(*flags, action=Store, type=convert and typed(convert),
                            required=required, default=None if required else default, help=text)

    parser = argparse.ArgumentParser(
        prog="epsbialg",
        description="Exact checks and computations for weighted "
                    "infinitesimal-bialgebra structures over Q[L].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, exclusive) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for option in options:
            add(command, *option)
        group = command.add_mutually_exclusive_group() if exclusive else None
        for option in exclusive:
            add(group, *option)
    return parser
