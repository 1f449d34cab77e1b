"""Command line interface.

Subcommands: validate, signs, decide, invariants, construct, report. File
arguments accept ``-`` for stdin/stdout. Exit codes: 0 success (SAT where a
decision is involved), 1 UNSAT, 2 invalid input, 3 usage error, 141 (128 +
SIGPIPE) when the reader of stdout closed it before all output was written,
with nothing on stderr. All output is a pure function of the input;
diagnostics go to stderr. A command writes stdout only once it has its whole
answer, so an error leaves stdout empty.

``qtm <command> <file>`` for the five commands that read one file, with a
file that is ``-`` or does not start with ``-``, is dispatched from one table
without argparse: argparse would read that file token as the positional, so
the result is the same, and parsing it took longer than parsing a small
document. Every other command line, help and usage errors included, goes
through argparse.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from .charpair import Omniorientation, all_signs
from .constructions import cp2_sum, cpn, hirzebruch, product, vertex_cut
from .errors import QuasitoricError
from .fileformat import SIGN_TEXT, PairDocument, omniorientation_line, parse, parse_int, serialize
from .invariants import _invariants_from_signs, compute_invariants
from .polytope import f_vector, h_vector
from .positivity import decide_positive


def _stdio(name: str):
    """sys.stdin or sys.stdout; Python sets it to None when its descriptor was
    closed at start-up."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


def _load(path: str) -> PairDocument:
    return parse(_stdio("stdin").read() if path == "-" else Path(path).read_text(encoding="utf-8"))


def _summary_lines(pair) -> list[str]:
    poly = pair.polytope
    return [
        f"dim {poly.dim}",
        f"facets {poly.num_facets}",
        f"vertices {poly.num_vertices}",
        "f_vector " + " ".join(str(x) for x in f_vector(poly)),
        "h_vector " + " ".join(str(x) for x in h_vector(poly)),
    ]


_SIGN_SUFFIX = {s: " : " + text for s, text in SIGN_TEXT.items()}


def _sign_lines(pair, signs) -> list[str]:
    # one str per facet, not per vertex entry; built per call, since a
    # module-level table of facet names would stay resident
    names = list(map(str, range(pair.polytope.num_facets)))
    return [
        "vertex " + " ".join(map(names.__getitem__, v)) + _SIGN_SUFFIX[s]
        for v, s in zip(pair.polytope.vertices, signs)
    ]


def _decide_lines(result) -> list[str]:
    if result.satisfiable:
        return ["SAT", omniorientation_line(result.certificate)]
    return ["UNSAT", "witness " + " ".join(map(str, result.witness))]


def _invariant_lines(report) -> list[str]:
    lines = [f"euler = {report.euler}", f"chern_top = {report.chern_top}"]
    if report.signature is not None:
        lines.append(f"signature = {report.signature}")
        lines.append(f"todd = {report.todd}")
        lines.append(f"almost_complex_4d = {'true' if report.almost_complex_4d else 'false'}")
    return lines


def cmd_validate(args) -> tuple[int, list[str]]:
    return 0, ["valid", *_summary_lines(_load(args.file).to_pair())]


def cmd_signs(args) -> tuple[int, list[str]]:
    doc = _load(args.file)
    if doc.omniorientation is None:
        raise ValueError("signs requires an omniorientation directive")
    pair = doc.to_pair()
    return 0, _sign_lines(pair, all_signs(pair, doc.omniorientation))


def cmd_decide(args) -> tuple[int, list[str]]:
    result = decide_positive(_load(args.file).to_pair())
    return 0 if result.satisfiable else 1, _decide_lines(result)


def cmd_invariants(args) -> tuple[int, list[str]]:
    doc = _load(args.file)
    pair = doc.to_pair()
    omni = doc.omniorientation or Omniorientation.all_positive(pair.polytope.num_facets)
    return 0, _invariant_lines(compute_invariants(pair, omni))


def cmd_report(args) -> tuple[int, list[str]]:
    doc = _load(args.file)
    pair = doc.to_pair()
    lines = _summary_lines(pair)
    # one sign pass serves the sign lines and the invariants
    omni = doc.omniorientation or Omniorientation.all_positive(pair.polytope.num_facets)
    signs = all_signs(pair, omni)
    if doc.omniorientation is not None:
        lines += _sign_lines(pair, signs)
    result = decide_positive(pair)
    lines += _decide_lines(result)
    lines.append(f"positive_count = {result.solution_count}")
    lines += _invariant_lines(_invariants_from_signs(pair, omni, signs))
    return 0 if result.satisfiable else 1, lines


def _integer(token: str) -> int:
    try:
        return parse_int(token)
    except ValueError as exc:  # argparse would echo the token for a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(token: str) -> int:
    value = _integer(token)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _vertex_cut(args):
    base = _load(args.file).to_pair()
    vertices = base.polytope.vertices
    if not 0 <= args.index < len(vertices):
        args.parser.error(f"vertex index out of range [0, {len(vertices)})")
    return vertex_cut(base, vertices[args.index])


# name -> (builder of the pair, then each positional parameter and its type)
_CONSTRUCTIONS = {
    "cpn": (lambda args: cpn(args.n), ("n", _positive)),
    "hirzebruch": (lambda args: hirzebruch(args.a), ("a", _integer)),
    "cp2k": (lambda args: cp2_sum(args.k), ("k", _positive)),
    "product": (
        lambda args: product(_load(args.file1).to_pair(), _load(args.file2).to_pair()),
        ("file1", str),
        ("file2", str),
    ),
    "vertex-cut": (_vertex_cut, ("file", str), ("index", _integer)),
}


def cmd_construct(args) -> tuple[int, list[str]]:
    text = serialize(PairDocument.from_pair(args.build(args)))
    if args.output == "-":
        return 0, text.splitlines()
    Path(args.output).write_text(text, encoding="utf-8")
    return 0, []


# name -> the command that reads one .qtm file; main dispatches `qtm <name>
# <file>` from here without argparse, and the parser lists them from here
_FILE_COMMANDS = {
    "validate": cmd_validate,
    "signs": cmd_signs,
    "decide": cmd_decide,
    "invariants": cmd_invariants,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops an OSError from its writes. Help goes to stdout, and a
        # closed pipe must reach main even when stdout is unbuffered, where
        # the write raises at once and not at main's flush; so must a closed
        # stdout (None).
        if file is sys.stdout and message:
            _stdio("stdout").write(message)
        else:
            super()._print_message(message, file)

    def error(self, message):
        # argparse prints the usage to stdout when stderr is closed (None)
        if sys.stderr is None:
            self.exit(2)
        super().error(message)


# Built on first use and kept: the table path never needs it, parsing keeps
# no state on the parser, and argparse looks up sys.stdout/sys.stderr when it
# writes, not when it is built.
@cache
def _build_parser() -> argparse.ArgumentParser:
    # a description of its own, so that editing the module docstring leaves
    # --help as it is
    parser = _Parser(
        prog="qtm",
        description="Validate, decide and compute invariants of quasitoric pairs "
        "(.qtm files, - for stdin), or construct one. Exit codes: 0 success or SAT, "
        "1 UNSAT, 2 invalid input, 3 usage error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd, func in _FILE_COMMANDS.items():
        p = sub.add_parser(cmd)
        p.add_argument("file", help=".qtm file, or - for stdin")
        p.set_defaults(func=func)

    # -o goes before the name or after the parameters; the name's parser sets
    # it only when given there, so it keeps a value given before the name
    output_help = "output file, - for stdout"
    p = sub.add_parser("construct")
    p.add_argument("-o", "--output", default="-", help=output_help)
    names = p.add_subparsers(dest="name", required=True)
    for name, (build, *params) in _CONSTRUCTIONS.items():
        q = names.add_parser(name)
        for param, kind in params:
            q.add_argument(param, type=kind)
        q.add_argument("-o", "--output", default=argparse.SUPPRESS, help=output_help)
        q.set_defaults(func=cmd_construct, build=build, parser=q)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            # argparse reads a second token that is - or starts with no - as
            # the positional file, so this is the namespace it would build;
            # any other argv (options, --, construct) is left to argparse
            if len(argv) == 2 and argv[0] in _FILE_COMMANDS and (
                argv[1] == "-" or not argv[1].startswith("-")
            ):
                args = argparse.Namespace(
                    command=argv[0], file=argv[1], func=_FILE_COMMANDS[argv[0]]
                )
            else:
                args = _build_parser().parse_args(argv)
            code, lines = args.func(args)
            # line by line: one large write to a pipe whose reader has gone can
            # return short without raising, and the rest is dropped unnoticed
            if lines:
                _stdio("stdout").writelines(line + "\n" for line in lines)
        except SystemExit as exc:  # argparse after --help, or a usage error
            code = 0 if exc.code in (0, None) else 3
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early. Point stdout at devnull, so the flush at
        # exit cannot fail again (the recipe in Python's signal docs).
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # stdout is not a file
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141
    except (QuasitoricError, OSError, ValueError) as exc:
        if sys.stderr is not None:  # print would write to stdout
            print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:  # console_scripts entry point
    raise SystemExit(main())
