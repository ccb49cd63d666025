"""Command-line front end.

Exit codes: 0 on success (and on passing verification), 1 when a
verification run reports failures, 2 on usage, parse, or budget errors.
Output is deterministic for identical invocations; verify reports are
printed with the timing field zeroed so runs are byte-comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from .bijection import full_backward, full_forward, render_trace
from .enumeration import EnumSpec, catalog_lines, count_avoiders
from .fillings import TOKEN_RE, parse_filling, pattern_library, render_filling
from .harness import PROPERTIES, check_budget, format_report, verify
from .shapes import _quoted, classify_shape, parse_shape
from .structure import ferrers_decompose, render_decomposition

# Most fillings one count call may scan: (max_entry + 1) ** cells, with a
# base of 2 in the binary, sparse and transversal modes.  A host of more
# than _COUNT_CELLS_CAP cells is past it in every mode, so it is refused by
# its cell count before base ** cells is built.
_COUNT_BUDGET = 1 << 20
_COUNT_CELLS_CAP = _COUNT_BUDGET.bit_length() - 1

# Most cells enum-shapes lists: 1,171,631 shapes at 13 cells.  Every line
# is held until the walk ends, since the output goes by size.  One cold
# run on one core takes about 0.55 s and 80 MB at 12 cells, 1.25 s and
# 170 MB at 13: each further cell costs about 2.4 times the time, 2.1 the memory.
_ENUM_SHAPES_CAP = 13

# Lines enum-shapes joins into one write, so the output is never held
# as one string.
_ENUM_BATCH = 1 << 16

# Most grid cells, holes included, that classify, decompose and bijection
# take: a 15 x 15 grid.  bijection scans for delta_2 or iota_2 in every
# 2 x 2 box, C(h,2) * C(w,2) on an h x w grid, the fourth power of the side.
_GRID_CELLS_CAP = 225

# Largest k of an iota<k> or delta<k> token, and most rows or columns of
# an @file pattern grid.  A host within the count budget holds at most 20
# cells, so it spans at most 20 rows and 20 columns, and a k x k pattern
# occurs only in a host holding a k x k square: no k above 4 can occur.
# The cap refuses no pattern that can occur; it stops the build before
# it starts.
_PATTERN_CAP = 20


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _grid_box(text: str) -> tuple[int, int]:
    """The width and height of a grid's normalized bounding box, read off
    its text lines before any cell is built: a line's cells run from its
    first to its last non-hole character.  For a grid that parses they are
    the shape's width and height; a grid with no cells gives (0, 0)."""
    lines = text.splitlines()
    held = [k for k, line in enumerate(lines) if line.strip(".")]
    if not held:
        return 0, 0
    width = max(len(lines[k].rstrip(".")) for k in held) - \
        min(len(lines[k]) - len(lines[k].lstrip(".")) for k in held)
    return width, held[-1] - held[0] + 1


def _grid(verb: str, path: str, parse):
    """The grid at path, parsed once its box is within the grid-cells cap."""
    text = _read(path)
    width, height = _grid_box(text)
    check_budget(f"{verb}: grid cells", width * height, 0, _GRID_CELLS_CAP)
    return parse(text)


def _pattern_arg(text: str):
    if text.startswith("@"):
        grid = _read(text[1:])
        width, height = _grid_box(grid)
        check_budget("pattern grid: rows", height, 0, _PATTERN_CAP)
        check_budget("pattern grid: columns", width, 0, _PATTERN_CAP)
        return parse_filling(grid)
    m = TOKEN_RE.fullmatch(text.strip())
    if m is not None and m.group(2) is not None:
        check_budget("pattern size k", int(m.group(2)), 1, _PATTERN_CAP)
    pattern_library(text)  # validates the token
    return text


def integer(text: str) -> int:
    """An integer option: 1 to 640 ASCII digits after an optional minus
    sign.  int() alone takes any Unicode decimal digit, and past 640
    digits it may raise ValueError (PYTHONINTMAXSTRDIGITS sets where).
    argparse prints the message of an ArgumentTypeError as it is, where
    for a ValueError it would quote the whole value, and exits 2."""
    if re.fullmatch(r"-?[0-9]{1,640}", text) is None:
        raise argparse.ArgumentTypeError(f"invalid integer value: {_quoted(text)}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, quoting a bad choice or an unknown verb cut, as
    every other bad input is; the usage line above lists the choices."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {_quoted(value)}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="skewfill",
        description="Skew-shape fillings: classification, decomposition, "
        "counting, and property verification.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("classify", help="print the property flags of a shape")
    c.add_argument("file", help="shape grid file, or - for stdin")

    d = sub.add_parser("decompose", help="print the Ferrers block decomposition")
    d.add_argument("file")

    co = sub.add_parser("count", help="count fillings of a shape")
    co.add_argument("--mode", choices=("binary", "sparse", "transversal", "integer"),
                    default="binary")
    co.add_argument("--max-entry", dest="max_entry", type=integer, default=None)
    co.add_argument("--avoid", action="append", default=[],
                    metavar="PAT", help="iota<k>, delta<k>, fd, or @file; repeatable")
    co.add_argument("file")

    e = sub.add_parser("enum-shapes", help="list skew shapes up to a cell count")
    e.add_argument("--max-cells", dest="max_cells", type=integer, required=True)
    e.add_argument("--connected", action="store_true")
    e.add_argument("--ds-free", dest="ds_free", action="store_true")

    b = sub.add_parser("bijection", help="run the stage bijection on a filling")
    direction = b.add_mutually_exclusive_group()
    direction.add_argument("--forward", action="store_true")
    direction.add_argument("--backward", action="store_true")
    b.add_argument("--trace", action="store_true")
    b.add_argument("file")

    v = sub.add_parser("verify", help="run a property check")
    v.add_argument("property", choices=PROPERTIES)
    v.add_argument("--max-cells", dest="max_cells", type=integer, default=None)
    v.add_argument("--k", dest="kmax", type=integer, default=None)
    v.add_argument("--lmax", type=integer, default=None)
    v.add_argument("--refine-cells", dest="refine_cells", type=integer, default=None)
    v.add_argument("--max-entry", dest="max_entry", type=integer, default=None)
    v.add_argument("--shape", default=None, metavar="LINE",
                   help="check one shape, given as a catalog line (genskew, lemma_gi)")
    v.add_argument("--jobs", type=integer, default=1)
    v.add_argument("--format", dest="format", choices=("text", "csv", "json"),
                   default="text")
    return p


def _flag_text(value) -> str:
    if value is None:
        return "none"
    return "true" if value else "false"


def _cmd_classify(args) -> int:
    s = _grid("classify", args.file, parse_shape)
    props = classify_shape(s)
    lines = [f"cells: {s.size}", f"width: {s.width}", f"height: {s.height}"]
    for flag in dataclasses.fields(props):
        lines.append(f"{flag.name}: {_flag_text(getattr(props, flag.name))}")
    print("\n".join(lines))
    return 0


def _cmd_decompose(args) -> int:
    s = _grid("decompose", args.file, parse_shape)
    print(render_decomposition(ferrers_decompose(s)))
    return 0


def _cmd_count(args) -> int:
    text = _read(args.file)
    cells = text.count("#")  # the host's cells, counted before any is built
    check_budget("count budget: host cells", cells, 0, _COUNT_CELLS_CAP)
    spec = EnumSpec(
        mode=args.mode,
        max_entry=args.max_entry,
        avoid=tuple(_pattern_arg(a) for a in args.avoid),
    )
    base = spec.max_entry + 1 if spec.mode == "integer" else 2
    check_budget(f"count budget: {base}^{cells} fillings", base**cells, 1, _COUNT_BUDGET)
    s = parse_shape(text)
    print(count_avoiders(s, spec))
    return 0


def _cmd_enum_shapes(args) -> int:
    check_budget("enum-shapes: max_cells", args.max_cells, 1, _ENUM_SHAPES_CAP)
    lines = catalog_lines(args.max_cells, args.connected, args.ds_free)
    for start in range(0, len(lines), _ENUM_BATCH):
        sys.stdout.write("\n".join(lines[start:start + _ENUM_BATCH]) + "\n")
    return 0


def _cmd_bijection(args) -> int:
    f = _grid("bijection", args.file, parse_filling)
    run = full_backward if args.backward else full_forward
    result, trace = run(f, keep_trace=args.trace)
    out = render_filling(result)
    if args.trace:
        out += "\n" + render_trace(trace)
    print(out)
    return 0


def _cmd_verify(args) -> int:
    params = {}
    for name in ("max_cells", "kmax", "lmax", "refine_cells", "max_entry", "shape"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    report = verify(args.property, jobs=args.jobs, **params)
    report.elapsed_ms = 0.0
    out = format_report(report, args.format)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0 if report.passed else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "count": _cmd_count,
    "enum-shapes": _cmd_enum_shapes,
    "bijection": _cmd_bijection,
    "verify": _cmd_verify,
}


_parser = None  # built on the first call of main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, OSError) as exc:  # BudgetError, ParseError, DecompositionError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
