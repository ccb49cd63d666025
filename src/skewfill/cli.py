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
from .enumeration import EnumSpec, catalog_line, count_avoiders, enum_skew_shapes
from .fillings import _TOKEN_RE, parse_filling, pattern_library, render_filling
from .harness import PROPERTIES, check_budget, format_report, verify
from .shapes import ParseError, classify_shape, parse_shape
from .structure import ferrers_decompose, render_decomposition

# Most fillings one count call may scan: (max_entry + 1) ** cells, with a
# base of 2 in the binary, sparse and transversal modes.
_COUNT_BUDGET = 1 << 20

# Most cells enum-shapes lists: 374,456 shapes at 12 cells, and each
# further cell takes about three times the time and memory.
_ENUM_SHAPES_CAP = 12

# Most grid cells, holes included, that classify, decompose and bijection
# take: a 15 x 15 grid.  bijection's fd box scan is C(h,3) * C(w,3) on an
# h x w grid, so its cost grows like the sixth power of the side.
_GRID_CELLS_CAP = 225

# Largest k of an iota<k> or delta<k> token.  A k x k pattern occurs only in
# a host holding a k x k square, so within the count budget no k above 4
# can occur; the cap stops the k x k build before it starts.
_PATTERN_CAP = 20


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _pattern_arg(text: str):
    if text.startswith("@"):
        return parse_filling(_read(text[1:]))
    m = _TOKEN_RE.fullmatch(text.strip())
    if m is not None and m.group(2) is not None:
        check_budget("pattern size k", int(m.group(2)), 1, _PATTERN_CAP)
    pattern_library(text)  # validates the token
    return text


def integer(text: str) -> int:
    """An integer option: ASCII digits 0-9 after an optional minus sign.
    int() alone takes any Unicode decimal digit.  argparse reports the
    error and exits 2."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ParseError(f"not an integer: {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
    v.add_argument("--max-entry", dest="max_entry", type=integer, default=None)
    v.add_argument("--jobs", type=integer, default=1)
    v.add_argument("--format", dest="format", choices=("text", "csv", "json"),
                   default="text")
    return p


def _flag_text(value) -> str:
    if value is None:
        return "none"
    return "true" if value else "false"


def _cmd_classify(args) -> int:
    s = parse_shape(_read(args.file))
    check_budget("classify: grid cells", s.width * s.height, 1, _GRID_CELLS_CAP)
    props = classify_shape(s)
    lines = [f"cells: {s.size}", f"width: {s.width}", f"height: {s.height}"]
    for flag in dataclasses.fields(props):
        lines.append(f"{flag.name}: {_flag_text(getattr(props, flag.name))}")
    print("\n".join(lines))
    return 0


def _cmd_decompose(args) -> int:
    s = parse_shape(_read(args.file))
    check_budget("decompose: grid cells", s.width * s.height, 1, _GRID_CELLS_CAP)
    print(render_decomposition(ferrers_decompose(s)))
    return 0


def _cmd_count(args) -> int:
    s = parse_shape(_read(args.file))
    spec = EnumSpec(
        mode=args.mode,
        max_entry=args.max_entry,
        avoid=tuple(_pattern_arg(a) for a in args.avoid),
    )
    base = spec.max_entry + 1 if spec.mode == "integer" else 2
    check_budget(f"count budget: {base}^{s.size} fillings", base**s.size, 1, _COUNT_BUDGET)
    print(count_avoiders(s, spec))
    return 0


def _cmd_enum_shapes(args) -> int:
    check_budget("enum-shapes: max_cells", args.max_cells, 1, _ENUM_SHAPES_CAP)
    out = []
    for n in range(1, args.max_cells + 1):
        for s in enum_skew_shapes(
            n,
            connected=True if args.connected else None,
            ds_free=True if args.ds_free else None,
        ):
            out.append(catalog_line(s))
    print("\n".join(out))
    return 0


def _cmd_bijection(args) -> int:
    f = parse_filling(_read(args.file))
    check_budget("bijection: grid cells", f.shape.width * f.shape.height, 1, _GRID_CELLS_CAP)
    run = full_backward if args.backward else full_forward
    result, trace = run(f, keep_trace=args.trace)
    out = render_filling(result)
    if args.trace:
        out += "\n" + render_trace(trace)
    print(out)
    return 0


def _cmd_verify(args) -> int:
    params = {}
    for name in ("max_cells", "kmax", "max_entry"):
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
