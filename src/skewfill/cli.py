"""Command-line front end.

Exit codes: 0 on success (and on passing verification), 1 when a
verification run reports failures, 2 on usage, parse, or budget errors.
Output is deterministic for identical invocations; verify reports are
printed with the timing field zeroed so runs are byte-comparable.
"""

from __future__ import annotations

import argparse
import sys

from .bijection import full_backward, full_forward, render_trace
from .enumeration import EnumSpec, catalog_line, count_avoiders, enum_skew_shapes
from .fillings import parse_filling, pattern_library, render_filling
from .harness import PROPERTIES, BudgetError, _override_active, format_report, verify
from .shapes import ParseError, classify_shape, parse_shape
from .structure import DecompositionError, ferrers_decompose, render_decomposition

_FLAG_ORDER = (
    "connected",
    "convex",
    "intersection_free",
    "moon",
    "nw_ferrers",
    "se_ferrers",
    "top_justified",
    "bottom_justified",
    "left_justified",
    "right_justified",
    "skew",
)

# Most fillings one count call may scan: (max_entry + 1) ** cells, with a
# base of 2 in the binary, sparse and transversal modes.
_COUNT_BUDGET = 1 << 20


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _pattern_arg(text: str):
    if text.startswith("@"):
        return parse_filling(_read(text[1:]))
    pattern_library(text)  # validates the token
    return text


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
    co.add_argument("--max-entry", dest="max_entry", type=int, default=None)
    co.add_argument("--avoid", action="append", default=[],
                    metavar="PAT", help="iota<k>, delta<k>, fd, or @file; repeatable")
    co.add_argument("file")

    e = sub.add_parser("enum-shapes", help="list skew shapes up to a cell count")
    e.add_argument("--max-cells", dest="max_cells", type=int, required=True)
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
    v.add_argument("--max-cells", dest="max_cells", type=int, default=None)
    v.add_argument("--k", dest="kmax", type=int, default=None)
    v.add_argument("--max-entry", dest="max_entry", type=int, default=None)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--format", dest="format", choices=("text", "csv", "json"),
                   default="text")
    return p


def _flag_text(value) -> str:
    if value is None:
        return "none"
    return "true" if value else "false"


def _cmd_classify(args) -> int:
    s = parse_shape(_read(args.file))
    props = classify_shape(s)
    lines = [f"cells: {s.size}", f"width: {s.width}", f"height: {s.height}"]
    for name in _FLAG_ORDER:
        lines.append(f"{name}: {_flag_text(getattr(props, name))}")
    lines.append(f"ds_free: {_flag_text(props.ds_free)}")
    print("\n".join(lines))
    return 0


def _cmd_decompose(args) -> int:
    s = parse_shape(_read(args.file))
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
    if base**s.size > _COUNT_BUDGET and not _override_active():
        raise BudgetError(
            f"count: {base}^{s.size} fillings exceed the budget of {_COUNT_BUDGET} "
            "(set SKEWFILL_BUDGET_OVERRIDE=1 to unlock)"
        )
    print(count_avoiders(s, spec))
    return 0


def _cmd_enum_shapes(args) -> int:
    if args.max_cells < 1:
        raise ValueError("--max-cells must be positive")
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.verb](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
