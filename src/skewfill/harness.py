"""Exhaustive property verification over desk-scale shape catalogs.

Each property token names one executable check; verify() runs it over a
bounded catalog and returns a VerificationReport.  Reports are
deterministic: identical parameters give identical instances, failures,
and details regardless of the worker count (only elapsed_ms varies, and
equality ignores it).

Property tokens and their instance counts:
  cor_sskew      transversal-count equality on dent-free shapes, plus the
                 refined sum-class check under (rho, sigma); instances =
                 (shape, k) pairs checked across both parts.
  conjecture     Tr(S, iota_k) >= Tr(S, delta_k) over all skew shapes;
                 instances = (shape, k) pairs, kmax times the catalog's
                 size.
  thm_bp         unique delta_2-avoiding and unique {iota_2, fd}-avoiding
                 transversal; instances = shapes admitting a transversal.
  genskew        stage-1 vs stage-N equality refined by row sums, and the
                 full forward/backward bijection over every binary
                 filling; instances = fillings scanned.
  lemma_gi       equal stage sizes and step maps carrying each stage onto
                 the next; instances = (shape, step) pairs.
  lem_ferrers    SE-signature multiset equals NE-signature multiset over
                 all bounded fillings of each framed Ferrers shape;
                 instances = frames checked.
  rubey          class-size equality under moon-preserving adjacent
                 column transpositions; instances = (moon, swap) pairs.
  ds_free_oracle agreement of the two dent-freeness criteria plus the
                 decompose/validate round-trip; instances = shapes.

The three transversal properties walk only the catalog shapes they can
use; a pruned walk yields the lists of the full walk that pass its
prefix test, in the same order (enumeration._catalog_walk).  thm_bp and
conjecture take the diagonal walk, which keeps the row prefixes of the
shapes admitting a transversal; its square shapes are those shapes.
thm_bp extends a ShapeContext along it, the prefixes included, and tests
the square shapes.  conjecture counts a shape without a transversal as
(0, 0) for every k, never a failure, so it tests the square shapes and
takes its instance count, kmax per catalog shape, from
enumeration.catalog_size, which counts the catalog by the walk's own
child rule without walking it; shard 0 reports it.  cor_sskew
walks the connected, dent-free row prefixes and, for the same reason,
counts transversals only on the shapes that admit one; its refined part
runs on the shapes of at most refine_cells cells of the same walk.

genskew first maps stage 1 forward and checks that the sorted image is
stage N and that each code keeps its row key; then it maps the image
back.  The repeat test and the direct refined counts follow from the
first two checks, so they run only when one of those fails (the argument
is at _run_genskew).  A shape still reports every clause it fails.

lem_ferrers builds each Ferrers shape's fillings once, and each of its
(direction, region) chain tables once, for all of the shape's frames.

rubey compares a moon with each moon it turns into by swapping two
adjacent columns.  A swap keeps the multiset of column intervals, so the
pairs stay inside a column class: the moons of one size with one such
multiset.  The runner takes the moons one class at a time and builds each
moon's rectangles and filling keys once for all its pairs.

The two structural checks routed through statistics (lem_ferrers, rubey)
are verified at multiset/cardinality level only; their report details
carry a "level" marker saying so.

Integer-filling scans (the refined part of cor_sskew, lem_ferrers, and
rubey) enumerate the fillings with entries <= max_entry whose row sums
or column sums all stay within max_entry as well.  The underlying
identities are statements about sum classes of unbounded integer
fillings, and these are exactly the classes an entry cap enumerates
completely: a class with a row-sum vector (or column-sum vector) inside
the cap cannot contain an entry above it.  A bare entry cap without the
sum restriction cuts classes in half and makes the identities false as
stated; the 2x2 square with row and column sums (1, 3) already shows
this for caps 1 and 2.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._engine import (
    ShapeContext,
    line_sums,
    multiset_equal,
    sum_capped_mask,
    support_chain_table,
    support_index,
    value_matrix,
)
from .enumeration import EnumSpec, _admits_transversal, _catalog_intervals, _catalog_shapes, \
    _catalog_walk, _diagonal_prefix, _filter_prefix, _value_rows, catalog_line, catalog_size, \
    enum_moon_polyominoes, parse_catalog_line
from .fillings import NE, SE
from .shapes import Rect, Shape, _interval_shape, _kept_skew, dent_shape, is_connected, \
    is_nw_ferrers, maximal_rectangles
from .structure import DecompositionError, ferrers_decompose, is_ds_free, sum_permutations

class BudgetError(ValueError):
    """A parameter exceeds its cap and no override is set."""


def check_budget(what: str, value: int, floor: int, cap: int, unlock: bool = True) -> None:
    """Refuse a value from outside the program that is out of its range.

    Below the floor raises ValueError, with or without the override.
    Above the cap raises BudgetError, unless unlock is set and
    SKEWFILL_BUDGET_OVERRIDE=1.
    """
    if value < floor:
        raise ValueError(f"{what}={value} is below {floor}")
    if value > cap and not (unlock and os.environ.get("SKEWFILL_BUDGET_OVERRIDE") == "1"):
        hint = " (set SKEWFILL_BUDGET_OVERRIDE=1 to unlock)" if unlock else ""
        raise BudgetError(f"{what}={value} exceeds cap {cap}{hint}")


# worker processes for one verify call, on every machine and with or
# without the override, so a jobs value passes or fails everywhere alike
_MAX_JOBS = 64


@dataclass
class VerificationReport:
    property: str
    params: dict
    instances: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed_ms: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures


def _kv(d: dict) -> str:
    return ", ".join(f"{k}={json.dumps(d[k], sort_keys=True)}" for k in sorted(d))


def format_report(r: VerificationReport, fmt: str = "text") -> str:
    if fmt == "text":
        lines = [
            f"property: {r.property}",
            f"params: {_kv(r.params)}",
            f"instances: {r.instances}",
            f"failures: {len(r.failures)}",
        ]
        for f in r.failures:
            lines.append("failure: " + json.dumps(f, sort_keys=True))
        lines.append(f"details: {_kv(r.details)}")
        lines.append(f"status: {'PASS' if r.passed else 'FAIL'}")
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps(
            {
                "property": r.property,
                "params": r.params,
                "instances": r.instances,
                "failures": r.failures,
                "details": r.details,
                "millis": r.elapsed_ms,
            },
            sort_keys=True,
        )
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["property", "params", "instances", "failures", "details", "millis"])
        w.writerow(
            [
                r.property,
                json.dumps(r.params, sort_keys=True),
                r.instances,
                json.dumps(r.failures, sort_keys=True),
                json.dumps(r.details, sort_keys=True),
                r.elapsed_ms,
            ]
        )
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def parse_report_json(text: str) -> VerificationReport:
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError("not a report JSON object")
    try:
        return VerificationReport(
            property=d["property"],
            params=d["params"],
            instances=d["instances"],
            failures=d["failures"],
            details=d["details"],
            elapsed_ms=d["millis"],
        )
    except KeyError as exc:
        raise ValueError(f"report JSON lacks the field {exc}") from None


def parse_report_csv(text: str) -> VerificationReport:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != 2 or rows[0][:5] != ["property", "params", "instances", "failures", "details"]:
        raise ValueError("not a report CSV")
    _, params, instances, failures, details, millis = rows[1]
    return VerificationReport(
        property=rows[1][0],
        params=json.loads(params),
        instances=int(instances),
        failures=json.loads(failures),
        details=json.loads(details),
        elapsed_ms=float(millis),
    )


@dataclass(frozen=True)
class GammaFrame:
    """A NW Ferrers shape with k special columns and l special rows.

    The special columns are the leftmost k (all spanning the full
    height), the special rows the topmost l (all of equal length t).
    The frame fixes the rectangles whose chain statistics are compared:
    C_i / C'_i over the special columns and R_j / R'_j over the special
    rows, along with the matched sum lines.
    """

    F: Shape
    k: int
    l: int

    def __post_init__(self):
        if not is_nw_ferrers(self.F):
            raise ValueError("frame base must be a NW Ferrers shape")
        k_adm, l_adm = admissible_frame_counts(self.F)
        if not (0 <= self.k <= k_adm and 0 <= self.l <= l_adm):
            raise ValueError(f"special counts ({self.k}, {self.l}) outside "
                             f"0..{k_adm} full-height columns and 0..{l_adm} equal top rows")

    @property
    def h(self) -> int:
        return self.F.height

    @property
    def w(self) -> int:
        return self.F.width

    @property
    def t(self) -> int:
        return len(self.F.row_cols(self.h))

    def c_rect(self, i: int) -> Rect:
        return Rect(1, i, 1, self.h)

    def c_prime_rect(self, i: int) -> Rect:
        return Rect(self.k - i + 1, self.k, 1, self.h)

    def r_rect(self, j: int) -> Rect:
        return Rect(1, self.t, self.h - j + 1, self.h)

    def r_prime_rect(self, j: int) -> Rect:
        return Rect(1, self.t, self.h - self.l + 1, self.h - self.l + j)

    def c_line(self, i: int) -> int:
        return i

    def c_prime_line(self, i: int) -> int:
        return self.k + 1 - i

    def r_line(self, j: int) -> int:
        return self.h + 1 - j

    def r_prime_line(self, j: int) -> int:
        return self.h - self.l + j


def admissible_frame_counts(s: Shape) -> tuple[int, int]:
    """Largest k and l for which GammaFrame(s, k, l) is valid."""
    h = s.height
    k = 0
    while k < s.width and len(s.col_rows(k + 1)) == h:
        k += 1
    t = len(s.row_cols(h))
    l = 0
    while l < h and len(s.row_cols(h - l)) == t:
        l += 1
    return k, l


# --- runners ---------------------------------------------------------------


def _contexts(params, shard, keep=None):
    """A shard's ShapeContexts: of the single shape param on shard 0, or of
    its catalog shapes, each extending the context of its parent.  keep
    prunes the walk as in _catalog_walk; it must pass every row prefix of
    a list it passes, so each parent is on the walk."""
    if params.get("shape") is not None:
        if shard[0] == 0:
            yield ShapeContext(parse_catalog_line(params["shape"]))
        return
    stack = [ShapeContext(Shape(frozenset()))]
    for intervals, _, mine in _catalog_walk(params["max_cells"], shard, keep):
        del stack[len(intervals):]
        (a, b), y = intervals[-1], len(intervals)
        cells = stack[-1].shape.sorted_cells() + tuple((x, y) for x in range(a, b + 1))
        stack.append(ShapeContext(_kept_skew(cells), stack[-1]))
        if mine:
            yield stack[-1]


def _transversals(s: Shape) -> np.ndarray:
    """Support masks of the transversals of s, in enumeration order."""
    if s.height != s.width:
        return np.zeros(0, dtype=np.int64)
    return support_index(_value_rows(s, EnumSpec(mode="transversal")))


def _tr_counts(s: Shape, ts: np.ndarray, ks) -> list[tuple[int, int]]:
    """(#iota_k-avoiding, #delta_k-avoiding) transversals for each k."""
    if not ts.size:
        return [(0, 0) for _ in ks]
    ne = support_chain_table(s, NE)[ts]
    se = support_chain_table(s, SE)[ts]
    return [(int(np.count_nonzero(ne < k)), int(np.count_nonzero(se < k))) for k in ks]


def _run_conjecture(params, shard):
    failures = []
    strict = 0
    ds_strict = False
    dent = dent_shape()
    ks = range(1, params["kmax"] + 1)
    instances = len(ks) * catalog_size(params["max_cells"]) if shard[0] == 0 else 0
    for intervals, _, mine in _catalog_walk(params["max_cells"], shard, _diagonal_prefix):
        if not mine or intervals[-1][1] != len(intervals):
            continue
        s = _interval_shape(intervals)
        for k, (ti, td) in zip(ks, _tr_counts(s, _transversals(s), ks)):
            if ti < td:
                failures.append({"shape": catalog_line(s), "k": k,
                                 "iota": ti, "delta": td})
            elif ti > td:
                strict += 1
                if s == dent:
                    ds_strict = True
    return {"instances": instances, "failures": failures,
            "details": {"strict": strict, "ds_strict": ds_strict}}


def _run_thm_bp(params, shard):
    instances, failures = 0, []
    for ctx in _contexts(params, shard, _diagonal_prefix):
        s = ctx.shape
        if s.height != s.width:
            continue
        ts = _transversals(s)
        instances += 1
        d_count = ctx.stage_members(1, ts).size  # delta2-avoiders
        u_count = ctx.stage_members(ctx.n, ts).size  # {iota2, fd}-avoiders
        if d_count != 1:
            failures.append({"shape": catalog_line(s), "clause": "delta2",
                             "count": d_count})
        if u_count != 1:
            failures.append({"shape": catalog_line(s), "clause": "iota2+fd",
                             "count": u_count})
    return {"instances": instances, "failures": failures,
            "details": {"shapes_with_transversal": instances}}


def _capped_fillings(s: Shape, max_entry: int):
    """Row sums, column sums and support masks of the sum-capped fillings."""
    values = value_matrix(s.size, max_entry)
    rows = line_sums(values, s, by_row=True)
    cols = line_sums(values, s, by_row=False)
    keep = sum_capped_mask(rows, cols, max_entry)
    return rows[keep], cols[keep], support_index(values)[keep]


def _refined_sum_check(s: Shape, kmax: int, max_entry: int):
    """Failure clauses of the sum-class comparison on one shape."""
    perms = sum_permutations(s)
    rho_idx = np.array(perms.rho, dtype=np.int64) - 1
    sigma_idx = np.array(perms.sigma, dtype=np.int64) - 1
    rows, cols, sidx = _capped_fillings(s, max_entry)
    se = support_chain_table(s, SE)[sidx]
    ne = support_chain_table(s, NE)[sidx]
    bad = []
    for k in range(2, kmax + 1):
        d_keys = np.hstack([rows[se < k], cols[se < k]])
        i_keys = np.hstack([rows[ne < k][:, rho_idx], cols[ne < k][:, sigma_idx]])
        if not multiset_equal(d_keys, i_keys):
            bad.append(k)
    return bad


def _run_cor_sskew(params, shard):
    instances, failures = 0, []
    shapes_checked = 0
    refined_checked = 0
    ks = range(2, params["kmax"] + 1)
    keep = partial(_filter_prefix, connected=True, ds_free=True)
    for intervals, used, mine in _catalog_walk(params["max_cells"], shard, keep):
        if not mine:
            continue
        s = _interval_shape(intervals)
        shapes_checked += 1
        instances += len(ks)
        if _admits_transversal(intervals):
            for k, (ti, td) in zip(ks, _tr_counts(s, _transversals(s), ks)):
                if ti != td:
                    failures.append({"shape": catalog_line(s), "k": k,
                                     "iota": ti, "delta": td})
        if used <= params["refine_cells"]:
            refined_checked += 1
            for k in _refined_sum_check(s, params["kmax"], params["max_entry"]):
                failures.append({"shape": catalog_line(s), "k": k,
                                 "clause": "refined sum classes"})
            instances += params["kmax"] - 1
    return {"instances": instances, "failures": failures,
            "details": {"shapes": shapes_checked, "refined_shapes": refined_checked}}


def _run_genskew(params, shard):
    """Each shape's clauses, from two facts about the forward image of g1:
    onto (sorted, it is gn) and kept (each code keeps its row key).  gn
    ascends strictly, so onto rules out a repeated image, and the repeat
    test only picks the clause when onto fails.  Onto and kept give
    multiset(rk[g1]) = multiset(rk[image]) = multiset(rk[gn]), so the
    direct counts are compared only when one of them fails."""
    instances, failures = 0, []
    details = {"shapes": 0}
    for ctx in _contexts(params, shard):
        g1 = ctx.stage_members(1)
        gn = ctx.stage_members(ctx.n)
        rk = ctx.row_keys()
        image = ctx.apply_all(g1)
        ordered = np.sort(image)
        onto = np.array_equal(ordered, gn)
        kept = bool((rk[image] == rk[g1]).all())  # image and g1 have the same length
        clauses = []
        if not (onto and kept) and not multiset_equal(rk[g1], rk[gn]):
            clauses.append("direct refined counts")
        if not onto:
            if np.any(ordered[1:] == ordered[:-1]):
                clauses.append("forward not injective")
            else:
                clauses.append("image is not the final stage")
        if not kept:
            clauses.append("row sums not preserved")
        if not (ctx.apply_all(image, forward=False) == g1).all():
            clauses.append("backward not inverse")
        failures += [{"shape": catalog_line(ctx.shape), "clause": c} for c in clauses]
        instances += 1 << ctx.n
        details["shapes"] += 1
        if params.get("shape") is not None:
            details["g1_count"] = int(g1.size)
            details["gN_count"] = int(gn.size)
    return {"instances": instances, "failures": failures, "details": details}


def _run_lemma_gi(params, shard):
    instances, failures = 0, []
    shapes = 0
    for ctx in _contexts(params, shard):
        shapes += 1
        clauses = []
        counts = ctx.stage_counts()
        if len(set(counts)) > 1:
            clauses.append({"clause": "stage sizes differ", "counts": counts})
        members = ctx.stage_members(1)
        for i in range(1, ctx.n):
            nxt = ctx.stage_members(i + 1)
            image = ctx.apply_step(members, i)
            instances += 1
            if not np.array_equal(np.sort(image), nxt):
                clauses.append({"clause": "step image", "i": i})
            members = nxt
        failures += [{"shape": catalog_line(ctx.shape), **c} for c in clauses]
    return {"instances": instances, "failures": failures,
            "details": {"shapes": shapes}}


def _frame_signature(frame: GammaFrame, se_side: bool, tables: dict, sidx, rows, cols):
    """One side's statistic columns over the fillings with supports sidx;
    tables keeps the shape's chain tables by (direction, region)."""
    direction = SE if se_side else NE
    regions = [None]  # the whole shape, then C_i or C'_i, then R_j or R'_j
    for i in range(1, frame.k + 1):
        regions.append(frame.c_rect(i) if se_side else frame.c_prime_rect(i))
    for j in range(1, frame.l + 1):
        regions.append(frame.r_rect(j) if se_side else frame.r_prime_rect(j))
    for r in regions:
        if (direction, r) not in tables:
            tables[direction, r] = support_chain_table(frame.F, direction, r)[sidx]
    columns = [tables[direction, r] for r in regions]
    for i in range(1, frame.k + 1):
        line = frame.c_line(i) if se_side else frame.c_prime_line(i)
        columns.append(cols[:, line - 1])
    for j in range(1, frame.l + 1):
        line = frame.r_line(j) if se_side else frame.r_prime_line(j)
        columns.append(rows[:, line - 1])
    for x in range(frame.k + 1, frame.w + 1):
        columns.append(cols[:, x - 1])
    for y in range(1, frame.h - frame.l + 1):
        columns.append(rows[:, y - 1])
    return np.column_stack(columns)


def _run_lem_ferrers(params, shard):
    instances, failures = 0, []
    for s in _catalog_shapes(params["max_cells"], shard, connected=True):
        if not is_nw_ferrers(s):
            continue
        rows, cols, sidx = _capped_fillings(s, params["max_entry"])
        tables = {}
        k_adm, l_adm = admissible_frame_counts(s)
        for k in range(0, min(k_adm, params["kmax"]) + 1):
            for l in range(0, min(l_adm, params["lmax"]) + 1):
                frame = GammaFrame(s, k, l)
                se_sig = _frame_signature(frame, True, tables, sidx, rows, cols)
                ne_sig = _frame_signature(frame, False, tables, sidx, rows, cols)
                instances += 1
                if not multiset_equal(se_sig, ne_sig):
                    failures.append({"shape": catalog_line(s), "k": k, "l": l})
    return {"instances": instances, "failures": failures,
            "details": {"level": "statistic multisets"}}


def _moon_keys(m: Shape, rects: list[Rect], max_entry: int):
    """NE chain per maximal rectangle (in the given order), row and column
    sums of the sum-capped fillings of a moon."""
    rows, cols, sidx = _capped_fillings(m, max_entry)
    columns = [support_chain_table(m, NE, r)[sidx] for r in rects]
    return np.column_stack(columns), rows, cols


def _rubey_pairs(max_cells: int):
    """(class, columns, t, swapped columns) for every moon and every
    adjacent column swap that leaves a moon, one column class at a time.

    A moon is keyed by its column intervals, left to right; its class maps
    the keys of all moons of its size with the same multiset of column
    intervals to the moons.  Swapping columns t and t+1 keeps the multiset,
    so the swapped moon is in the class exactly when the swap leaves a moon.
    """
    for n in range(1, max_cells + 1):
        classes: dict[tuple, dict] = {}
        for m in enum_moon_polyominoes(n):
            cols = tuple((r[0], r[-1]) for r in map(m.col_rows, range(1, m.width + 1)))
            classes.setdefault(tuple(sorted(cols)), {})[cols] = m
        for moons in classes.values():
            for cols in moons:
                for t in range(1, len(cols)):
                    swapped = cols[:t - 1] + (cols[t], cols[t - 1]) + cols[t + 1:]
                    if swapped in moons:
                        yield moons, cols, t, swapped


def _run_rubey(params, shard):
    instances, failures = 0, []
    group, tables = None, {}  # a class and its moons' rectangles and keys
    pairs = itertools.islice(_rubey_pairs(params["max_cells"]), shard[0], None, shard[1])
    for moons, cols, t, swapped in pairs:
        if moons is not group:
            group, tables = moons, {}
        for c in (cols, swapped):
            if c not in tables:
                rects = maximal_rectangles(moons[c])
                tables[c] = (rects, *_moon_keys(moons[c], rects, params["max_entry"]))
        instances += 1
        rects_m, lam_m, rows_m, cols_m = tables[cols]
        rects_s, lam_s, rows_s, cols_s = tables[swapped]
        widths_m = [r.width for r in rects_m]
        if len(set(widths_m)) != len(widths_m) or widths_m != [r.width for r in rects_s]:
            failures.append({"shape": catalog_line(moons[cols]), "swap": t,
                             "clause": "rectangle widths do not match"})
            continue
        sigma = list(range(cols_s.shape[1]))
        sigma[t - 1], sigma[t] = sigma[t], sigma[t - 1]
        key_m = np.hstack([lam_m, rows_m, cols_m])
        key_s = np.hstack([lam_s, rows_s, cols_s[:, sigma]])
        if not multiset_equal(key_m, key_s):
            failures.append({"shape": catalog_line(moons[cols]), "swap": t,
                             "clause": "class sizes"})
    return {"instances": instances, "failures": failures,
            "details": {"level": "cardinalities"}}


def _run_ds_free_oracle(params, shard):
    instances, failures = 0, []
    dent_free = 0
    decomposed = 0
    for s in _catalog_shapes(params["max_cells"], shard):
        instances += 1
        line = None
        by_pattern = is_ds_free(s, "pattern")
        by_rect = is_ds_free(s, "rectangle")
        if by_pattern != by_rect:
            line = catalog_line(s)
            failures.append({"shape": line, "clause": "criteria disagree",
                             "pattern": by_pattern, "rectangle": by_rect})
        if by_pattern:
            dent_free += 1
        if not is_connected(s):
            continue
        try:
            ferrers_decompose(s)
        except DecompositionError as exc:
            if by_pattern:
                failures.append({"shape": catalog_line(s),
                                 "clause": "decompose failed", "error": str(exc)})
            continue
        if by_pattern:
            decomposed += 1
        else:
            failures.append({"shape": catalog_line(s),
                             "clause": "decompose succeeded on dented shape"})
    return {"instances": instances, "failures": failures,
            "details": {"dent_free": dent_free, "decomposed": decomposed}}


# property -> (runner, {param: (floor, default, cap)}).  A value below the
# floor is an error even with the override.  A Ferrers frame may have no
# special columns or rows, so lem_ferrers' kmax and lmax start at 0.  The
# optional single shape of genskew and lemma_gi has no default; its budget
# counts cells, up to the max_cells cap.
_PROPERTIES = {
    "cor_sskew": (_run_cor_sskew, {"max_cells": (1, 9, 14), "kmax": (1, 3, 3),
                                   "refine_cells": (0, 7, 7), "max_entry": (1, 2, 2)}),
    "conjecture": (_run_conjecture, {"max_cells": (1, 9, 14), "kmax": (1, 3, 3)}),
    "thm_bp": (_run_thm_bp, {"max_cells": (1, 9, 14)}),
    "genskew": (_run_genskew, {"max_cells": (1, 10, 12), "shape": (1, None, 12)}),
    "lemma_gi": (_run_lemma_gi, {"max_cells": (1, 8, 10), "shape": (1, None, 10)}),
    "lem_ferrers": (_run_lem_ferrers, {"max_cells": (1, 8, 8), "kmax": (0, 2, 2),
                                       "lmax": (0, 2, 2), "max_entry": (1, 2, 2)}),
    "rubey": (_run_rubey, {"max_cells": (1, 8, 10), "max_entry": (1, 1, 2)}),
    "ds_free_oracle": (_run_ds_free_oracle, {"max_cells": (1, 9, 9)}),
}

PROPERTIES = tuple(_PROPERTIES)


def _run(prop: str, params: dict, shard: tuple[int, int]) -> dict:
    return _PROPERTIES[prop][0](params, shard)


def _merge_details(parts) -> dict:
    out: dict = {}
    for part in parts:
        for key, val in part["details"].items():
            if isinstance(val, bool):
                out[key] = out.get(key, False) or val
            elif isinstance(val, int):
                out[key] = out.get(key, 0) + val
            else:
                out[key] = val
    return out


def verify(prop: str, **params) -> VerificationReport:
    """Run one property check and return its report.

    Keyword params are property-specific ranges (max_cells, kmax, lmax,
    refine_cells, max_entry) plus jobs and, for genskew/lemma_gi, an
    optional single shape (catalog line or Shape).  Each given value goes
    through check_budget: below its floor (1, or 0 for refine_cells and
    lem_ferrers' kmax and lmax) it raises ValueError, and above its cap
    BudgetError unless SKEWFILL_BUDGET_OVERRIDE=1.  A single shape is
    budgeted by its cells against the max_cells cap.  jobs runs from 1 to
    64, and no override lifts that cap.
    """
    if prop not in _PROPERTIES:
        raise ValueError(f"unknown property {prop!r}, expected one of {PROPERTIES}")
    budgets = _PROPERTIES[prop][1]
    effective = {name: default for name, (_, default, _) in budgets.items()
                 if default is not None}
    jobs = int(params.pop("jobs", 1))
    for key, val in params.items():
        if key not in budgets:
            raise ValueError(f"property {prop} does not take parameter {key!r}")
        floor, _, cap = budgets[key]
        if key == "shape":
            val = catalog_line(val) if isinstance(val, Shape) else val
            if val is not None:  # counted from the grammar, before any cell is built
                cells = sum(b - a + 1 for a, b in _catalog_intervals(val))
                check_budget(f"{prop}: shape cells", cells, floor, cap)
        else:
            val = int(val)
            check_budget(f"{prop}: {key}", val, floor, cap)
        effective[key] = val
    check_budget("jobs", jobs, 1, _MAX_JOBS, unlock=False)

    start = time.perf_counter()
    if jobs == 1:
        parts = [_run(prop, effective, (0, 1))]
    else:
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.starmap(
                _run, [(prop, effective, (k, jobs)) for k in range(jobs)]
            )
    failures = sorted(
        (f for part in parts for f in part["failures"]),
        key=lambda f: json.dumps(f, sort_keys=True),
    )
    report = VerificationReport(
        property=prop,
        params=effective,
        instances=sum(part["instances"] for part in parts),
        failures=failures,
        details=_merge_details(parts),
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )
    return report
