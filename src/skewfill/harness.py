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
                 instances = (shape, k) pairs.
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
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field

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
from .enumeration import EnumSpec, catalog_line, enum_fillings, enum_moon_polyominoes, \
    enum_skew_shapes, parse_catalog_line
from .fillings import NE, SE
from .shapes import Rect, Shape, dent_shape, is_connected, is_moon, is_nw_ferrers, \
    maximal_rectangles, normalize
from .structure import DecompositionError, ferrers_decompose, is_ds_free, sum_permutations

PROPERTIES = (
    "cor_sskew",
    "conjecture",
    "thm_bp",
    "genskew",
    "lemma_gi",
    "lem_ferrers",
    "rubey",
    "ds_free_oracle",
)


class BudgetError(ValueError):
    """A parameter exceeds its cap and no override is set."""


# property -> {param: (default, cap)}
_BUDGETS: dict[str, dict[str, tuple[int, int]]] = {
    "cor_sskew": {"max_cells": (9, 9), "kmax": (3, 3),
                  "refine_cells": (7, 7), "max_entry": (2, 2)},
    "conjecture": {"max_cells": (9, 9), "kmax": (3, 3)},
    "thm_bp": {"max_cells": (9, 9)},
    "genskew": {"max_cells": (10, 10)},
    "lemma_gi": {"max_cells": (8, 10)},
    "lem_ferrers": {"max_cells": (8, 8), "kmax": (2, 2),
                    "lmax": (2, 2), "max_entry": (2, 2)},
    "rubey": {"max_cells": (8, 8), "max_entry": (1, 2)},
    "ds_free_oracle": {"max_cells": (9, 9)},
}

_SHAPE_PARAM_OK = {"genskew", "lemma_gi"}


@dataclass(eq=False)
class VerificationReport:
    property: str
    params: dict
    instances: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def __eq__(self, other):
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return (
            self.property == other.property
            and self.params == other.params
            and self.instances == other.instances
            and self.failures == other.failures
            and self.details == other.details
        )


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
    return VerificationReport(
        property=d["property"],
        params=d["params"],
        instances=d["instances"],
        failures=d["failures"],
        details=d["details"],
        elapsed_ms=d["millis"],
    )


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
        h, w = self.F.height, self.F.width
        if not 0 <= self.k <= w or not 0 <= self.l <= h:
            raise ValueError("special counts out of range")
        for x in range(1, self.k + 1):
            if len(self.F.col_rows(x)) != h:
                raise ValueError(f"column {x} does not span the full height")
        t = self.t
        for j in range(self.l):
            if len(self.F.row_cols(h - j)) != t:
                raise ValueError(f"top {self.l} rows are not of equal length")

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


def _striped(iterable, shard):
    index, count = shard
    for k, item in enumerate(iterable):
        if k % count == index:
            yield item


def _catalog(max_cells, connected=None, ds_free=None):
    for n in range(1, max_cells + 1):
        yield from enum_skew_shapes(n, connected=connected, ds_free=ds_free)


def _transversals(s: Shape) -> np.ndarray:
    """Support masks of the transversals of s, in enumeration order."""
    if s.height != s.width:
        return np.zeros(0, dtype=np.int64)
    values = [f.values for f in enum_fillings(s, EnumSpec(mode="transversal"))]
    return support_index(np.array(values, dtype=np.int64).reshape(len(values), s.size))


def _tr_counts(s: Shape, ts: np.ndarray, ks) -> list[tuple[int, int]]:
    """(#iota_k-avoiding, #delta_k-avoiding) transversals for each k."""
    if not ts.size:
        return [(0, 0) for _ in ks]
    ne = support_chain_table(s, NE)[ts]
    se = support_chain_table(s, SE)[ts]
    return [(int(np.count_nonzero(ne < k)), int(np.count_nonzero(se < k))) for k in ks]


def _run_conjecture(params, shard):
    instances, failures = 0, []
    strict = 0
    ds_strict = False
    dent = dent_shape()
    ks = range(1, params["kmax"] + 1)
    for s in _striped(_catalog(params["max_cells"]), shard):
        for k, (ti, td) in zip(ks, _tr_counts(s, _transversals(s), ks)):
            instances += 1
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
    for s in _striped(_catalog(params["max_cells"]), shard):
        ts = _transversals(s)
        if not ts.size:
            continue
        instances += 1
        ctx = ShapeContext(s)
        d_count = int(np.isin(ts, ctx.stage_members(1)).sum())  # delta2-avoiders
        u_count = int(np.isin(ts, ctx.stage_members(ctx.n)).sum())  # {iota2, fd}-avoiders
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
    stream = _catalog(params["max_cells"], connected=True, ds_free=True)
    for s in _striped(stream, shard):
        shapes_checked += 1
        ks = range(2, params["kmax"] + 1)
        for k, (ti, td) in zip(ks, _tr_counts(s, _transversals(s), ks)):
            instances += 1
            if ti != td:
                failures.append({"shape": catalog_line(s), "k": k,
                                 "iota": ti, "delta": td})
        if s.size <= params["refine_cells"]:
            refined_checked += 1
            for k in _refined_sum_check(s, params["kmax"], params["max_entry"]):
                failures.append({"shape": catalog_line(s), "k": k,
                                 "clause": "refined sum classes"})
            instances += params["kmax"] - 1
    return {"instances": instances, "failures": failures,
            "details": {"shapes": shapes_checked, "refined_shapes": refined_checked}}


def _shape_targets(params):
    if params.get("shape") is not None:
        return [parse_catalog_line(params["shape"])]
    return None


def _run_genskew(params, shard):
    instances, failures = 0, []
    single = _shape_targets(params)
    details = {"shapes": 0}
    stream = single if single is not None else _catalog(params["max_cells"])
    for s in _striped(stream, shard):
        ctx = ShapeContext(s)
        g1 = ctx.stage_members(1)
        gn = ctx.stage_members(ctx.n)
        rk = ctx.row_keys()
        image = ctx.apply_all(g1)
        ordered = np.sort(image)
        clauses = []
        if not multiset_equal(rk[g1], rk[gn]):
            clauses.append("direct refined counts")
        if np.any(ordered[1:] == ordered[:-1]):
            clauses.append("forward not injective")
        elif not np.array_equal(ordered, gn):
            clauses.append("image is not the final stage")
        if not np.array_equal(rk[image], rk[g1]):
            clauses.append("row sums not preserved")
        if not np.array_equal(ctx.apply_all(image, forward=False), g1):
            clauses.append("backward not inverse")
        failures += [{"shape": catalog_line(s), "clause": c} for c in clauses]
        instances += 1 << ctx.n
        details["shapes"] += 1
        if single is not None:
            details["g1_count"] = int(g1.size)
            details["gN_count"] = int(gn.size)
    return {"instances": instances, "failures": failures, "details": details}


def _run_lemma_gi(params, shard):
    instances, failures = 0, []
    shapes = 0
    single = _shape_targets(params)
    stream = single if single is not None else _catalog(params["max_cells"])
    for s in _striped(stream, shard):
        ctx = ShapeContext(s)
        line = catalog_line(s)
        shapes += 1
        counts = ctx.stage_counts()
        if len(set(counts)) > 1:
            failures.append({"shape": line, "clause": "stage sizes differ",
                             "counts": counts})
        members = ctx.stage_members(1)
        for i in range(1, ctx.n):
            nxt = ctx.stage_members(i + 1)
            image = ctx.apply_step(members, i)
            instances += 1
            if not np.array_equal(np.sort(image), nxt):
                failures.append({"shape": line, "clause": "step image", "i": i})
            members = nxt
    return {"instances": instances, "failures": failures,
            "details": {"shapes": shapes}}


def _frame_signature(frame: GammaFrame, se_side: bool, sidx, rows, cols):
    s = frame.F
    regions = [None]  # the whole shape, then C_i or C'_i, then R_j or R'_j
    for i in range(1, frame.k + 1):
        regions.append(frame.c_rect(i) if se_side else frame.c_prime_rect(i))
    for j in range(1, frame.l + 1):
        regions.append(frame.r_rect(j) if se_side else frame.r_prime_rect(j))
    columns = [support_chain_table(s, SE if se_side else NE, r)[sidx] for r in regions]
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

    def frames():
        for s in _catalog(params["max_cells"], connected=True):
            if not is_nw_ferrers(s):
                continue
            k_adm, l_adm = admissible_frame_counts(s)
            for k in range(0, min(k_adm, params["kmax"]) + 1):
                for l in range(0, min(l_adm, params["lmax"]) + 1):
                    yield GammaFrame(s, k, l)

    for frame in _striped(frames(), shard):
        s = frame.F
        rows, cols, sidx = _capped_fillings(s, params["max_entry"])
        se_sig = _frame_signature(frame, True, sidx, rows, cols)
        ne_sig = _frame_signature(frame, False, sidx, rows, cols)
        instances += 1
        if not multiset_equal(se_sig, ne_sig):
            failures.append({"shape": catalog_line(s), "k": frame.k, "l": frame.l})
    return {"instances": instances, "failures": failures,
            "details": {"level": "statistic multisets"}}


def _column_swap(s: Shape, t: int) -> Shape:
    swapped = frozenset(
        (t + 1 if x == t else t if x == t + 1 else x, y) for x, y in s.cells
    )
    return normalize(swapped)


def _moon_keys(m: Shape, rects: list[Rect], max_entry: int):
    """NE chain per maximal rectangle (in the given order), row and column
    sums of the sum-capped fillings of a moon."""
    rows, cols, sidx = _capped_fillings(m, max_entry)
    columns = [support_chain_table(m, NE, r)[sidx] for r in rects]
    return np.column_stack(columns), rows, cols


def _run_rubey(params, shard):
    instances, failures = 0, []

    def pairs():
        for n in range(1, params["max_cells"] + 1):
            for m in enum_moon_polyominoes(n):
                for t in range(1, m.width):
                    sm = _column_swap(m, t)
                    if is_moon(sm):
                        yield m, t, sm

    for m, t, sm in _striped(pairs(), shard):
        instances += 1
        line = catalog_line(m) if m.size else ""
        rects_m, rects_s = maximal_rectangles(m), maximal_rectangles(sm)
        widths_m = [r.width for r in rects_m]
        if len(set(widths_m)) != len(widths_m) or widths_m != [r.width for r in rects_s]:
            failures.append({"shape": line, "swap": t,
                             "clause": "rectangle widths do not match"})
            continue
        lam_m, rows_m, cols_m = _moon_keys(m, rects_m, params["max_entry"])
        lam_s, rows_s, cols_s = _moon_keys(sm, rects_s, params["max_entry"])
        sigma = list(range(cols_s.shape[1]))
        sigma[t - 1], sigma[t] = sigma[t], sigma[t - 1]
        key_m = np.hstack([lam_m, rows_m, cols_m])
        key_s = np.hstack([lam_s, rows_s, cols_s[:, sigma]])
        if not multiset_equal(key_m, key_s):
            failures.append({"shape": line, "swap": t, "clause": "class sizes"})
    return {"instances": instances, "failures": failures,
            "details": {"level": "cardinalities"}}


def _run_ds_free_oracle(params, shard):
    instances, failures = 0, []
    dent_free = 0
    decomposed = 0
    for s in _striped(_catalog(params["max_cells"]), shard):
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


_RUNNERS = {
    "cor_sskew": _run_cor_sskew,
    "conjecture": _run_conjecture,
    "thm_bp": _run_thm_bp,
    "genskew": _run_genskew,
    "lemma_gi": _run_lemma_gi,
    "lem_ferrers": _run_lem_ferrers,
    "rubey": _run_rubey,
    "ds_free_oracle": _run_ds_free_oracle,
}


def _run(prop: str, params: dict, shard: tuple[int, int]) -> dict:
    return _RUNNERS[prop](params, shard)


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


def _override_active() -> bool:
    return os.environ.get("SKEWFILL_BUDGET_OVERRIDE") == "1"


def verify(prop: str, **params) -> VerificationReport:
    """Run one property check and return its report.

    Keyword params are property-specific ranges (max_cells, kmax, lmax,
    refine_cells, max_entry) plus jobs and, for genskew/lemma_gi, an
    optional single shape (catalog line or Shape).  Values above the
    documented caps, and a single shape with more cells than the max_cells
    cap, raise BudgetError unless SKEWFILL_BUDGET_OVERRIDE=1.
    """
    if prop not in _RUNNERS:
        raise ValueError(f"unknown property {prop!r}, expected one of {PROPERTIES}")
    budgets = _BUDGETS[prop]
    effective = {name: default for name, (default, _) in budgets.items()}
    jobs = 1
    for key, val in params.items():
        if key == "jobs":
            jobs = int(val)
            continue
        if key == "shape" and prop in _SHAPE_PARAM_OK:
            if isinstance(val, Shape):
                val = catalog_line(val)
            effective["shape"] = val
            continue
        if key not in budgets:
            raise ValueError(f"property {prop} does not take parameter {key!r}")
        effective[key] = int(val)
    if not _override_active():
        for name, (_, cap) in budgets.items():
            if effective[name] > cap:
                raise BudgetError(
                    f"{prop}: {name}={effective[name]} exceeds cap {cap} "
                    "(set SKEWFILL_BUDGET_OVERRIDE=1 to unlock)"
                )
        if effective.get("shape") is not None:
            cells = parse_catalog_line(effective["shape"]).size
            cap = budgets["max_cells"][1]
            if cells > cap:
                raise BudgetError(
                    f"{prop}: shape has {cells} cells, exceeds max_cells cap {cap} "
                    "(set SKEWFILL_BUDGET_OVERRIDE=1 to unlock)"
                )
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

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
