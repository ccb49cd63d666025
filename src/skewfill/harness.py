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
                 filling; instances = fillings covered.
  lemma_gi       equal stage sizes and step maps carrying each stage onto
                 the next; instances = (shape, step) pairs covered.
  lem_ferrers    SE-signature multiset equals NE-signature multiset over
                 all bounded fillings of each framed Ferrers shape;
                 instances = frames checked.
  rubey          class-size equality under moon-preserving adjacent
                 column transpositions; instances = (moon, swap) pairs.
  ds_free_oracle agreement of the two dent-freeness criteria plus the
                 decompose/validate round-trip; instances = shapes.

One runner, _run, drives every property (_PROPERTIES).  A property's
source(params, shard) yields the items a shard owns: rubey's column
classes, or one item per list on a pruned catalog walk, grown from its
parent's (_walk): the list, its ShapeContext (_contexts) or the list
with its dent bit (ds_free_oracle).  Its check(item, params) gives one
item's (instances, failures, details), and covered(params), set for
conjecture, genskew and lemma_gi, starts shard 0's part with the
(instances, details) of the catalog shapes no check scans.  A part adds
its items' instances, joins their failures and folds their flat details
with _add; the report merges the parts alike.

The three transversal properties walk only the catalog shapes they can
use; a pruned walk yields the lists of the full walk that pass its
prefix test, in the same order (enumeration._catalog_walk).  thm_bp and
conjecture take the diagonal walk, which keeps the row prefixes of the
shapes admitting a transversal; its square shapes are those shapes.
All three read the transversals off the rows as permutations, with no
Shape, ShapeContext or 2^n table (the argument is at
_transversal_chains).  A shape without a transversal counts (0, 0) for
every k in conjecture, never a failure, so conjecture's covered gives
its instances, kmax per catalog shape, from enumeration.catalog_sums,
which counts the catalog by the walk's own child rule.
cor_sskew walks the connected, dent-free row prefixes, and its refined
part runs on those of at most refine_cells cells.

genskew and lemma_gi scan the connected shapes of the catalog on the
connected walk, one ShapeContext each, and cover the disconnected ones
by the product lemma below.  Like conjecture's, their covered gives
instances and shapes for the whole catalog from catalog_sums, so
instances counts the fillings, or the (shape, step) pairs, covered, not
those scanned.  The differential tests check the lemma against a
scan of every shape up to a small budget; above it, a disconnected
shape is covered by the lemma and not by its own scan.  A single shape
given as a parameter is scanned itself, connected or not.  genskew maps
stage 1 forward, checks that the sorted image is stage N and that each
code keeps its row key, and maps the image back; the repeat test and
the direct refined counts follow from the first two checks, so they run
only when one of those fails (the argument is at _check_genskew).

The product lemma.  Order the components of a skew shape from lower
left to upper right.  Their rows and their columns are disjoint, and
they take consecutive blocks of labels, component C the labels after
o_C.  A delta_2, iota_2 or fd occurrence lies inside one component,
since its rows are linked by shared columns, and so does every row and
every step's rectangle X.  A step whose c_{i+1} starts a component has
a 1x1 X, so it is the identity.  Hence a code is in stage i exactly when
its part on each component C is in
  - the last stage of C, when C lies wholly at or below label i;
  - stage i - o_C of C, when C holds c_i;
  - stage 1 of C, when C lies wholly above label i.
The forward map, the backward map and the row keys also act component
by component, and every stage holds the empty filling, so no factor is
empty.  So onto, kept, backward, equal stage sizes and step images hold
on a shape exactly when they hold on each of its components, and with
onto and kept the direct refined counts: a shape passes genskew, or
lemma_gi, exactly when each of its components does.

lem_ferrers walks the partitions: the row prefixes whose rows all start
at column 1, which are exactly the NW Ferrers shapes
(enumeration._ferrers_prefix).  A frame is a pair (k, l) of special
column and row counts, bounded by the partition's rows: the full-height
columns and the rows as long as the top row.  rubey compares a moon
with each moon that a swap of two adjacent columns turns it into.  A
swap keeps the multiset of column intervals, so the swapped moon is in
the moon's column class (one size, one such multiset) exactly when the
swap leaves a moon.  rubey takes one class at a time, and a shard takes
whole classes: each class's family is built once, in one shard.

Sum classes.  The refined part of cor_sskew, lem_ferrers and rubey
compares two multisets with a key per filling: on the left some chain
statistics, the row sums and the column sums, on the right the same with
row y's sum taken from row rho(y) and column x's from sigma(x).  The
fillings have entries <= max_entry and all row sums or all column sums
<= max_entry: the sum classes an entry cap enumerates completely
(_engine.sum_capped_mask).  A bare entry cap cuts classes in half and
makes the identities false as stated; the 2x2 square with row and column
sums (1, 3) shows this for caps 1 and 2.  A shape builds its fillings
and identity keys once (_family, the one owner of the key format), and
each chain table once (_filling_table); a rubey column class builds one
family, its first moon's.  The fillings are generated, not filtered out
of all (max_entry + 1)^n value vectors: the row-capped ones one capped
word per row, then the column-capped ones that are not row-capped
(_engine.capped_fillings).  A chain table of a rectangle reads the one
table of its box size (_engine.support_chain_table).

Each key is packed into one int64, in a radix fixed by the shape's
height h, its width w and max_entry alone: a row's sum is at most
max_entry * w, a column's at most max_entry * h, and a chain holds at
most min(h, w) cells, so every row digit has base max_entry * w + 1,
every column digit max_entry * h + 1, and each chain statistic one digit
above the sums in base min(h, w) + 1.  Any (rho, sigma) packs in this
radix, and both sides share it and the fallback below: cor_sskew and
lem_ferrers compare a shape with itself, and rubey compares moons of one
h and w on equal rectangle widths, so on as many chain digits.  The
identity keys are packed from the joined line sums capped_fillings
returns; a permuted key adds what its moved lines change.  Past 62
bits the keys are the key matrices, whose rows multiset_equal sorts.
  cor_sskew    left SE chain < k, right NE chain < k, keys packed once
               for all k; (rho, sigma) from sum_permutations.  The
               identity passes too on every connected dent-free shape of
               at most 9 cells; tests/test_decomposition.py tests
               sum_permutations.
  lem_ferrers  SE chains of the shape, C_1..C_k, R_1..R_l left, NE chains
               of the shape, C'_1..C'_k, R'_1..R'_l right (_frame_rects).
               R_j pairs with R'_j, so the j-th special row from the top,
               h+1-j, pairs with the j-th from the bottom, h-l+j; C_i with
               C'_i, so column i with k+1-i.  rho reverses the top l rows
               and sigma the first k columns.
  rubey        NE chains of each maximal rectangle, of the moon left and
               the swapped moon right; rho is the identity and sigma
               swaps columns t and t+1.  sigma is an involution, and
               applied to both sides it keeps a multiset, so comparing m
               with its swap s is the same check as s with m: each
               unordered pair is compared once and counts two instances,
               and on failure two failures, one per moon; a self-swap, of
               two equal columns, counts one.  No key is permuted: a
               labeling pi maps a moon's columns to the first moon's
               columns with the same interval and turns each filling F of
               the first moon into the moon's F o pi.  A filling of the
               swapped moon is G o tau for a filling G of the moon, and
               its sums under sigma = tau are G's own; with G = F o pi
               the left side reads the first moon's family through pi,
               the right through pi o tau, both keyed by the sums of
               F o pi.  Keying both by F's own sums changes every key by
               one fixed injective map, so swap t compares the sorted keys
               of the two labelings (_labeled_keys).
lem_ferrers and rubey check multisets only ("level" in their details).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import os
import time
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from ._engine import ShapeContext, StepError, bit_gather, capped_fillings, multiset_equal, \
    sorted_keys, support_chain_table
from .enumeration import _admits_transversal, _catalog_intervals, _catalog_walk, \
    _diagonal_prefix, _ferrers_prefix, _flag_prefix, _joined, _line, _new_dent, _transversals, \
    catalog_line, catalog_sums, enum_moon_polyominoes, parse_catalog_line
from .fillings import NE, SE, _lis
from .shapes import Rect, Shape, _interval_rectangles, _interval_shape, _kept_skew, _quoted, \
    _rectangles, _row_spans, _top_row_dents, dent_shape
from .structure import DecompositionError, _rectangle_ds_free, ferrers_decompose, \
    sum_permutations

class BudgetError(ValueError):
    """A parameter exceeds its cap and no override is set."""


def check_budget(what: str, value: int, floor: int, cap: int, unlock: bool = True) -> None:
    """Refuse a value from outside the program that is out of its range.

    A value that is not an int, or is a bool, raises ValueError.  Below
    the floor raises ValueError, with or without the override.  Above the
    cap raises BudgetError, unless unlock is set and
    SKEWFILL_BUDGET_OVERRIDE=1.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what}={_quoted(value)} is not an integer")
    if value < floor:
        raise ValueError(f"{what}={_quoted(value)} is below {floor}")
    if value > cap and not (unlock and os.environ.get("SKEWFILL_BUDGET_OVERRIDE") == "1"):
        hint = " (set SKEWFILL_BUDGET_OVERRIDE=1 to unlock)" if unlock else ""
        raise BudgetError(f"{what}={_quoted(value)} exceeds cap {cap}{hint}")


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


# each report field, in the order format_report writes it, with its type;
# a bool is no number
_FIELD_TYPES = {"property": str, "params": dict, "instances": int, "failures": list,
                "details": dict, "millis": (int, float)}


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
    fields = dict(zip(_FIELD_TYPES, (r.property, r.params, r.instances, r.failures,
                                     r.details, r.elapsed_ms)))
    if fmt == "json":
        return json.dumps(fields, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(fields)
        w.writerow(json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else v
                   for v in fields.values())
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def _typed_report(fields: dict) -> VerificationReport:
    """The report of parsed fields, each of which must have its type."""
    for name, kind in _FIELD_TYPES.items():
        if not isinstance(fields[name], kind) or isinstance(fields[name], bool):
            raise ValueError(f"report field {name!r} has the wrong type")
    fields["elapsed_ms"] = fields.pop("millis")
    return VerificationReport(**fields)


def parse_report_json(text: str) -> VerificationReport:
    try:
        d = json.loads(text)
    except RecursionError:
        raise ValueError("report JSON nests too deep") from None
    if not isinstance(d, dict):
        raise ValueError("not a report JSON object")
    try:
        return _typed_report({name: d[name] for name in _FIELD_TYPES})
    except KeyError as exc:
        raise ValueError(f"report JSON lacks the field {exc}") from None


def parse_report_csv(text: str) -> VerificationReport:
    # the process-wide field limit is lifted for this call: no field is longer than the text
    limit = csv.field_size_limit(len(text) + 1)
    try:
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 2 or rows[0] != list(_FIELD_TYPES) or len(rows[1]) != len(_FIELD_TYPES):
            raise ValueError("not a report CSV")
        prop, params, instances, failures, details, millis = rows[1]
        return _typed_report({"property": prop, "params": json.loads(params),
                              "instances": int(instances), "failures": json.loads(failures),
                              "details": json.loads(details), "millis": float(millis)})
    except (csv.Error, RecursionError) as exc:
        raise ValueError(f"not a report CSV: {exc}") from None
    finally:
        csv.field_size_limit(limit)


# --- sources and checks ----------------------------------------------------


def _walk(keep, grow=lambda up, intervals: intervals, root=None):
    """The source of the items of the lists a shard owns on the walk keep
    prunes (enumeration._catalog_walk): a list's item is grow(its parent's
    item, its intervals), root the empty list's, and a shard's unowned
    one-row lists grow too, as parents.  The walk is a preorder, pruned or
    not: between a list and its extensions it yields only more of them, so
    a parent is the latest list one row shorter."""
    def source(params, shard):
        items = [root]  # items[d]: the item of the current path's list of d rows
        for intervals, _, mine in _catalog_walk(params["max_cells"], shard, keep):
            del items[len(intervals):]
            items.append(grow(items[-1], intervals))
            if mine:
                yield items[-1]
    return source


def _child_context(parent: ShapeContext, intervals) -> ShapeContext:
    """The context of a list, extending its parent's by the top row."""
    (a, b), y = intervals[-1], len(intervals)
    cells = parent.shape.sorted_cells() + tuple((x, y) for x in range(a, b + 1))
    return ShapeContext(_kept_skew(cells), parent)


def _contexts(params, shard, keep=None):
    """A shard's ShapeContexts: of the single shape param on shard 0, or of
    its catalog shapes on the walk keep prunes (_catalog_walk), by _walk."""
    if params.get("shape") is not None:
        return [ShapeContext(parse_catalog_line(params["shape"]))] if shard[0] == 0 else []
    return _walk(keep, _child_context, ShapeContext(Shape(frozenset())))(params, shard)


def _transversal_chains(intervals):
    """(p, ne, se) for each transversal of the square skew shape with these
    rows, in enumeration._transversals order (row y holds its 1 in column
    p[y - 1]), with ne and se its longest NE and SE chains as
    support_chain_table counts them (see the _engine module docstring):
    se is the longest decreasing subsequence of p, and ne the largest
    longest increasing subsequence of the p[y - 1] in [lo, hi], y1 <= y <=
    y2, over the maximal rectangles (lo, hi, y1, y2).  A rectangle one row
    or column wide holds no NE pair, and every 1-cell lies in one.

    thm_bp's counts: no delta_2, iota_2 or fd top has label 1, so stage 1
    holds the delta_2-avoiders and stage N the {iota_2, fd}-avoiders.  On a
    transversal a delta_2 occurrence (2x2 cells, 1s top-left and
    bottom-right) is an SE pair, and by box closure every SE pair is one:
    the delta_2-avoiders have se < 2.  An iota_2 occurrence (1s bottom-left
    and top-right) spans a box of the shape, hence lies in a maximal
    rectangle, and an NE pair in a rectangle is one: the iota_2-avoiders
    have ne < 2.  p hits an fd placement when p[y - 1] == x for each of its
    cells (x, y) (shapes._top_row_dents).
    """
    rects = [r for r in _interval_rectangles(intervals) if r[0] < r[1] and r[2] < r[3]]
    for p in _transversals([range(a, b + 1) for a, b in intervals]):
        ne = max((_lis([x for x in p[y1 - 1:y2] if lo <= x <= hi]) for lo, hi, y1, y2 in rects),
                 default=1)
        yield p, ne, _lis([-x for x in p])


def _tr_counts(intervals, ks) -> list[tuple[int, int]]:
    """(#iota_k-avoiding, #delta_k-avoiding) transversals for each k."""
    chains = [(ne, se) for _, ne, se in _transversal_chains(intervals)]
    return [(sum(ne < k for ne, _ in chains), sum(se < k for _, se in chains)) for k in ks]


def _bp_counts(intervals) -> tuple[int, int]:
    """(#delta_2-avoiding, #{iota_2, fd}-avoiding) transversals."""
    rows = list(enumerate(intervals, start=1))
    fd = [cells for t in range(2, len(rows)) for cells in _top_row_dents(rows[:t], rows[t])]
    d_count = u_count = 0
    for p, ne, se in _transversal_chains(intervals):
        d_count += se < 2
        u_count += ne < 2 and not any(all(p[y - 1] == x for x, y in cells) for cells in fd)
    return d_count, u_count


_DENT = tuple(_row_spans(dent_shape()).values())  # the dent's row intervals


def _check_conjecture(intervals, params):
    failures, strict = [], 0
    ks = range(1, params["kmax"] + 1)
    for k, (ti, td) in zip(ks, _tr_counts(intervals, ks)):
        if ti < td:
            failures.append({"shape": _line(intervals), "k": k, "iota": ti, "delta": td})
        strict += ti > td
    return 0, failures, {"strict": strict, "ds_strict": strict > 0 and intervals == _DENT}


def _check_thm_bp(intervals, params):
    return 1, [{"shape": _line(intervals), "clause": clause, "count": count}
               for clause, count in zip(("delta2", "iota2+fd"), _bp_counts(intervals))
               if count != 1], {"shapes_with_transversal": 1}


_KEY_BOUND = 1 << 62  # every packed key lies below this


def _family(s: Shape, max_entry: int):
    """(keys, support) of the sum-capped fillings of s
    (_engine.capped_fillings), support their support masks; see Sum
    classes in the module docstring.  keys(stats, rho=None, sigma=None,
    at=every row) gives each filling's key, stats[at] an (N, d) block of
    chain statistics, rho and sigma 1-based or None for the identity."""
    lines, support = capped_fillings(s, max_entry)
    h, w = s.height, s.width
    *places, size = itertools.accumulate([max_entry * w + 1] * h + [max_entry * h + 1] * w,
                                         operator.mul, initial=1)
    base = min(h, w) + 1  # of each chain digit, above the sums
    if size <= _KEY_BOUND:
        places = np.array(places, dtype=np.int64)
        # einsum casts to int64 one buffer at a time; @ copies the whole matrix
        ident = np.einsum("ij,j->i", lines, places)

    def keys(stats: np.ndarray, rho=None, sigma=None, at=slice(None)) -> np.ndarray:
        perm = None if rho is None else np.array([*rho, *(h + x for x in sigma)]) - 1
        if size * base ** stats.shape[1] > _KEY_BOUND:
            return np.column_stack([stats[at], lines if perm is None else lines[:, perm]])
        chain_places = [size * base ** i for i in range(stats.shape[1])]
        key = ident + (stats @ np.array(chain_places, dtype=np.int64))[at]
        if perm is None:
            return key
        moved = (perm != np.arange(h + w)).nonzero()[0]
        return key + lines[:, perm[moved]] @ (places[moved] - places[perm[moved]])

    return keys, support


def _filling_table(s: Shape, max_entry: int):
    """_family's keys of s, and chains(direction, region=None), each
    filling's longest chain, building each (direction, region) table once."""
    keys, support = _family(s, max_entry)
    tables = {}

    def chains(direction: str, region: Rect | None = None) -> np.ndarray:
        if (direction, region) not in tables:
            tables[direction, region] = support_chain_table(s, direction, region)[support]
        return tables[direction, region]

    return keys, chains


def _refined_sum_check(s: Shape, kmax: int, max_entry: int):
    """Failure clauses of the sum-class comparison on one shape.  The sum
    keys of all kept fillings are packed once; each k compares a subset."""
    perms = sum_permutations(s)
    keys, chains = _filling_table(s, max_entry)
    none = np.zeros((len(chains(SE)), 0), dtype=np.int8)  # no statistic
    d_keys, i_keys = keys(none), keys(none, perms.rho, perms.sigma)
    return [k for k in range(2, kmax + 1)
            if not multiset_equal(d_keys[chains(SE) < k], i_keys[chains(NE) < k])]


def _check_cor_sskew(intervals, params):
    ks = range(2, params["kmax"] + 1)
    failures = []
    if _admits_transversal(intervals):
        failures += [{"shape": _line(intervals), "k": k, "iota": ti, "delta": td}
                     for k, (ti, td) in zip(ks, _tr_counts(intervals, ks)) if ti != td]
    refined = sum(b - a + 1 for a, b in intervals) <= params["refine_cells"]
    if refined:
        failures += [{"shape": _line(intervals), "k": k, "clause": "refined sum classes"}
                     for k in _refined_sum_check(_interval_shape(intervals), params["kmax"],
                                                 params["max_entry"])]
    return len(ks) * (1 + refined), failures, {"shapes": 1, "refined_shapes": int(refined)}


def _check_genskew(ctx, params):
    """The clauses one shape fails, from two facts about the forward
    image of g1: onto (sorted, it is gn) and kept (each code keeps its
    row key).  gn ascends strictly, so onto rules out a repeated image,
    and the repeat test only picks the clause when onto fails.  Onto and
    kept give multiset(rk[g1]) = multiset(rk[image]) = multiset(rk[gn]),
    so the direct counts are compared only when one of them fails."""
    g1 = ctx.stage_members(1)
    gn = ctx.stage_members(ctx.n)
    rk = ctx.row_keys()
    clauses, onto, kept = [], False, False
    try:
        image = ctx.apply_all(g1)
        ordered = np.sort(image)
        onto = np.array_equal(ordered, gn)
        kept = bool((rk[image] == rk[g1]).all())  # image and g1 have the same length
        if not onto:
            if np.any(ordered[1:] == ordered[:-1]):
                clauses.append({"clause": "forward not injective"})
            else:
                clauses.append({"clause": "image is not the final stage"})
        if not kept:
            clauses.append({"clause": "row sums not preserved"})
        if not (ctx.apply_all(image, forward=False) == g1).all():
            clauses.append({"clause": "backward not inverse"})
    except StepError as exc:  # forward, onto and kept stay False; backward, their clauses stand
        clauses.append({"clause": "step undefined" if exc.forward else "backward step undefined",
                        "i": exc.i, "code": exc.code})
    if not (onto and kept) and not multiset_equal(rk[g1], rk[gn]):
        clauses.insert(0, {"clause": "direct refined counts"})
    failures = [{"shape": catalog_line(ctx.shape), **c} for c in clauses]
    if params.get("shape") is None:
        return 0, failures, {"shapes": 0}
    return 1 << ctx.n, failures, {"shapes": 1, "g1_count": int(g1.size), "gN_count": int(gn.size)}


def _check_lemma_gi(ctx, params):
    """Equal stage sizes and step images on one shape; a step undefined on
    its stage gives a step undefined clause in place of its image's."""
    stages = [ctx.stage_members(i) for i in range(1, ctx.n + 1)]
    counts = [int(g.size) for g in stages]
    clauses = [{"clause": "stage sizes differ", "counts": counts}] if len(set(counts)) > 1 else []
    for i in range(1, ctx.n):
        try:
            if not np.array_equal(np.sort(ctx.apply_step(stages[i - 1], i)), stages[i]):
                clauses.append({"clause": "step image", "i": i})
        except StepError as exc:
            clauses.append({"clause": "step undefined", "i": exc.i, "code": exc.code})
    failures = [{"shape": catalog_line(ctx.shape), **c} for c in clauses]
    single = params.get("shape") is not None
    return single * (ctx.n - 1), failures, {"shapes": int(single)}


def _catalog_cover(params, at):
    """genskew's (at 1) or lemma_gi's (at 2) catalog totals; none for one shape."""
    if params.get("shape") is not None:
        return 0, {}
    sums = catalog_sums(params["max_cells"])
    return sums[at], {"shapes": sums[0]}


def _frame_rects(h: int, t: int, k: int, l: int, se: bool) -> list[Rect]:
    """One side's rectangles of the frame (k, l) on a NW Ferrers shape of
    height h whose top row has length t: SE gives C_1..C_k, R_1..R_l (C_i
    the leftmost i of the k special columns, R_j the topmost j of the l
    special rows), NE C'_i (the rightmost i) and R'_j (the bottommost j)."""
    if se:
        return [Rect(1, i, 1, h) for i in range(1, k + 1)] + \
            [Rect(1, t, h - j + 1, h) for j in range(1, l + 1)]
    return [Rect(k - i + 1, k, 1, h) for i in range(1, k + 1)] + \
        [Rect(1, t, h - l + 1, h - l + j) for j in range(1, l + 1)]


def _check_lem_ferrers(intervals, params):
    instances, failures = 0, []
    keys, chains = _filling_table(_interval_shape(intervals), params["max_entry"])
    # The rows all start at column 1 and their ends grow upward, so
    # the top row is the widest, the full-height columns are 1..b_1,
    # and the rows as long as the top row are the topmost, ending at w.
    h, w = len(intervals), intervals[-1][1]
    k_adm = intervals[0][1]
    l_adm = sum(b == w for _, b in intervals)
    for k in range(0, min(k_adm, params["kmax"]) + 1):
        for l in range(0, min(l_adm, params["lmax"]) + 1):
            se, ne = (np.column_stack([chains(d), *(chains(d, r) for r in
                                                    _frame_rects(h, w, k, l, d == SE))])
                      for d in (SE, NE))
            rho = [*range(1, h - l + 1), *range(h, h - l, -1)]
            sigma = [*range(k, 0, -1), *range(k + 1, w + 1)]
            instances += 1
            if not multiset_equal(keys(se), keys(ne, rho, sigma)):
                failures.append({"shape": _line(intervals), "k": k, "l": l})
    return instances, failures, {"level": "statistic multisets"}


def _column_classes(max_cells: int):
    """The moons' column classes, size by size, each as {columns: moon}: a
    moon's columns are its column intervals, left to right, and its class
    holds the moons of its size with the same multiset of them."""
    for n in range(1, max_cells + 1):
        classes: dict[tuple, dict] = {}
        for m in enum_moon_polyominoes(n):
            cols = tuple((r[0], r[-1]) for r in map(m.col_rows, range(1, m.width + 1)))
            classes.setdefault(tuple(sorted(cols)), {})[cols] = m
        yield from classes.values()


def _labeled_keys(family, moon: Shape, table: np.ndarray, sigma) -> np.ndarray:
    """The sorted keys of a class's family (keys, support, the first moon's
    cell labels) read on moon through the labeling sigma, which puts the
    first moon's column sigma[x - 1] at column x; table holds the moon's
    NE chain table of each maximal rectangle, one per column."""
    keys, support, label = family
    src = [label[sigma[x - 1], y] for x, y in moon.sorted_cells()]
    return sorted_keys(keys(table[bit_gather(moon.size, src)], at=support))


def _check_rubey(moons, params):
    """One column class, read as labelings of one family (see Sum classes
    in the module docstring).  Swapping t again undoes a swap, so each
    unordered pair is compared once, from the moon whose columns sort
    first, and counted for each of its moons; a self-swap, of two equal
    columns, is its own pair.  Each labeling's keys are sorted once and
    dropped after their last comparison."""
    base, first = next(iter(moons.items()))
    keys, support = _family(first, params["max_entry"])
    family = keys, support, {c: k for k, c in enumerate(first.sorted_cells())}
    spots = sorted(range(1, len(base) + 1), key=lambda x: base[x - 1])
    tables, compared = {}, []  # per moon its rectangle widths and chain tables; the swaps
    for cols, m in moons.items():
        rects = _rectangles(m)  # a moon by construction, not rechecked
        tables[cols] = ([r.width for r in rects],
                        np.column_stack([support_chain_table(m, NE, r) for r in rects]))
        # the canonical labeling: the k-th column with an interval is the first moon's k-th
        sigma = tuple(x for _, x in sorted(zip(sorted(range(len(cols)), key=cols.__getitem__),
                                               spots)))
        for t in range(1, len(cols)):
            swapped = cols[:t - 1] + (cols[t], cols[t - 1]) + cols[t + 1:]
            if cols <= swapped and swapped in moons:
                compared.append((cols, t, swapped,
                                 (sigma, sigma[:t - 1] + (sigma[t], sigma[t - 1]) + sigma[t + 1:])))
    last = {pi: i for i, (*_, labelings) in enumerate(compared) for pi in labelings}
    instances, failures, held = 0, [], {}
    for i, (cols, t, swapped, labelings) in enumerate(compared):
        pair = [cols] if cols == swapped else [cols, swapped]
        instances += len(pair)
        widths = tables[cols][0]
        if len(set(widths)) != len(widths) or widths != tables[swapped][0]:
            clause = "rectangle widths do not match"
        else:
            for c, pi in zip((cols, swapped), labelings):
                if pi not in held:
                    held[pi] = _labeled_keys(family, moons[c], tables[c][1], pi)
            clause = None if np.array_equal(*map(held.get, labelings)) else "class sizes"
        for pi in labelings:
            if last[pi] == i:
                held.pop(pi, None)
        failures += [{"shape": catalog_line(moons[c]), "swap": t, "clause": clause}
                     for c in pair if clause]
    return instances, failures, {"level": "cardinalities"}


def _check_ds_free_oracle(item, params):
    """The pattern criterion is the dent bit, carried down the walk: a list
    holds a dent placement exactly when its parent does or one has its top
    in the new top row (_new_dent), the scan of shapes._contains_dent one
    top row at a time.  The rectangle criterion reads the row intervals; a
    Shape is built only for a connected list, to decompose."""
    intervals, dented = item
    by_pattern, by_rect = not dented, _rectangle_ds_free(intervals)
    failures, decomposed = [], 0
    if by_pattern != by_rect:
        failures.append({"shape": _line(intervals), "clause": "criteria disagree",
                         "pattern": by_pattern, "rectangle": by_rect})
    if _joined(intervals):
        try:
            ferrers_decompose(_interval_shape(intervals))
        except DecompositionError as exc:
            if by_pattern:
                failures.append({"shape": _line(intervals),
                                 "clause": "decompose failed", "error": str(exc)})
        else:
            decomposed = int(by_pattern)
            if not by_pattern:
                failures.append({"shape": _line(intervals),
                                 "clause": "decompose succeeded on dented shape"})
    return 1, failures, {"dent_free": int(by_pattern), "decomposed": decomposed}


# --- the driver -------------------------------------------------------------


# the contexts of genskew and lemma_gi, on the connected walk (see the module docstring)
_CONNECTED = partial(_contexts, keep=_flag_prefix(True, False))
_SQUARES = lambda params, shard: (iv for iv in _walk(_diagonal_prefix)(params, shard)
                                  if iv[-1][1] == len(iv))

# property -> ((source, check, covered), {param: (floor, default, cap)}),
# a value below the floor an error even with the override.  lem_ferrers'
# kmax and lmax start at 0 (a frame may have no special columns or rows),
# cor_sskew's kmax at 2 (both its parts start at k = 2).  The single shape
# of genskew and lemma_gi has no default or cap; its cells count to the max_cells cap.
_PROPERTIES = {
    "cor_sskew": ((_walk(_flag_prefix(True, True)), _check_cor_sskew, None),
                  {"max_cells": (1, 9, 16), "kmax": (2, 3, 3), "refine_cells": (0, 7, 9),
                   "max_entry": (1, 2, 2)}),
    "conjecture": ((_SQUARES, _check_conjecture,
                    lambda params: (params["kmax"] * catalog_sums(params["max_cells"])[0], {})),
                   {"max_cells": (1, 9, 16), "kmax": (1, 3, 3)}),
    "thm_bp": ((_SQUARES, _check_thm_bp, None), {"max_cells": (1, 9, 16)}),
    "genskew": ((_CONNECTED, _check_genskew, partial(_catalog_cover, at=1)),
                {"max_cells": (1, 10, 14), "shape": (1, None, None)}),
    "lemma_gi": ((_CONNECTED, _check_lemma_gi, partial(_catalog_cover, at=2)),
                 {"max_cells": (1, 8, 12), "shape": (1, None, None)}),
    "lem_ferrers": ((_walk(_ferrers_prefix), _check_lem_ferrers, None),
                    {"max_cells": (1, 8, 11), "kmax": (0, 2, 2), "lmax": (0, 2, 2),
                     "max_entry": (1, 2, 2)}),
    "rubey": ((lambda params, shard: itertools.islice(
                   _column_classes(params["max_cells"]), shard[0], None, shard[1]),
               _check_rubey, None),
              {"max_cells": (1, 8, 12), "max_entry": (1, 1, 2)}),
    "ds_free_oracle": ((_walk(None, lambda up, iv: (iv, up[1] or _new_dent(iv)), ((), False)),
                        _check_ds_free_oracle, None), {"max_cells": (1, 9, 13)}),
}

PROPERTIES = tuple(_PROPERTIES)


def _add(total: dict, part: dict) -> dict:
    """Fold one flat details dict into total and return total: ints add,
    bools OR, and any other value, a constant of the property, is kept."""
    for key, val in part.items():
        kind = type(val)  # a bool is no int here
        if kind is int:
            total[key] = total.get(key, 0) + val
        elif kind is bool:
            total[key] = total.get(key, False) or val
        else:
            total[key] = val
    return total


def _run(prop: str, params: dict, shard: tuple[int, int]) -> dict:
    """Shard (index, count)'s part of a property: covered's instances and
    details on shard 0, then each item of the source checked, in walk order."""
    (source, check, covered), _ = _PROPERTIES[prop]
    instances, details = covered(params) if covered and shard[0] == 0 else (0, {})
    failures = []
    for count, fails, tallies in map(check, source(params, shard), itertools.repeat(params)):
        instances += count
        failures += fails
        _add(details, tallies)
    return {"instances": instances, "failures": failures, "details": details}


def verify(prop: str, **params) -> VerificationReport:
    """Run one property check and return its report.

    Keyword params are property-specific ranges (max_cells, kmax, lmax,
    refine_cells, max_entry) plus jobs and, for genskew/lemma_gi, an
    optional single shape (catalog line or Shape).  Each given value goes
    through check_budget against its floor and cap in _PROPERTIES, a
    single shape by its cells against the max_cells cap.  jobs runs from 1
    to 64, and no override lifts that cap.  A shape of None is no shape,
    and one that is neither a Shape nor a string raises ValueError.
    """
    if prop not in _PROPERTIES:
        raise ValueError(f"unknown property {_quoted(prop)}, expected one of {PROPERTIES}")
    budgets = _PROPERTIES[prop][1]
    effective = {name: default for name, (_, default, _) in budgets.items()
                 if default is not None}
    jobs = params.pop("jobs", 1)
    for key, val in params.items():
        if key not in budgets:
            raise ValueError(f"property {prop} does not take parameter {key!r}")
        if key == "shape" and val is None:
            continue  # as if no shape were given
        floor, _, cap = budgets[key]
        if key == "shape":
            if isinstance(val, Shape):
                val = catalog_line(val)
            elif not isinstance(val, str):
                raise ValueError(f"{prop}: shape={_quoted(val)} is neither a Shape nor a "
                                 "catalog line")
            # counted from the grammar, before any cell is built
            cells = sum(b - a + 1 for a, b in _catalog_intervals(val))
            check_budget(f"{prop}: shape cells", cells, floor, budgets["max_cells"][2])
        else:
            check_budget(f"{prop}: {key}", val, floor, cap)
        effective[key] = val
    check_budget("jobs", jobs, 1, _MAX_JOBS, unlock=False)

    start = time.perf_counter()
    if jobs == 1:
        parts = [_run(prop, effective, (0, 1))]
    else:
        import multiprocessing  # here, so serial runs and CLI calls skip its import
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.starmap(_run, [(prop, effective, (k, jobs)) for k in range(jobs)])
    failures = sorted((f for part in parts for f in part["failures"]),
                      key=lambda f: json.dumps(f, sort_keys=True))
    return VerificationReport(prop, effective, sum(part["instances"] for part in parts), failures,
                              reduce(_add, (part["details"] for part in parts), {}),
                              (time.perf_counter() - start) * 1000.0)
