import ast
import itertools
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import partial

import pytest

from conftest import brute_transversal_count, ferrers_difference_shapes, reference_catalog_lines, \
    reference_catalog_walk, reference_enum_values, transversal_codes
from skewfill.enumeration import (
    EnumSpec,
    _admits_transversal,
    _catalog_walk,
    _diagonal_prefix,
    _enum_values,
    _ferrers_prefix,
    _filter_prefix,
    _flag_prefix,
    _line,
    _transversals,
    catalog_sums,
    catalog_line,
    catalog_lines,
    count_avoiders,
    enum_fillings,
    enum_moon_polyominoes,
    enum_skew_shapes,
    parse_catalog_line,
)
from skewfill.fillings import NE, SE, SumVector, longest_chain, sum_vector
from skewfill.shapes import (
    Shape,
    _contains_dent,
    _interval_shape,
    dent_shape,
    is_connected,
    is_moon,
    is_nw_ferrers,
    is_skew,
    maximal_rectangles,
    normalize,
)
from skewfill.structure import is_ds_free

DENT = dent_shape()
SQUARE = normalize([(x, y) for x in (1, 2) for y in (1, 2)])

# counts computed by filtering all subsets of bounding boxes for the
# skew property (see test_counts_match_subset_oracle below for n <= 5)
SKEW_COUNTS = [1, 3, 9, 28, 87, 272, 850, 2659]
# the parallelogram polyominoes by area, OEIS A006958
CONNECTED_COUNTS = [1, 2, 4, 9, 20, 46, 105, 242, 557, 1285, 2964, 6842]


def test_skew_shape_counts():
    for n, want in enumerate(SKEW_COUNTS[:6], start=1):
        assert sum(1 for _ in enum_skew_shapes(n)) == want


def test_connected_skew_shape_counts():
    for n, want in enumerate(CONNECTED_COUNTS[:6], start=1):
        assert sum(1 for _ in enum_skew_shapes(n, connected=True)) == want


def test_connected_walk_counts_the_parallelogram_polyominoes():
    # the connected skew shapes are the parallelogram polyominoes
    by_size = [0] * len(CONNECTED_COUNTS)
    keep = partial(_filter_prefix, connected=True, ds_free=False)
    for _, used, _ in _catalog_walk(len(CONNECTED_COUNTS), keep=keep):
        by_size[used - 1] += 1
    assert by_size == CONNECTED_COUNTS


def test_enum_skew_shapes_partitions():
    for n in (3, 4, 5):
        every = set(enum_skew_shapes(n))
        conn = set(enum_skew_shapes(n, connected=True))
        disc = set(enum_skew_shapes(n, connected=False))
        assert conn | disc == every and not conn & disc
        free = set(enum_skew_shapes(n, ds_free=True))
        dented = set(enum_skew_shapes(n, ds_free=False))
        assert free | dented == every and not free & dented
        assert all(is_connected(s) for s in conn)
        assert all(is_ds_free(s) for s in free)


def test_enum_skew_shapes_are_normalized_and_distinct():
    for n in (4, 5):
        shapes = list(enum_skew_shapes(n))
        assert len(set(shapes)) == len(shapes)
        for s in shapes:
            assert is_skew(normalize(s.cells))  # a fresh shape, not the kept flag
            assert len(s.cells) == n
            assert normalize(s.cells) == s
            # the generator hands its cells over already in sorted order
            assert s.sorted_cells() == normalize(s.cells).sorted_cells()


def test_enum_skew_shapes_in_lexicographic_order():
    # each size in the order of its row-interval lists, bottom row first
    for n in range(1, 8):
        keys = [ast.literal_eval(catalog_line(s)) for s in enum_skew_shapes(n)]
        assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)


def occupies_every_line(s):
    cols = {x for x, _ in s.cells}
    rows = {y for _, y in s.cells}
    return cols == set(range(1, s.width + 1)) and rows == set(range(1, s.height + 1))


def test_counts_match_subset_oracle():
    # every canonical skew shape with n cells fits in an n x n box, so
    # filtering normalized subsets of that box is an independent count;
    # canonical means every row and column of the bounding box is used
    for n in range(1, 6):
        box = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        seen = set()
        for combo in itertools.combinations(box, n):
            s = normalize(combo)
            if s not in seen and is_skew(s) and occupies_every_line(s):
                seen.add(s)
        assert set(enum_skew_shapes(n)) == seen


def test_skew_shapes_agree_with_ferrers_difference():
    # connected skew shapes are exactly the nonempty differences of two
    # nested Ferrers shapes hung from a common corner
    diffs = {
        s
        for s in ferrers_difference_shapes(4, 4)
        if len(s.cells) == 4 and is_connected(s)
    }
    assert diffs == set(enum_skew_shapes(4, connected=True))


def test_enum_skew_shapes_rejects_bad_n():
    with pytest.raises(ValueError):
        list(enum_skew_shapes(0))


def test_catalog_line_round_trip():
    assert catalog_line(DENT) == "[(1,2),(1,3),(2,3)]"
    for n in range(1, 7):
        for s in enum_skew_shapes(n):
            back = parse_catalog_line(catalog_line(s))
            assert back == s and back.sorted_cells() == normalize(s.cells).sorted_cells()


def test_parse_catalog_line_errors():
    for text in (
        "nonsense",
        "[(2,1)]",
        "5",
        "[('a','b')]",
        "[]",
        "[(1,2),(5,6)]",  # skips columns 4 and 5
        "[(1,2),(0,3)]",  # left endpoint moves left: not skew
        "[(True,True)]",  # a bool is no column number
    ):
        with pytest.raises(ValueError):
            parse_catalog_line(text)


def test_catalog_line_requires_no_empty_rows():
    with pytest.raises(ValueError):
        catalog_line(normalize([(1, 1), (3, 3)]))


def test_catalog_line_requires_contiguous_rows():
    for cells in ([(1, 1), (3, 1)], [(1, 1), (2, 1), (2, 2), (4, 2)]):
        with pytest.raises(ValueError, match="contiguous"):
            catalog_line(normalize(cells))


def test_enum_moon_polyominoes():
    # independent filter: connected cell sets in a small box that are moon
    for n in (1, 2, 3, 4):
        box = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        seen = set()
        for combo in itertools.combinations(box, n):
            s = normalize(combo)
            if s in seen:
                continue
            seen.add(s)
        want = {s for s in seen if is_connected(s) and is_moon(s)}
        assert set(enum_moon_polyominoes(n)) == want


def test_enum_fillings_binary_counts():
    assert sum(1 for _ in enum_fillings(DENT, EnumSpec())) == 2**7
    assert sum(1 for _ in enum_fillings(SQUARE, EnumSpec(mode="binary"))) == 16


def test_enum_fillings_integer_counts():
    assert (
        sum(1 for _ in enum_fillings(SQUARE, EnumSpec(mode="integer", max_entry=2)))
        == 81
    )
    assert (
        sum(1 for _ in enum_fillings(DENT, EnumSpec(mode="integer", max_entry=1)))
        == 128
    )


def test_enum_fillings_sparse():
    fillings = list(enum_fillings(SQUARE, EnumSpec(mode="sparse")))
    # at most one 1 in every row and column: empty, four singles, two pairs
    assert len(fillings) == 7
    for f in fillings:
        sv = sum_vector(f)
        assert max(sv.row_sums) <= 1 and max(sv.col_sums) <= 1


def test_enum_fillings_transversal():
    fs = list(enum_fillings(DENT, EnumSpec(mode="transversal")))
    assert sorted(sorted(f.support()) for f in fs) == [
        [(1, 1), (2, 2), (3, 3)],
        [(1, 1), (2, 3), (3, 2)],
        [(1, 2), (2, 1), (3, 3)],
    ]
    for f in fs:
        sv = sum_vector(f)
        assert set(sv.row_sums) == {1} and set(sv.col_sums) == {1}


def test_transversal_requires_square_bounding_box():
    with pytest.raises(ValueError):
        list(enum_fillings(normalize([(1, 1), (2, 1)]), EnumSpec(mode="transversal")))


def test_transversal_counts_match_permutation_oracle():
    for s in enum_skew_shapes(4, connected=True):
        if s.width != s.height:
            continue
        got = sum(1 for _ in enum_fillings(s, EnumSpec(mode="transversal")))
        assert got == brute_transversal_count(s, lambda f: True)


def test_transversals_are_the_permutations_in_lexicographic_order():
    # every catalog shape of at most 8 cells that admits a transversal;
    # enum_fillings' transversal mode lists its fillings in the same order
    for intervals, _, _ in _catalog_walk(8, keep=_diagonal_prefix):
        if not _admits_transversal(intervals):
            continue
        s = _interval_shape(intervals)
        want = [p for p in itertools.permutations(range(1, len(intervals) + 1))
                if all((x, y) in s for y, x in enumerate(p, start=1))]
        assert _transversals([range(a, b + 1) for a, b in intervals]) == want
        listed = [tuple(x for x, _ in sorted(f.support(), key=lambda c: c[1]))
                  for f in enum_fillings(s, EnumSpec(mode="transversal"))]
        assert listed == want


def test_enum_fillings_sum_filter():
    spec = EnumSpec(
        mode="integer",
        max_entry=2,
        sums=SumVector(row_sums=(1, 2, 1), col_sums=(1, 2, 1)),
    )
    for f in enum_fillings(DENT, spec):
        assert sum_vector(f) == spec.sums


def test_enum_fillings_max_total():
    spec = EnumSpec(mode="binary", max_total=1)
    assert sum(1 for _ in enum_fillings(SQUARE, spec)) == 5
    # the empty filling and the four single cells
    assert sum(1 for _ in enum_fillings(SQUARE, EnumSpec(mode="sparse", max_total=1))) == 5
    assert list(enum_fillings(DENT, EnumSpec(mode="transversal", max_total=0))) == []
    assert sum(1 for _ in enum_fillings(DENT, EnumSpec(mode="transversal", max_total=3))) == 3


def test_enum_fillings_max_total_filters_every_mode():
    for s in (SQUARE, DENT, normalize([(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])):
        for mode, max_entry in (("binary", None), ("sparse", None), ("transversal", None),
                                ("integer", 2)):
            every = [f.values for f in enum_fillings(s, EnumSpec(mode=mode, max_entry=max_entry))]
            for cap in range(-1, 5):
                spec = EnumSpec(mode=mode, max_entry=max_entry, max_total=cap)
                want = [v for v in every if sum(v) <= cap]
                assert [f.values for f in enum_fillings(s, spec)] == want, (s, spec)


def test_enum_spec_validation():
    with pytest.raises(ValueError):
        EnumSpec(mode="weighted")
    with pytest.raises(ValueError):
        EnumSpec(mode="integer")
    with pytest.raises(ValueError):
        EnumSpec(mode="binary", max_entry=3)


@pytest.mark.parametrize("kwargs", [
    {"mode": "integer", "max_entry": 1.5},
    {"max_total": 1.5},
    {"max_total": "2"},
    {"mode": "integer", "max_entry": True},
    {"max_total": False},
], ids=["max_entry_float", "max_total_float", "max_total_str", "max_entry_bool", "max_total_bool"])
def test_enum_spec_refuses_a_bound_that_is_not_an_int(kwargs):
    with pytest.raises(ValueError, match="is not an integer"):
        EnumSpec(**kwargs)


def test_a_negative_max_total_yields_no_filling():
    empty = Shape(frozenset())
    for mode, max_entry in (("binary", None), ("sparse", None), ("transversal", None),
                            ("integer", 2)):
        spec = EnumSpec(mode=mode, max_entry=max_entry, max_total=-1)
        for s in (empty, SQUARE, DENT):
            assert list(_enum_values(s, spec)) == []
            assert count_avoiders(s, spec) == 0
    assert list(_enum_values(empty, EnumSpec(max_total=0))) == [()]


def test_enum_values_match_the_recursion_per_mode():
    # the order is pinned too: enum_fillings streams these tuples as they come
    specs = [EnumSpec(mode=mode, max_entry=max_entry, max_total=max_total)
             for mode, max_entry in (("binary", None), ("sparse", None), ("transversal", None),
                                     ("integer", 1), ("integer", 2))
             for max_total in (None, -1, 0, 1, 2, 3)]
    for n in range(1, 7):
        for s in enum_skew_shapes(n):
            for spec in specs:
                try:
                    want = list(reference_enum_values(s, spec))
                except ValueError:  # transversal mode on a shape that is not square
                    with pytest.raises(ValueError, match="height = width"):
                        list(_enum_values(s, spec))
                    continue
                assert list(_enum_values(s, spec)) == want, (catalog_line(s), spec)


def test_count_avoiders_transversal_pins():
    assert count_avoiders(DENT, EnumSpec(mode="transversal", avoid=("delta2",))) == 1
    assert count_avoiders(DENT, EnumSpec(mode="transversal", avoid=("iota2",))) == 2


def test_count_avoiders_matches_filter_oracle():
    spec = EnumSpec(mode="binary", avoid=("iota2",))
    got = count_avoiders(DENT, spec)
    want = sum(
        1
        for f in enum_fillings(DENT, EnumSpec(mode="binary"))
        if longest_chain(f, NE) < 2
    )
    assert got == want
    oracle = brute_transversal_count(DENT, lambda f: longest_chain(f, SE) < 2)
    assert count_avoiders(DENT, EnumSpec(mode="transversal", avoid=("delta2",))) == oracle


@dataclass(frozen=True)
class LambdaSpec:
    """Required longest NE-chain per maximal rectangle, keyed by width."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: dict) -> "LambdaSpec":
        return cls(tuple(sorted((int(w), int(v)) for w, v in d.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def enum_FNE(m: Shape, lam: LambdaSpec, sums: SumVector, mode: str = "binary",
             max_entry: int | None = None):
    """Reference: fillings of a moon polyomino with fixed sums and fixed
    longest NE-chain length in every maximal rectangle."""
    if not is_moon(m):
        raise ValueError("host shape is not a moon polyomino")
    rects = maximal_rectangles(m)
    wanted = lam.as_dict()
    widths = {r.width for r in rects}
    if set(wanted) != widths:
        raise ValueError(
            f"lambda keys {sorted(wanted)} do not match rectangle widths {sorted(widths)}"
        )
    spec = EnumSpec(mode=mode, max_entry=max_entry, sums=sums)
    for f in enum_fillings(m, spec):
        if all(longest_chain(f, NE, region=r) == wanted[r.width] for r in rects):
            yield f


def test_lambda_spec_round_trip():
    lam = LambdaSpec.from_dict({2: 1, 3: 2})
    assert lam.as_dict() == {2: 1, 3: 2}
    assert lam.entries == ((2, 1), (3, 2))


def test_enum_FNE_square():
    lam = LambdaSpec.from_dict({2: 1})
    sums = SumVector(row_sums=(1, 1), col_sums=(1, 1))
    fs = list(enum_FNE(SQUARE, lam, sums))
    assert [sorted(f.support()) for f in fs] == [[(1, 2), (2, 1)]]
    lam2 = LambdaSpec.from_dict({2: 2})
    fs2 = list(enum_FNE(SQUARE, lam2, sums))
    assert [sorted(f.support()) for f in fs2] == [[(1, 1), (2, 2)]]


def test_enum_FNE_requires_moon_host():
    lam = LambdaSpec.from_dict({3: 1})
    sums = SumVector(row_sums=(1, 1, 1), col_sums=(1, 1, 1))
    with pytest.raises(ValueError):
        list(enum_FNE(DENT, lam, sums))


# --- pruned catalog walks ---------------------------------------------------

WALK_CELLS = 10


def walk(max_cells, keep=None, shard=(0, 1)):
    return [iv for iv, _, mine in _catalog_walk(max_cells, shard, keep) if mine]


Listed = namedtuple("Listed", "intervals cells transversal connected ds_free ferrers")


@pytest.fixture(scope="module")
def full_catalog():
    """The unpruned walk to WALK_CELLS cells: one Listed per list, in walk
    order, each flag from its reference test on the list's cells."""
    out = []
    for iv, used, _ in _catalog_walk(WALK_CELLS):
        s = _interval_shape(iv)
        out.append(Listed(iv, used, transversal_codes(s).size > 0, is_connected(s),
                          not _contains_dent(s), is_nw_ferrers(s)))
    return out


@pytest.mark.parametrize("shard", [(0, 1), (0, 3), (1, 3), (2, 3)])
def test_catalog_walk_is_a_preorder(shard):
    """Every list the walk to 8 cells yields, a shard's unowned one-row
    lists too, comes after its parent and before any list outside its
    parent's subtree: the extensions of each list are the run of lists
    right after it.  catalog_lines and harness._walk, which grows each
    list's item from its parent's, rely on it."""
    order = [iv for iv, _, _ in _catalog_walk(8, shard)]
    at = {iv: k for k, iv in enumerate(order)}
    assert len(at) == len(order)
    extensions = Counter(iv[:d] for iv in order for d in range(1, len(iv)))
    for iv in order:
        if len(iv) > 1:
            assert at[iv[:-1]] < at[iv]
        run = order[at[iv] + 1:at[iv] + 1 + extensions[iv]]
        assert all(len(r) > len(iv) and r[:len(iv)] == iv for r in run), iv
    if shard == (0, 1):
        assert len(order) == 3909


def test_catalog_walk_at_a_budget_is_the_lists_within_it(full_catalog):
    for n in range(1, WALK_CELLS + 1):
        assert walk(n) == [iv for iv, used, *_ in full_catalog if used <= n]


def test_catalog_size_counts_the_walk(full_catalog):
    # shapes, the sum of 2^n and the sum of n - 1 over the shapes of at
    # most max_cells cells, n cells each
    for max_cells in range(1, WALK_CELLS + 1):
        sizes = [used for _, used, *_ in full_catalog if used <= max_cells]
        want = (len(sizes), sum(1 << n for n in sizes), sum(n - 1 for n in sizes))
        assert catalog_sums(max_cells) == want
    assert catalog_sums(WALK_CELLS)[0] == len(full_catalog) == 38252


def test_diagonal_walk_yields_the_shapes_with_a_transversal(full_catalog):
    # the square lists of the pruned walk are exactly the catalog shapes
    # that admit a transversal, in the same order, at every budget
    for n in range(1, WALK_CELLS + 1):
        pruned = walk(n, _diagonal_prefix)
        square = [iv for iv in pruned if iv[-1][1] == len(iv)]
        assert square == [iv for iv, used, tr, *_ in full_catalog if used <= n and tr]
        assert square == [iv for iv in pruned if _admits_transversal(iv)]
        # the prune leaves no dead ends: every list it keeps is a row
        # prefix of a kept square one
        prefixes = {iv[:k] for iv in square for k in range(1, len(iv) + 1)}
        assert set(pruned) == prefixes


@pytest.mark.parametrize("keep,passes", [
    pytest.param(partial(_filter_prefix, connected=True, ds_free=True),
                 lambda x: x.connected and x.ds_free, id="True-True"),
    pytest.param(partial(_filter_prefix, connected=True, ds_free=False),
                 lambda x: x.connected, id="True-False"),
    pytest.param(partial(_filter_prefix, connected=False, ds_free=True),
                 lambda x: x.ds_free, id="False-True"),
    pytest.param(_ferrers_prefix, lambda x: x.ferrers, id="ferrers"),
])
def test_filter_walk_yields_the_filtered_catalog(full_catalog, keep, passes):
    for n in range(1, WALK_CELLS + 1):
        assert walk(n, keep) == [x.intervals for x in full_catalog if x.cells <= n and passes(x)]


@pytest.mark.parametrize("keep", [
    None,
    _diagonal_prefix,
    partial(_filter_prefix, connected=True, ds_free=True),
    partial(_filter_prefix, connected=True, ds_free=False),
    _ferrers_prefix,
])
def test_shards_of_a_pruned_walk_split_its_lists(keep):
    everything = walk(8, keep)
    for count in (2, 3, 4):
        parts = [walk(8, keep, (index, count)) for index in range(count)]
        dealt = [iv for part in parts for iv in part]
        assert len(dealt) == len(set(dealt)) == len(everything)
        assert set(dealt) == set(everything)
        # each shard keeps the walk's order
        rank = {iv: k for k, iv in enumerate(everything)}
        assert all([rank[iv] for iv in part] == sorted(rank[iv] for iv in part)
                   for part in parts)


@pytest.mark.parametrize("connected", [False, True])
@pytest.mark.parametrize("ds_free", [False, True])
def test_catalog_lines_build_each_line_from_its_parents(connected, ds_free):
    # reference: _line on every list the walk yields, grouped by size
    for n in range(1, WALK_CELLS + 1):
        by_size = [[] for _ in range(n + 1)]
        for iv, used, _ in _catalog_walk(n, keep=_flag_prefix(connected, ds_free)):
            by_size[used].append(_line(iv))
        assert catalog_lines(n, connected, ds_free) == [x for lines in by_size for x in lines]


@pytest.mark.parametrize("keep", [
    None,
    _flag_prefix(True, False),
    _flag_prefix(False, True),
    _flag_prefix(True, True),
    _diagonal_prefix,
    _ferrers_prefix,
], ids=["none", "connected", "ds_free", "connected-ds_free", "diagonal", "ferrers"])
def test_catalog_walk_matches_the_reference_walk(keep):
    # the cached child table yields what appending each list's children
    # afresh yields, in the same order, at every budget and for every shard
    for max_cells in range(1, 10):
        for count in (1, 2, 3):
            for index in range(count):
                shard = (index, count)
                assert list(_catalog_walk(max_cells, shard, keep)) == \
                    list(reference_catalog_walk(max_cells, shard, keep)), (max_cells, shard)


@pytest.mark.parametrize("connected", [False, True])
@pytest.mark.parametrize("ds_free", [False, True])
def test_catalog_lines_match_the_reference_lines(connected, ds_free):
    for n in range(1, 10):
        assert catalog_lines(n, connected, ds_free) == \
            reference_catalog_lines(n, connected, ds_free), n
