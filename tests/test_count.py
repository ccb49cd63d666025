"""Differential tests of count_avoiders against the enum_fillings reference."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import skew_shapes
from skewfill.enumeration import EnumSpec, count_avoiders, enum_fillings
from skewfill.fillings import SumVector, as_pattern, avoids, parse_filling, sum_vector
from skewfill.shapes import dent_shape, normalize, parse_shape

# the library patterns, one explicit filling with an entry of 2 and an
# all-zero explicit filling whose shape has a hole
PATTERNS = ("iota2", "delta2", "iota3", "fd", "ds",
            parse_filling(".1\n20\n"), parse_filling("0.\n00\n"))
SINGLES = [()] + [(p,) for p in PATTERNS]
PAIRS = SINGLES + list(itertools.combinations(PATTERNS, 2))
MODES = (("binary", None), ("sparse", None), ("transversal", None),
         ("integer", 1), ("integer", 2))


def canonical_shapes(n):
    """Every normalized n-cell shape that uses each row and column of its box."""
    box = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    found = set()
    for combo in itertools.combinations(box, n):
        s = normalize(combo)
        if {x for x, _ in s.cells} == set(range(1, s.width + 1)) \
                and {y for _, y in s.cells} == set(range(1, s.height + 1)):
            found.add(s)
    return sorted(found)


def check_against_reference(s, mode, max_entry, max_total, pattern_sets, memo):
    """count_avoiders on every pattern set, with and without a sums filter,
    against the fillings enum_fillings yields, each tested with avoids and
    sum_vector once (memo is keyed by the values)."""
    base = EnumSpec(mode=mode, max_entry=max_entry, max_total=max_total)
    try:
        candidates = list(enum_fillings(s, base))
    except ValueError:  # transversal mode on a shape that is not square
        with pytest.raises(ValueError):
            count_avoiders(s, base)
        return
    # an occurrence puts each pattern cell on its own host cell, so a
    # pattern with more cells than s is avoided without a scan
    fitting = [k for k, p in enumerate(PATTERNS) if as_pattern(p).shape.size <= s.size]
    facts = []
    for f in candidates:
        if f.values not in memo:
            held = frozenset(k for k in fitting if not avoids(f, PATTERNS[k]))
            memo[f.values] = (held, sum_vector(f))
        facts.append(memo[f.values])
    wanted_sums = facts[len(facts) // 2][1] if facts else None
    for avoid in pattern_sets:
        indices = {PATTERNS.index(p) for p in avoid}
        for sums in (None, wanted_sums):
            want = sum(1 for held, sv in facts
                       if held.isdisjoint(indices) and sums in (None, sv))
            spec = EnumSpec(mode=mode, max_entry=max_entry, max_total=max_total,
                            sums=sums, avoid=avoid)
            assert count_avoiders(s, spec) == want, (s, spec)


def test_count_avoiders_matches_enum_fillings_on_every_small_shape():
    # every shape of <= 4 cells with no empty row or column, skew or not,
    # holes included: all modes, every pattern alone and in pairs
    for n in range(1, 5):
        for s in canonical_shapes(n):
            memo = {}
            for mode, max_entry in MODES:
                pairs = PAIRS if mode in ("binary", "integer") else SINGLES
                check_against_reference(s, mode, max_entry, None, pairs, memo)
                check_against_reference(s, mode, max_entry, 2, SINGLES, memo)


def test_count_avoiders_matches_enum_fillings_on_every_five_cell_shape():
    for s in canonical_shapes(5):
        memo = {}
        for mode, max_entry in (("binary", None), ("integer", 1)):
            check_against_reference(s, mode, max_entry, None, SINGLES, memo)


def test_count_avoiders_on_shapes_with_empty_lines():
    # rows or columns of the box that hold no cell; a pattern with a hole
    # must still match exactly
    for cells in ([(1, 1), (3, 3)], [(1, 1), (2, 1), (1, 3), (3, 3)],
                  [(1, 1), (1, 3), (3, 1), (3, 3), (2, 2)], [(1, 2), (2, 1), (4, 3), (3, 4)]):
        s = normalize(cells)
        memo = {}
        for mode, max_entry in MODES:
            check_against_reference(s, mode, max_entry, None, PAIRS, memo)
            check_against_reference(s, mode, max_entry, 1, SINGLES, memo)


def test_count_avoiders_where_the_large_patterns_occur():
    # iota3 needs a 3x3 square and fd and ds the dent, which no shape of
    # <= 5 cells holds; entries up to 2 only under a total cap above 7 cells
    for text in (".##\n###\n##.\n", "###\n###\n###\n", "..##\n.###\n###.\n##..\n"):
        s = parse_shape(text)
        memo = {}
        for mode, max_entry in MODES:
            full = None if max_entry != 2 or s.size <= 7 else 3
            check_against_reference(s, mode, max_entry, full, PAIRS, memo)
            check_against_reference(s, mode, max_entry, 2, SINGLES, memo)


def test_count_avoiders_max_total_in_sparse_and_transversal_mode():
    square = parse_shape("##\n##\n")
    sparse = EnumSpec(mode="sparse", max_total=1)
    assert count_avoiders(square, sparse) == sum(1 for _ in enum_fillings(square, sparse)) == 5
    none = EnumSpec(mode="transversal", max_total=0)
    assert count_avoiders(dent_shape(), none) == sum(1 for _ in enum_fillings(dent_shape(), none)) == 0
    assert count_avoiders(dent_shape(), EnumSpec(mode="transversal", max_total=3,
                                                 avoid=("delta2",))) == 1


def test_count_avoiders_sums_of_the_wrong_length():
    s = dent_shape()
    for sums in (SumVector((1, 1), (1, 1, 1)), SumVector((1, 1, 1), (1, 1, 1, 0))):
        spec = EnumSpec(sums=sums, avoid=("iota2",))
        assert count_avoiders(s, spec) == sum(1 for _ in enum_fillings(s, spec)) == 0


@st.composite
def count_specs(draw):
    s = draw(skew_shapes(max_rows=4, max_width=4).filter(lambda s: 6 <= s.size <= 9))
    mode, max_entry = draw(st.sampled_from(MODES))
    max_total = draw(st.one_of(st.none(), st.integers(1, 3)))
    if max_entry == 2 and max_total is None:
        max_total = 3  # keeps the reference scan small
    avoid = draw(st.sampled_from(PAIRS))
    sums = None
    if draw(st.booleans()):
        base = EnumSpec(mode=mode, max_entry=max_entry, max_total=max_total)
        try:
            candidates = list(enum_fillings(s, base))
        except ValueError:
            candidates = []
        if candidates:
            sums = sum_vector(draw(st.sampled_from(candidates)))
    return s, EnumSpec(mode=mode, max_entry=max_entry, max_total=max_total,
                       sums=sums, avoid=avoid)


@given(count_specs())
@settings(max_examples=60, deadline=None)
def test_count_avoiders_matches_enum_fillings_on_larger_skew_shapes(case):
    s, spec = case
    try:
        want = sum(1 for _ in enum_fillings(s, spec))
    except ValueError:
        with pytest.raises(ValueError):
            count_avoiders(s, spec)
        return
    assert count_avoiders(s, spec) == want
