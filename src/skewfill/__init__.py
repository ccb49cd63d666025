"""Skew-shape fillings: pattern avoidance, Ferrers decomposition, and the
stagewise chain bijection, with an exhaustive verification harness."""

from .bijection import (
    BijectionTrace,
    StepAnatomy,
    cell_labels,
    full_backward,
    full_forward,
    in_G,
    render_trace,
    step_anatomy,
    step_backward,
    step_forward,
)
from .enumeration import (
    EnumSpec,
    catalog_line,
    count_avoiders,
    enum_fillings,
    enum_moon_polyominoes,
    enum_skew_shapes,
    parse_catalog_line,
)
from .fillings import (
    NE,
    SE,
    Filling,
    FillingKind,
    SumVector,
    avoids,
    filling_kind,
    find_filling_occurrences,
    longest_chain,
    parse_filling,
    parse_numeric_filling,
    pattern_library,
    render_filling,
    render_numeric_filling,
    sum_vector,
)
from .harness import (
    BudgetError,
    GammaFrame,
    VerificationReport,
    check_budget,
    format_report,
    parse_report_csv,
    parse_report_json,
    verify,
)
from .shapes import (
    Cell,
    Occurrence,
    ParseError,
    Rect,
    Shape,
    ShapeProperties,
    classify_shape,
    dent_shape,
    find_shape_occurrences,
    is_connected,
    is_moon,
    is_nw_ferrers,
    is_se_ferrers,
    is_skew,
    maximal_rectangles,
    normalize,
    parse_shape,
    render_shape,
)
from .structure import (
    Decomposition,
    DecompositionError,
    SpecialBlocks,
    SumPermutations,
    ferrers_decompose,
    is_ds_free,
    render_decomposition,
    special_blocks,
    sum_permutations,
    validate_decomposition,
)

__version__ = "0.1.0"
