"""Exact continued fractions and cutting sequences on the modular surface."""

from .exactnum import (
    IntMatrix2,
    NINF,
    PINF,
    ParseError,
    QuadSurd,
    compare,
    lft_apply,
    parse_extreal,
    rational_between,
    sqrt_exact,
    surd,
)
from .cf import OcfDigits, acf_of, acf_value, farey_of, ocf_digits, ocf_value
from .mgcf import AnnotatedDigits, annotate_ones, mgcf_direct, mgcf_from_acf
from .cutting import (
    EDGE_FORBIDDEN,
    acf_from_cutting,
    corner_resolutions,
    cutting_from_mgcf,
    find_edge_forbidden,
    mgcf_from_cutting,
    parse_cutting,
)
from .tessellation import (
    GeodesicSpec,
    corner_hits_vertical,
    periodic_corner_count,
    render_trace_svg,
    trace,
)
from .automata import (
    HomographicMachine,
    Transducer,
    compose,
    homographic_acf,
    max_lag,
    unbounded_lookahead_demo,
)
from .shiftspace import (
    BlockVerdict,
    central_block,
    central_head_to_tail,
    decide_block,
    enumerate_minimal_forbidden,
    excluded_initial,
    follower_separation,
    random_cross_check,
    verdict_json,
)

__version__ = "0.1.0"
