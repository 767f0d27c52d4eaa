"""Combinatorial Hubbard trees from kneading sequences.

Build the critical path and the invariant tree of a unicritical
polynomial (degree 2 <= d < inf) or exponential map (d = inf) from its
kneading sequence alone, then analyze it: orbit types, bifurcation
classes, internal addresses, plane-embeddability, core entropy.
"""

from .analysis import (
    BifurcationClass,
    BranchPoint,
    EmbeddingReport,
    InternalAddress,
    OrbitReport,
    RecurrenceProbe,
    characteristic_point,
    classify_bifurcation,
    classify_orbit,
    core_entropy,
    embedding_report,
    enumerate_branch_points,
    internal_address,
    kneading_from_address,
    perron_root,
    recurrence_probe,
    valency,
)
from .critpath import (
    CriticalPath,
    FatouInterval,
    Gap,
    PathPoint,
    alpha_point,
    build_critical_path,
    build_pn,
    central_itinerary,
    lower_sequence,
    path_table,
)
from .errors import HubbardTreeError
from .export import tree_to_dot, tree_to_json, tree_to_svg, tree_to_text
from .symbolic import (
    EPSeq,
    INF,
    KneadingSequence,
    PrefixSequence,
    STAR,
    angle_to_kneading,
    diff,
    format_sequence,
    is_bifurcation,
    kneading,
    parse_prefix,
    parse_sequence,
    precritical,
    validate_kneading,
)
from .treebuild import HubbardTree, MarkovData, build_tree, markov_data, meet

__version__ = "0.1.0"
