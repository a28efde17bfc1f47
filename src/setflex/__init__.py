"""setflex: thin/slim taxon-coverage checks and their certificates.

Decides whether a pattern of taxon coverage is flexible (every choice of
trees on the covered subsets stays compatible), via exact excess
arithmetic, exhaustive scans, and polynomial min-cut minimizers, and
constructs the accompanying certificates: minimizing subsets, systems of
distinct representatives, supertrees, caterpillar representations, and
total-order extensions.
"""

from .errors import (
    BudgetExceededError,
    CapExceededError,
    InputError,
    InternalVerificationError,
    MemberSizeError,
    ParseError,
    PreconditionError,
    SetflexError,
)
from .flex import (
    FlexReport,
    count_displaying,
    defining_triples,
    disjoint_count_formula,
    enumerate_binary_trees,
    is_flexible_bruteforce,
    is_unique_display,
)
from .graphopt import (
    BipartiteIncidenceGraph,
    FlowNetwork,
    MinimizerReport,
    SdrReport,
    gamma_star,
    incidence_graph,
    is_forest,
    is_slim,
    is_thin,
    max_flow,
    sdr,
    sigma_star,
    surplus_forest,
)
from .phylo import (
    BuildResult,
    RootedPhyloTree,
    RootedTriple,
    UnrootedPhyloTree,
    build_supertree,
    cluster_graph,
    displays_clusters,
    displays_tree,
    displays_triple,
    make_binary,
    parse_newick,
    parse_triple,
    parse_triples_text,
    restrict,
    spanning_triples,
    triples_of,
)
from .represent import (
    OrderReport,
    RepresentationReport,
    caterpillar_median_representation,
    extend_to_total_order,
    is_total_order_flexible,
    lca_caterpillar_representation,
    rooted_caterpillar,
    unrooted_caterpillar,
    verify_median_injective,
)
from .setsys import (
    CheckReport,
    ExcessReport,
    SetSystem,
    Taxon,
    check_submodular_pair,
    excess_general,
    excess_uniform,
    format_sets_json,
    format_sets_text,
    gamma,
    is_slim_exhaustive,
    is_thin_exhaustive,
    leaf_union,
    occurrence_count,
    parse_sets,
    parse_sets_json,
    parse_sets_text,
    patchwork_check,
    sigma,
)

__version__ = "0.1.0"
