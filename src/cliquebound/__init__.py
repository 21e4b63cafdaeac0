"""Exact clique and independent-set counting in degree-bounded graphs,
with exhaustive small-graph verification of the extremal bounds."""

from .bounds import (
    Decomposition,
    decompose,
    galvin_bound,
    main_bound,
    strong_chain_bound,
    strong_inequalities,
)
from .canon import canonical_form, canonical_graph
from .counting import (
    CliqueVector,
    brute_force_clique_vector,
    clique_vector,
    clique_weight,
    clique_weights,
    cliques_meeting,
    cliques_of_size,
    independent_vector,
    weight_sums,
)
from .enumeration import (
    SweepReport,
    VerificationReport,
    consistency_sweep,
    generate,
    generate_regular,
    verify_main,
)
from .errors import CapacityError, Graph6ParseError, InternalConsistencyError
from .fixed_loss import FixedLossBreakdown, complete_graph_fixed_loss, fixed_loss
from .graph6 import decode, encode
from .graphs import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    extremal_graph,
    from_edges,
    lex_graph,
    path,
    turan,
)
from .records import ConsistencyRecord
from .structure import TightStructure, associated_cliques, clusters, derive, is_tight, tight_cliques
from .transform import (
    Profitability,
    RewriteReport,
    apply_fill,
    apply_k2_move,
    fill_profitable,
    gain_lower_bound,
    hill_climb,
)

__version__ = "0.1.0"
