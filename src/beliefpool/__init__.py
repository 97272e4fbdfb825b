"""Pool multiple agents' probabilistic models into consensus models.

Dense joint tables combine through linear or logarithmic opinion
pools. Bayesian-network agents additionally get a structure pipeline
(moralize, union, triangulate, orient) and a query-driven algorithm
that fills in LogOP-consistent consensus CPTs without materializing
any dense table.
"""

from .axioms import (
    CheckReport,
    EventPairInstance,
    EventPoolInstance,
    EvidenceInstance,
    ExampleReport,
    FamilyInstance,
    MarkovInstance,
    NmeippWitness,
    ProductInstance,
    StatePairInstance,
    UnanimityInstance,
    VariablePairInstance,
    check_property,
    family_pooled_joint,
    reproduce_example,
    search_nmeipp_violation,
)
from .consensus import (
    ConsensusBn,
    consensus_bn_structure,
    consensus_mn_structure,
    linop_query,
    logop_consensus_bn,
)
from .errors import (
    BeliefPoolError,
    CapacityExceeded,
    DegenerateCpt,
    DegenerateProduct,
    InvalidWeight,
    MalformedInstance,
    MismatchedVariables,
    ModelFormatError,
    NegativeMass,
    NotChordal,
    UnknownVariable,
    WeightCountMismatch,
    ZeroEvidence,
    ZeroMass,
)
from .inference import query_conditional, query_event_marginal
from .joint import (
    JointTable,
    condition,
    conditional_probability,
    is_markov_independent,
    is_pairwise_independent,
    joint_from_entries,
    marginal,
    markov_dependence_gap,
    pairwise_dependence_gap,
    state_bits,
    state_index,
)
from .model_io import (
    LinopManifest,
    align_variables,
    load_model_file,
    load_network,
    network_from_dict,
    network_to_dict,
    save_manifest,
    save_network,
)
from .networks import (
    BayesNet,
    Cpt,
    Dag,
    EliminationOrder,
    MarkovNet,
    bn_to_joint,
    direct_by_order,
    is_chordal,
    is_decomposable,
    markov_blanket,
    min_fill_order,
    mn_union,
    moralize,
    perfect_elimination_order,
    triangulate,
)
from .pools import (
    POOL_NAMES,
    AggregationSpec,
    linop,
    logop,
    normalize_weights,
)

__version__ = "0.1.0"
