"""Pool multiple agents' probabilistic models into consensus models.

Dense joint tables combine through linear or logarithmic opinion
pools. Bayesian-network agents additionally get a structure pipeline
(moralize, union, triangulate, orient) and a query-driven algorithm
that fills in LogOP-consistent consensus CPTs without materializing
any dense table.

The top level holds the names README documents, the types they take
or return, and every error class; everything else is imported from
its module.
"""

from .axioms import (
    CheckReport,
    EventPairInstance,
    EventPoolInstance,
    EvidenceInstance,
    FamilyInstance,
    MarkovInstance,
    ProductInstance,
    StatePairInstance,
    UnanimityInstance,
    VariablePairInstance,
    check_property,
    family_pooled_joint,
)
from .consensus import (
    ConsensusBn,
    consensus_bn_structure,
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
from .joint import JointTable, marginal
from .networks import BayesNet, Cpt, Dag, MarkovNet, bn_to_joint
from .pools import AggregationSpec, linop, logop

__version__ = "0.1.0"
