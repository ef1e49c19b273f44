"""Hyper-bag-graphs, their algebra, and exact e-adjacency tensors."""

from types import ModuleType as _ModuleType

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyEdge,
    EmptyEdgeFamily,
    EmptyMultiset,
    HbTensorError,
    IndexOutOfRange,
    InvalidPath,
    NonPositiveC,
    NotAHypergraph,
    NotNatural,
    NotUniform,
    ParseError,
    RepeatedEdges,
    TraceMismatch,
    UniverseMismatch,
    UnknownEdge,
    UnknownVertex,
    VertexCollision,
)
from .hbgraph import (
    HbGraph,
    IncidenceMatrix,
    hb_sum,
    is_direct,
    two_section,
)
from .mset import Multiset, NumberedCopySet
from .paths import (
    LARGE,
    STRICT,
    MPath,
    connected_components,
    count_paths,
    diameter,
    distance,
    interior_choices,
    is_connected,
    validate_path,
)
from .spectral import (
    PowerIterationResult,
    SpectralBoundReport,
    delta_star_closed_form,
    estimate_max_eigenvalue,
    spectral_bound,
)
from .tensor import (
    HbPolynomial,
    SymTensor,
    e_adjacency_tensor,
    edge_distribution,
    elementary_tensor,
    hypergraph_tensor,
    mset_hypermatrix,
    reconstruct_edges,
    reconstruct_hbgraph,
    uniform_tensor,
)
from .transform import (
    APPROACHES,
    LAYERED,
    SILO,
    STRAIGHTFORWARD,
    UniformisationTrace,
    canonical_weighting,
    decompose,
    dilatation,
    merge,
    uniformize,
    vertex_increase,
    y_complement,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
