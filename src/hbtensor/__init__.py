"""Hyper-bag-graphs, their algebra, and exact e-adjacency tensors.

Every public name resolves on first use: ``hbtensor.SymTensor`` imports
``hbtensor.tensor`` then, and later reads find the name bound here.  So
``import hbtensor`` loads no submodule, and a program pays only for the
modules whose names it reads (PEP 562).
"""

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in (
        ("errors", "DimensionMismatch DomainError EmptyEdge EmptyEdgeFamily EmptyMultiset"
         " HbTensorError IndexOutOfRange InvalidPath NonPositiveC NotAHypergraph"
         " NotNatural NotUniform ParseError RepeatedEdges TraceMismatch"
         " UniverseMismatch UnknownEdge UnknownVertex VertexCollision"),
        ("hbgraph", "HbGraph IncidenceMatrix hb_sum is_direct two_section"),
        ("mset", "Multiset NumberedCopySet"),
        ("paths", "LARGE STRICT MPath connected_components count_paths diameter"
         " distance interior_choices is_connected validate_path"),
        ("spectral", "PowerIterationResult SpectralBoundReport estimate_max_eigenvalue"
         " spectral_bound"),
        ("tensor", "HbPolynomial SymTensor e_adjacency_tensor edge_distribution"
         " elementary_tensor hypergraph_tensor mset_hypermatrix reconstruct_edges"
         " reconstruct_hbgraph uniform_tensor"),
        ("transform", "APPROACHES LAYERED SILO STRAIGHTFORWARD UniformisationTrace"
         " canonical_weighting decompose dilatation merge uniformize vertex_increase"
         " y_complement"),
    )
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # only a name not yet bound gets here; a submodule name falls through to
    # AttributeError, after which ``from hbtensor import tensor`` imports it
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(__import__(module, globals(), None, [name], 1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
