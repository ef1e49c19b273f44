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
        ("algebra", "HbPolynomial LARGE MPath Multiset NumberedCopySet STRICT"
         " canonical_weighting count_paths decompose dilatation edge_distribution"
         " elementary_tensor hb_sum hypergraph_tensor interior_choices is_direct merge"
         " mset_hypermatrix reconstruct_hbgraph two_section uniform_tensor validate_path"
         " vertex_increase y_complement"),
        ("errors", "DimensionMismatch DomainError EmptyEdge EmptyEdgeFamily EmptyMultiset"
         " HbTensorError IndexOutOfRange InvalidPath NonPositiveC NotAHypergraph"
         " NotNatural NotUniform ParseError RepeatedEdges TraceMismatch"
         " UniverseMismatch UnknownEdge UnknownVertex VertexCollision"),
        ("hbgraph", "HbGraph"),
        ("paths", "connected_components diameter distance is_connected"),
        ("spectral", "PowerIterationResult SpectralBoundReport estimate_max_eigenvalue"
         " spectral_bound"),
        ("tensor", "SymTensor e_adjacency_tensor reconstruct_edges"),
        ("transform", "APPROACHES LAYERED SILO STRAIGHTFORWARD UniformisationTrace uniformize"),
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
