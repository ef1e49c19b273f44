"""Canonical sparse symmetric hypermatrices and e-adjacency tensors.

A symmetric tensor of order r and dimension d stores one canonical entry per
index multiset, as runs (first, multiplicity, count): ``count`` consecutive
indices from ``first``, each taken ``multiplicity`` times.  A key's runs
ascend and are maximal (no run continues the one before it at the same
multiplicity), so the runs are a function of the dense nondecreasing index
tuple alone.  A tensor hands out one dense view, ``canonical_items`` (and
its expansion ``full_items``), and one run view, ``polynomial``, keyed by the
runs themselves.  Being canonical is a property of each key, not an order
among entries: entries are kept in the order they come (edge order from the
constructions, record order from the COO reader), and only
``canonical_items`` sorts, by dense key.  Every permutation of an entry's
indices denotes the same logical entry.
Each entry is stored as its exact share, a * multinomial(m) / r for value a
and multiplicities m (an int when integral): multinomial(m) * m_i / r of its
permutations start with i, so it adds share * m_i to row i and r * share to
the total.  The value a is computed only where it leaves the tensor: in
``get``, ``canonical_items`` and ``full_items``.  Every exact number the
tensor returns (values, row sums, the total, the polynomial's coefficients
and values) follows ``mset.as_rational``: an int when integral, a
``Fraction`` otherwise.  Before a writer builds a value,
``_denominators_too_long`` bounds its denominator's digits from log-gammas
alone.  Row sums, levels, multinomials and reconstruction read a run whole,
so they cost O(runs) per entry, not O(indices).

The tensor's polynomial is P(x) = r * sum of share * prod x_j^{m_j}, and
``polynomial`` keys its monomials by the entries' run keys.
The contraction A x^{r-1} is (1/r) times the gradient of P, so it reads the
shares alone.  One kernel serves both the exact ``apply`` and the float power
iteration of ``spectral``: the entries' indices, inserted in descending
order, form a trie that shares their common high-index suffixes, the
null-vertex padding above all, and one forward pass (prefix products) and one
backward pass (reverse-mode derivative) over its nodes give every row, in
O(nodes) operations with no division and no multinomial.  A run is one node
per piece (``_trie``); each index is a piece of ``apply``, so on an
e-adjacency tensor the trie has at most sum |supp e| + r_H nodes:
straightforward and silo entries of level c share one padding node, and
layered entries share one chain of null indices.

The e-adjacency tensor of an hb-graph contributes one canonical entry per
hb-edge.  Its key is the edge's runs, read in order from its support (kept in
universe order), followed by the closed-form null-vertex padding run of
``transform.padding``, whose indices lie above every vertex: a concatenation,
merged only where the padding continues the edge's last run, with no sort
and no uniform hb-graph built.  So a key holds at most |supp e| + 1 runs
under every approach; a layered entry of level c pads with the one run
(n + c, 1, r_H - c).  The entry's value is the paper's

    w * (product of the multiplicities' factorials) / (r_H - 1)!

for edge weight w (1 when unweighted), whose share is exactly w; diagonal
entries equal r_H precisely for full-multiplicity singleton edges.  Row i is
then sum_e w_e m_e(v_i) and the total r_H sum_e w_e (Cooper and Dutle's
degree normalisation for k-uniform hypergraphs), and under every approach an
entry's level, the summed multiplicity of its original-vertex indices, is its
hb-edge's m-cardinality.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyEdge,
    EmptyEdgeFamily,
    EmptyMultiset,
    IndexOutOfRange,
    NotAHypergraph,
    NotNatural,
    NotUniform,
    RepeatedEdges,
    TraceMismatch,
)
from .hbgraph import HbGraph
from .mset import Multiset, Rational, Universe, as_rational
from .transform import (
    APPROACHES,
    SILO,
    UniformisationTrace,
    _uniformisation_trace,
    padding,
)

# a key: canonical runs (first index, multiplicity, count) (module docstring)
Runs = tuple[tuple[int, int, int], ...]
# a dense key: the nondecreasing index tuple of an entry
Key = tuple[int, ...]

# the most records a full COO export expands to
MAX_FULL_RECORDS = 10**7
# the log-gammas of a smaller order stay far inside the float range
_FLOAT_ORDER = 2**1000


def _multinomial(runs: Runs) -> int:
    """(m_1 + ... + m_k)! / (m_1! ... m_k!) of the multiplicities of ``runs``,
    as the product of the binomials C(m_1 + ... + m_j, m_j), whose cost follows
    the size of the result, not r!.  A run of c indices at multiplicity m
    multiplies in t! / ((t - c m)! m!^c) at once, t the multiplicities up to
    its end."""
    total, result = 0, 1
    for _, m, c in runs:
        total += c * m
        result *= (
            math.comb(total, m) if c == 1 else math.perm(total, c * m) // math.factorial(m) ** c
        )
    return result


def _log10_multinomial(runs: Runs, r: int) -> float:
    """A lower bound on log10 of the multinomial of ``runs``, whose
    multiplicities sum to r, less a margin of one digit, from log-gammas
    alone: they lose 10^-12 of lgamma(r + 1), far above their float error.
    No bound (-inf) from r = ``_FLOAT_ORDER`` on."""
    if r >= _FLOAT_ORDER:
        return -math.inf
    top = math.lgamma(r + 1)
    rest = math.fsum(c * math.lgamma(m + 1) for _, m, c in runs)
    return (top - rest - 1e-12 * top) / math.log(10) - 1


def _denominators_too_long(t: "SymTensor", digits: int) -> bool:
    """Whether some value of ``t`` certainly has a reduced denominator of more
    than ``digits`` digits, told before any value is built.

    A value r * share / multinomial has a reduced denominator of at least
    multinomial / |numerator of r * share|.  No multinomial exceeds r!, so
    nothing is computed when log10 r! <= digits (r <= 1550 at 4300 digits).
    """
    r = t.order
    if r >= _FLOAT_ORDER or math.lgamma(r + 1) <= digits * math.log(10):
        return False
    return any(
        _log10_multinomial(runs, r) - math.log10(abs((r * share).numerator)) > digits
        for runs, share in t._entries.items()
    )


def _share(runs: Runs, value: Fraction, r: int) -> Rational:
    """The stored share of an entry of value ``value`` (module docstring)."""
    return as_rational(value * _multinomial(runs) / r)


def _value(runs: Runs, share: Rational, r: int) -> Rational:
    """The value of an entry stored as ``share``: share * r / multinomial."""
    return as_rational(Fraction(share * r, _multinomial(runs)))


def _merged(runs: Iterable) -> Runs:
    """Ascending runs in canonical form: a run that continues the one before
    it at the same multiplicity joins it."""
    out = [(0, 0, 0)]  # no run continues this one: indices start at 1
    for run in runs:
        first, m, c = out[-1]
        if run[:2] == (first + c, m):
            run = first, m, c + run[2]
            out.pop()
        out.append(run)
    return tuple(out[1:])


def _runs(key: Key) -> Runs:
    """Canonical runs of a nondecreasing index tuple."""
    return _merged((i, m, 1) for i, m in Counter(key).items())


def _dense(runs: Runs) -> Key:
    """Nondecreasing index tuple of a run key."""
    return tuple(chain.from_iterable([(i,) * m for j, m, c in runs for i in range(j, j + c)]))


def _shown(runs: Runs) -> str:
    """A key for a message: each run as index^multiplicity, a run of c > 1
    indices as first^multiplicity*c, the first eight of them."""
    shown = " ".join(f"{i}^{m}" + f"*{c}" * (c > 1) for i, m, c in runs[:8])
    return shown + f" ... ({len(runs)} runs)" * (len(runs) > 8)


def _trie(entries: Iterable, at: Mapping[int, tuple[int, int]]) -> tuple[list, int, list]:
    """The (run key, share) ``entries`` as a trie of their indices, read in
    descending index order so that entries share their high-index suffixes.

    ``at`` maps the last index of each piece, s consecutive indices that a
    run holds all or none of, to (j, s): in a run of multiplicity m the
    piece is one node of coordinate j and exponent m s.  Returns (nodes,
    inner, shares).  The root is node 0; node k >= 1 is nodes[k - 1] =
    (k, parent, j, exponent).  The ``inner`` nodes, those with children, come
    first, each after its parent, and the leaves after them.  shares[k] is
    the share of the entry that ends at node k (0 where none does).
    """
    # a child is keyed by the int m * stride + i of its (multiplicity, piece):
    # a tuple per piece would wake the garbage collector, at twice the cost
    stride = max(at, default=0) + 1
    children = [{}]  # node -> {m * stride + i: child}
    made = [(0, 0, 0)]  # node -> (parent, j, exponent), in creation order
    ends = {}
    for runs, share in entries:
        k = 0
        for first, m, c in reversed(runs):
            i = first + c - 1
            while i >= first:
                j, s = at[i]
                child = children[k].get(key := m * stride + i)
                if child is None:
                    child = children[k][key] = len(made)
                    children.append({})
                    made.append((k, j, m * s))
                k = child
                i -= s
        ends[k] = share
    # each group keeps the creation order, parents first
    inner = [k for k in range(1, len(made)) if children[k]]
    order = inner + [k for k in range(1, len(made)) if not children[k]]
    number = [0] * len(made)
    for pos, k in enumerate(order, 1):
        number[k] = pos
    nodes = [(number[k], number[p], j, m) for k in order for p, j, m in [made[k]]]
    shares = [0] * len(made)
    for k, share in ends.items():
        shares[number[k]] = share
    return nodes, len(inner), shares


def _contract(nodes: Sequence, inner: int, shares: Sequence, x: Sequence, y: list) -> list:
    """Add (A x^{r-1})_j to y[j] for the trie ``nodes, inner, shares`` of A,
    over the coordinates of its ``at`` map; exact or float as x and the shares
    are.

    With v[k] the product of x_j^m from the root to node k, and g[k] the
    share-weighted sum of the products below it over the entries through k,
    node k = (k, parent, j, m) adds m g[k] v[parent] x_j^{m-1} to row j.  Only
    the inner nodes need v.
    """
    v = [1] * (inner + 1)
    for k, p, j, m in nodes[:inner]:
        v[k] = v[p] * (x[j] if m == 1 else x[j] ** m)
    g = list(shares)
    for k, p, j, m in reversed(nodes):
        gk = g[k]
        if m == 1:  # most nodes: no power to take
            y[j] += gk * v[p]
            g[p] += gk * x[j]
        else:
            lower = gk * x[j] ** (m - 1)
            y[j] += m * lower * v[p]
            g[p] += lower * x[j]
    return y


def _distinct_permutations(key: Key):
    """Distinct permutations of a sorted index tuple, lexicographically."""
    perm = list(key)
    while True:
        yield tuple(perm)
        k = len(perm) - 2
        while k >= 0 and perm[k] >= perm[k + 1]:
            k -= 1
        if k < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[k]:
            j -= 1
        perm[k], perm[j] = perm[j], perm[k]
        perm[k + 1 :] = reversed(perm[k + 1 :])


class SymTensor:
    """Immutable sparse symmetric hypermatrix with exact rational entries.

    Values leave it through ``get``, ``canonical_items`` and ``full_items``;
    row sums, the total, ``apply`` and ``polynomial`` read the shares."""

    __slots__ = ("_order", "_dim", "_entries", "_rows")

    def __init__(self, order: int, dim: int, entries: Mapping[Key, Rational]):
        if order < 1:
            raise DomainError("tensor order must be >= 1")
        if dim < 0:
            raise DomainError("tensor dimension must be >= 0")
        shares = []
        for key, raw in entries.items():
            key = tuple(key)
            if len(key) != order:
                raise DomainError(f"index tuple {key} has length != order {order}")
            ordered = tuple(sorted(key))
            if ordered[0] < 1 or ordered[-1] > dim:
                raise IndexOutOfRange(f"index tuple {key} outside 1..{dim}")
            if ordered != key:
                raise DomainError(f"index tuple {key} is not sorted")
            value = Fraction(raw)
            if value != 0:
                runs = _runs(key)
                shares.append((runs, _share(runs, value, order)))
        self._build(order, dim, shares)

    @classmethod
    def _from_shares(cls, order: int, dim: int, shares: Iterable) -> "SymTensor":
        """Tensor of the nonzero (canonical run key, share) pairs built in this module."""
        t = object.__new__(cls)
        t._build(order, dim, shares)
        return t

    def _build(self, order: int, dim: int, shares: Iterable) -> None:
        """The one builder: store the (run key, share) pairs in the order given."""
        for name, value in zip(self.__slots__, (order, dim, dict(shares), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SymTensor is immutable")

    @property
    def order(self) -> int:
        return self._order

    @property
    def dim(self) -> int:
        return self._dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (
            self._order == other._order
            and self._dim == other._dim
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self._order, self._dim, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        return f"SymTensor(order={self._order}, dim={self._dim}, nnz={len(self._entries)})"

    def canonical_count(self) -> int:
        return len(self._entries)

    def canonical_items(self) -> list[tuple[Key, Rational]]:
        """(dense key, value) per entry, in the dense keys' order."""
        r = self._order
        return sorted((_dense(runs), _value(runs, s, r)) for runs, s in self._entries.items())

    def get(self, idx: Sequence[int]) -> Rational:
        """Logical entry for any index permutation; zero when absent."""
        key = tuple(sorted(idx))
        if len(key) != self._order:
            raise DimensionMismatch(f"expected {self._order} indices, got {len(key)}")
        if key[0] < 1 or key[-1] > self._dim:
            raise IndexOutOfRange(f"index tuple {key} outside 1..{self._dim}")
        runs = _runs(key)
        share = self._entries.get(runs)
        return 0 if share is None else _value(runs, share, self._order)

    def logical_nonzero_count(self) -> int:
        """Number of nonzero positions in the full symmetric expansion."""
        return sum(map(_multinomial, self._entries))

    def total_sum(self) -> Rational:
        """Sum over all logical entries: r times the summed shares."""
        return as_rational(self._order * sum(self._entries.values()))

    def row_sum(self, i: int) -> Rational:
        """Sum of all logical entries whose first index is ``i``."""
        if not 1 <= i <= self._dim:
            raise IndexOutOfRange(f"index {i} outside 1..{self._dim}")
        return self._row_vector()[i - 1]

    def row_sums(self) -> list[Rational]:
        """All row sums; item i-1 is row_sum(i)."""
        return list(self._row_vector())

    def _row_vector(self) -> tuple[Rational, ...]:
        """The row sums, made on first use in one pass over the runs, into a
        difference array that a run of c indices changes at both ends."""
        if self._rows is None:
            steps = [0] * (self._dim + 2)  # steps[i]: row i less row i - 1
            for runs, share in self._entries.items():
                for i, m, c in runs:
                    steps[i] += share * m
                    steps[i + c] -= share * m
            object.__setattr__(self, "_rows", tuple(map(as_rational, accumulate(steps[1:-1]))))
        return self._rows

    def apply(self, x: Sequence) -> list:
        """Left contraction (A x^{r-1})_i over all dimensions (module docstring)."""
        if len(x) != self._dim:
            raise DimensionMismatch(f"vector length {len(x)} != dim {self._dim}")
        at = {i: (i - 1, 1) for i in range(1, self._dim + 1)}
        return _contract(*_trie(self._entries.items(), at), x, [Fraction(0)] * self._dim)

    def polynomial(self) -> "HbPolynomial":
        """Homogeneous polynomial P(z) = sum a_{i_1..i_r} z_{i_1}..z_{i_r}: one
        monomial per entry, keyed by its run key, whose multinomial(m)
        logical entries sum to r * share."""
        r = self._order
        monomials = {runs: as_rational(r * share) for runs, share in self._entries.items()}
        return HbPolynomial(degree=r, dim=self._dim, monomials=monomials)

    def full_items(self) -> list[tuple[Key, Rational]]:
        """Every distinct index permutation of every entry, with its value.

        Refuses, before expanding anything, to return more than
        ``MAX_FULL_RECORDS`` records: at once, from its log-gammas, if one
        entry has more than 10 ``MAX_FULL_RECORDS`` permutations, and
        otherwise from their count.
        """
        limit = math.log10(MAX_FULL_RECORDS)
        if any(_log10_multinomial(runs, self._order) > limit for runs in self._entries):
            raise DomainError(
                f"full export would emit more than {10 * MAX_FULL_RECORDS} records"
                f" (limit {MAX_FULL_RECORDS})"
            )
        total = self.logical_nonzero_count()
        if total > MAX_FULL_RECORDS:
            raise DomainError(
                f"full export would emit {total} records (limit {MAX_FULL_RECORDS})"
            )
        return [
            (perm, value)
            for key, value in self.canonical_items()
            for perm in _distinct_permutations(key)
        ]


class HbPolynomial(NamedTuple):
    """Polynomial attached to a tensor, as monomial -> coefficient, each
    monomial a tensor's run key: runs (first, exponent, count) of ``count``
    consecutive indices, each at that exponent."""

    degree: int
    dim: int
    monomials: Mapping[Runs, Rational]

    def evaluate(self, z: Sequence) -> Rational:
        """P(z) as an ``as_rational`` number, at O(sum of the monomials'
        indices), one power per run."""
        if len(z) != self.dim:
            raise DimensionMismatch(f"vector length {len(z)} != dim {self.dim}")
        return as_rational(
            sum(
                c * math.prod(math.prod(z[i - 1 : i - 1 + k]) ** m for i, m, k in runs)
                for runs, c in self.monomials.items()
            )
        )


# -- constructions ----------------------------------------------------------


def _indexed(a: Multiset) -> Runs:
    """Canonical run key of a natural multiset over its 1-based universe
    positions, ascending as its support is kept in universe order."""
    mult = a.mult
    if not a.natural:
        x = next(x for x, v in mult.items() if not isinstance(v, int))
        raise NotNatural(f"non-integer multiplicity for {x!r}")
    position = a.universe.position
    return _merged([(position[x] + 1, v, 1) for x, v in mult.items()])


def mset_hypermatrix(a: Multiset, normalized: bool) -> SymTensor:
    """Hypermatrix representation of a natural multiset.

    Unnormalized: value 1 on every permutation of the support indices taken
    with their multiplicities (share multinomial / r).  Normalized: value
    (prod of multiplicity factorials) / (r-1)! on the same tuples (share 1),
    which makes the logical total equal the m-cardinality r.
    """
    runs = _indexed(a)
    if not runs:
        raise EmptyMultiset("hypermatrix representation of an empty multiset")
    r = a.m_cardinality()
    share = 1 if normalized else as_rational(Fraction(_multinomial(runs), r))
    return SymTensor._from_shares(r, len(a.universe), [(runs, share)])


def elementary_tensor(h: HbGraph) -> SymTensor:
    """Normalized adjacency hypermatrix of a single-edge hb-graph."""
    if h.p != 1:
        raise DomainError("elementary hb-graph must have exactly one hb-edge")
    return mset_hypermatrix(h.edges[0], normalized=True)


def uniform_tensor(h: HbGraph) -> SymTensor:
    """Adjacency hypermatrix of a k-m-uniform hb-graph (sum of elementary ones).

    Weights are ignored; the weighted variant is the e-adjacency tensor.
    """
    if not h.edges:
        raise EmptyEdgeFamily("uniform tensor needs at least one hb-edge")
    if not h.is_natural():
        raise NotNatural("uniform tensor needs integer multiplicities")
    if not h.no_repeated_edges():
        raise RepeatedEdges("uniform tensor forbids repeated hb-edges")
    k = h.m_range()
    if k != h.m_corange():
        raise NotUniform("hb-edges have differing m-cardinalities")
    if k == 0:
        raise EmptyEdge("uniform tensor forbids empty hb-edges")
    return SymTensor._from_shares(k, h.n, [(_indexed(e), 1) for e in h.edges])


def _edge_keys(h: HbGraph, approach: str, r_h: int) -> list[Runs]:
    """Each hb-edge's canonical e-adjacency key, in edge order: its runs, then
    its padding run, which joins the last of them where it continues it."""
    return [_merged(_indexed(e) + padding(approach, h.n, r_h, e.m_cardinality())) for e in h.edges]


def e_adjacency_tensor(
    h: HbGraph, approach: str
) -> tuple[SymTensor, UniformisationTrace]:
    """e-adjacency tensor of a natural hb-graph, one canonical entry per edge.

    Order r_H; dimension n+1 (straightforward) or n+r_H-1 (silo, layered;
    n when r_H = 1).  Each entry's share is its hb-edge's weight, so user edge
    weights scale the entries linearly.  On an r_H-m-uniform input, such as
    the hb-graph ``uniformize`` returns, every c is r_H: the n_a null
    dimensions are kept, no entry uses them, and Delta* is 0.
    """
    trace = _uniformisation_trace(h, approach)
    shares = zip(_edge_keys(h, approach, trace.r_h), map(h.weight, range(h.p)))
    return SymTensor._from_shares(trace.r_h, h.n + trace.n_a, shares), trace


def hypergraph_tensor(hg: HbGraph) -> tuple[SymTensor, UniformisationTrace]:
    """e-adjacency tensor of a hypergraph (all multiplicities in {0, 1}).

    This is the silo construction on {0, 1} inputs: a hyperedge of
    cardinality k gets the index multiset of its vertices plus the null index
    (n+k) repeated k_max - k times, with value (k_max - k)! / (k_max - 1)!.
    """
    for e in hg.edges:
        if any(v != 1 for v in e.mult.values()):
            raise NotAHypergraph("hyperedges must have multiplicities in {0, 1}")
    return e_adjacency_tensor(hg, SILO)


# -- information retrieval ---------------------------------------------------


def _check_trace(t: SymTensor, trace: UniformisationTrace) -> int:
    """Validate tensor/trace consistency; return the original vertex count."""
    if trace.approach not in APPROACHES:
        raise TraceMismatch(f"unknown approach {trace.approach!r}")
    if trace.r_h != t.order:
        raise TraceMismatch(f"trace r_H {trace.r_h} != tensor order {t.order}")
    n = t.dim - trace.n_a
    if n < 0:
        raise TraceMismatch("more null vertices than tensor dimensions")
    return n


def _level_weights(t: SymTensor, trace: UniformisationTrace) -> dict[int, Rational]:
    """{j: the summed shares of the entries at level j} (module docstring),
    ascending over the levels where that sum is nonzero, in O(runs): the
    summed weight W_j of the m-cardinality-j hb-edges, as ``as_rational``
    numbers.  The one level computation: ``edge_distribution`` and ``verify``
    read it."""
    n = _check_trace(t, trace)
    levels = Counter()
    for runs, share in t._entries.items():
        # a run may cross from the original vertices into the null ones
        levels[sum(m * min(c, n + 1 - i) for i, m, c in runs if i <= n)] += share
    return {j: as_rational(levels[j]) for j in sorted(levels) if levels[j]}


def edge_distribution(
    t: SymTensor, trace: UniformisationTrace, total_edges: int
) -> dict[int, Rational]:
    """The hb-edge distribution {c: W_c} at every level c whose W_c is
    nonzero, read off the tensor's entries and the trace alone, top level
    included.

    W_c is the summed weight of the m-cardinality-c hb-edges: their number
    when the graph is unweighted, the exact summed weight otherwise (edges
    ``{a}``, ``{a, b²}``, ``{c, d²}`` of weights 2, 1, 1 give ``{1: 2, 3: 2}``).
    ``total_edges`` only checks the tensor: an e-adjacency tensor holds one
    canonical entry per hb-edge, and each entry has an original-vertex index,
    so ``TraceMismatch`` is raised for another entry count or an entry of
    level 0.
    """
    levels = _level_weights(t, trace)
    if t.canonical_count() != total_edges:
        raise TraceMismatch(
            f"tensor holds {t.canonical_count()} canonical entries, not one per"
            f" hb-edge ({total_edges})"
        )
    n = t.dim - trace.n_a
    for runs in t._entries:
        if runs[0][0] > n:
            raise TraceMismatch(f"entry {_shown(runs)} has no original-vertex index")
    return levels


def reconstruct_edges(
    t: SymTensor, trace: UniformisationTrace
) -> list[dict[int, int]]:
    """Delete null-vertex indices from every canonical entry.

    Returns the recovered edge family as multiplicity mappings over the
    original vertex indices (1-based), in entry order: the input edge order
    for a tensor built from an hb-graph, the record order for one read from
    COO.
    """
    n = _check_trace(t, trace)
    family = []
    for runs in t._entries:
        # the original-vertex part of each run, which may run on past n
        edge = {i: m for first, m, c in runs for i in range(first, n + 1)[:c]}
        if not edge:
            raise TraceMismatch(f"entry {_shown(runs)} has no original-vertex index")
        family.append(edge)
    return family


def reconstruct_hbgraph(
    t: SymTensor, trace: UniformisationTrace, vertices: Sequence[str]
) -> HbGraph:
    """Rebuild the (unweighted) hb-graph from a tensor and its trace."""
    family = reconstruct_edges(t, trace)
    n = t.dim - trace.n_a
    if len(vertices) != n:
        raise TraceMismatch(f"expected {n} vertex names, got {len(vertices)}")
    vs = Universe(vertices)
    return HbGraph(vs, [Multiset(vs, {vs[i - 1]: m for i, m in e.items()}) for e in family])
