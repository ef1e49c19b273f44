"""Eigenvalue bound for e-adjacency tensors and an empirical estimator.

Every eigenvalue of an e-adjacency tensor satisfies

    |lambda| <= max(Delta, Delta*) + r_H

where Delta and Delta* are the maximal m-degrees over original and null
vertices (both readable off the tensor as row sums).  The bound is exact:
Delta, Delta* and the bound follow ``hbgraph.as_rational``, as the row sums do
(an int when integral, a ``Fraction`` otherwise).  Both are read off the
tensor's piece table (``SymTensor._pieces``): the largest row sum of the
pieces that meet rows 1..n, or n+1..dim for Delta*, 0 where a gap does, in
O(log pieces) and the pieces met, whatever the dimension.  On an e-adjacency
tensor Delta* is also a closed form in the level
weights W_c of ``tensor._level_weights``, summed over c < r_H for
straightforward ((r_H - c) W_c) and layered (W_c), and the maximum of
(r_H - c) W_c for silo; but a tensor read from a file may pad an entry with
another level's null vertex, and only the rows stay right there.

The contraction A x^{r-1} is (1/r) times the gradient of the tensor's
polynomial P = r * sum of share * prod x_j^{m_j}, so it reads the shares
alone.  One kernel serves both the float power iteration below and the exact
``SymTensor.apply``: the entries' indices, inserted in descending order, form
a trie that shares their common high-index suffixes, the null-vertex padding
above all, and one forward pass (prefix products) and one backward pass
(reverse-mode derivative) over its nodes give every row, in O(nodes)
operations with no division and no multinomial.  A run is one node per piece
(``_trie``); each index is a piece of ``apply``, so on an e-adjacency tensor
the trie has at most sum |supp e| + r_H nodes: straightforward and silo
entries of level c share one padding node, and layered entries share one
chain of null indices.

The power iteration, run over the twin classes of the nonzero rows through
that kernel (``_contract``, O(trie nodes) per step, at most sum |supp e| +
r_H on an e-adjacency tensor, and on a layered one sum |supp e| plus one per
level below r_H that occurs), from x = 1 (the scheme of Ng, Qi and Zhou,
2009, takes any positive start), gives a lower estimate of the largest
H-eigenvalue, which ``verify`` reports beside the bound.  Twins are indices
that every entry holds at one multiplicity or not at all, such as the null
vertices between two levels of a layered padding: the iteration keeps one
coordinate per class of them, and the trie one node per piece of a class, so
no key is rewritten.  A piece, a range that no run boundary splits, joins the
class of the piece before it across a gap of unused indices when the runs
that end before the gap start again after it, at the same multiplicities.
The classes and their piece map come from the tensor's piece table, the
sweep that also gives its row sums.  When its steps shrink by a steady
ratio rho, one slow mode dominates them, and an Aitken-type extrapolation
step (Kamvar, Haveliwala, Manning and Golub, 2003) jumps to that mode's
limit; an iteration may have several slow modes, as silo's do, and a new
pair of ratio estimates after each jump lets the next one be jumped in turn.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DomainError
from .hbgraph import Rational, as_rational
from .tensor import SymTensor, _check_trace
from .transform import UniformisationTrace

# the power iteration stops once no coordinate moves by this much in a step
_TOL = 1e-10
# an extrapolation step needs two consecutive step ratios that agree to within
# _AGREE min(rho, 1 - rho), the later one rho, and 0 < rho < _MAX_RATIO
_AGREE = 0.2
_MAX_RATIO = 0.999
# log(1 - 1e-9): an estimate below (1 - 1e-9) times the lower bound L is
# never converged
_LOG_MARGIN = math.log1p(-1e-9)


class PowerIterationResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


class SpectralBoundReport(NamedTuple):
    approach: str
    r_h: int
    delta: Rational
    delta_star: Rational
    bound: Rational


def spectral_bound(t: SymTensor, trace: UniformisationTrace) -> SpectralBoundReport:
    """Exact bound max(Delta, Delta*) + r_H from the tensor's row sums; a
    maximum over no rows is 0."""
    n = _check_trace(t, trace)
    delta = as_rational(t._row_max(1, n))
    delta_star = as_rational(t._row_max(n + 1, t.dim))
    bound = max(delta, delta_star) + trace.r_h
    return SpectralBoundReport(trace.approach, trace.r_h, delta, delta_star, bound)


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


def estimate_max_eigenvalue(
    t: SymTensor, iterations: int = 10_000, seed: int | None = None
) -> PowerIterationResult:
    """Shifted higher-order power iteration on the positive orthant.

    Iterates x <- normalize((A x^{r-1} + x^{[r-1]})^{1/(r-1)}) from x = 1,
    every coordinate at 1, and reports the Rayleigh-style quotient
    sum_i x_i (A x^{r-1})_i / sum_i x_i^r of the last iterate.  For a
    nonnegative symmetric tensor this quotient never exceeds the largest
    H-eigenvalue, so the reported value always respects the spectral bound.
    Convergence is not guaranteed; the flag reports whether the iterate
    stabilized within ``_TOL``, and is never set on a quotient of 0.0: the
    shares are positive, so is the largest H-eigenvalue, and 0.0 means every
    term of the contraction underflowed (x_i^{r-1} at large r) and the iterate
    froze.  Underflowed coordinates alone are no such sign; correct runs have them.
    Nor is the flag set on a quotient below L (1 - 10^-9), where L, the
    largest share * prod m^{m/r} over the entries, is the quotient at the
    unit vector x_i = (m_i / r)^{1/r} on one entry's indices, so the largest
    H-eigenvalue is at least L.  L is summed in logs, as log share + sum of
    c (m / r) log m over the runs, whose terms stay finite at every order
    that a float holds; an iterate that a stop test passes while it still
    creeps, far below L at large r, then reads as not converged.

    Each plain step x' = T(x) moves the iterate by delta = x' - x, and rho =
    <delta_k, delta_{k-1}> / <delta_{k-1}, delta_{k-1}> estimates the rate at
    which the steps shrink.  It is read off the distances between the last
    three iterates, so no step is stored and a step costs two distance sums
    more than a plain power iteration.  When two consecutive estimates agree to
    within ``_AGREE`` min(rho, 1 - rho) and 0 < rho < ``_MAX_RATIO``, the
    remaining steps of that mode sum to rho / (1 - rho) delta, and the
    iteration jumps to normalize(x' + rho / (1 - rho) delta) and starts a new
    pair of estimates.  The jump keeps a coordinate at 0.0 at 0.0, and is not
    taken (the plain step stands) if it would make a positive coordinate
    nonpositive or any coordinate non-finite, so the iterate stays in the
    positive orthant and the quotient below rho(A).  The agreement test scales
    with rho as well as with 1 - rho: a rate that falls step by step (an
    iterate that converges faster than linearly) gets no jump, which there
    would overshoot.  A jump costs no contraction; ``iterations`` counts
    contractions, and the stop test is only ever passed by a plain step, so
    ``converged`` keeps its meaning.

    The iteration runs on the support only: the indices that occur in some
    canonical entry, which (entries being nonzero and nonnegative) are
    exactly the nonzero rows, renumbered in order.  A zero row i, such as an
    isolated vertex, adds nothing to A x^{r-1} and is 0 in every eigenvector
    with lambda != 0, since lambda x_i^{r-1} = (A x^{r-1})_i = 0.  Iterated,
    it would only decay by a factor (lambda + 1)^{-1/(r-1)} per step from a
    start near 1, and hold the convergence test open for about
    23 (r - 1) / ln(lambda + 1) steps at ``_TOL`` = 1e-10.

    Its coordinates are the twin classes of the support (``SymTensor._pieces``):
    the maximal ranges of consecutive support indices that every entry holds
    at one multiplicity or not at all, found in O(runs).  Swapping two twins
    leaves the tensor unchanged, so an iterate equal on a class stays so, and
    one coordinate x_t stands for the s_t indices of class t, its weight.
    ``_trie`` walks each run piece by piece: a piece of s indices of
    class t, held at multiplicity m, is one node of exponent m s on x_t (a
    class that a gap parts, such as b and the padding in layered {a^M},
    {a, b}, is a node per piece), so the contraction gives y_t, the summed
    rows of the class.  A member's row is y_t / s_t, divided out on the
    classes of more than one index only, and the quotient
    sum_t x_t y_t / sum_t s_t x_t^r is the one over every index.
    The stop test and the step ratios read one value per class.  The start
    x = 1 is equal on every class, as the Perron vector is, so the iteration
    is the one over the support, value for value, and on a tensor whose every
    index occurs, the full-dimension one.  ``seed`` is accepted, for callers
    that still pass it, and ignored.

    The contraction reads the float shares only, so large multiplicities
    cost no large multinomial; an order r, an entry share or a contraction
    that no float can hold raises ``DomainError``.
    """
    if t.order < 2:
        raise DomainError("power iteration needs tensor order >= 2")
    shares = t._entries  # run key -> share, of the sign of its value
    if any(s < 0 for s in shares.values()):
        raise DomainError("power iteration needs nonnegative entries")
    if not shares:
        return PowerIterationResult(value=0.0, converged=True, iterations=0)
    r = t.order
    try:
        float(r)  # every multiplicity and exponent below is at most r
    except OverflowError:
        raise DomainError("power iteration: the order r_H is too large for a float") from None
    # coordinate j: the twin class of sizes[j] indices, one trie node per piece
    sizes, at = t._pieces()[2:]
    d = len(sizes)
    twins = [(j, s) for j, s in enumerate(sizes) if s > 1]
    nodes, inner, exact = _trie(shares.items(), at)
    try:
        floats = list(map(float, exact))
    except OverflowError:
        raise DomainError("power iteration: an entry share is too large for a float") from None
    low = _LOG_MARGIN + max(
        math.log(s.numerator) - math.log(s.denominator)
        + math.fsum(c * (m / r) * math.log(m) for _, m, c in runs)
        for runs, s in shares.items()
    )

    def contract(x: list[float]) -> list[float]:
        """y_t: the summed rows (A x^{r-1})_i of the members i of class t."""
        y = _contract(nodes, inner, floats, x, [0.0] * d)
        if not math.isfinite(sum(y)):
            raise DomainError("power iteration: the contraction exceeds the float range")
        return y

    x = [1.0] * d

    converged, used = False, 0
    k, root = r - 1, 1.0 / (r - 1)
    before = gap = ratio = None  # the iterate before x, the length of the step to x, its rho
    for used in range(1, iterations + 1):
        y = contract(x)
        for j, s in twins:  # a member's row
            y[j] /= s
        nxt = [(yi + xi**k) ** root for xi, yi in zip(x, y)]
        # the largest coordinate of x is 1.0, so top >= 1
        top = max(nxt)
        nxt = [v / top for v in nxt]
        converged = all(abs(a - b) < _TOL for a, b in zip(nxt, x))
        if converged:
            x = nxt
            break
        size, rho = math.dist(nxt, x), None
        if before is not None:
            # <a - b, b - c> = (|a - c|^2 - |a - b|^2 - |b - c|^2) / 2, and the step
            # to x moved some coordinate by _TOL, so gap > 0
            rho = (math.dist(nxt, before) ** 2 - size * size - gap * gap) / (2.0 * gap * gap)
        before, x, gap = x, nxt, size
        agree = ratio is not None and abs(rho - ratio) < _AGREE * min(rho, 1.0 - rho)
        if agree and 0.0 < rho < _MAX_RATIO:
            # the steps shrink by rho each: jump to the limit of that one mode
            c = rho / (1.0 - rho)
            jumped = [xi + c * (xi - xb) if xi else 0.0 for xi, xb in zip(x, before)]
            top = max(jumped)
            if math.isfinite(top) and all(j > 0.0 for j, xi in zip(jumped, x) if xi):
                x = [j / top for j in jumped]
                before = rho = None
        ratio = rho

    y = contract(x)
    top = bottom = 0.0  # left to right: 3.12's ``sum`` of floats compensates, fsum is exact
    for s, xi, yi in zip(sizes, x, y):
        top, bottom = top + xi * yi, bottom + s * xi**r
    rayleigh = top / bottom
    converged = converged and rayleigh > 0.0 and math.log(rayleigh) >= low
    return PowerIterationResult(rayleigh, converged, used)
