"""Eigenvalue bound for e-adjacency tensors and an empirical estimator.

Every eigenvalue of an e-adjacency tensor satisfies

    |lambda| <= max(Delta, Delta*) + r_H

where Delta and Delta* are the maximal m-degrees over original and null
vertices (both readable off the tensor as row sums).  The bound is exact:
Delta, Delta* and the bound follow ``mset.as_rational``, as the row sums do
(an int when integral, a ``Fraction`` otherwise).  Delta* is read off the
null rows.  On an e-adjacency tensor it is also a closed form in the level
weights W_c of ``tensor._level_weights``, summed over c < r_H for
straightforward ((r_H - c) W_c) and layered (W_c), and the maximum of
(r_H - c) W_c for silo; but a tensor read from a file may pad an entry with
another level's null vertex, and only the row scan stays right there.

The power iteration below, run over the twin classes of the nonzero rows
through the tensor's contraction kernel (``tensor._contract``, O(trie nodes)
per step, at most sum |supp e| + r_H on an e-adjacency tensor, and on a
layered one sum |supp e| plus one per level below r_H that occurs), gives a
lower estimate of the largest H-eigenvalue, so the bound can be checked
empirically.  Twins are indices that every entry holds at one multiplicity
or not at all, such as the null vertices between two levels of a layered
padding: the iteration keeps one coordinate per class of them, and the trie
one node per piece of a class, so no key is rewritten.  A piece, a range
that no run boundary splits, joins the class of the piece before it across a
gap of unused indices when the runs that end before the gap start again after
it, at the same multiplicities.  When its
steps shrink by a steady ratio rho, one slow mode is left, and an Aitken-type
extrapolation step (Kamvar, Haveliwala, Manning and Golub, 2003) jumps to
that mode's limit.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from itertools import islice
from typing import Iterable, NamedTuple

from .errors import DomainError
from .mset import Rational
from .tensor import Runs, SymTensor, _check_trace, _contract, _trie
from .transform import UniformisationTrace

# the power iteration stops once no coordinate moves by this much in a step
_TOL = 1e-10
# an extrapolation step needs two consecutive step ratios that agree to within
# _AGREE min(rho, 1 - rho), the later one rho, and 0 < rho < _MAX_RATIO
_AGREE = 0.2
_MAX_RATIO = 0.999


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
    rows = t._row_vector()  # the cached tuple, read in place
    delta = max(islice(rows, n), default=0)
    delta_star = max(islice(rows, n, None), default=0)
    bound = max(delta, delta_star) + trace.r_h
    return SpectralBoundReport(trace.approach, trace.r_h, delta, delta_star, bound)


def _twin_classes(keys: Iterable[Runs]) -> tuple[list[int], dict]:
    """The twin classes of the indices that occur in the run ``keys``, in
    index order, in O(runs) and a sort of the distinct run boundaries.

    With the support renumbered in order, a class is a maximal range of
    coordinates that no run boundary splits, once the runs of one key that
    the renumbering makes adjacent at one multiplicity are merged: indices
    that every key holds at one multiplicity or not at all.  Between two
    consecutive boundaries (the first index of a run, and the one after its
    last) the indices either all occur, a piece, or none do, a gap.  Keys
    are maximal, so two pieces that meet differ in some key.  Two that a gap
    parts are twins when the runs that end just before the gap are the runs
    that start just after it: the same keys, at the same multiplicities.

    Returns each class's size, and ``tensor._trie``'s piece map: {the last
    index of each piece: (its class's number, the piece's size)}.
    """
    # index -> the (key number, multiplicity) of the runs that start there,
    # and of those that end just before it, in key order
    starts, ends = defaultdict(list), defaultdict(list)
    for k, runs in enumerate(keys):
        for first, m, c in runs:
            run = k, m  # one tuple for both lists halves the allocations that wake the GC
            starts[first].append(run)
            ends[first + c].append(run)
    sizes, at = [], {}
    depth, join = 0, False  # the runs over [first, stop); whether a gap joins the next piece
    points = sorted(starts.keys() | ends.keys())
    for first, stop in zip(points, points[1:]):
        depth += len(starts[first]) - len(ends[first])
        if not depth:  # a gap
            join = ends[first] == starts[stop]
            continue
        if not join:
            sizes.append(0)
        sizes[-1] += stop - first
        at[stop - 1] = len(sizes) - 1, stop - first
        join = False
    return sizes, at


def estimate_max_eigenvalue(
    t: SymTensor, iterations: int = 10_000, seed: int | None = None
) -> PowerIterationResult:
    """Shifted higher-order power iteration on the positive orthant.

    Iterates x <- normalize((A x^{r-1} + x^{[r-1]})^{1/(r-1)}) from a random
    positive start and reports the Rayleigh-style quotient
    sum_i x_i (A x^{r-1})_i / sum_i x_i^r of the last iterate.  For a
    nonnegative symmetric tensor this quotient never exceeds the largest
    H-eigenvalue, so the reported value always respects the spectral bound.
    Convergence is not guaranteed; the flag reports whether the iterate
    stabilized within ``_TOL``, and is never set on a quotient of 0.0: the
    shares are positive, so is the largest H-eigenvalue, and 0.0 means every
    term of the contraction underflowed (x_i^{r-1} at large r) and the iterate
    froze.  Underflowed coordinates alone are no such sign; correct runs have them.

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

    Its coordinates are the twin classes of the support (``_twin_classes``):
    the maximal ranges of consecutive support indices that every entry holds
    at one multiplicity or not at all, found in O(runs).  Swapping two twins
    leaves the tensor unchanged, so an iterate equal on a class stays so, and
    one coordinate x_t stands for the s_t indices of class t, its weight.
    ``tensor._trie`` walks each run piece by piece: a piece of s indices of
    class t, held at multiplicity m, is one node of exponent m s on x_t (a
    class that a gap parts, such as b and the padding in layered {a^M},
    {a, b}, is a node per piece), so the contraction gives y_t, the summed
    rows of the class.  A member's row is y_t / s_t, divided out on the
    classes of more than one index only, and the quotient
    sum_t x_t y_t / sum_t s_t x_t^r is the one over every index.
    The stop test and the step ratios read one value per class.  The seeded
    start draws one value per class, in index order, so on a tensor without
    twins the iteration is the one over the support, value for value, and
    on a tensor whose every index occurs, the full-dimension one.

    The contraction reads the float shares only, so large multiplicities
    cost no large multinomial; an entry share or a contraction that no float
    can hold raises ``DomainError``.
    """
    if t.order < 2:
        raise DomainError("power iteration needs tensor order >= 2")
    shares = t._entries  # run key -> share, of the sign of its value
    if any(s < 0 for s in shares.values()):
        raise DomainError("power iteration needs nonnegative entries")
    if not shares:
        return PowerIterationResult(value=0.0, converged=True, iterations=0)
    r = t.order
    # coordinate j: the twin class of sizes[j] indices, one trie node per piece
    sizes, at = _twin_classes(shares)
    d = len(sizes)
    twins = [(j, s) for j, s in enumerate(sizes) if s > 1]
    nodes, inner, exact = _trie(shares.items(), at)
    try:
        floats = list(map(float, exact))
    except OverflowError:
        raise DomainError("power iteration: an entry share is too large for a float") from None

    def contract(x: list[float]) -> list[float]:
        """y_t: the summed rows (A x^{r-1})_i of the members i of class t."""
        y = _contract(nodes, inner, floats, x, [0.0] * d)
        if not math.isfinite(sum(y)):
            raise DomainError("power iteration: the contraction exceeds the float range")
        return y

    rng = random.Random(seed)
    x = [rng.uniform(0.5, 1.5) for _ in range(d)]
    top = max(x)
    x = [xi / top for xi in x]

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
    rayleigh = sum(xi * yi for xi, yi in zip(x, y)) / sum(s * xi**r for s, xi in zip(sizes, x))
    return PowerIterationResult(rayleigh, converged and rayleigh > 0.0, used)
