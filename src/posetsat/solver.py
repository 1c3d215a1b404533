"""Exact minimum size of an induced-saturated family at tiny ground size.

One depth-first branch-and-bound pass (Land & Doig 1960) over subsets of
2^[n] in canonical order.  A prefix adds only sets that complete no
induced copy of the target (a prefix with a copy never extends to a free
family), so every family it reaches is free by construction.  Completing
a copy is monotone: a set that completes one in a prefix completes one in
every family the prefix grows into (the lemma in ``posetsat.embed``).  So
each prefix tests each candidate after its last pick once, through
``CopySearch.completes``, and the addable ones form its tail, its
children's candidates.  A set in the tail is an exception, so only a
prefix with an empty tail can be saturated; saturation is not monotone
along prefixes, so it is decided only there, by the look-ahead below.

Look-ahead.  A prefix F with tail T reaches only families inside
U = F ∪ T.  A set its ancestors' tails passed over before the child taken,
a *skipped* set, is absent from every one of them.  Completing a copy is
monotone, so if a skipped h completes no copy in U + h, it completes none
in any family below, and none of them is saturated: the branch is cut.  A
prefix runs the check only when it would descend, on F's searcher grown
by T's members in order (the chain engine appends unless a member of T
lies under one of F, and F's copies ride along).  It cuts only branches
with no saturated family, so the value and the witness do not change.

The same loop decides a leaf.  A set absent from F is one of three:
rejected by an ancestor's candidate test, so it completes a copy in F by
monotonicity; a candidate of F; or skipped.  With T empty every candidate
completes a copy, so F is saturated exactly when every skipped set
completes a copy in F: the look-ahead with U = F, asked of F's own
searcher.  It stops at the first skipped set that completes none, and
each set a copy found above covers needs no search.

The least size found so far bounds the pass, starting one above the
greedy incumbent: a child is entered only while it would be smaller
(checked before each child, as an earlier sibling may have lowered the
bound), and a prefix at the bound only asks whether its tail is empty.
Pre-order over a canonically ordered universe visits the families of one
size in lexicographic order of their canonical keys, and the bound cuts
no family below it, so the family kept is the first saturated one of the
least size.

Symmetry is removed by orderly generation (Read 1978; McKay 1998).  A
group G acts on the masks: every permutation of the lowest m = min(n, 6)
ground elements and, when the target is self-dual, each of them followed
by complementation.  Relabeling the ground set maps saturated families to
saturated families, and so does F -> F^c when P is isomorphic to its dual.
A prefix is kept only if it is the least of its G-orbit: no image, sorted,
has a lexicographically smaller tuple of canonical keys.  Sets are added
in canonical order, so every prefix of an orbit-least family is itself
orbit-least, and the search still reaches the least member of every orbit
(for n > 6, G is a subgroup of the symmetries, which keeps this sound).
Intended for n <= 5; the node budget turns larger instances into an
explicit ``budget_exceeded`` result carrying the best verified upper bound
(from greedy completion of the empty family) instead of a silent hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations, repeat
from operator import add, lt

from .embed import BudgetExceededError, CopySearch
from .posetspec import ComparabilityMatrix
from .setfam import Family, canonical_key, family_to_json
from .verify import DEFAULT_ENUMERATION_CAP, exceptions, greedy_saturate

DEFAULT_SOLVER_BUDGET = 5_000_000
# Ground elements the orderly filter permutes: all of them up to n = 6, the
# lowest six beyond.  Measured at n = 8 on a 2-core VM: at 6 the group has
# 1,439 maps besides the identity, its tables take 0.8 MB and an orbit check
# of six sets takes 0.7 ms; at 7 it has 10,079 maps, 10 MB (24 MB while
# building) and 8 ms a check.  Only trivial targets solve past n = 6, so
# the larger group would cost more than its pruning could save.
ORDERLY_ELEMENTS = 6


@dataclass(frozen=True)
class SolveResult:
    status: str  # "exact" | "budget_exceeded"
    value: int | None
    witness: Family | None
    nodes_explored: int


class _GroundGroup:
    """The group G of the orderly filter, acting on the masks over [n].

    A map permutes the lowest m = min(n, ORDERLY_ELEMENTS) elements, and
    for a self-dual target may then complement.  ``columns[x]`` holds the
    canonical keys of the images of the low part x under every map but the
    identity, so memory stays at 2^m entries a map.  The image of a mask is
    that low part plus the mask's high part, complemented along with it;
    the two are disjoint, so the image's key is the sum of their keys.
    """

    def __init__(self, n: int, self_dual: bool):
        m = min(n, ORDERLY_ELEMENTS)
        self.n, self.low = n, (1 << m) - 1
        self.high = ((1 << n) - 1) & ~self.low
        tables = []
        for perm in permutations(range(m)):
            table = [0] * (1 << m)
            for x in range(1, 1 << m):
                top = x.bit_length() - 1
                table[x] = table[x ^ 1 << top] | 1 << perm[top]
            tables.append(table)
        self.kept = len(tables) - 1  # maps before this index do not complement
        images = tables[1:]  # permutations() starts with the identity
        if self_dual:
            images += [[t ^ self.low for t in table] for table in tables]
        keys = [self._key(t) for t in range(1 << m)]
        columns = zip(*(map(keys.__getitem__, image) for image in images))
        # With no map but the identity (n <= 1, no complements) zip gives none.
        self.columns = list(columns) if images else [()] * (1 << m)

    def _key(self, g: int) -> int:
        """``canonical_key`` packed into one int."""
        return g.bit_count() << self.n | g

    def is_least(self, masks: tuple[int, ...]) -> bool:
        """Whether a family in canonical order is the least of its orbit: no
        image, sorted, has a lexicographically smaller tuple of keys."""
        rows = []
        for g in masks:
            row = self.columns[g & self.low]
            if self.high:
                high = g & self.high
                shifts = chain(repeat(self._key(high), self.kept), repeat(self._key(high ^ self.high)))
                row = tuple(map(add, row, shifts))
            rows.append(row)
        keys = [self._key(g) for g in masks]
        return not any(map(lt, map(sorted, zip(*rows)), repeat(keys)))


def sat_star_exact(
    n: int,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_SOLVER_BUDGET,
) -> SolveResult:
    """Minimum size of an induced-saturated family over [n] for the target.

    ``node_budget`` caps the outer search's tests, which ``nodes_explored``
    counts: one per candidate set of each prefix, and one per skipped set
    the look-ahead asks about, a leaf's saturation check included.  Every
    ``CopySearch.completes`` call of the pass is one test; each embedded
    copy search gets the default ``DEFAULT_NODE_BUDGET``.  One bounded
    depth-first pass (the module docstring) returns the lexicographically
    first saturated family of the least size; the look-ahead cuts every
    branch in which a set skipped above completes no copy in the prefix
    plus its tail, which holds no saturated family.  Exact
    results carry that witness, re-verified by a full sweep (which checks
    freeness first) before being returned.
    """
    if n > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"saturation checks enumerate 2^n subsets; n <= {DEFAULT_ENUMERATION_CAP} only"
        )
    try:
        # A saturated family, greedily completed from the empty one.
        incumbent = greedy_saturate(Family(n, ()), poset)
    except BudgetExceededError:
        return SolveResult("budget_exceeded", None, None, 0)

    universe = sorted(range(1 << n), key=canonical_key)
    group = _GroundGroup(n, poset.spec is not None and poset.spec.is_self_dual())
    nodes, best, found = 0, len(incumbent) + 1, None  # only families below best are kept

    def tick() -> None:  # one test of the outer search
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError("solver node budget exceeded")

    def dfs(cands: list[int], search: CopySearch, skipped: list[int]) -> None:
        nonlocal best, found
        tail, size = [], len(search.masks)  # the candidates this prefix can still add
        for g in cands:
            tick()
            if not search.completes(g):
                tail.append(g)
                if size + 1 >= best:
                    break  # at the bound: no child, and one exception rules this prefix out
        if tail and size + 1 >= best:
            return
        if skipped:  # the look-ahead; with an empty tail, the saturation check (module docstring)
            # Growing a searcher by nothing would only re-read its clash rows.
            reach = search.with_members(tail) if tail else search
            # Latest first: the parent's look-ahead already found the earlier
            # ones completing a copy in a larger family.
            for h in reversed(skipped):
                tick()
                if not reach.completes(h):
                    return
        if not tail:  # saturated, and entered below the bound, so smaller than the best found
            best, found = size, search.masks
            return
        for i, g in enumerate(tail):
            if size + 1 >= best:
                return  # an earlier child may have lowered the bound
            if group.is_least(search.masks + (g,)):
                dfs(tail[i + 1:], search.with_member(g), skipped + tail[:i])

    try:
        dfs(universe, CopySearch((), poset), [])
    except BudgetExceededError:
        return SolveResult("budget_exceeded", len(incumbent), incumbent, nodes)
    if found is None:  # the greedy incumbent is saturated, so the pass finds one no larger
        raise AssertionError("search found no family as small as the incumbent")
    witness = Family(n, found)
    # The sweep checks freeness first and raises ValueError on a copy.
    if len(exceptions(witness, poset)) != 0:
        raise AssertionError("solver witness is not saturated")
    return SolveResult("exact", best, witness, nodes)


def solve_result_to_json(result: SolveResult) -> dict:
    return {
        "status": result.status,
        "value": result.value,
        "witness": None if result.witness is None else family_to_json(result.witness),
        "nodes": result.nodes_explored,
    }
