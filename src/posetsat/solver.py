"""Exact minimum size of an induced-saturated family at tiny ground size.

Iterative deepening on the family size s = 0, 1, 2, ...: for each s a
depth-first search runs over subsets of 2^[n] in canonical order, pruning
every prefix that already contains an induced copy of the target (such a
prefix can never extend to a free family).  A complete size-s family is
accepted iff it is saturated, a check that stops at its first exception;
the first acceptance is optimal because the sizes are tried in order.
Saturation is only decided on complete families; it is not monotone along
prefixes, so checking it earlier would be unsound.

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

from .embed import DEFAULT_NODE_BUDGET, BudgetExceededError, CopySearch
from .posetspec import ComparabilityMatrix
from .setfam import Family, canonical_key, family_to_json
from .verify import exceptions, greedy_saturate, is_induced_p_free, is_saturated

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
    inner_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Minimum size of an induced-saturated family over [n] for the target.

    ``node_budget`` caps prefix extensions tried by the outer search;
    ``inner_budget`` caps each embedded copy search.  Exact results carry a
    witness family that is re-verified (free and exception-free) before
    being returned.
    """
    if n > 16:
        raise ValueError("saturation checks enumerate 2^n subsets; n <= 16 only")
    try:
        # A saturated family, greedily completed from the empty one.
        incumbent = greedy_saturate(Family(n, ()), poset, node_budget=inner_budget)
    except BudgetExceededError:
        return SolveResult("budget_exceeded", None, None, 0)

    universe = sorted(range(1 << n), key=canonical_key)
    group = _GroundGroup(n, poset.spec is not None and poset.spec.is_self_dual())
    nodes = 0

    def saturated(masks: tuple[int, ...]) -> bool:
        # Stops at the first exception; the witness below gets the full sweep.
        return is_saturated(Family(n, masks), poset, node_budget=inner_budget)

    def dfs(start: int, search: CopySearch, left: int):
        nonlocal nodes
        if left == 0:
            return search.masks if saturated(search.masks) else None
        for upos in range(start, len(universe) - left + 1):
            g = universe[upos]
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError("solver node budget exceeded")
            if search.find_containing(g, inner_budget) is not None:
                continue  # prefix would already contain a copy
            if not group.is_least(search.masks + (g,)):
                continue  # another member of the prefix's orbit comes first
            found = dfs(upos + 1, search.with_member(g), left - 1)
            if found is not None:
                return found
        return None

    try:
        for size in range(len(incumbent) + 1):
            # The generic engine: its whole state is the containment index,
            # which with_member extends in O(|F|) per prefix; the chain
            # engine would rebuild its interval nodes at every prefix.
            found = dfs(0, CopySearch((), poset, engine="generic"), size)
            if found is not None:
                witness = Family(n, found)
                if not is_induced_p_free(witness, poset, node_budget=inner_budget):
                    raise AssertionError("solver witness contains a copy of the target")
                if len(exceptions(witness, poset, node_budget=inner_budget)) != 0:
                    raise AssertionError("solver witness is not saturated")
                return SolveResult("exact", size, witness, nodes)
    except BudgetExceededError:
        return SolveResult("budget_exceeded", len(incumbent), incumbent, nodes)
    # The greedy incumbent is saturated, so the loop must return by then.
    raise AssertionError("search exhausted sizes without finding the incumbent")


def solve_result_to_json(result: SolveResult) -> dict:
    return {
        "status": result.status,
        "value": result.value,
        "witness": None if result.witness is None else family_to_json(result.witness),
        "nodes": result.nodes_explored,
    }
