"""Exact minimum size of an induced-saturated family at tiny ground size.

Iterative deepening on the family size s = 0, 1, 2, ...: for each s a
depth-first search runs over subsets of 2^[n] in canonical order, pruning
every prefix that already contains an induced copy of the target (such a
prefix can never extend to a free family).  A complete size-s family is
accepted iff it is saturated, a check that stops at its first exception;
the first acceptance is optimal because the sizes are tried in order.
Saturation is only decided on complete families; it is not monotone along
prefixes, so checking it earlier would be unsound.

The only symmetry reduction is that the first chosen set must be an
initial segment {1, ..., c}: relabeling the ground set maps saturated
families to saturated families and can always bring the canonically first
member to that shape.  Intended for n <= 5; the node budget turns larger
instances into an explicit ``budget_exceeded`` result carrying the best
verified upper bound (from greedy completion of the empty family) instead
of a silent hang.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embed import DEFAULT_NODE_BUDGET, BudgetExceededError, CopySearch
from .posetspec import ComparabilityMatrix
from .setfam import Family, canonical_key, family_to_json
from .verify import exceptions, greedy_saturate, is_induced_p_free, is_saturated

DEFAULT_SOLVER_BUDGET = 5_000_000


@dataclass(frozen=True)
class SolveResult:
    status: str  # "exact" | "budget_exceeded"
    value: int | None
    witness: Family | None
    nodes_explored: int


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
    nodes = 0

    def saturated(masks: tuple[int, ...]) -> bool:
        # Stops at the first exception; the witness below gets the full sweep.
        return is_saturated(Family(n, masks), poset, node_budget=inner_budget)

    def dfs(start: int, search: CopySearch, left: int):
        nonlocal nodes
        if left == 0:
            return search.masks if saturated(search.masks) else None
        first = not search.masks
        for upos in range(start, len(universe) - left + 1):
            g = universe[upos]
            if first and g != (1 << g.bit_count()) - 1:
                continue  # first set must be an initial segment of [n]
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError("solver node budget exceeded")
            if search.find_containing(g, inner_budget) is not None:
                continue  # prefix would already contain a copy
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
