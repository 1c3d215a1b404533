"""Freeness checks, exception enumeration, saturation, greedy completion.

A family F is induced P-free when it contains no induced copy of P.  Its
exception set is every absent subset G whose addition still leaves F
induced P-free; F is saturated when it is free and has no exceptions.
Exceptions are found by sweeping all 2^n candidate subsets, which both
verifies and replaces any hand case analysis.  Each inner search is seeded
to require the candidate in the image — a copy avoiding the candidate
would contradict the freeness of F, which is asserted up front.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .embed import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    CopySearch,
    find_induced_copy,
)
from .posetspec import ComparabilityMatrix, build_poset, render_poset_spec
from .setfam import Family, canonical_key, canonicalize_family

DEFAULT_ENUMERATION_CAP = 16


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a freeness/saturation check against one target.

    ``is_free`` is None when the budget ran out before freeness was
    decided.  When ``budget_exceeded`` is set after a partial sweep,
    ``exceptions`` holds only the candidates cleared so far.
    """

    poset: str
    family_size: int
    is_free: bool | None
    exception_count: int
    exceptions: Family
    budget_exceeded: bool


def is_induced_p_free(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """True iff no induced copy of the target exists in the family.

    A budget overrun propagates as BudgetExceededError; it is never coerced
    into a freeness verdict.
    """
    return find_induced_copy(family, poset, node_budget=node_budget) is None


def _candidate_masks(family: Family) -> list[int]:
    members = set(family.sets)
    return [
        g
        for g in sorted(range(1 << family.n), key=canonical_key)
        if g not in members
    ]


def _sweep_chunk(args) -> tuple[list[int], bool]:
    """Return (non-completing candidates in chunk, aborted-by-budget)."""
    masks, poset, chunk, node_budget = args
    searcher = CopySearch(masks, poset)
    out: list[int] = []
    for g in chunk:
        try:
            found = searcher.find_containing(g, node_budget)
        except BudgetExceededError:
            return out, True
        if found is None:
            out.append(g)
    return out, False


def exceptions(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
    workers: int = 1,
) -> Family:
    """All G outside the family whose addition creates no induced copy.

    Requires the family to be induced P-free already.  Enumerates all 2^n
    subsets, so the ground size is capped (raise ``max_ground`` explicitly
    to go past 16).  ``node_budget`` caps each candidate's search (and the
    freeness check), not the sweep as a whole; a candidate that runs out
    aborts the sweep with BudgetExceededError carrying the exceptions found
    so far.  With ``workers`` > 1 candidates are swept in parallel
    processes; the result is canonicalized either way, so worker count
    never changes the output.
    """
    if family.n > max_ground:
        raise ValueError(
            f"exception sweep over 2^{family.n} subsets exceeds the cap of "
            f"n <= {max_ground}; pass a larger max_ground to override"
        )
    if not is_induced_p_free(family, poset, node_budget=node_budget):
        raise ValueError("family already contains an induced copy of the target")
    candidates = _candidate_masks(family)
    if workers <= 1 or len(candidates) < 64:
        results = [_sweep_chunk((family.sets, poset, candidates, node_budget))]
    else:
        step = (len(candidates) + workers * 4 - 1) // (workers * 4)
        chunks = [candidates[i : i + step] for i in range(0, len(candidates), step)]
        jobs = [(family.sets, poset, chunk, node_budget) for chunk in chunks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_chunk, jobs))
    found = canonicalize_family([g for chunk, _ in results for g in chunk], family.n)
    if any(aborted for _, aborted in results):
        raise BudgetExceededError(
            "exception sweep aborted by node budget",
            partial=found,
            partial_count=len(found),
        )
    return found


def is_saturated(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
    workers: int = 1,
) -> bool:
    """Free, and every absent subset completes a copy.

    ``node_budget`` caps the freeness check and each candidate's search,
    not the whole sweep; running out raises BudgetExceededError.
    """
    if not is_induced_p_free(family, poset, node_budget=node_budget):
        return False
    exc = exceptions(
        family, poset, node_budget=node_budget, max_ground=max_ground, workers=workers
    )
    return len(exc) == 0


def greedy_saturate(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
) -> Family:
    """Absorb exceptions in canonical order until the family is saturated.

    Each exception is added exactly when the family built so far plus it is
    still free; the result contains the input, sits inside input-plus-
    exceptions, and has an empty exception set of its own.
    """
    exc = exceptions(
        family, poset, node_budget=node_budget, max_ground=max_ground
    )
    searcher = CopySearch(family.sets, poset)
    accepted = list(family.sets)
    for g in exc.sets:
        if searcher.find_containing(g, node_budget) is None:
            searcher = searcher.with_member(g)
            accepted.append(g)
    return canonicalize_family(accepted, family.n)


def verification_report(
    family: Family,
    poset_text: str,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
    workers: int = 1,
    check_exceptions: bool = True,
) -> VerificationReport:
    """Run the freeness check and (optionally) the exception sweep.

    Budget overruns are folded into the report instead of raised: an
    undecided freeness check leaves ``is_free`` as None; an aborted sweep
    records the partial exception family.  ``node_budget`` caps the
    freeness check and each candidate's search separately, not the sweep
    as a whole.
    """
    poset = build_poset(poset_text)
    poset_name = render_poset_spec(poset.spec)
    empty = Family(family.n, ())
    try:
        free = is_induced_p_free(family, poset, node_budget=node_budget)
    except BudgetExceededError:
        return VerificationReport(poset_name, len(family), None, 0, empty, True)
    if not free or not check_exceptions:
        return VerificationReport(poset_name, len(family), free, 0, empty, False)
    try:
        exc = exceptions(
            family,
            poset,
            node_budget=node_budget,
            max_ground=max_ground,
            workers=workers,
        )
    except BudgetExceededError as err:
        partial = err.partial if isinstance(err.partial, Family) else empty
        return VerificationReport(
            poset_name, len(family), True, len(partial), partial, True
        )
    return VerificationReport(poset_name, len(family), True, len(exc), exc, False)


def report_to_json(report: VerificationReport, list_exceptions: bool = True) -> dict:
    return {
        "poset": report.poset,
        "family_size": report.family_size,
        "is_free": report.is_free,
        "exception_count": report.exception_count,
        "exceptions": report.exceptions.member_lists() if list_exceptions else [],
        "budget_exceeded": report.budget_exceeded,
    }
