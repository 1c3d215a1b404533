"""Freeness checks, exception enumeration, saturation, greedy completion.

A family F is induced P-free when it contains no induced copy of P.  Its
exception set is every absent subset G whose addition still leaves F
induced P-free; F is saturated when it is free and has no exceptions.
Exceptions are found by an exhaustive sweep over the subsets of [n], which
both verifies and replaces any hand case analysis.  The sweep searches one
representative per orbit of the family's twin group (below) and expands
each non-completing representative back into its whole orbit.  Each inner
search is seeded to require the candidate in the image — a copy avoiding
the candidate would contradict the freeness of F, which is checked up
front by the same searcher.

Ground elements i and j are *twins* when swapping them maps F onto
itself.  The swap (i k) equals (i j)(j k)(i j), so twin-ness is an
equivalence relation, and each twin class C can be permuted freely
without changing F.  Exceptions are invariant under every automorphism of
F, so whether G is one depends only on the sizes |G ∩ C|: the orbit of G
is every subset with the same sizes, and it lies wholly inside F or wholly
outside it.  The representative takes the lowest |G ∩ C| elements of each
class, which makes it the canonically first member of its orbit.  A
family whose classes are all singletons is swept subset by subset.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import or_

from .embed import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    CopySearch,
    find_induced_copy,
)
from .posetspec import ComparabilityMatrix, build_poset, render_poset_spec
from .setfam import Family, canonical_key, canonicalize_family

DEFAULT_ENUMERATION_CAP = 16
POOL_THRESHOLD = 64  # fewer representatives than this are swept serially


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a freeness/saturation check against one target.

    ``is_free`` is None when the budget ran out before freeness was
    decided.  When ``budget_exceeded`` is set after a partial sweep,
    ``exceptions`` holds only the orbits of the representatives cleared so
    far.
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


def _is_free(searcher: CopySearch, node_budget: int) -> bool:
    """The freeness check of a sweep, on the searcher the sweep reuses."""
    return searcher.find(node_budget) is None


def _check_ground(family: Family, max_ground: int) -> None:
    if family.n > max_ground:
        raise ValueError(
            f"exception sweep over 2^{family.n} subsets exceeds the cap of "
            f"n <= {max_ground}; pass a larger max_ground to override"
        )


def _twin_classes(members: set[int], n: int) -> list[int]:
    """Masks of the twin classes of [n], ordered by their lowest element.

    Each element is compared with the first element of every class so far,
    which suffices because twin-ness is transitive: O(n · classes · |F|).
    """
    classes: list[int] = []
    for i in range(n):
        for c, cls in enumerate(classes):
            pair = 1 << i | (cls & -cls)
            if all((m & pair) in (0, pair) or (m ^ pair) in members for m in members):
                classes[c] = cls | 1 << i
                break
        else:
            classes.append(1 << i)
    return classes


def _singletons(cls: int) -> list[int]:
    """The one-element masks of a class, lowest first."""
    return [1 << i for i in range(cls.bit_length()) if cls >> i & 1]


def _representatives(classes: list[int], members: set[int]) -> list[int]:
    """One absent subset per orbit, in canonical order."""
    reps = [0]
    for cls in classes:
        lows = list(accumulate(_singletons(cls), or_, initial=0))
        reps = [g | low for g in reps for low in lows]
    return sorted((g for g in reps if g not in members), key=canonical_key)


def _orbit(rep: int, moving: list[int]) -> list[int]:
    """Every subset meeting each class in as many elements as ``rep``, with
    ``rep`` first; ``moving`` lists the classes of two or more elements."""
    orbit = [rep]
    for cls in moving:
        choices = [sum(c) for c in combinations(_singletons(cls), (rep & cls).bit_count())]
        orbit = [g & ~cls | c for g in orbit for c in choices]
    return orbit


def _expand(reps: list[int], classes: list[int], members: set[int], n: int) -> Family:
    """The union of the orbits of the given absent representatives."""
    moving = [cls for cls in classes if cls & (cls - 1)]
    out: list[int] = []
    for rep in reps:
        orbit = _orbit(rep, moving)
        if orbit[0] != rep or any(g in members for g in orbit):
            raise AssertionError(
                f"orbit of representative {rep:#x} is not led by it or meets the family"
            )
        out.extend(orbit)
    return canonicalize_family(out, n)


def _search_chunk(searcher: CopySearch, chunk, node_budget: int) -> tuple[list[int], bool]:
    """Return (non-completing candidates in chunk, aborted-by-budget)."""
    out: list[int] = []
    for g in chunk:
        try:
            found = searcher.find_containing(g, node_budget)
        except BudgetExceededError:
            return out, True
        if found is None:
            out.append(g)
    return out, False


def _sweep_chunk(args) -> tuple[list[int], bool]:
    """Pool job: _search_chunk on a searcher built in the worker."""
    masks, poset, chunk, node_budget = args
    return _search_chunk(CopySearch(masks, poset), chunk, node_budget)


def _sweep(
    family: Family,
    poset: ComparabilityMatrix,
    searcher: CopySearch,
    node_budget: int,
    workers: int,
) -> Family:
    """Exceptions of a family that ``searcher`` has already found free."""
    members = set(family.sets)
    classes = _twin_classes(members, family.n)
    candidates = _representatives(classes, members)
    if workers <= 1 or len(candidates) < POOL_THRESHOLD:
        results = [_search_chunk(searcher, candidates, node_budget)]
    else:
        step = (len(candidates) + workers * 4 - 1) // (workers * 4)
        chunks = [candidates[i : i + step] for i in range(0, len(candidates), step)]
        jobs = [(family.sets, poset, chunk, node_budget) for chunk in chunks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_chunk, jobs))
    cleared = [g for chunk, _ in results for g in chunk]
    found = _expand(cleared, classes, members, family.n)
    if any(aborted for _, aborted in results):
        raise BudgetExceededError("exception sweep aborted by node budget", partial=found)
    return found


def exceptions(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
    workers: int = 1,
) -> Family:
    """All G outside the family whose addition creates no induced copy.

    Requires the family to be induced P-free already.  Sweeps the subsets
    of [n] one twin-group orbit at a time (see the module docstring); the
    sweep is exhaustive, so the ground size is capped (raise
    ``max_ground`` explicitly to go past 16).  ``node_budget`` caps each
    representative's search (and the freeness check), not the sweep as a
    whole; a representative that runs out aborts the sweep with
    BudgetExceededError carrying the orbits of the representatives cleared
    so far.  With ``workers`` > 1 representatives are swept in parallel
    processes; the result is canonicalized either way, so worker count
    never changes the output.
    """
    _check_ground(family, max_ground)
    searcher = CopySearch(family.sets, poset)
    if not _is_free(searcher, node_budget):
        raise ValueError("family already contains an induced copy of the target")
    return _sweep(family, poset, searcher, node_budget, workers)


def is_saturated(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
    workers: int = 1,
) -> bool:
    """Free, and every absent subset completes a copy.

    ``node_budget`` caps the freeness check and each representative's
    search, not the whole sweep; running out raises BudgetExceededError.
    """
    searcher = CopySearch(family.sets, poset)
    if not _is_free(searcher, node_budget):
        return False
    _check_ground(family, max_ground)
    return len(_sweep(family, poset, searcher, node_budget, workers)) == 0


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
) -> VerificationReport:
    """Run the freeness check and, on a free family, the exception sweep.

    Budget overruns are folded into the report instead of raised: an
    undecided freeness check leaves ``is_free`` as None; an aborted sweep
    records the partial exception family.  ``node_budget`` caps the
    freeness check and each representative's search separately, not the
    sweep as a whole.
    """
    poset = build_poset(poset_text)
    poset_name = render_poset_spec(poset.spec)
    empty = Family(family.n, ())
    searcher = CopySearch(family.sets, poset)
    try:
        free = _is_free(searcher, node_budget)
    except BudgetExceededError:
        return VerificationReport(poset_name, len(family), None, 0, empty, True)
    if not free:
        return VerificationReport(poset_name, len(family), free, 0, empty, False)
    _check_ground(family, max_ground)
    try:
        exc = _sweep(family, poset, searcher, node_budget, workers)
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
