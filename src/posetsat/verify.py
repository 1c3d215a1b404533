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

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb, prod
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


def _expand(rep: int, size: int, classes: list[int], members: set[int]) -> list[int]:
    """The orbit of an absent representative: every subset meeting each class
    in as many elements as ``rep``, with ``rep`` first, checked against the
    orbit ``size`` the sweep computed."""
    orbit = [rep]
    for cls in classes:
        choices = [sum(c) for c in combinations(_singletons(cls), (rep & cls).bit_count())]
        orbit = [g & ~cls | c for g in orbit for c in choices]
    if orbit[0] != rep or len(orbit) != size or any(g in members for g in orbit):
        raise AssertionError(
            f"orbit of representative {rep:#x} is not led by it, does not have "
            f"{size} members, or meets the family"
        )
    return orbit


def _sweep_chunk(args) -> tuple[list[bool], bool]:
    """Pool job: whether each representative of a chunk completes a copy, and
    whether a search ran out of budget.  Ends there, or with ``first`` at a
    representative that completes none."""
    masks, poset, chunk, node_budget, first = args
    searcher, out = CopySearch(masks, poset), []
    try:
        for g in chunk:
            out.append(searcher.find_containing(g, node_budget) is not None)
            if first and not out[-1]:
                break
    except BudgetExceededError:
        return out, True
    return out, False


def _sweep(
    family: Family, poset: ComparabilityMatrix, searcher: CopySearch, classes: list[int],
    node_budget: int, workers: int, first: bool = False,
) -> Iterator[tuple[int, int, bool]]:
    """Yield (representative, orbit size, completes a copy) for each absent
    representative of a family ``searcher`` found free, in canonical order.
    A budget overrun raises BudgetExceededError right after the
    representatives before it, pooled or not; a pool cancels the chunks not
    yet started.  ``first`` lets each pool job stop at its first exception."""
    reps = _representatives(classes, set(family.sets))
    moving = [(cls, cls.bit_count()) for cls in classes if cls & (cls - 1)]

    def size(g: int) -> int:
        return prod(comb(k, (g & cls).bit_count()) for cls, k in moving)

    if workers <= 1 or len(reps) < POOL_THRESHOLD:
        for g in reps:
            yield g, size(g), searcher.find_containing(g, node_budget) is not None
        return
    step = (len(reps) + workers * 4 - 1) // (workers * 4)
    chunks = [reps[i : i + step] for i in range(0, len(reps), step)]
    jobs = [(family.sets, poset, chunk, node_budget, first) for chunk in chunks]
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for chunk, (verdicts, aborted) in zip(chunks, pool.map(_sweep_chunk, jobs)):
            yield from ((g, size(g), completes) for g, completes in zip(chunk, verdicts))
            if aborted:
                raise BudgetExceededError("exception sweep aborted by node budget")
    finally:
        pool.shutdown(cancel_futures=True)


def _exceptions(
    family: Family, poset: ComparabilityMatrix, searcher: CopySearch, node_budget: int, workers: int
) -> Family:
    """Drain the sweep into the union of the orbits of its non-completing
    representatives; a budget overrun carries those swept before it."""
    members = set(family.sets)
    classes = _twin_classes(members, family.n)
    out: list[int] = []
    try:
        for g, size, completes in _sweep(family, poset, searcher, classes, node_budget, workers):
            if not completes:
                out += _expand(g, size, classes, members)
    except BudgetExceededError:
        partial = canonicalize_family(out, family.n)
        raise BudgetExceededError("exception sweep aborted by node budget", partial=partial)
    return canonicalize_family(out, family.n)


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
    BudgetExceededError carrying the orbits of the representatives before
    it in canonical order.  With ``workers`` > 1 representatives are swept
    in parallel processes; the result and the partial one are canonicalized
    either way, so worker count never changes them.
    """
    _check_ground(family, max_ground)
    searcher = CopySearch(family.sets, poset)
    if not _is_free(searcher, node_budget):
        raise ValueError("family already contains an induced copy of the target")
    return _exceptions(family, poset, searcher, node_budget, workers)


def is_saturated(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
    workers: int = 1,
) -> bool:
    """Free, and every absent subset completes a copy.

    The sweep stops at the first exception: a ``False`` is exact as soon as
    one representative, in canonical order, fails to complete a copy.
    ``node_budget`` caps the freeness check and each representative's
    search, not the whole sweep; BudgetExceededError is raised only when
    freeness is undecided or a representative before the first exception
    in canonical order runs out, whatever ``workers`` is.
    """
    searcher = CopySearch(family.sets, poset)
    if not _is_free(searcher, node_budget):
        return False
    _check_ground(family, max_ground)
    classes = _twin_classes(set(family.sets), family.n)
    with closing(_sweep(family, poset, searcher, classes, node_budget, workers, True)) as sweep:
        return all(completes for _, _, completes in sweep)


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
    exc = exceptions(family, poset, node_budget=node_budget, max_ground=max_ground)
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
        exc = _exceptions(family, poset, searcher, node_budget, workers)
    except BudgetExceededError as err:  # _exceptions attaches the partial Family
        return VerificationReport(
            poset_name, len(family), True, len(err.partial), err.partial, True
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
