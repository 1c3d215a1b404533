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
family whose classes are all singletons is swept subset by subset.  The
classes come from the searcher (``CopySearch.twin_classes``), which
computes them once per family: its freeness check reads the same classes
to make its first pick once per orbit of the twin group.

The sweep asks ``CopySearch.completes``, which reuses the copies found for
earlier representatives (the lemma in ``posetsat.embed``): a
representative that one covers completes a copy and needs no search.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb
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
            f"n <= {max_ground}; pass a larger max_ground (--max-n on the "
            "command line) to override"
        )


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


def _expand(rep: int, classes: list[int], members: set[int]) -> list[int]:
    """The orbit of an absent representative: every subset meeting each class
    in as many elements as ``rep``, with ``rep`` first, checked to have the
    product of C(|C|, |rep ∩ C|) members."""
    orbit, size = [rep], 1
    for cls in classes:
        if not cls & (cls - 1):
            continue  # a one-element class leaves rep as it is
        k = (rep & cls).bit_count()
        choices = [sum(c) for c in combinations(_singletons(cls), k)]
        orbit = [g & ~cls | c for g in orbit for c in choices]
        size *= comb(cls.bit_count(), k)
    if orbit[0] != rep or len(orbit) != size or any(g in members for g in orbit):
        raise AssertionError(
            f"orbit of representative {rep:#x} is not led by it, does not have "
            f"{size} members, or meets the family"
        )
    return orbit


def _sweep(
    family: Family, searcher: CopySearch, classes: list[int], node_budget: int,
) -> Iterator[int]:
    """Yield the absent representatives of a family ``searcher`` found free
    that complete no copy, in canonical order.

    Each is asked of ``searcher.completes``, so one that a copy found for
    an earlier one covers is not searched.  A budget overrun raises
    BudgetExceededError, with ``candidate`` set, at the first whose search
    runs out.
    """
    for g in _representatives(classes, set(family.sets)):
        try:
            if searcher.completes(g, node_budget):
                continue
        except BudgetExceededError:
            raise BudgetExceededError("exception sweep aborted by node budget", candidate=g) from None
        yield g


def _exceptions(
    family: Family, searcher: CopySearch, classes: list[int], node_budget: int,
) -> Family:
    """Drain the sweep into the union of the orbits of its non-completing
    representatives; a budget overrun carries those swept before it."""
    members = set(family.sets)
    out: list[int] = []
    try:
        for g in _sweep(family, searcher, classes, node_budget):
            out += _expand(g, classes, members)
    except BudgetExceededError as err:
        err.partial = canonicalize_family(out, family.n)
        raise
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
    whole; a representative whose search runs out aborts the sweep with
    BudgetExceededError carrying the orbits of the representatives before
    it in canonical order (``partial``) and the representative itself
    (``candidate``).  A representative covered by a copy found earlier is
    not searched.  ``workers`` is accepted and ignored: the sweep runs in
    this process.
    """
    _check_ground(family, max_ground)
    searcher = CopySearch(family.sets, poset)
    classes = searcher.twin_classes(family.n)  # before the freeness check, which reads them
    if not _is_free(searcher, node_budget):
        raise ValueError("family already contains an induced copy of the target")
    return _exceptions(family, searcher, classes, node_budget)


def is_saturated(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
) -> bool:
    """Free, and every absent subset completes a copy.

    The sweep stops at the first exception: a ``False`` is exact as soon as
    one representative, in canonical order, fails to complete a copy.
    ``node_budget`` caps the freeness check and each representative's
    search, not the whole sweep; BudgetExceededError is raised only when
    freeness is undecided or the search of a representative before the
    first exception in canonical order runs out.
    """
    searcher = CopySearch(family.sets, poset)
    classes = searcher.twin_classes(family.n)  # before the freeness check, which reads them
    if not _is_free(searcher, node_budget):
        return False
    _check_ground(family, max_ground)
    return next(_sweep(family, searcher, classes, node_budget), None) is None


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
    exceptions, and has an empty exception set of its own.  Each is asked
    of ``CopySearch.completes``, so one that a copy found for a rejected
    one covers is rejected unsearched.
    """
    exc = exceptions(family, poset, node_budget=node_budget, max_ground=max_ground)
    searcher = CopySearch(family.sets, poset)
    for g in exc.sets:
        if not searcher.completes(g, node_budget):
            searcher = searcher.with_member(g)
    return canonicalize_family(searcher.masks, family.n)


def verification_report(
    family: Family,
    poset_text: str,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_ground: int = DEFAULT_ENUMERATION_CAP,
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
    classes = searcher.twin_classes(family.n)  # before the freeness check, which reads them
    try:
        free = _is_free(searcher, node_budget)
    except BudgetExceededError:
        return VerificationReport(poset_name, len(family), None, 0, empty, True)
    if not free:
        return VerificationReport(poset_name, len(family), free, 0, empty, False)
    _check_ground(family, max_ground)
    try:
        exc = _exceptions(family, searcher, classes, node_budget)
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
