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

Every verdict comes from one set-up, ``_free_searcher`` (searcher, twin
classes, freeness, then the ground cap ``max_ground``), and one drain,
``_sweep``.  The cap bounds the 2^n sweep, not the freeness check, so a
family with a copy is reported as such at any n.
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


def _free_searcher(
    family: Family, poset: ComparabilityMatrix, node_budget: int, max_ground: int,
) -> CopySearch | None:
    """The set-up of every sweep (module docstring): the family's searcher,
    or None when the family holds a copy."""
    searcher = CopySearch(family.sets, poset)
    searcher.twin_classes(family.n)  # the freeness check reads them
    if searcher.find(node_budget) is not None:
        return None
    if family.n > max_ground:
        raise ValueError(
            f"exception sweep over 2^{family.n} subsets exceeds the cap of "
            f"n <= {max_ground}; pass a larger max_ground (--max-n on the "
            "command line) to override"
        )
    return searcher


def _sweep(family: Family, searcher: CopySearch, node_budget: int) -> Iterator[int]:
    """Yield the exceptions of a family ``searcher`` found free, one
    representative's whole orbit at a time, representatives in canonical
    order.

    Each representative is asked of ``searcher.completes``, so one that a
    copy found for an earlier one covers is not searched.  A budget overrun
    raises BudgetExceededError at the first representative whose search
    runs out, carrying it (``candidate``) and the orbits yielded before it
    (``partial``).
    """
    classes = searcher.twin_classes(family.n)
    members = set(family.sets)
    swept: list[int] = []
    for g in _representatives(classes, members):
        try:
            if searcher.completes(g, node_budget):
                continue
        except BudgetExceededError:
            partial = canonicalize_family(swept, family.n)
            raise BudgetExceededError("exception sweep aborted by node budget",
                                      partial, g) from None
        orbit = _expand(g, classes, members)
        swept += orbit
        yield from orbit


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
    searcher = _free_searcher(family, poset, node_budget, max_ground)
    if searcher is None:
        raise ValueError("family already contains an induced copy of the target")
    return canonicalize_family(_sweep(family, searcher, node_budget), family.n)


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
    searcher = _free_searcher(family, poset, node_budget, max_ground)
    return searcher is not None and next(_sweep(family, searcher, node_budget), None) is None


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
    of the sweep's own searcher, grown as the family grows, so one that a
    copy found for a rejected one covers is rejected unsearched; the
    sweep's copies cover no exception, only sets that complete one in F.
    """
    searcher = _free_searcher(family, poset, node_budget, max_ground)
    if searcher is None:
        raise ValueError("family already contains an induced copy of the target")
    exc = canonicalize_family(_sweep(family, searcher, node_budget), family.n)
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
    try:
        searcher = _free_searcher(family, poset, node_budget, max_ground)
    except BudgetExceededError:
        return VerificationReport(poset_name, len(family), None, 0, empty, True)
    if searcher is None:
        return VerificationReport(poset_name, len(family), False, 0, empty, False)
    try:
        exc = canonicalize_family(_sweep(family, searcher, node_budget), family.n)
    except BudgetExceededError as err:  # the sweep attaches the partial Family
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
