import math
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from engines import generic_search
from oracles import (
    all_families,
    brute_force_greedy_saturate,
    brute_force_has_copy,
    brute_force_is_saturated,
)
from posetsat.constructs import (
    boolean_family,
    construct_2ck_c1,
    construct_b3,
    construct_mc2_binom,
    construct_mck,
)
from posetsat.embed import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    CopySearch,
    _Certificates,
    _FamilyIndex,
    find_induced_copy,
)
from posetsat.posetspec import build_poset
from posetsat.setfam import Family, canonicalize_family, complement_family, mask_of
from posetsat.solver import sat_star_exact
from posetsat.verify import (
    _representatives,
    exceptions,
    greedy_saturate,
    is_induced_p_free,
    is_saturated,
    report_to_json,
    verification_report,
)

C2 = build_poset("C2")


def fam(n, *sets):
    return canonicalize_family([mask_of(s, n) for s in sets], n)


def assume_free(monkeypatch):
    """Stub the freeness check that opens every sweep, so that budgets too
    small for it reach the sweep."""
    monkeypatch.setattr(CopySearch, "find", lambda *a, **k: None)


class TestFreeness:
    def test_bipartite_family_avoids_cube(self):
        assert is_induced_p_free(construct_b3(5), build_poset("B3"))

    def test_trimmed_cube_avoids_double_chain_plus_point(self):
        family = boolean_family(4, "empty_and_full")
        assert is_induced_p_free(family, build_poset("2C3+C1"))

    def test_two_chain_not_free(self):
        assert not is_induced_p_free(fam(2, [1], [1, 2]), C2)

    def test_budget_never_coerced(self):
        with pytest.raises(BudgetExceededError):
            is_induced_p_free(construct_b3(6), build_poset("B3"), node_budget=3)


class TestExceptions:
    def test_bipartite_family_is_saturated(self):
        assert len(exceptions(construct_b3(5), build_poset("B3"))) == 0

    def test_empty_family_single_point_target(self):
        assert len(exceptions(Family(2, ()), build_poset("C1"))) == 0

    def test_one_singleton_two_chain(self):
        got = exceptions(fam(2, [1]), C2)
        assert got.sets == (0b10,)

    def test_requires_free_family(self):
        with pytest.raises(ValueError):
            exceptions(fam(2, [1], [1, 2]), C2)

    def test_disjoint_from_family(self):
        family = construct_mck(10, 2, 3)
        exc = exceptions(family, build_poset("2C3"))
        assert not set(exc.sets) & set(family.sets)

    def test_same_count_at_both_ends_of_range(self):
        counts = {
            n: len(exceptions(construct_mck(n, 3, 3), build_poset("3C3")))
            for n in (12, 13)
        }
        assert counts[12] == counts[13]

    def test_enumeration_cap(self):
        family = Family(17, (0,))
        with pytest.raises(ValueError):
            exceptions(family, C2)
        # explicit override allows it (kept tiny via the trivial target C1)
        got = exceptions(Family(17, ()), build_poset("C1"), max_ground=17)
        assert len(got) == 0

    @pytest.mark.parametrize(
        "n,kwargs", [(5, {}), (7, {"workers": 2})], ids=["b3(5)", "b3(7)-workers=2"]
    )
    def test_partial_results_attached_on_budget_abort(self, monkeypatch, n, kwargs):
        # Freeness costs more nodes than any single inner search here, so
        # skip the guard to reach the sweep with a budget the inner
        # searches cannot meet.  The family is saturated, so every
        # representative completes a copy, and an 8-element B3 copy with
        # one pinned element needs at least 7 candidate attempts: a budget
        # of 5 overruns in any engine.  No copy has been found before the
        # first representative, so it is searched and runs out.  The
        # ``workers`` keyword is accepted and ignored.
        assume_free(monkeypatch)
        family = construct_b3(n)
        with pytest.raises(BudgetExceededError) as err:
            exceptions(family, build_poset("B3"), node_budget=5, **kwargs)
        assert isinstance(err.value.partial, Family)
        assert len(err.value.partial) == 0
        assert err.value.candidate == _representatives(twin_classes(family), set(family.sets))[0]

    def test_workers_do_not_change_output(self):
        family = construct_mc2_binom(7, 1)
        P = build_poset("3C2")
        assert exceptions(family, P, workers=2) == exceptions(family, P)


class TestBiPartition:
    @pytest.mark.parametrize(
        "family,spec",
        [
            (construct_b3(5), "B3"),
            (construct_mc2_binom(6, 1), "3C2"),
            (construct_2ck_c1(8, 3), "2C3+C1"),
            (construct_mck(10, 2, 3), "2C3"),
        ],
    )
    def test_exceptions_bipartition(self, family, spec):
        # G is an exception iff the grown family has no copy at all, checked
        # here with the plain unpinned search rather than the seeded one.
        poset = build_poset(spec)
        exc = set(exceptions(family, poset).sets)
        members = set(family.sets)
        for g in range(1 << family.n):
            if g in members:
                continue
            grown = canonicalize_family(family.sets + (g,), family.n)
            has_copy = find_induced_copy(grown, poset) is not None
            assert has_copy == (g not in exc), g

    def test_bipartition_matches_brute_force_small(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 4)
            family = canonicalize_family(
                [rng.getrandbits(n) for _ in range(rng.randint(0, 6))], n
            )
            for spec in ("C2", "2C1"):
                poset = build_poset(spec)
                if not is_induced_p_free(family, poset):
                    continue
                exc = set(exceptions(family, poset).sets)
                members = set(family.sets)
                for g in range(1 << n):
                    if g in members:
                        continue
                    want = not brute_force_has_copy(family.sets + (g,), poset)
                    assert (g in exc) == want


class TestIsSaturated:
    def test_bipartite_family(self):
        assert is_saturated(construct_b3(5), build_poset("B3"))

    def test_singleton_not_saturated(self):
        assert not is_saturated(fam(2, [1]), C2)

    def test_empty_set_family_saturated(self):
        assert is_saturated(fam(2, []), C2)

    def test_non_free_family_not_saturated(self):
        assert not is_saturated(fam(2, [1], [1, 2]), C2)

    def test_every_family_at_n3_matches_oracle(self):
        # 5 targets x 256 families; the oracle tries every bijection.
        saturated = 0
        for spec in ("C2", "2C1", "C2+C1", "C3", "B2"):
            poset = build_poset(spec)
            for masks in all_families(3):
                want = brute_force_is_saturated(masks, 3, poset)
                assert is_saturated(Family(3, masks), poset) == want, (spec, masks)
                saturated += want
        assert saturated == 57


class TestGreedySaturate:
    def test_already_saturated_families_fixed(self):
        b3 = construct_b3(5)
        assert greedy_saturate(b3, build_poset("B3")) == b3
        empty_set = fam(2, [])
        assert greedy_saturate(empty_set, C2) == empty_set

    def test_postconditions(self):
        cases = [
            (construct_mck(12, 3, 3), "3C3"),
            (construct_mc2_binom(7, 1), "3C2"),
            (fam(3, [1]), "C2"),
            (Family(3, ()), "2C1"),
        ]
        for family, spec in cases:
            poset = build_poset(spec)
            exc = exceptions(family, poset)
            done = greedy_saturate(family, poset)
            assert set(family.sets) <= set(done.sets)
            assert set(done.sets) <= set(family.sets) | set(exc.sets)
            assert is_induced_p_free(done, poset)
            assert len(exceptions(done, poset)) == 0

    def test_requires_free_family(self):
        with pytest.raises(ValueError):
            greedy_saturate(fam(2, [1], [1, 2]), C2)


class TestConstantExceptionCounts:
    def test_two_layer_family_above_smallest_parameter(self):
        counts = {
            n: len(exceptions(construct_mc2_binom(n, 2), build_poset("7C2")))
            for n in (7, 8, 9)
        }
        assert len(set(counts.values())) == 1

    def test_double_chain_plus_point_family(self):
        counts = {
            n: len(exceptions(construct_2ck_c1(n, 3), build_poset("2C3+C1")))
            for n in (6, 7, 8, 9)
        }
        assert len(set(counts.values())) == 1

    def test_two_layer_family_smallest_parameter_grows(self):
        # At t = 1 the noncompleting sets are the nonempty subsets of
        # [4, n] and their complements, so the count is 2^(n-2) - 2 and
        # grows with the ground size instead of staying constant.
        for n in (6, 7, 8):
            exc = exceptions(construct_mc2_binom(n, 1), build_poset("3C2"))
            assert len(exc) == (1 << (n - 2)) - 2


class TestReport:
    def test_report_fields_and_json(self):
        report = verification_report(construct_b3(5), "B3")
        assert report.is_free is True
        assert report.exception_count == 0
        assert not report.budget_exceeded
        doc = report_to_json(report)
        assert set(doc) == {
            "poset",
            "family_size",
            "is_free",
            "exception_count",
            "exceptions",
            "budget_exceeded",
        }
        assert doc["poset"] == "B3"
        assert doc["family_size"] == 13

    def test_report_on_non_free_family(self):
        report = verification_report(fam(2, [1], [1, 2]), "C2")
        assert report.is_free is False
        assert report.exception_count == 0

    def test_report_budget_exceeded_freeness_undecided(self):
        report = verification_report(construct_b3(6), "B3", node_budget=3)
        assert report.is_free is None
        assert report.budget_exceeded

    def test_report_budget_exceeded_partial_sweep(self, monkeypatch):
        assume_free(monkeypatch)
        # b3(5) is saturated and a pinned B3 copy needs at least 7 candidate
        # attempts, so a budget of 5 overruns in the sweep in any engine, at
        # its first representative, which no earlier copy can cover.
        report = verification_report(construct_b3(5), "B3", node_budget=5)
        assert report.is_free is True
        assert report.budget_exceeded

    def test_exception_listing_toggle(self):
        report = verification_report(fam(2, [1]), "C2")
        assert report_to_json(report, list_exceptions=True)["exceptions"] == [[2]]
        assert report_to_json(report, list_exceptions=False)["exceptions"] == []


# -- the orbit-reduced sweep --------------------------------------------------


def reference_exceptions(family, poset):
    """Unreduced sweep: one pinned search for every absent subset."""
    searcher = CopySearch(family.sets, poset)
    members = set(family.sets)
    return canonicalize_family(
        [
            g
            for g in range(1 << family.n)
            if g not in members and searcher.find_containing(g) is None
        ],
        family.n,
    )


def twin_classes(family):
    return _FamilyIndex(family.sets).twin_classes(family.n)


def class_sizes(family):
    return [cls.bit_count() for cls in twin_classes(family)]


def relabel(family, perm):
    """Image of the family under the ground permutation i -> perm[i]."""
    return canonicalize_family(
        [sum(1 << perm[i] for i in range(family.n) if m >> i & 1) for m in family.sets],
        family.n,
    )


def chain_family(n):
    """The full chain {} < {1} < {1, 2} < ... < [n]."""
    return canonicalize_family([(1 << i) - 1 for i in range(n + 1)], n)


# Chain unions (the chain engine) and Boolean lattices (the generic one).
SPECS = ["C2", "2C1", "3C1", "C3", "2C2", "C2+C1", "C3+C1", "B2", "B3"]


@st.composite
def families(draw, max_n=6, min_n=1):
    """Random families over [n], min_n <= n <= max_n.  Half of them are
    closed under the symmetric groups of a random partition of [n] (each
    member brings every subset meeting each block in as many elements), so
    that they have twin classes of several elements."""
    n = draw(st.integers(min_n, max_n))
    seeds = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    if draw(st.booleans()):
        block_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = [sum(1 << i for i in range(n) if block_of[i] == b) for b in set(block_of)]

        def pattern(m):
            return [(m & b).bit_count() for b in blocks]

        wanted = {tuple(pattern(m)) for m in seeds}
        seeds = [g for g in range(1 << n) if tuple(pattern(g)) in wanted]
    return canonicalize_family(seeds, n)


class TestTwinClasses:
    @pytest.mark.parametrize("n", [4, 5, 8, 12])
    def test_b3_classes(self, n):
        assert class_sizes(construct_b3(n)) == [2, n - 2]

    def test_named_constructions(self):
        assert class_sizes(construct_mc2_binom(11, 2)) == [4, 1, 6]
        assert class_sizes(construct_2ck_c1(11, 4)) == [4, 3, 4]
        assert class_sizes(construct_mc2_binom(7, 1)) == [2, 1, 4]

    @pytest.mark.parametrize(
        "family,count", [(construct_b3(12), 33), (construct_mck(14, 3, 3), 9216)]
    )
    def test_representative_counts(self, family, count):
        # One representative per vector of class intersection sizes; the
        # sweep searches those outside the family.
        classes = twin_classes(family)
        assert math.prod(cls.bit_count() + 1 for cls in classes) == count
        # Orbits lie wholly inside or outside the family, so the members
        # take up one representative per distinct size vector.
        present = {tuple((m & c).bit_count() for c in classes) for m in family.sets}
        assert len(_representatives(classes, set(family.sets))) == count - len(present)

    def test_boolean_lattice_is_one_class(self):
        assert class_sizes(boolean_family(4)) == [4]

    @settings(deadline=None)
    @given(families(max_n=7))
    def test_classes_match_the_definition(self, family):
        # Two elements share a class exactly when swapping them maps the
        # family onto itself, and the classes come lowest element first.
        members = set(family.sets)
        classes = twin_classes(family)
        assert sum(classes) == (1 << family.n) - 1
        assert classes == sorted(classes, key=lambda cls: cls & -cls)
        for i, j in combinations(range(family.n), 2):
            swapped = {m & ~(1 << i | 1 << j) | (m >> i & 1) << j | (m >> j & 1) << i
                       for m in members}
            together = any(cls >> i & 1 and cls >> j & 1 for cls in classes)
            assert together == (swapped == members), (family, i, j)


NAMED = [
    (construct_mck(9, 2, 3), "2C3"),
    (construct_mck(10, 2, 3), "2C3"),
    (construct_mc2_binom(6, 1), "3C2"),
    (construct_mc2_binom(7, 1), "3C2"),
    (construct_mc2_binom(7, 2), "7C2"),
    (construct_mc2_binom(8, 2), "7C2"),
    (construct_2ck_c1(6, 3), "2C3+C1"),
    (construct_2ck_c1(7, 3), "2C3+C1"),
    (construct_b3(5), "B3"),
    (construct_b3(6), "B3"),
    (boolean_family(3, "empty_and_full"), "2C3+C1"),
    (boolean_family(4, "empty_and_full"), "2C3+C1"),
]


class TestReducedSweep:
    @pytest.mark.parametrize("family,spec", NAMED)
    def test_named_constructions_match_full_sweep(self, family, spec):
        poset = build_poset(spec)
        assert exceptions(family, poset) == reference_exceptions(family, poset)

    @settings(max_examples=150, deadline=None)
    @given(families(), st.sampled_from(SPECS))
    def test_random_families_match_full_sweep(self, family, spec):
        poset = build_poset(spec)
        if not is_induced_p_free(family, poset):
            with pytest.raises(ValueError):
                exceptions(family, poset)
            return
        got = exceptions(family, poset)
        assert got == reference_exceptions(family, poset)
        if family.n <= 4 and poset.size <= 4:
            members = set(family.sets)
            want = [
                g
                for g in range(1 << family.n)
                if g not in members
                and not brute_force_has_copy(family.sets + (g,), poset)
            ]
            assert got == canonicalize_family(want, family.n)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), families(), st.sampled_from(SPECS))
    def test_relabeling_commutes_with_exceptions(self, data, family, spec):
        # exceptions(pi F, P) == pi exceptions(F, P).  Relabeling moves the
        # twin classes, so the two sides expand different orbits.
        poset = build_poset(spec)
        perm = data.draw(st.permutations(range(family.n)))
        moved = relabel(family, perm)
        if not is_induced_p_free(family, poset):
            with pytest.raises(ValueError):
                exceptions(moved, poset)
            return
        assert exceptions(moved, poset) == relabel(exceptions(family, poset), perm)

    @settings(max_examples=100, deadline=None)
    @given(families(), st.sampled_from(SPECS))
    def test_complementing_commutes_with_exceptions(self, family, spec):
        # Complementing reverses inclusion, so for a self-dual target
        # exceptions(F^c, P) == exceptions(F, P)^c.  A complemented
        # representative leads no orbit of F^c unless its classes are
        # singletons, so the two sides search different sets.
        poset = build_poset(spec)
        assert poset.spec.is_self_dual()
        flipped = complement_family(family)
        if not is_induced_p_free(family, poset):
            with pytest.raises(ValueError):
                exceptions(flipped, poset)
            return
        assert exceptions(flipped, poset) == complement_family(exceptions(family, poset))

    @pytest.mark.parametrize("family,spec", NAMED)
    def test_named_complements_commute_with_exceptions(self, family, spec):
        poset = build_poset(spec)
        want = complement_family(exceptions(family, poset))
        assert exceptions(complement_family(family), poset) == want


class TestOneFreenessSearch:
    def test_one_find_per_call(self, monkeypatch):
        calls = []
        original = CopySearch.find

        def counting(self, *args, **kwargs):
            calls.append(self.masks)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CopySearch, "find", counting)
        family = construct_b3(5)
        poset = build_poset("B3")
        for run in (
            lambda: exceptions(family, poset),
            lambda: is_saturated(family, poset),
            lambda: verification_report(family, "B3"),
        ):
            calls.clear()
            run()
            assert calls == [family.sets]

    @staticmethod
    def counted(monkeypatch, run):
        """(``CopySearch`` constructions, ``find`` calls) while ``run`` runs;
        ``with_member`` builds no searcher through the constructor."""
        counts = [0, 0]
        init, find = CopySearch.__init__, CopySearch.find

        def counting_init(self, *args, **kwargs):
            counts[0] += 1
            init(self, *args, **kwargs)

        def counting_find(self, *args, **kwargs):
            counts[1] += 1
            return find(self, *args, **kwargs)

        monkeypatch.setattr(CopySearch, "__init__", counting_init)
        monkeypatch.setattr(CopySearch, "find", counting_find)
        run()
        return tuple(counts)

    def test_greedy_grows_the_sweeps_searcher(self, monkeypatch):
        # mck(8,2,3) has exceptions against 2C3, so the family grows, and it
        # grows on the searcher that checked freeness and swept.
        family, poset = construct_mck(8, 2, 3), build_poset("2C3")
        got = self.counted(monkeypatch, lambda: greedy_saturate(family, poset))
        assert got == (1, 1)

    def test_solver_witness_check_searches_freeness_once(self, monkeypatch):
        # Searchers: the greedy incumbent's, the depth-first pass's root and
        # the witness check's; the first and the last check freeness.
        got = self.counted(monkeypatch, lambda: sat_star_exact(3, build_poset("2C1")))
        assert got == (3, 2)


class TestCapRule:
    # The ground cap bounds the 2^n sweep, not the freeness check, so every
    # entry checks it after freeness: a family with a copy is reported as
    # such at any n, and only a free family past the cap is refused.
    def test_family_with_copy_is_reported_past_the_cap(self):
        family = fam(17, [1], [1, 2])
        for run in (exceptions, greedy_saturate):
            with pytest.raises(ValueError, match="already contains an induced copy"):
                run(family, C2)
        assert is_saturated(family, C2) is False
        assert verification_report(family, "C2").is_free is False

    def test_free_family_past_the_cap_is_refused(self):
        family = fam(17, [1])
        for run in (exceptions, greedy_saturate, is_saturated,
                    lambda family, _poset: verification_report(family, "C2")):
            with pytest.raises(ValueError, match="max_ground"):
                run(family, C2)


class TestSaturationStopsAtFirstException:
    @pytest.fixture
    def mck_reps(self):
        """mck(8,2,3) against 2C3, its representatives, and the rank of the
        first one that is an exception, found by the unreduced sweep."""
        family, poset = construct_mck(8, 2, 3), build_poset("2C3")
        members = set(family.sets)
        reps = _representatives(twin_classes(family), members)
        exc = set(reference_exceptions(family, poset).sets)
        rank = next(i for i, g in enumerate(reps) if g in exc)
        assert (rank, len(reps)) == (17, 166)
        return family, poset, reps, exc, rank

    @staticmethod
    def searched(monkeypatch, run):
        """The subsets ``run`` hands to a pinned search, in order."""
        calls = []
        original = CopySearch.find_containing

        def counting(self, g, *args, **kwargs):
            calls.append(g)
            return original(self, g, *args, **kwargs)

        monkeypatch.setattr(CopySearch, "find_containing", counting)
        run()
        return calls

    def test_searches_representatives_up_to_first_exception(self, monkeypatch, mck_reps):
        # The sweep searches in canonical order, stops at the first
        # exception, and skips only representatives that an earlier copy
        # covers.  Each skipped one completes a copy: the generic engine
        # (which runs no chain-engine search and reads no certificate)
        # names the sets of one, and the brute force confirms they hold a
        # copy through it.
        family, poset, reps, _exc, rank = mck_reps
        calls = self.searched(monkeypatch, lambda: is_saturated(family, poset))
        ranks = [reps.index(g) for g in calls]
        assert ranks == sorted(set(ranks)) and ranks[-1] == rank
        skipped = [g for g in reps[:rank] if g not in calls]
        assert len(skipped) == 10
        generic = generic_search(family.sets, poset)
        for g in skipped:
            images = generic.find_containing(g).assignment
            assert g in images and set(images) <= set(family.sets) | {g}
            assert brute_force_has_copy(images, poset, require=g)

    @settings(deadline=None)
    @given(families(max_n=7, min_n=7), st.sampled_from(SPECS))
    def test_agrees_with_exception_sweep(self, family, spec):
        poset = build_poset(spec)
        if not is_induced_p_free(family, poset):
            assert not is_saturated(family, poset)
            return
        assert is_saturated(family, poset) == (len(exceptions(family, poset)) == 0)


class TestTwinFreeChain:
    # The full chain has only singleton twin classes, so all 120 absent
    # subsets are representatives.  The freeness check is stubbed in the
    # budget tests so that small budgets reach the sweep.
    #
    # The chain engine charges one node per endpoint class it tries for the
    # chain through the pinned subset, and two classes of exact reach fit a
    # 5-chain through {2}: ({}, [4]) and ({2}, [5]).  So at budget 1 the
    # first representative runs out.  For 2C3 at budget 2, {2} to {6} come
    # first with two classes each, and {7} with one, before {1, 3} needs
    # three.  None of these sweeps finds a copy before it runs out, so no
    # representative before the overrun is skipped.  C3+C1 and C4+C1 at
    # budget 4 do skip some: their sweeps, traced representative by
    # representative, clear 5 and 9 exceptions, each an orbit of one, skip
    # 5 and 15 representatives that an earlier copy covers, and run out at
    # {1, 5} and {1, 2, 4}.

    @pytest.fixture
    def unchecked(self, monkeypatch):
        assume_free(monkeypatch)

    def test_chain_is_twin_free(self):
        assert class_sizes(chain_family(7)) == [1] * 7

    def test_exception_count(self):
        assert len(exceptions(chain_family(7), build_poset("C3+C1"))) == 16

    @pytest.mark.parametrize(
        "spec,budget,size,candidate",
        [("2C5", 1, 0, [2]), ("3C1", 5, 4, [6]), ("2C3", 2, 6, [1, 3]),
         ("C3+C1", 4, 5, [1, 5]), ("C4+C1", 4, 9, [1, 2, 4])],
        ids=["2C5-1-0", "3C1-5-4", "2C3-2-6", "C3+C1-4-5", "C4+C1-4-9"],
    )
    def test_partial_and_candidate(self, unchecked, spec, budget, size, candidate):
        # The sweep raises at the first overrun in canonical order, and the
        # partial family holds the orbits before it.
        with pytest.raises(BudgetExceededError) as err:
            exceptions(chain_family(7), build_poset(spec), node_budget=budget)
        assert isinstance(err.value.partial, Family)
        assert len(err.value.partial) == size
        assert err.value.candidate == mask_of(candidate, 7)

    @pytest.mark.parametrize(
        "spec,budget,want",
        [("2C1", 5, True), ("3C1", 5, False), ("2C5", 1, "budget_exceeded"),
         ("2C1", DEFAULT_NODE_BUDGET, True), ("C3+C1", DEFAULT_NODE_BUDGET, False)],
        ids=["2C1-5-True", "3C1-5-False", "2C5-1-budget_exceeded", "2C1-full-True",
             "C3+C1-full-False"],
    )
    def test_is_saturated_at_budget(self, unchecked, spec, budget, want):
        # The first representative in canonical order that runs out of
        # budget or fails to complete a copy decides.
        try:
            got = is_saturated(chain_family(7), build_poset(spec), node_budget=budget)
        except BudgetExceededError:
            got = "budget_exceeded"
        assert got == want


# -- copies the sweep reuses --------------------------------------------------


def covered_sets(monkeypatch, run):
    """The subsets a searcher's certificate store reports as covered while
    ``run`` runs."""
    covered = []
    original = _Certificates.covers

    def recording(self, g):
        hit = original(self, g)
        if hit:
            covered.append(g)
        return hit

    monkeypatch.setattr(_Certificates, "covers", recording)
    run()
    return covered


def sweep_outcome(sweep, family, poset, budget):
    """(result, None) for a sweep that finishes; (partial result, the subset
    whose search ran out) for one that runs out of budget."""
    try:
        return sweep(family, poset, node_budget=budget), None
    except BudgetExceededError as err:
        return err.partial, err.candidate


def representative(g, classes):
    """The first member of g's orbit: the lowest |g & C| elements of each
    twin class C."""
    out = 0
    for cls in classes:
        bits = [1 << i for i in range(cls.bit_length()) if cls >> i & 1]
        out |= sum(bits[: (g & cls).bit_count()])
    return out


@st.composite
def free_families(draw, n, specs):
    """A target and a family over [n] free of it: random subsets, each kept
    when it completes no copy with those kept before."""
    poset = build_poset(draw(st.sampled_from(specs)))
    searcher = CopySearch((), poset)
    for g in draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=24)):
        if searcher.find_containing(g) is None:
            searcher = searcher.with_member(g)
    return canonicalize_family(searcher.masks, n), poset


class TestCertificates:
    @settings(max_examples=150, deadline=None)
    @given(families(max_n=5), st.sampled_from(SPECS))
    def test_greedy_matches_brute_force(self, family, spec):
        # greedy_saturate skips an exception that a copy found for an
        # earlier one covers; the brute force searches every one.  Both take
        # the same exceptions in the same order, so the results agree.  B3
        # has 8 elements: its families stay at n <= 4.
        poset = build_poset(spec)
        assume(not (spec == "B3" and family.n > 4))
        assume(not brute_force_has_copy(family.sets, poset))
        want = brute_force_greedy_saturate(family.sets, family.n, poset)
        assert greedy_saturate(family, poset).sets == want, (family, spec)

    @settings(max_examples=60, deadline=None)
    @given(families(max_n=5), st.sampled_from(SPECS))
    def test_covered_sets_complete_a_copy(self, family, spec):
        # Every set a stored copy covers completes a copy through it, by the
        # brute force.  B3 has 8 elements, so its families stay at n <= 4.
        poset = build_poset(spec)
        assume(not (spec == "B3" and family.n > 4))
        assume(is_induced_p_free(family, poset))
        with pytest.MonkeyPatch.context() as mp:
            covered = covered_sets(mp, lambda: exceptions(family, poset))
        for g in covered:
            assert brute_force_has_copy(family.sets + (g,), poset, require=g), (family, g)

    def test_named_sweeps_skip_most_searches(self, monkeypatch):
        # mck(12,3,3) against 3C3: 68 searches for 2,255 representatives.
        family, poset = construct_mck(12, 3, 3), build_poset("3C3")
        covered = covered_sets(monkeypatch, lambda: exceptions(family, poset))
        assert len(covered) == 2187
        assert len(_representatives(twin_classes(family), set(family.sets))) == 2255

    def test_store_decides_by_relation(self):
        # One certificate, from a copy through {1, 2}: need {1}, room
        # {1, 2, 4, 5}, one image {4} apart.  {1, 5} and {1, 2, 5} pass all
        # three checks; {2, 5} fails only need, {1, 3} only room, and
        # {1, 2, 4} only apart.  {1, 6} holds an element past every column,
        # so it lies outside that finite room.
        n = 6
        store = _Certificates()
        assert not store.covers(mask_of([1, 5], n))
        g = mask_of([1, 2], n)
        store.add(g, (mask_of([1], n), g, mask_of([1, 2, 4, 5], n), mask_of([4], n)))
        for sets, want in (([1, 5], True), ([1, 2, 5], True), ([2, 5], False),
                           ([1, 3], False), ([1, 2, 4], False), ([1, 6], False)):
            assert store.covers(mask_of(sets, n)) is want, sets
        # A second one, from a copy through {1, 3, 6} with no image
        # containing it: need {1, 6}, one image {2} apart.  It covers
        # {1, 6}.  Its need grows the columns to 6, and the first room
        # still lacks 6, so {1, 2, 6}, which fails the second's apart
        # check, is covered by neither.
        g = mask_of([1, 3, 6], n)
        store.add(g, (mask_of([1, 6], n), g, mask_of([2], n)))
        for sets, want in (([1, 6], True), ([1, 2, 6], False), ([1, 5], True)):
            assert store.covers(mask_of(sets, n)) is want, sets

    @settings(max_examples=25, deadline=None)
    @given(free_families(7, SPECS))
    def test_budget_monotonicity(self, family_poset):
        # Freeness is taken as given so that small budgets reach the sweep.
        # A pinned search is deterministic and a budget only cuts it off, so
        # a larger budget runs the same loop further: a sweep that finishes
        # gives the full result, an overrun's partial result is the full one
        # cut before the candidate's orbit, the candidate only moves later,
        # and ``is_saturated``, which runs a prefix of the same loop, either
        # gives the full verdict or runs out at the same candidate.
        family, poset = family_poset
        classes = twin_classes(family)
        reps = _representatives(classes, set(family.sets))
        with pytest.MonkeyPatch.context() as mp:
            assume_free(mp)
            full = exceptions(family, poset)
            saturated = is_saturated(family, poset)
            reached = 0
            for budget in range(1, 9):
                got, candidate = sweep_outcome(exceptions, family, poset, budget)
                verdict, stopped_at = sweep_outcome(is_saturated, family, poset, budget)
                if stopped_at is None:
                    assert verdict is saturated
                else:
                    assert stopped_at == candidate
                if candidate is None:
                    assert got == full
                    reached = len(reps)
                    continue
                rank = reps.index(candidate)
                assert rank >= reached
                reached = rank
                before = set(reps[:rank])
                want = [g for g in full.sets if representative(g, classes) in before]
                assert got == canonicalize_family(want, family.n)

    def test_covered_sets_spend_no_budget(self, monkeypatch):
        # At budget 6 the B2 sweep of this family finishes with all 78
        # exceptions, though three of the sets that earlier copies cover
        # would run out of budget if searched: a covered set is never
        # searched, so it cannot end the sweep.
        assume_free(monkeypatch)
        family = canonicalize_family(
            [10, 34, 40, 7, 13, 42, 50, 56, 69, 112, 43, 46, 57, 77, 120, 107], 7
        )
        poset, budget = build_poset("B2"), 6
        covered = covered_sets(monkeypatch, lambda: exceptions(family, poset, node_budget=budget))
        searcher = CopySearch(family.sets, poset)
        overran = []
        for g in covered:
            try:
                searcher.find_containing(g, budget)
            except BudgetExceededError:
                overran.append(g)
        assert len(overran) == 3
        got = exceptions(family, poset, node_budget=budget)
        assert got == exceptions(family, poset)
        assert len(got) == 78
