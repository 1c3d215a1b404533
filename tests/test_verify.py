import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_families, brute_force_has_copy, brute_force_is_saturated
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
    find_induced_copy,
)
from posetsat.posetspec import build_poset
from posetsat.setfam import Family, canonicalize_family, mask_of
from posetsat.verify import (
    _representatives,
    _sweep_chunk,
    _twin_classes,
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

    def test_partial_results_attached_on_budget_abort(self, monkeypatch):
        # Freeness costs more nodes than any single inner search here, so
        # skip the guard to reach the sweep with a budget the inner
        # searches cannot meet.
        import posetsat.verify as verify_mod

        monkeypatch.setattr(verify_mod, "_is_free", lambda *a, **k: True)
        family = construct_b3(5)
        with pytest.raises(BudgetExceededError) as err:
            exceptions(family, build_poset("B3"), node_budget=40)
        assert isinstance(err.value.partial, Family)

    def test_pooled_sweep_attaches_partial_results(self, monkeypatch):
        # As above with two workers.  b3(7) has only 13 representatives, too
        # few for the pool, so this runs serially; the chain-family tests
        # below cover a pooled abort.
        import posetsat.verify as verify_mod

        monkeypatch.setattr(verify_mod, "_is_free", lambda *a, **k: True)
        family = construct_b3(7)
        with pytest.raises(BudgetExceededError) as err:
            exceptions(family, build_poset("B3"), node_budget=40, workers=2)
        assert isinstance(err.value.partial, Family)

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
        import posetsat.verify as verify_mod

        monkeypatch.setattr(verify_mod, "_is_free", lambda *a, **k: True)
        report = verification_report(construct_b3(5), "B3", node_budget=40)
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


def class_sizes(family):
    return [cls.bit_count() for cls in _twin_classes(set(family.sets), family.n)]


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
        classes = _twin_classes(set(family.sets), family.n)
        assert math.prod(cls.bit_count() + 1 for cls in classes) == count
        # Orbits lie wholly inside or outside the family, so the members
        # take up one representative per distinct size vector.
        present = {tuple((m & c).bit_count() for c in classes) for m in family.sets}
        assert len(_representatives(classes, set(family.sets))) == count - len(present)

    def test_boolean_lattice_is_one_class(self):
        assert class_sizes(boolean_family(4)) == [4]


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


class TestSaturationStopsAtFirstException:
    @pytest.fixture
    def mck_reps(self):
        """mck(8,2,3) against 2C3, its representatives, and the rank of the
        first one that is an exception, found by the unreduced sweep."""
        family, poset = construct_mck(8, 2, 3), build_poset("2C3")
        members = set(family.sets)
        reps = _representatives(_twin_classes(members, family.n), members)
        exc = set(reference_exceptions(family, poset).sets)
        rank = next(i for i, g in enumerate(reps) if g in exc)
        assert (rank, len(reps)) == (17, 166)
        return family, poset, reps, exc, rank

    def test_searches_representatives_up_to_first_exception(self, monkeypatch, mck_reps):
        family, poset, reps, _exc, rank = mck_reps
        calls = []
        original = CopySearch.find_containing

        def counting(self, g, *args, **kwargs):
            calls.append(g)
            return original(self, g, *args, **kwargs)

        monkeypatch.setattr(CopySearch, "find_containing", counting)
        assert not is_saturated(family, poset)
        assert calls == reps[: rank + 1]

    def test_pool_job_stops_at_first_exception(self, mck_reps):
        family, poset, reps, exc, rank = mck_reps
        stopped = [True] * rank + [False]
        every = [g not in exc for g in reps]
        for first, want in ((True, stopped), (False, every)):
            job = (family.sets, poset, reps, DEFAULT_NODE_BUDGET, first)
            assert _sweep_chunk(job) == (want, False)

    @settings(deadline=None)
    @given(families(max_n=7, min_n=7), st.sampled_from(SPECS))
    def test_agrees_with_exception_sweep(self, family, spec):
        # At n = 7 a family without twins has 64 or more representatives,
        # enough for the pool.
        poset = build_poset(spec)
        if not is_induced_p_free(family, poset):
            assert not is_saturated(family, poset, workers=2)
            return
        want = len(exceptions(family, poset)) == 0
        for workers in (1, 2):
            assert is_saturated(family, poset, workers=workers) == want


class TestPoolOnTwinFreeFamily:
    # The full chain has only singleton twin classes, so all 120 absent
    # subsets are representatives: enough to go to the pool.

    @pytest.fixture
    def pool_starts(self, monkeypatch):
        import posetsat.verify as verify_mod

        starts = []

        class RecordingPool(verify_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", RecordingPool)
        return starts

    def test_chain_is_twin_free(self):
        assert class_sizes(chain_family(7)) == [1] * 7

    def test_workers_do_not_change_output(self, pool_starts):
        family = chain_family(7)
        poset = build_poset("C3+C1")
        pooled = exceptions(family, poset, workers=2)
        assert pool_starts == [2]
        assert pooled == exceptions(family, poset)
        assert len(pooled) == 16

    @staticmethod
    def pooled_and_serial_partials(monkeypatch, spec, budget):
        import posetsat.verify as verify_mod

        monkeypatch.setattr(verify_mod, "_is_free", lambda *a, **k: True)
        family, poset = chain_family(7), build_poset(spec)
        partials = []
        for workers in (2, 1):
            with pytest.raises(BudgetExceededError) as err:
                exceptions(family, poset, node_budget=budget, workers=workers)
            assert isinstance(err.value.partial, Family)
            partials.append(err.value.partial)
        return partials

    def test_pooled_sweep_attaches_partial_results(self, monkeypatch, pool_starts):
        # The pool stops at its first overrun chunk, so the partial family
        # holds the orbits before the overrun in canonical order: the serial
        # one, whatever later chunks would have cleared (69 orbits here).
        pooled, serial = self.pooled_and_serial_partials(monkeypatch, "2C2", 5)
        assert pool_starts == [2]
        assert pooled == serial
        assert len(serial) == 0

    @pytest.mark.parametrize("spec,budget,size", [("3C1", 5, 4), ("2C3", 12, 6)])
    def test_pooled_partial_is_the_serial_one(
        self, monkeypatch, pool_starts, spec, budget, size
    ):
        pooled, serial = self.pooled_and_serial_partials(monkeypatch, spec, budget)
        assert pool_starts == [2]
        assert pooled == serial
        assert len(serial) == size

    @pytest.mark.parametrize("spec,want", [("C3+C1", False), ("2C1", True)])
    def test_is_saturated_workers_do_not_change_verdict(self, pool_starts, spec, want):
        family, poset = chain_family(7), build_poset(spec)
        assert is_saturated(family, poset, workers=2) is want
        assert pool_starts == [2]
        assert is_saturated(family, poset) is want

    @pytest.mark.parametrize(
        "spec,want", [("2C1", True), ("3C1", False), ("2C2", "budget_exceeded")]
    )
    def test_is_saturated_budget_abort_matches_serial(
        self, monkeypatch, pool_starts, spec, want
    ):
        # The first representative in canonical order that runs out of
        # budget or fails to complete a copy decides, pooled or not.  For
        # 2C2 the first chunk runs out and later ones hold exceptions
        # searched within the budget.
        import posetsat.verify as verify_mod

        monkeypatch.setattr(verify_mod, "_is_free", lambda *a, **k: True)
        family, poset = chain_family(7), build_poset(spec)

        def outcome(workers):
            try:
                return is_saturated(family, poset, node_budget=5, workers=workers)
            except BudgetExceededError:
                return "budget_exceeded"

        assert outcome(2) == outcome(1) == want
        assert pool_starts == [2]
