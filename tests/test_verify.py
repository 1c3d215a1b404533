import random

import pytest

from oracles import brute_force_has_copy
from posetsat.constructs import (
    boolean_family,
    construct_2ck_c1,
    construct_b3,
    construct_mc2_binom,
    construct_mck,
)
from posetsat.embed import BudgetExceededError, find_induced_copy
from posetsat.posetspec import build_poset
from posetsat.setfam import Family, canonicalize_family, mask_of
from posetsat.verify import (
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

        monkeypatch.setattr(verify_mod, "is_induced_p_free", lambda *a, **k: True)
        family = construct_b3(5)
        with pytest.raises(BudgetExceededError) as err:
            exceptions(family, build_poset("B3"), node_budget=40)
        assert isinstance(err.value.partial, Family)
        assert err.value.partial_count == len(err.value.partial)

    def test_pooled_sweep_attaches_partial_results(self, monkeypatch):
        # As above, with 109 candidates: enough to go to the pool.
        import posetsat.verify as verify_mod

        monkeypatch.setattr(verify_mod, "is_induced_p_free", lambda *a, **k: True)
        family = construct_b3(7)
        with pytest.raises(BudgetExceededError) as err:
            exceptions(family, build_poset("B3"), node_budget=40, workers=2)
        assert isinstance(err.value.partial, Family)
        assert err.value.partial_count == len(err.value.partial)

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

        monkeypatch.setattr(verify_mod, "is_induced_p_free", lambda *a, **k: True)
        report = verification_report(construct_b3(5), "B3", node_budget=40)
        assert report.is_free is True
        assert report.budget_exceeded

    def test_exception_listing_toggle(self):
        report = verification_report(fam(2, [1]), "C2")
        assert report_to_json(report, list_exceptions=True)["exceptions"] == [[2]]
        assert report_to_json(report, list_exceptions=False)["exceptions"] == []
