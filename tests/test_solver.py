import random
from collections import Counter

import pytest

from oracles import (
    all_families,
    brute_force_is_saturated,
    brute_force_least_image,
    brute_force_sat_star,
)
from posetsat.embed import CopySearch
from posetsat.posetspec import build_poset
from posetsat.setfam import Family, canonical_key, canonicalize_family, mask_of
from posetsat.solver import _GroundGroup, sat_star_exact, solve_result_to_json
from posetsat.verify import exceptions, greedy_saturate, is_induced_p_free, is_saturated

ORACLE_SPECS = ["C1", "C2", "2C1", "C3", "C2+C1", "3C1", "B2", "B2-", "2C2"]


class TestAgainstFullEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_exact_value_matches(self, n, spec):
        poset = build_poset(spec)
        want_value, _ = brute_force_sat_star(n, poset)
        got = sat_star_exact(n, poset)
        assert got.status == "exact"
        assert got.value == want_value
        assert len(got.witness) == want_value
        assert is_saturated(got.witness, poset)
        assert brute_force_is_saturated(got.witness.sets, n, poset)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_witness_is_first_least_family(self, n, spec):
        # The witness is the lexicographically first saturated family of the
        # least size, families compared by their tuples of canonical keys.
        # Found here over every family, with no search code of the package.
        poset = build_poset(spec)
        saturated = (m for m in all_families(n) if brute_force_is_saturated(m, n, poset))
        want = min(saturated, key=lambda m: (len(m), tuple(map(canonical_key, m))))
        assert sat_star_exact(n, poset).witness.sets == want


class TestExamples:
    def test_two_chain_over_two_points(self):
        got = sat_star_exact(2, build_poset("C2"))
        assert got.status == "exact"
        assert got.value == 1
        assert got.witness.sets in ((0,), (0b11,))

    def test_single_point_target(self):
        got = sat_star_exact(3, build_poset("C1"))
        assert got.value == 0
        assert got.witness == Family(3, ())

    def test_two_chain_over_three_points(self):
        assert sat_star_exact(3, build_poset("C2")).value == 1


class TestBehaviour:
    def test_deterministic(self):
        poset = build_poset("2C1")
        assert sat_star_exact(3, poset) == sat_star_exact(3, poset)

    def test_witness_revalidated_through_verify(self):
        poset = build_poset("2C1")
        got = sat_star_exact(3, poset)
        assert is_induced_p_free(got.witness, poset)
        assert len(exceptions(got.witness, poset)) == 0

    def test_value_bounded_by_greedy_completion(self):
        poset = build_poset("C2")
        for seed_masks in [(), (0,), (0b1,)]:
            start = canonicalize_family(seed_masks, 3)
            if not is_induced_p_free(start, poset):
                continue
            completed = greedy_saturate(start, poset)
            assert sat_star_exact(3, poset).value <= len(completed)

    @pytest.mark.parametrize(
        "spec,n,witness",
        [
            ("2C2", 4, (0, 1, 2, 4, 8, 3, 7, 15)),
            ("3C1", 4, (0, 1, 2, 3, 5, 7, 11, 15)),
            ("B2", 4, (0, 1, 2, 4, 8)),
            ("2C1", 5, (0, 1, 3, 7, 15, 31)),
        ],
    )
    def test_first_witness_pinned(self, spec, n, witness):
        # The first saturated family of the least size in the search order.
        # Reusing freeness tests down a branch skips only prefixes that cannot
        # grow into a free family, and the size bound skips only families no
        # smaller than one already found, so this family does not move.  The
        # brute force checks it with no search machinery of the package.
        poset = build_poset(spec)
        got = sat_star_exact(n, poset)
        assert got.status == "exact"
        assert got.witness.sets == witness
        assert brute_force_is_saturated(got.witness.sets, n, poset)

    def test_budget_overrun_returns_greedy_incumbent(self):
        poset = build_poset("2C2")
        incumbent = greedy_saturate(Family(4, ()), poset)
        exact = sat_star_exact(4, poset)
        assert exact.status == "exact"
        last = exact.nodes_explored
        assert last > 600  # so every budget below stops the search
        assert sat_star_exact(4, poset, node_budget=last) == exact
        for budget in (0, 1, 2, 7, 30, 100, 600, last - 1):
            got = sat_star_exact(4, poset, node_budget=budget)
            assert got.status == "budget_exceeded", budget
            assert got.witness == incumbent
            assert got.value == len(incumbent)
            # The freeness test that overran is counted, and none after it.
            assert got.nodes_explored == budget + 1

    def test_budget_overrun_inside_the_look_ahead(self, monkeypatch):
        # The look-ahead's tests count against the budget too: an overrun
        # there is counted, with none after it.  A look-ahead searcher is one
        # the solver grows by a whole tail; the overrun at budget b lands in
        # the look-ahead when the run at b + 1 asks one of them once more.
        poset = build_poset("2C2")
        incumbent = greedy_saturate(Family(4, ()), poset)
        asked = []
        with_members, completes = CopySearch.with_members, CopySearch.completes

        def tail_growth(self, gs):
            out = with_members(self, gs)
            out.looks_ahead = True
            return out

        def counting(self, g, *args):
            asked.append(getattr(self, "looks_ahead", False))
            return completes(self, g, *args)

        monkeypatch.setattr(CopySearch, "with_members", tail_growth)
        monkeypatch.setattr(CopySearch, "with_member", lambda self, g: with_members(self, (g,)))
        monkeypatch.setattr(CopySearch, "completes", counting)

        def look_ahead_tests(budget):
            asked.clear()
            got = sat_star_exact(4, poset, node_budget=budget)
            return got, sum(asked)

        last = sat_star_exact(4, poset).nodes_explored
        for budget in (97, 100, 597, last - 1):
            got, looked = look_ahead_tests(budget)
            assert look_ahead_tests(budget + 1)[1] == looked + 1, budget
            assert got.status == "budget_exceeded", budget
            assert got.witness == incumbent
            assert got.nodes_explored == budget + 1

    def test_budget_exceeded_carries_upper_bound(self):
        poset = build_poset("C2")
        got = sat_star_exact(3, poset, node_budget=0)
        assert got.status == "budget_exceeded"
        assert got.witness is not None
        assert is_saturated(got.witness, poset)
        assert got.value == len(got.witness)

    def test_json_shape(self):
        got = sat_star_exact(2, build_poset("C2"))
        doc = solve_result_to_json(got)
        assert set(doc) == {"status", "value", "witness", "nodes"}
        assert doc["status"] == "exact"
        assert doc["value"] == 1
        assert doc["witness"]["n"] == 2

    def test_four_points_two_antichain(self):
        # Larger smoke case: minimum family over [4] saturated for two
        # incomparable points must be a maximal chain.
        got = sat_star_exact(4, build_poset("2C1"))
        assert got.status == "exact"
        assert got.value == 5
        masks = got.witness.sets
        assert all(
            masks[i] & masks[i + 1] == masks[i] for i in range(len(masks) - 1)
        )


def test_first_set_symmetry_filter_never_misses():
    # The orderly filter keeps a prefix only if it is the least of its orbit
    # under relabeling and complementing, so for n <= 6 the first set is
    # always an initial segment {1..c}; check against the unrestricted
    # enumeration oracle on a poset where optimal witnesses exist with
    # non-segment members.
    poset = build_poset("C2")
    for n in (2, 3):
        want_value, _ = brute_force_sat_star(n, poset)
        assert sat_star_exact(n, poset).value == want_value


class TestOrderlyFilter:
    @pytest.mark.parametrize("spec", ["2C2", "B2-"])
    def test_one_family_per_orbit(self, spec):
        # At n = 3 the filter's group is all of S_3, with complements for a
        # self-dual target, so each orbit has exactly one least member.
        self_dual = build_poset(spec).spec.is_self_dual()
        assert self_dual is (spec == "2C2")
        group = _GroundGroup(3, self_dual)
        orbits = {brute_force_least_image(m, 3, 3, self_dual) for m in all_families(3)}
        passed = Counter(len(m) for m in all_families(3) if group.is_least(m))
        assert passed == Counter(len(o) for o in orbits)
        # 80 classes of families on a 3-set (OEIS A000612), 46 with complements.
        assert sum(passed.values()) == (46 if self_dual else 80)

    @pytest.mark.parametrize("self_dual", [True, False])
    def test_least_image_past_six_points(self, self_dual):
        # At n = 8 only the lowest six elements move.  Each random family's
        # least image must pass, and the family itself exactly when it is
        # that image.
        rng, group = random.Random(5), _GroundGroup(8, self_dual)
        passed = 0
        for _ in range(40):
            family = canonicalize_family(rng.sample(range(256), rng.randint(1, 4)), 8).sets
            least = brute_force_least_image(family, 8, 6, self_dual)
            assert group.is_least(least)
            assert group.is_least(family) is (family == least)
            passed += family == least
        assert passed < 40

    @pytest.mark.parametrize(
        "spec,want",
        [
            ("2C2", 8),
            ("3C1", 8),
            ("B2", 5),
            ("2C1+C2", 7),
            ("C3+C1", 7),
            ("4C1", 11),
            ("C4", 4),
            ("B2-", 5),
        ],
    )
    def test_four_point_values(self, spec, want):
        # The values the solver gave before the orbit filter, when it only
        # required the first set to be an initial segment.
        got = sat_star_exact(4, build_poset(spec))
        assert got.status == "exact"
        assert got.value == want

    def test_maximal_chain_at_six_points(self):
        # A family saturated for two incomparable points is a maximal chain.
        poset = build_poset("2C1")
        got = sat_star_exact(6, poset)
        assert got.status == "exact"
        assert got.value == 7
        assert brute_force_is_saturated(got.witness.sets, 6, poset)

    @pytest.mark.parametrize(
        "spec,n,want",
        [("B2", 5, 6), ("B2-", 5, 6), ("3C1", 5, 10), ("C2+C1", 6, 4), ("C3", 6, 2)],
    )
    def test_five_and_six_point_values(self, spec, n, want):
        poset = build_poset(spec)
        got = sat_star_exact(n, poset)
        assert got.status == "exact"
        assert got.value == want
        assert brute_force_is_saturated(got.witness.sets, n, poset)

    @pytest.mark.parametrize(
        "spec,n,want",
        [
            ("4C1", 5, 14),
            ("C3+C1", 5, 8),
            ("C2+2C1", 5, 7),
            pytest.param("3C1", 6, 12, marks=pytest.mark.slow),
        ],
    )
    def test_values_the_look_ahead_reaches(self, spec, n, want):
        # 14.0, 2.1, 0.6 and 15.6 s before the look-ahead prune, 1.2, 1.2,
        # 0.3 and 1.9 s with it, on a 2-core VM.
        poset = build_poset(spec)
        got = sat_star_exact(n, poset)
        assert got.status == "exact"
        assert got.value == want
        assert brute_force_is_saturated(got.witness.sets, n, poset)

    def test_subgroup_past_six_points(self):
        # At n = 12 the group permutes only the lowest six elements: a
        # subgroup, which keeps its tables at 2 x 720 of 64 entries.
        group = _GroundGroup(12, True)
        assert len(group.columns) == 64
        assert {len(column) for column in group.columns} == {2 * 720 - 1}
        got = sat_star_exact(12, build_poset("C2"))
        assert got.status == "exact"
        assert got.value == 1


@pytest.mark.slow
def test_two_double_chains_at_five_points():
    got = sat_star_exact(5, build_poset("2C2"))
    assert got.status == "exact"
    assert got.value == 10
