import random
from itertools import combinations
from math import perm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from engines import generic_search
from oracles import (
    all_families,
    brute_force_chains_through,
    brute_force_has_copy,
    brute_force_longest_chain,
)
from posetsat.constructs import (
    boolean_family,
    construct_2ck_c1,
    construct_b3,
    construct_mc2_binom,
    construct_mck,
)
from posetsat import embed
from posetsat.embed import (
    BudgetExceededError,
    CopySearch,
    _ChainEngine,
    _FamilyIndex,
    Embedding,
    embedding_to_json,
    find_induced_copy,
    verify_embedding,
    witness_matrix,
)
from posetsat.posetspec import build_poset
from posetsat.setfam import Family, canonical_key, canonicalize_family, mask_of

C2 = build_poset("C2")
ORACLE_SPECS = ["C2", "C3", "2C2", "C2+C1"]
# Three or more chains, or a 3-chain: where the chain engine's colouring
# bound and its exact-reach endpoint classes act; mixed lengths run
# shortest first.
CHAIN_PRUNING_SPECS = ["3C1", "2C2+C1", "C3+2C1", "2C3", "C3+C2+C1", "C2+2C1"]
# Targets with a Boolean-lattice term: only the generic engine serves them.
LATTICE_SPECS = ["B2", "B2-", "B2--", "B3--", "B2+C1"]


def fam(n, *sets):
    return canonicalize_family([mask_of(s, n) for s in sets], n)


def random_families(count, seed=99):
    """Random families over [5] in canonical order, one mask tuple each."""
    rng = random.Random(seed)
    universe = sorted(range(32), key=canonical_key)
    for _ in range(count):
        sel = rng.getrandbits(32)
        yield tuple(universe[i] for i in range(32) if sel >> i & 1)


class TestFindInducedCopy:
    def test_two_chain(self):
        family = fam(2, [1], [1, 2])
        emb = find_induced_copy(family, C2)
        assert emb is not None
        assert verify_embedding(family, C2, emb)

    def test_antichain_has_no_chain(self):
        assert find_induced_copy(fam(2, [1], [2]), C2) is None

    def test_cube_without_empty_avoids_chain_plus_point(self):
        family = boolean_family(3, "empty")
        assert find_induced_copy(family, build_poset("C3+C1")) is None

    def test_require_member_only(self):
        family = fam(3, [1], [2], [1, 2])
        g = mask_of([2], 3)
        emb = find_induced_copy(family, C2, require=g)
        assert emb is not None and g in emb.assignment

    def test_require_nonmember_raises(self):
        with pytest.raises(ValueError):
            find_induced_copy(fam(2, [1]), C2, require=0b10)

    def test_budget_exceeded_raises(self):
        family = construct_mc2_binom(6, 1)
        with pytest.raises(BudgetExceededError):
            find_induced_copy(family, build_poset("3C2"), node_budget=2)

    def test_deterministic(self):
        family = construct_mc2_binom(6, 1)
        P = build_poset("2C2")
        a = find_induced_copy(family, P)
        b = find_induced_copy(family, P)
        assert a == b

    def test_order_seed_samples_valid_copies(self):
        family = construct_mc2_binom(6, 1)
        P = build_poset("2C2")
        seen = set()
        for seed in range(8):
            emb = find_induced_copy(family, P, order_seed=seed)
            assert emb is not None
            assert verify_embedding(family, P, emb)
            seen.add(emb.assignment)
        assert len(seen) > 1


class TestAgainstBruteForce:
    @pytest.mark.parametrize("spec", ORACLE_SPECS + ["2C1", "3C2"])
    def test_exhaustive_ground_three(self, spec):
        poset = build_poset(spec)
        for masks in all_families(3):
            family = Family(3, masks)
            got = find_induced_copy(family, poset) is not None
            assert got == brute_force_has_copy(masks, poset), masks

    @pytest.mark.parametrize("spec", ORACLE_SPECS + ["2C1", "3C2"])
    def test_symmetry_break_safety(self, spec):
        # The chain engine orders equal chains; the generic engine does not.
        # Ordering must never lose a copy, with or without a required member.
        poset = build_poset(spec)
        for masks in all_families(3):
            chains = CopySearch(masks, poset)
            generic = generic_search(masks, poset)
            assert isinstance(chains._engine, _ChainEngine)
            assert (chains.find() is None) == (generic.find() is None), masks
            for g in set(range(8)) - set(masks):
                a = chains.find_containing(g)
                b = generic.find_containing(g)
                assert (a is None) == (b is None), (masks, g)

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_sampled_ground_four(self, spec):
        poset = build_poset(spec)
        rng = random.Random(spec)
        universe = sorted(range(16), key=canonical_key)
        for _ in range(300):
            sel = rng.getrandbits(16)
            masks = tuple(universe[i] for i in range(16) if sel >> i & 1)
            family = Family(4, masks)
            got = find_induced_copy(family, poset) is not None
            assert got == brute_force_has_copy(masks, poset), masks

    @staticmethod
    def _check_target(masks, n, poset, pins):
        searcher = CopySearch(masks, poset)
        emb = searcher.find()
        assert (emb is not None) == brute_force_has_copy(masks, poset), masks
        for g in pins:
            grown = masks + (g,)
            emb = searcher.find_containing(g)
            assert (emb is not None) == brute_force_has_copy(grown, poset, require=g), (masks, g)
            if emb is not None:
                assert g in emb.assignment
                assert verify_embedding(canonicalize_family(grown, n), poset, emb)

    def _check_every_family_ground_three(self, spec):
        """find and find_containing at every absent subset, every family."""
        poset = build_poset(spec)
        for masks in all_families(3):
            pins = [g for g in range(8) if g not in masks]
            self._check_target(masks, 3, poset, pins)

    def _check_sampled_ground_four(self, spec):
        """find and find_containing at every third absent subset, 100 families."""
        poset = build_poset(spec)
        rng = random.Random(spec)
        universe = sorted(range(16), key=canonical_key)
        for _ in range(100):
            sel = rng.getrandbits(16)
            masks = tuple(universe[i] for i in range(16) if sel >> i & 1)
            pins = [g for g in range(16) if g not in masks][::3]
            self._check_target(masks, 4, poset, pins)

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_lattice_targets_exhaustive_ground_three(self, spec):
        self._check_every_family_ground_three(spec)

    @pytest.mark.parametrize("spec", LATTICE_SPECS)
    def test_lattice_targets_sampled_ground_four(self, spec):
        self._check_sampled_ground_four(spec)

    @pytest.mark.parametrize("spec", CHAIN_PRUNING_SPECS)
    def test_chain_targets_exhaustive_ground_three(self, spec):
        self._check_every_family_ground_three(spec)

    @pytest.mark.parametrize("spec", CHAIN_PRUNING_SPECS)
    def test_chain_targets_sampled_ground_four(self, spec):
        self._check_sampled_ground_four(spec)

    @pytest.mark.parametrize("spec", ["2C2+C1", "C3+2C1", "C3+C2+C1", "C2+2C1"])
    def test_mixed_targets_in_shuffled_member_order(self, spec):
        # Node order follows member order; no pruning may lean on the
        # members coming smallest first.  A colouring pool that treats a
        # mixed tail as uniform passes on canonical order and fails here.
        poset = build_poset(spec)
        rng = random.Random(spec)
        for _ in range(100):
            masks = [g for g in range(16) if rng.random() < 0.5]
            rng.shuffle(masks)
            pins = [g for g in range(16) if g not in masks][::3]
            self._check_target(tuple(masks), 4, poset, pins)

    def test_mixed_tail_keeps_the_nodes_it_tried(self):
        # C3+C2+C1 runs C1, C2, C3.  The C2 pick tried first and left may
        # still be the C3's node, so only a depth inside a tail of equal
        # chains drops a node once tried; dropping it at the C2 pick loses
        # this family's one copy.
        masks = (10, 26, 27, 12, 28, 7)
        poset = build_poset("C3+C2+C1")
        assert brute_force_has_copy(masks, poset)
        emb = CopySearch(masks, poset).find()
        assert emb is not None and verify_embedding(canonicalize_family(masks, 5), poset, emb)

    def test_engines_agree_on_boolean_and_chain_targets(self):
        chain_posets = [build_poset(s) for s in ("2C2", "C3+C1", "3C1")]
        for masks in random_families(150):
            for poset in chain_posets:
                chains = CopySearch(masks, poset)
                assert isinstance(chains._engine, _ChainEngine)
                a = chains.find() is not None
                b = generic_search(masks, poset).find() is not None
                assert a == b, (masks, poset.spec)

    def test_engines_agree_with_required_member(self):
        family = construct_mc2_binom(6, 1)
        P = build_poset("3C2")
        members = set(family.sets)
        chains = CopySearch(family.sets, P)
        assert isinstance(chains._engine, _ChainEngine)
        for g in range(1 << 6):
            if g in members:
                continue
            a = chains.find_containing(g)
            b = generic_search(family.sets, P).find_containing(g)
            assert (a is None) == (b is None), g
            for emb in (a, b):
                if emb is not None:
                    ext = canonicalize_family(family.sets + (g,), 6)
                    assert verify_embedding(ext, P, emb)
                    assert g in emb.assignment

    def test_engines_agree_on_mixed_length_sweep(self):
        family = construct_2ck_c1(6, 3)
        P = build_poset("2C3+C1")
        members = set(family.sets)
        chains = CopySearch(family.sets, P)
        assert isinstance(chains._engine, _ChainEngine)
        for g in range(1 << 6):
            if g in members:
                continue
            a = chains.find_containing(g)
            b = generic_search(family.sets, P).find_containing(g)
            assert (a is None) == (b is None), g

    def test_pinned_search_agrees_with_plain_search(self):
        # Generic-engine path: a copy in F + {g} exists iff the pinned
        # search finds one, because F itself is free of the target.
        family = construct_b3(5)
        P = build_poset("B3")
        members = set(family.sets)
        searcher = CopySearch(family.sets, P)
        for g in range(1 << 5):
            if g in members:
                continue
            pinned = searcher.find_containing(g)
            grown = canonicalize_family(family.sets + (g,), 5)
            plain = find_induced_copy(grown, P)
            assert (pinned is None) == (plain is None), g
            if pinned is not None:
                assert verify_embedding(grown, P, pinned)
                assert g in pinned.assignment

    def test_monotone_under_additions(self):
        rng = random.Random(21)
        posets = [build_poset(s) for s in ORACLE_SPECS]
        for _ in range(100):
            n = rng.randint(2, 5)
            family = canonicalize_family(
                [rng.getrandbits(n) for _ in range(rng.randint(0, 10))], n
            )
            g = rng.getrandbits(n)
            grown = canonicalize_family(family.sets + (g,), n)
            for poset in posets:
                if find_induced_copy(family, poset) is not None:
                    assert find_induced_copy(grown, poset) is not None


class TestGenericPruning:
    """Degree-filtered domains and forward checking decide these quickly.

    A plain backtrack takes 573,946 nodes on b3(12) / B4-, 566,550 on
    mc2-binom(11,2) / B4-- and 26,931 on b3(12) / B3 to prove there is no
    copy.  The last needs the smallest domain placed first: placing the
    largest first takes 4,000 nodes.
    """

    @pytest.mark.parametrize("family,spec", [
        (construct_b3(12), "B4-"),
        (construct_mc2_binom(11, 2), "B4--"),
        (construct_b3(12), "B3"),
    ])
    def test_lattice_freeness_within_a_thousand_nodes(self, family, spec):
        assert CopySearch(family.sets, build_poset(spec)).find(node_budget=1_000) is None

    def test_pin_that_fits_no_position_tries_no_candidate(self):
        # The cube on {1,2,3} holds B3, but {4} lies above only the empty set
        # and below nothing, so no element of B3 can map to it.
        cube = boolean_family(3)
        searcher = CopySearch(cube.sets, build_poset("B3"))
        assert searcher.find() is not None
        assert searcher.find_containing(mask_of([4], 4), node_budget=0) is None


class TestChainPruning:
    """The chain engine's colouring bound, exact-reach endpoint classes,
    shortest slots first and one first pick per twin orbit.

    Without the bound, proving mc2-binom(11,2) free of 7C2 takes 218,798
    nodes and mck(12,3,3) free of 3C3 takes 21,751; with it, 11,715 and 499;
    with the first pick once per twin orbit as well, 4,311 and 301; with
    nodes ordered by top, that pick judged by its top and each colour class
    started from the highest node, 5,057 and 294; branching inside a tail
    of equal chains only on the nodes outside the first colour classes,
    529 and 294.  Slots
    taken longest first left the colouring bound idle on 2C_k+C1: freeness
    of 2ck-c1(11,4) took 18,069 nodes, 2ck-c1(12,6) 6,274,012, and
    2ck-c1(14,7) ran out of the default budget.  Shortest first, the tail
    after the C1 pick is uniform, and they take 22, 24 and 28;
    2ck-c1(16,8) / 2C8+C1 (102,449 interval nodes) takes 32.
    """

    @pytest.mark.parametrize("family,spec,budget", [
        (construct_mc2_binom(11, 2), "7C2", 6_000),
        (construct_mck(12, 3, 3), "3C3", 2_000),
        (construct_2ck_c1(11, 4), "2C4+C1", 100),
        (construct_2ck_c1(12, 6), "2C6+C1", 1_000),
        (construct_2ck_c1(14, 7), "2C7+C1", embed.DEFAULT_NODE_BUDGET),
        pytest.param(construct_2ck_c1(16, 8), "2C8+C1", 1_000, marks=pytest.mark.slow),
    ])
    def test_freeness_within_budget(self, family, spec, budget):
        searcher = CopySearch(family.sets, build_poset(spec))
        assert isinstance(searcher._engine, _ChainEngine)
        assert searcher.find(node_budget=budget) is None

    @pytest.mark.parametrize("family,spec,budget", [
        (construct_mc2_binom(11, 2), "7C2", 600),
        (construct_mc2_binom(13, 2), "7C2", 600),
        (construct_mck(14, 4, 3), "4C3", 15_000),
    ])
    def test_uniform_tail_branches_outside_the_colour_classes(self, family, spec, budget):
        # Inside a tail of equal chains a depth branches only on the nodes
        # the colouring left outside its first need - 1 classes, and drops
        # each node once tried.  Branching on every candidate took 5,057
        # nodes on mc2-binom(11,2) / 7C2 and 37,891 on mck(14,4,3) / 4C3.
        searcher = CopySearch(family.sets, build_poset(spec))
        assert isinstance(searcher._engine, _ChainEngine)
        assert searcher.find(node_budget=budget) is None

    @staticmethod
    def _pool(engine, bottom, top):
        """Nodes apart from a chain with these end masks: each node's bottom
        escapes ``top`` and ``bottom`` escapes its top."""
        masks = engine.index.masks
        return {
            c for c, (b, t) in enumerate(engine.nodes)
            if masks[b] & ~top and bottom & ~masks[t]
        }

    def test_exact_reach_classes_dominate_every_chain_through_g(self, monkeypatch):
        # For each absent g and each length, the engine tries exactly the
        # end pairs whose longest chain through g has that length, and every
        # chain of that length through g has a pool inside one of theirs.
        poset = build_poset("C4+C3+C2")
        lengths = (4, 3, 2)
        seen = []
        original = _ChainEngine._g_classes

        def recording(self, length, *levels):
            seen.append(levels)
            return original(length, *levels)

        monkeypatch.setattr(_ChainEngine, "_g_classes", recording)
        checked = 0
        for masks in random_families(12, seed=7):
            engine = CopySearch(masks, poset)._engine
            for g in range(32):
                if g in masks:
                    continue
                seen.clear()
                engine.find_containing(g, [embed.DEFAULT_NODE_BUDGET])
                down_levels, up_levels = seen[0]
                chains = brute_force_chains_through(masks, g)
                reach: dict[tuple[int, int], int] = {}
                for chain in chains:
                    ends = (chain[0], chain[-1])
                    reach[ends] = max(reach.get(ends, 0), len(chain))
                for length in lengths:
                    classes = list(original(length, down_levels, up_levels))
                    tried = [
                        (g if b is None else masks[b], g if t is None else masks[t])
                        for _, b, t in classes
                    ]
                    assert sorted(tried) == sorted(e for e, r in reach.items() if r == length)
                    # d is the bottom's share of the class: the sets on its
                    # longest chain up to g, g included.
                    for (d, _, _), (bottom, _) in zip(classes, tried):
                        assert d == brute_force_longest_chain(masks + (g,), bottom, g)
                    pools = [self._pool(engine, *ends) for ends in tried]
                    for chain in chains:
                        if len(chain) == length:
                            pool = self._pool(engine, chain[0], chain[-1])
                            assert any(pool <= p for p in pools), (masks, g, chain)
                            checked += 1
        assert checked > 1_000


class TestIncrementalSearch:
    CHAIN_SPECS = ("2C2", "C3+C1", "3C1")

    @pytest.mark.parametrize("make", [CopySearch, generic_search], ids=["auto", "generic"])
    def test_with_member_matches_fresh_search(self, make):
        specs = self.CHAIN_SPECS + (("B2",) if make is generic_search else ())
        posets = [build_poset(s) for s in specs]
        for masks in random_families(40):
            absent = [g for g in range(32) if g not in masks]
            if len(absent) < 2:
                continue
            g, probes = absent[len(absent) // 2], absent[::3]
            for poset in posets:
                fresh = make(masks + (g,), poset)
                # Grown right away, after a search pinned at another subset,
                # and after one pinned at g itself.
                for last in (None, absent[0], g):
                    base = make(masks, poset)
                    if last is not None:
                        base.find_containing(last)
                        base.completes(last)  # stores a copy, which grown carries
                    grown = base.with_member(g)
                    assert isinstance(grown._engine, _ChainEngine) == (make is CopySearch)
                    assert grown.masks == fresh.masks
                    assert grown.find() == fresh.find(), (masks, g, poset.spec)
                    for h in probes:
                        if h != g:
                            assert grown.find_containing(h) == fresh.find_containing(h), (
                                masks, g, h, poset.spec)

    @pytest.mark.parametrize("make", [CopySearch, generic_search], ids=["auto", "generic"])
    @pytest.mark.parametrize("spec", ["C2", "2C1"])
    def test_member_is_rejected(self, make, spec):
        poset = build_poset(spec)
        for masks in [(0b01,), (0b01, 0b11, 0b10)]:
            searcher = make(masks, poset)
            for g in masks:
                with pytest.raises(ValueError):
                    searcher.find_containing(g)
                with pytest.raises(ValueError):
                    searcher.with_member(g)

    @pytest.mark.parametrize("make", [CopySearch, generic_search], ids=["auto", "generic"])
    def test_member_by_member_growth(self, make):
        # The pattern greedy completion uses: grow one member at a time.
        family = construct_2ck_c1(6, 3)
        P = build_poset("2C3+C1")
        searcher = make((), P)
        for i, g in enumerate(family.sets):
            searcher = searcher.with_member(g)
            fresh = make(family.sets[: i + 1], P)
            assert searcher.find() == fresh.find()
        assert isinstance(searcher._engine, _ChainEngine) == (make is CopySearch)
        for g in range(1 << 6):
            if g not in family.sets:
                assert searcher.find_containing(g) == fresh.find_containing(g), g


@st.composite
def growth_cases(draw):
    """A family over [n], 2 <= n <= 6, in canonical order, and a chain-union
    target: lengths 1..4 bring C1 slots and mixed lengths often."""
    n = draw(st.integers(2, 6))
    masks = tuple(sorted(set(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=14))),
                         key=canonical_key))
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return n, masks, build_poset("+".join(f"C{length}" for length in lengths))


def chain_engine_fields(searcher):
    engine = searcher._engine
    assert isinstance(engine, _ChainEngine)
    fields = ("nodes", "all_nodes", "len_ok", "nb", "nt", "by_bottom", "by_top", "clash")
    return {name: getattr(engine, name) for name in fields}


class TestEngineGrowth:
    """A searcher grown by members none of which lies under an old member
    appends their nodes to the chain engine instead of building it again."""

    @settings(max_examples=300, deadline=None)
    @given(growth_cases(), st.data())
    def test_grown_chain_engine_equals_fresh_build(self, case, data):
        # Members added in canonical order lie under none before them, so
        # each step appends; the result must match a fresh build field by
        # field, member by member and with a whole tail at once.  A tail in
        # any order lies under no member of the canonical base, though one
        # of its members may lie under a later one, and appends too.
        n, masks, poset = case
        searcher = CopySearch((), poset)
        for i, g in enumerate(masks):
            searcher = searcher.with_member(g)
            assert chain_engine_fields(searcher) == chain_engine_fields(
                CopySearch(masks[: i + 1], poset)), (masks[: i + 1], poset.spec)
        cut = data.draw(st.integers(0, len(masks)))
        tail = tuple(data.draw(st.permutations(masks[cut:])))
        assert chain_engine_fields(CopySearch(masks[:cut], poset).with_members(tail)) == (
            chain_engine_fields(CopySearch(masks[:cut] + tail, poset)))
        # A set under a member takes the rebuild path, to the same result.
        under = [g for g in range(1 << n) if g not in masks and any(g & m == g for m in masks)]
        if under:
            g = data.draw(st.sampled_from(under))
            assert chain_engine_fields(searcher.with_member(g)) == chain_engine_fields(
                CopySearch(masks + (g,), poset))

    def test_growth_builds_no_engine(self, monkeypatch):
        built = []
        for engine in (_ChainEngine, embed._GenericEngine):
            original = engine.__init__

            def counting(self, *args, original=original):
                built.append(type(self).__name__)
                original(self, *args)

            monkeypatch.setattr(engine, "__init__", counting)
        family = construct_2ck_c1(6, 3)
        cube = tuple(sorted(range(1 << 6), key=canonical_key))
        shuffled = tuple(random.Random(0).sample(cube, len(cube)))
        for spec in ("2C3+C1", "B2"):
            poset = build_poset(spec)
            start = CopySearch((), poset)
            built.clear()
            searcher = start
            for g in family.sets:  # canonical order: each lies under no member
                searcher = searcher.with_member(g)
            whole = start.with_members(cube)
            # An empty family has no member for a new one to lie under.
            mixed = start.with_members(shuffled)
            assert built == []
            assert whole.find() == CopySearch(cube, poset).find()
            assert mixed.find() == CopySearch(shuffled, poset).find()
        # The generic engine shares its target tables; the chain engine is
        # built afresh, once, for a tail with a set that lies under a member.
        under = next(g for g in range(1 << 6) if g not in family.sets)
        assert any(m & under == under for m in family.sets)
        base = CopySearch(family.sets, build_poset("B2"))
        assert base.with_member(under)._engine.rel is base._engine.rel
        base = CopySearch(family.sets, build_poset("2C3+C1"))
        built.clear()
        base.with_members(g for g in shuffled if g not in family.sets)
        assert built == ["_ChainEngine"]


@st.composite
def completes_runs(draw):
    """A family over [n], n <= 5, a target, and steps: each names a searcher
    made so far by position, grows it by a set or asks it about one."""
    n = draw(st.integers(1, 5))
    subsets = st.integers(0, (1 << n) - 1)
    masks = tuple(draw(st.lists(subsets, unique=True, max_size=8)))
    spec = draw(st.sampled_from(ORACLE_SPECS + ["3C1", "C3+C1", "B2", "B2-"]))
    steps = draw(st.lists(st.tuples(st.integers(0, 7), st.booleans(), subsets), min_size=8, max_size=32))
    return masks, build_poset(spec), steps


class TestCompletes:
    @settings(max_examples=300, deadline=None)
    @given(completes_runs())
    def test_matches_brute_force_as_searchers_grow(self, run):
        # Each searcher carries the copies found before it grew, and its
        # siblings never see each other's: every answer must stay exact.
        masks, poset, steps = run
        searchers = [CopySearch(masks, poset)]
        for pick, grow, g in steps:
            searcher = searchers[pick % len(searchers)]
            if g in searcher.masks:
                continue
            if grow:
                searchers.append(searcher.with_member(g))
            else:
                want = brute_force_has_copy(searcher.masks + (g,), poset, require=g)
                assert searcher.completes(g) is want, (searcher.masks, g, poset.spec)

    def test_carried_copy_answers_unsearched(self, monkeypatch):
        # In {{1}}, {1, 2} completes a C2 whose other image, {1}, lies
        # inside {1, 3} too.  The searcher grown by {2} after that copy was
        # found answers {1, 3} with no search; one grown before it searches.
        n = 3
        one, two, one_two, one_three = (mask_of(s, n) for s in ([1], [2], [1, 2], [1, 3]))
        searched = []
        original = CopySearch.find_containing

        def counting(self, g, *args, **kwargs):
            searched.append(g)
            return original(self, g, *args, **kwargs)

        monkeypatch.setattr(CopySearch, "find_containing", counting)
        base = CopySearch((one,), C2)
        early = base.with_member(two)
        assert base.completes(one_two) and searched == [one_two]
        grown = base.with_member(two)
        assert grown.completes(one_three) and searched == [one_two]
        assert early.completes(one_three) and searched == [one_two, one_three]
        assert brute_force_has_copy((one, two, one_three), C2, require=one_three)


@st.composite
def chain_search_cases(draw):
    """A family over [n], n <= 6, and a chain-union target.

    Lengths are drawn from 1..4, so targets often repeat a length (3C1,
    2C2+C1): the chain engine orders equal chains, the generic one does not.
    Three or more chains engage its colouring bound, and mixed C1 slots
    the singleton pool; chains of 3 or 4 sets have endpoint classes of
    several reaches in a pinned search.
    """
    n = draw(st.integers(2, 6))
    masks = tuple(sorted(set(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))),
                         key=canonical_key))
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    poset = build_poset("+".join(f"C{length}" for length in lengths))
    return Family(n, masks), poset


@settings(max_examples=300, deadline=None)
@given(chain_search_cases())
def test_engines_agree_on_random_chain_unions(case):
    family, poset = case
    chains = CopySearch(family.sets, poset)
    generic = generic_search(family.sets, poset)
    assert isinstance(chains._engine, _ChainEngine)
    a, b = chains.find(), generic.find()
    assert (a is None) == (b is None)
    for emb in (a, b):
        assert emb is None or verify_embedding(family, poset, emb)
    for g in range(1 << family.n):
        if g in family.sets:
            continue
        a, b = chains.find_containing(g), generic.find_containing(g)
        assert (a is None) == (b is None), g
        grown = canonicalize_family(family.sets + (g,), family.n)
        for emb in (a, b):
            assert emb is None or (g in emb.assignment and verify_embedding(grown, poset, emb))


# Three or more equal chains at the end of the slots: the tail where the
# chain engine branches only outside its colour classes.
UNIFORM_TAIL_SPECS = ["4C1", "3C2", "4C2", "C1+3C2", "2C1+3C2", "3C3"]


@st.composite
def shuffled_families(draw):
    """A family over [n], n in {4, 5}, in canonical or shuffled member order."""
    n = draw(st.integers(4, 5))
    keep = draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))
    masks = sorted((g for g in range(1 << n) if keep[g]), key=canonical_key)
    if draw(st.booleans()):
        masks = draw(st.permutations(masks))
    return tuple(masks), n


@pytest.mark.parametrize("spec", UNIFORM_TAIL_SPECS)
@settings(max_examples=60, deadline=None)
@given(case=shuffled_families())
def test_uniform_tails_agree_with_references(spec, case):
    # Every pick of the tail comes from one pool, so a branch may skip the
    # colour classes and the nodes tried before it; no copy may be lost,
    # whatever the member order.  The brute force checks the search where
    # it is quick.
    masks, n = case
    poset = build_poset(spec)
    chains = CopySearch(masks, poset)
    generic = generic_search(masks, poset)
    assert isinstance(chains._engine, _ChainEngine)
    for g in [None] + [g for g in range(1 << n) if g not in masks]:
        if g is None:
            grown, a, b = canonicalize_family(masks, n), chains.find(), generic.find()
        else:
            grown = canonicalize_family(masks + (g,), n)
            a, b = chains.find_containing(g), generic.find_containing(g)
        assert (a is None) == (b is None), (masks, g)
        if perm(len(grown.sets), poset.size) <= 1_000_000:  # the brute force's orderings
            assert (a is not None) == brute_force_has_copy(grown.sets, poset, require=g)
        for emb in (a, b):
            assert emb is None or verify_embedding(grown, poset, emb)
            assert emb is None or g is None or g in emb.assignment


@st.composite
def block_families(draw):
    """Families with twins, n <= 7: a core family over c <= 4 points, each
    point blown up to a block of 1 to 3 twins.

    In half of them a core member may meet a block in part, bringing every
    subset that meets each block in as many elements; their twin orbits
    then hold several members, which ``find`` tries once.  At most 16
    members keep the brute force quick.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)
                 .filter(lambda sizes: sum(sizes) <= 7))
    blocks, n = [], 0
    for size in sizes:
        blocks.append([1 << e for e in range(n, n + size)])
        n += size
    partial = draw(st.booleans())
    masks = set()
    selected = draw(st.lists(st.booleans(), min_size=1 << len(sizes), max_size=1 << len(sizes)))
    for core in (s for s, keep in enumerate(selected) if keep):
        choices = [0]
        for i, block in enumerate(blocks):
            if core >> i & 1:
                count = draw(st.integers(1, len(block))) if partial else len(block)
                choices = [m + sum(c) for m in choices for c in combinations(block, count)]
        masks.update(choices)
    assume(len(masks) <= 16)
    return Family(n, tuple(sorted(masks, key=canonical_key)))


BLOCK_SPECS = ["C3+C2+C1", "C4+C2", "2C2+C1", "3C1", "2C3", "C2+2C1", "2C2"]


@settings(deadline=None)
@given(block_families(), st.sampled_from(BLOCK_SPECS), st.data())
def test_chain_engine_on_block_families(family, spec, data):
    # Twins make find's first picks skip members of a shared orbit.
    poset = build_poset(spec)
    searcher = CopySearch(family.sets, poset)
    assert isinstance(searcher._engine, _ChainEngine)
    assert (searcher.find() is not None) == brute_force_has_copy(family.sets, poset)
    absent = [g for g in range(1 << family.n) if g not in family.sets]
    pins = data.draw(st.lists(st.sampled_from(absent), max_size=2, unique=True)) if absent else []
    for g in pins:
        emb = searcher.find_containing(g)
        assert (emb is not None) == brute_force_has_copy(family.sets + (g,), poset, require=g)


@settings(deadline=None)
@given(block_families(), st.sampled_from(BLOCK_SPECS), st.data())
def test_find_verdict_survives_relabelling(family, spec, data):
    perm = data.draw(st.permutations(range(family.n)))
    image = tuple(sum(1 << perm[i] for i in range(family.n) if m >> i & 1) for m in family.sets)
    poset = build_poset(spec)

    def free(masks):
        searcher = CopySearch(masks, poset)
        assert isinstance(searcher._engine, _ChainEngine)
        return searcher.find() is None

    assert free(image) == free(family.sets)


@st.composite
def index_families(draw, max_n=7):
    """Distinct masks over [n], n <= max_n, in any order: the index must not
    lean on canonical order."""
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20, unique=True))
    return n, tuple(draw(st.permutations(masks)))


@settings(deadline=None)
@given(index_families())
def test_family_index_matches_brute_force(case):
    n, masks = case
    index = _FamilyIndex(masks)

    def members(pred):
        return sum(1 << j for j, m in enumerate(masks) if pred(m))

    for i, a in enumerate(masks):
        assert index.up[i] == members(lambda m: m != a and a & m == a)
        assert index.down[i] == members(lambda m: m != a and a & m == m)
        # The apart row the generic engine derives from the two it keeps.
        apart = index.all_bits & ~(index.up[i] | index.down[i] | 1 << i)
        assert apart == members(lambda m: a & m not in (a, m))
    assert len(index.cols) <= n
    for e in range(n):
        col = index.cols[e] if e < len(index.cols) else 0
        assert col == members(lambda m: m >> e & 1)
    before = (index.up[:], index.down[:], index.cols[:])
    for g in range(1 << n):
        if g in masks:
            with pytest.raises(ValueError):
                index.relation_to(g)
            with pytest.raises(ValueError):
                index.extended(g)
            continue
        assert index.relation_to(g) == (members(lambda m: m & g == m), members(lambda m: m & g == g))
        # The constructor grows its index through the same step as extended,
        # so this pins the two paths together; the brute force above is the
        # independent check.
        grown, fresh = index.extended(g), _FamilyIndex(masks + (g,))
        assert grown.masks == fresh.masks
        assert grown.all_bits == fresh.all_bits
        assert grown.up == fresh.up
        assert grown.down == fresh.down
        assert grown.cols == fresh.cols
        assert grown.twin_classes(n) == fresh.twin_classes(n)
    assert (index.up, index.down, index.cols) == before  # growing copies the rows


@pytest.mark.parametrize("m", [0, 0b101])
def test_duplicate_members_raise(m):
    # Every member goes through relation_to on its way into the index, so
    # a repeated one is refused, by the index and by a searcher either way.
    with pytest.raises(ValueError, match="already a member"):
        _FamilyIndex((m, m))
    for spec in ("2C2", "B2"):
        with pytest.raises(ValueError, match="already a member"):
            CopySearch((m, m), build_poset(spec))
        with pytest.raises(ValueError, match="already a member"):
            CopySearch((0b1, m, 0b11, m), build_poset(spec))


# Mixed lengths climb past the shortest pair length; 3C1 has singletons only.
LENGTH_SPECS = ["C3+C2", "C4+C2+C1", "2C3+C2", "3C1"]


@settings(deadline=None)
@given(index_families(max_n=6), st.sampled_from(LENGTH_SPECS))
def test_length_masks_match_brute_force(case, spec):
    # Node (b, t) hosts a chain of L sets exactly when L = 1 and b = t, or
    # L >= 2 and the family holds a chain of at least L sets from masks[b]
    # up to masks[t].  The nodes are the pairs that host some slot.
    _, masks = case
    chain = CopySearch(masks, build_poset(spec))._engine
    lengths = set(chain.slots)

    def hosts(b, t, length):
        if length == 1:
            return b == t
        return brute_force_longest_chain(masks, masks[b], masks[t]) >= length

    pairs = [(b, t) for b in range(len(masks)) for t in range(len(masks))]
    assert set(chain.nodes) == {
        (b, t) for b, t in pairs if any(hosts(b, t, length) for length in lengths)
    }
    for length in lengths:
        expected = sum(1 << c for c, (b, t) in enumerate(chain.nodes) if hosts(b, t, length))
        assert chain.len_ok[length] == expected, length


@settings(deadline=None)
@given(index_families(max_n=6), st.sampled_from(LENGTH_SPECS))
def test_clash_sets_match_brute_force(case, spec):
    # nb[x] holds the nodes whose bottom lies inside masks[x], nt[x] those
    # whose top contains it, and node (b, t) clashes with nb[t] | nt[b]:
    # exactly the nodes outside the pool of a chain with its end masks.
    _, masks = case
    chain = CopySearch(masks, build_poset(spec))._engine
    nodes = range(len(chain.nodes))

    def having(pred):
        return sum(1 << c for c, (b, t) in enumerate(chain.nodes) if pred(masks[b], masks[t]))

    for x, m in enumerate(masks):
        assert chain.nb[x] == having(lambda bottom, top: bottom & m == bottom)
        assert chain.nt[x] == having(lambda bottom, top: top & m == m)
    for v, (b, t) in enumerate(chain.nodes):
        x, y = chain.clash[v]
        clashes = {c for c in nodes if (x | y) >> c & 1}
        assert clashes == set(nodes) - TestChainPruning._pool(chain, masks[b], masks[t]), v


SEED_SPECS = ["C2", "C3", "2C1", "2C2", "C2+C1", "3C1", "C3+C1", "B2"]


@settings(deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=14).map(
            lambda masks: canonicalize_family(masks, n))),
    st.sampled_from(SEED_SPECS),
    st.integers(1, 2**32),
    st.data(),
)
def test_order_seed_never_changes_a_verdict(family, spec, seed, data):
    # Shuffling the member order samples other copies, never another verdict,
    # with or without a required member.
    poset = build_poset(spec)
    requires = [None]
    if family.sets:
        requires.append(data.draw(st.sampled_from(family.sets)))
    for require in requires:
        base = find_induced_copy(family, poset, require=require)
        emb = find_induced_copy(family, poset, require=require, order_seed=seed)
        assert (emb is None) == (base is None)
        if emb is not None:
            assert verify_embedding(family, poset, emb)
            assert require is None or require in emb.assignment


def _verdicts(cases, make=CopySearch):
    """find and find_containing verdicts of one searcher kind on each case."""
    out = []
    for masks, n, poset in cases:
        searcher = make(masks, poset)
        out.append(searcher.find() is None)
        out.extend(
            searcher.find_containing(g) is None
            for g in range(1 << n)
            if g not in masks
        )
    return out


class TestChainEngineLimits:
    CASES = [(m, 5, build_poset(s)) for m in random_families(30)
             for s in ("2C2", "C3+C1", "3C1")] + [
        (construct_mc2_binom(6, 1).sets, 6, build_poset("3C2")),
        (construct_2ck_c1(6, 3).sets, 6, build_poset("2C3+C1")),
    ]

    def test_chain_engine_has_no_node_cap(self):
        # A node's clashes are read from two per-member rows, so no table
        # over pairs of nodes limits the engine: it serves 2ck-c1(16,8) /
        # 2C8+C1, with 102,449 interval nodes.
        searcher = CopySearch(construct_2ck_c1(16, 8).sets, build_poset("2C8+C1"))
        assert isinstance(searcher._engine, _ChainEngine)
        assert len(searcher._engine.nodes) == 102_449

    def test_generic_engine_keeps_verdicts(self):
        assert _verdicts(self.CASES, generic_search) == _verdicts(self.CASES)


class TestVerifyEmbedding:
    def test_rejects_comparable_images_for_antichain_target(self):
        family = fam(2, [1], [1, 2])
        two_points = build_poset("2C1")
        emb = Embedding(two_points, (mask_of([1], 2), mask_of([1, 2], 2)))
        assert not verify_embedding(family, two_points, emb)

    def test_rejects_non_injective(self):
        family = fam(2, [1], [1, 2])
        emb = Embedding(build_poset("2C1"), (mask_of([1], 2), mask_of([1], 2)))
        assert not verify_embedding(family, build_poset("2C1"), emb)

    def test_rejects_non_member_images(self):
        family = fam(2, [1])
        emb = Embedding(C2, (mask_of([1], 2), mask_of([1, 2], 2)))
        assert not verify_embedding(family, C2, emb)

    def test_length_mismatch_raises(self):
        family = fam(2, [1])
        with pytest.raises(ValueError):
            verify_embedding(family, C2, Embedding(C2, (mask_of([1], 2),)))


class TestWitnessMatrix:
    def test_two_disjoint_chains(self):
        P = build_poset("2C2")
        emb = Embedding(
            P,
            (
                mask_of([1], 3),
                mask_of([1, 3], 3),
                mask_of([2], 3),
                mask_of([2, 3], 3),
            ),
        )
        wm = witness_matrix(emb)
        assert wm.chain_count == 2
        assert wm.entries[0][1] == 1
        assert wm.entries[1][0] == 2
        assert wm.entries[0][0] is None

    def test_single_chain_is_empty(self):
        P = build_poset("C3")
        emb = find_induced_copy(fam(3, [1], [1, 2], [1, 2, 3]), P)
        wm = witness_matrix(emb)
        assert wm.chain_count == 1
        assert wm.entries == ((None,),)

    def test_copy_from_two_layer_family_has_all_witnesses(self):
        # The t-layer family holds k-fold unions of 2-chains up to binom(2t,t);
        # at t=2 a three-chain copy exists and every witness entry is filled.
        family = construct_mc2_binom(9, 2)
        P = build_poset("3C2")
        emb = find_induced_copy(family, P)
        wm = witness_matrix(emb)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert wm.entries[i][j] is not None

    def test_diagnostic_when_bottom_inside_other_top(self):
        P = build_poset("2C2")
        bogus = Embedding(
            P,
            (
                mask_of([1], 3),
                mask_of([1, 2], 3),
                mask_of([2], 3),
                mask_of([1, 2, 3], 3),
            ),
        )
        with pytest.raises(ValueError):
            witness_matrix(bogus)

    def test_boolean_target_rejected(self):
        family = boolean_family(2)
        emb = find_induced_copy(family, build_poset("B2"))
        assert emb is not None
        with pytest.raises(ValueError):
            witness_matrix(emb)


def test_returned_embeddings_always_verify():
    rng = random.Random(13)
    posets = [build_poset(s) for s in ORACLE_SPECS + ["3C1", "B2"]]
    for _ in range(150):
        n = rng.randint(2, 6)
        family = canonicalize_family(
            [rng.getrandbits(n) for _ in range(rng.randint(0, 14))], n
        )
        for poset in posets:
            emb = find_induced_copy(family, poset)
            if emb is not None:
                assert verify_embedding(family, poset, emb)


def test_embedding_json_shape():
    family = fam(2, [1], [1, 2])
    emb = find_induced_copy(family, C2)
    doc = embedding_to_json(emb)
    assert doc["poset"] == "C2"
    assert doc["images"] == [[1], [1, 2]]
