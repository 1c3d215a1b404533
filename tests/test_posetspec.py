import pytest

from posetsat.posetspec import (
    BooleanBase,
    Chain,
    PosetSpec,
    PosetSpecError,
    build_poset,
    make_spec,
    parse_poset_spec,
    render_poset_spec,
)

SPEC_GRID = [
    "C1",
    "C2",
    "C3",
    "2C2",
    "3C2",
    "2C3+C1",
    "C2+C1",
    "7C2",
    "B2",
    "B3",
    "B3-",
    "B4--",
    "B3+C2",
    "2B2",
]


def strict_pair_count(mat):
    """Pairs i != j with i <= j, counted from the reflexive leq rows."""
    return sum(row.bit_count() for row in mat.leq_rows) - mat.size


class TestParse:
    def test_two_chains_plus_single(self):
        spec = parse_poset_spec("2C3+C1")
        assert spec.terms == ((2, Chain(3)), (1, Chain(1)))

    def test_normalization_reorders_and_merges(self):
        assert parse_poset_spec("C2+2C3") == make_spec([(2, Chain(3)), (1, Chain(2))])
        assert parse_poset_spec("C3+C3") == parse_poset_spec("2C3")

    def test_boolean_minus_both(self):
        spec = parse_poset_spec("B4--")
        assert spec.terms == ((1, BooleanBase(4, "empty_and_full")),)
        # Element count oracle: enumerate subsets of [4] without {} and [4].
        subs = [s for s in range(16) if s not in (0, 15)]
        assert spec.element_count() == len(subs) == 14

    def test_whitespace_and_default_count(self):
        assert parse_poset_spec(" 2 C 3 + C1 ") == parse_poset_spec("2C3+C1")

    def test_syntax_error_position(self):
        with pytest.raises(PosetSpecError) as err:
            parse_poset_spec("2C3+X1")
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "0C2", "C0", "B0", "2", "C", "C2+", "C2C3", "C2-", "+C2", "B1--"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(PosetSpecError):
            parse_poset_spec(text)


class TestRender:
    def test_examples(self):
        assert render_poset_spec(make_spec([(2, Chain(3)), (1, Chain(1))])) == "2C3+C1"
        assert render_poset_spec(make_spec([(1, Chain(2))])) == "C2"
        assert render_poset_spec(make_spec([(1, BooleanBase(3))])) == "B3"
        assert render_poset_spec(make_spec([(1, BooleanBase(3, "empty"))])) == "B3-"

    @pytest.mark.parametrize("text", SPEC_GRID)
    def test_parse_render_round_trip(self, text):
        spec = parse_poset_spec(text)
        assert parse_poset_spec(render_poset_spec(spec)) == spec
        # render . parse is idempotent on its image
        canon = render_poset_spec(spec)
        assert render_poset_spec(parse_poset_spec(canon)) == canon


class TestSpecInvariants:
    def test_rejects_unnormalized_terms(self):
        with pytest.raises(ValueError):
            PosetSpec(((1, Chain(2)), (1, Chain(3))))
        with pytest.raises(ValueError):
            PosetSpec(((1, Chain(2)), (1, Chain(2))))

    def test_rejects_empty_and_bad_counts(self):
        with pytest.raises(ValueError):
            PosetSpec(())
        with pytest.raises(ValueError):
            PosetSpec(((0, Chain(2)),))


class TestBuildPoset:
    def test_three_disjoint_two_chains(self):
        mat = build_poset("3C2")
        assert mat.size == 6
        assert strict_pair_count(mat) == 3
        assert mat.chains is not None and len(mat.chains) == 3

    def test_full_cube_pair_count(self):
        mat = build_poset("B3")
        # Oracle: count pairs A strictly inside B over all subsets of [3].
        strict = sum(
            1
            for a in range(8)
            for b in range(8)
            if a != b and a & b == a
        )
        assert strict == 19
        assert mat.size == 8
        assert strict_pair_count(mat) == strict
        assert mat.chains is None

    def test_cube_without_empty_has_singleton_atoms(self):
        mat = build_poset("B3-")
        # Elements ascend by (cardinality, value): 0..2 are the singletons.
        minimal = [
            j for j in range(mat.size)
            if not any(mat.leq(i, j) for i in range(mat.size) if i != j)
        ]
        assert minimal == [0, 1, 2]
        for i in (0, 1, 2):
            for j in (0, 1, 2):
                assert mat.leq(i, j) == (i == j)

    @pytest.mark.parametrize("text", SPEC_GRID)
    def test_matrix_is_partial_order(self, text):
        mat = build_poset(text)
        p = mat.size
        for i in range(p):
            assert mat.leq(i, i)
            for j in range(p):
                if i != j and mat.leq(i, j):
                    assert not mat.leq(j, i)
                for k in range(p):
                    if mat.leq(i, j) and mat.leq(j, k):
                        assert mat.leq(i, k)

    def test_chain_union_sizes(self):
        for m in range(1, 9):
            for k in range(1, 9):
                mat = build_poset(f"{m}C{k}")
                assert mat.size == m * k
                assert len(mat.chains) == m

    def test_element_budget(self):
        build_poset("8C8")  # exactly the budget
        with pytest.raises(PosetSpecError):
            build_poset("9C8")
        with pytest.raises(PosetSpecError):
            build_poset("B7")

    def test_chain_levels_related(self):
        mat = build_poset("C3")
        for i in range(3):
            for j in range(3):
                assert mat.leq(i, j) == (i <= j)

    def test_mixed_spec_has_no_chain_structure(self):
        assert build_poset("B3+C2").chains is None
