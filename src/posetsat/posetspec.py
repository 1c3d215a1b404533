"""Target-poset specifications and their comparability matrices.

A spec string names a disjoint union of incomparable terms, each a chain or
a Boolean-lattice variant::

    spec := term ('+' term)*
    term := [count] base
    base := 'C' int | 'B' int ['-' | '--']

``C3`` is a 3-element chain, ``2C3`` two incomparable copies of it.  ``B4``
is the full lattice of subsets of [4] ordered by inclusion, ``B4-`` drops
the empty set, ``B4--`` drops both the empty and the full set.  Whitespace
is ignored and a missing count means 1.  Normal form lists chain terms by
non-increasing length (then Boolean terms by decreasing size) and merges
repeated bases, so equal posets have equal specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

DROP_NONE = "none"
DROP_EMPTY = "empty"
DROP_EMPTY_AND_FULL = "empty_and_full"

_DROP_SUFFIX = {DROP_NONE: "", DROP_EMPTY: "-", DROP_EMPTY_AND_FULL: "--"}
_DROP_RANK = {DROP_NONE: 0, DROP_EMPTY: 1, DROP_EMPTY_AND_FULL: 2}

MAX_POSET_ELEMENTS = 64


class PosetSpecError(ValueError):
    """Malformed spec text; ``position`` is the 0-based offending offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Chain:
    length: int

    def size(self) -> int:
        return self.length


@dataclass(frozen=True)
class BooleanBase:
    k: int
    drop: str = DROP_NONE

    def size(self) -> int:
        return (1 << self.k) - _DROP_RANK[self.drop]


def _term_key(term: tuple[int, Chain | BooleanBase]):
    base = term[1]
    if isinstance(base, Chain):
        return (0, -base.length)
    return (1, -base.k, _DROP_RANK[base.drop])


@dataclass(frozen=True)
class PosetSpec:
    """Normalized multiset of (count, base) terms; total size >= 1."""

    terms: tuple[tuple[int, Chain | BooleanBase], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("poset spec needs at least one term")
        for count, base in self.terms:
            if count < 1:
                raise ValueError("term count must be positive")
            if isinstance(base, Chain):
                if base.length < 1:
                    raise ValueError("chain length must be positive")
            elif isinstance(base, BooleanBase):
                if base.k < 1:
                    raise ValueError("Boolean lattice size must be positive")
                if base.drop not in _DROP_RANK:
                    raise ValueError(f"unknown drop mode {base.drop!r}")
            else:
                raise ValueError(f"unknown base {base!r}")
        keys = [_term_key(t) for t in self.terms]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("terms not in normal form (sorted, bases merged)")
        if self.element_count() < 1:
            raise ValueError("poset has no elements")

    def element_count(self) -> int:
        return sum(count * base.size() for count, base in self.terms)

    def is_chain_union(self) -> bool:
        return all(isinstance(base, Chain) for _, base in self.terms)


def make_spec(terms: list[tuple[int, Chain | BooleanBase]]) -> PosetSpec:
    """Normalize arbitrary (count, base) terms into a PosetSpec."""
    merged: dict[Chain | BooleanBase, int] = {}
    for count, base in terms:
        merged[base] = merged.get(base, 0) + count
    normal = sorted(((c, b) for b, c in merged.items()), key=_term_key)
    return PosetSpec(tuple(normal))


def parse_poset_spec(text: str) -> PosetSpec:
    """Parse spec text into normal form; raises PosetSpecError with position."""
    terms: list[tuple[int, Chain | BooleanBase]] = []
    i, end = 0, len(text)

    def skip_ws(j: int) -> int:
        while j < end and text[j].isspace():
            j += 1
        return j

    def read_int(j: int) -> tuple[int, int]:
        start = j
        while j < end and text[j].isdigit():
            j += 1
        if j == start:
            raise PosetSpecError("expected a number", start)
        return int(text[start:j]), j

    i = skip_ws(i)
    if i == end:
        raise PosetSpecError("empty poset spec", 0)
    while True:
        i = skip_ws(i)
        count = 1
        if i < end and text[i].isdigit():
            count, i = read_int(i)
            if count == 0:
                raise PosetSpecError("zero count", i - 1)
            i = skip_ws(i)
        if i >= end or text[i] not in "CB":
            raise PosetSpecError("expected 'C' or 'B'", i)
        kind = text[i]
        i = skip_ws(i + 1)
        value, i = read_int(i)
        if value == 0:
            where = i - 1
            raise PosetSpecError(
                "zero chain length" if kind == "C" else "zero lattice size", where
            )
        if kind == "C":
            base: Chain | BooleanBase = Chain(value)
        else:
            drop = DROP_NONE
            if i < end and text[i] == "-":
                drop = DROP_EMPTY
                i += 1
                if i < end and text[i] == "-":
                    drop = DROP_EMPTY_AND_FULL
                    i += 1
            base = BooleanBase(value, drop)
        terms.append((count, base))
        i = skip_ws(i)
        if i == end:
            break
        if text[i] != "+":
            raise PosetSpecError(f"unexpected character {text[i]!r}", i)
        i += 1
    try:
        return make_spec(terms)
    except ValueError as err:
        raise PosetSpecError(str(err)) from err


def render_poset_spec(spec: PosetSpec) -> str:
    """Canonical text for a spec; parse(render(s)) == s."""
    parts = []
    for count, base in spec.terms:
        prefix = "" if count == 1 else str(count)
        if isinstance(base, Chain):
            parts.append(f"{prefix}C{base.length}")
        else:
            parts.append(f"{prefix}B{base.k}{_DROP_SUFFIX[base.drop]}")
    return "+".join(parts)


@dataclass(frozen=True)
class ComparabilityMatrix:
    """Explicit reflexive partial order on elements 0..size-1.

    ``leq_rows[i]`` has bit j set iff element i <= element j.  For pure
    chain-union specs, ``chains`` lists each chain's elements bottom-to-top
    in build order (longest chains first); it is None otherwise.
    """

    size: int
    leq_rows: tuple[int, ...]
    chains: tuple[tuple[int, ...], ...] | None = None
    spec: PosetSpec | None = None

    def leq(self, i: int, j: int) -> bool:
        return self.leq_rows[i] >> j & 1 == 1


def _boolean_element_masks(base: BooleanBase) -> list[int]:
    full = (1 << base.k) - 1
    subs = list(range(full + 1))
    if base.drop in (DROP_EMPTY, DROP_EMPTY_AND_FULL):
        subs.remove(0)
    if base.drop == DROP_EMPTY_AND_FULL:
        subs.remove(full)
    subs.sort(key=lambda m: (m.bit_count(), m))
    return subs


def build_poset(spec: PosetSpec | str) -> ComparabilityMatrix:
    """Materialize the comparability matrix of a spec.

    Elements are numbered term by term in normal-form order; chain elements
    run bottom to top, Boolean-base elements ascend by (cardinality, value)
    of the underlying subset.  Distinct terms are incomparable.
    """
    if isinstance(spec, str):
        spec = parse_poset_spec(spec)
    total = spec.element_count()
    if total > MAX_POSET_ELEMENTS:
        raise PosetSpecError(
            f"poset has {total} elements, above the search budget of "
            f"{MAX_POSET_ELEMENTS}"
        )
    rows = [0] * total
    chains: list[tuple[int, ...]] = []
    offset = 0
    for count, base in spec.terms:
        for _ in range(count):
            if isinstance(base, Chain):
                ids = tuple(range(offset, offset + base.length))
                chains.append(ids)
                for a, i in enumerate(ids):
                    for j in ids[a:]:
                        rows[i] |= 1 << j
                offset += base.length
            else:
                subs = _boolean_element_masks(base)
                for a, sa in enumerate(subs):
                    for b, sb in enumerate(subs):
                        if sa & sb == sa:
                            rows[offset + a] |= 1 << (offset + b)
                offset += len(subs)
    return ComparabilityMatrix(
        size=total,
        leq_rows=tuple(rows),
        chains=tuple(chains) if spec.is_chain_union() else None,
        spec=spec,
    )
