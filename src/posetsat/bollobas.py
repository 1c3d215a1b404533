"""Set-pair systems: Bollobás and skew-Bollobás checks and the binomial cap.

A set-pair system is a sequence of pairs (X_i, Y_i) of disjoint subsets of
[n].  It is a Bollobás system when X_i meets Y_j for every i != j, and a
skew Bollobás system when that holds for every i < j (so the property is
order-sensitive, and every Bollobás system is skew).  A skew system with
|X_i| <= a and |Y_i| <= b has at most binom(a+b, a) pairs.

The transform below takes the (bottom, top-complement) pairs read off an
induced union of 2-chains inside a complement-closed two-layer family and
shrinks both sides to the window [2t], reordering pairs by bottom class so
the shrunken system is still skew; combined with the binomial cap this
machine-checks why such a family cannot hold binom(2t,t)+1 disjoint
2-chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .embed import Embedding, verify_embedding
from .setfam import (
    MAX_GROUND,
    Family,
    elements_of,
    full_mask,
    interval_mask,
    mask_of,
)


class PairSystemError(ValueError):
    """Invalid set-pair system; ``index`` points at the offending pair."""

    def __init__(self, message: str, index: int | None = None):
        if index is not None:
            message = f"pair #{index}: {message}"
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class SetPairSystem:
    """Ordered pairs (X_i, Y_i) of masks over [n]; X_i and Y_i disjoint."""

    n: int
    pairs: tuple[tuple[int, int], ...]


def validate_disjoint(system: SetPairSystem) -> None:
    for i, (x, y) in enumerate(system.pairs):
        if x & y:
            raise PairSystemError("X and Y intersect", index=i)


def is_bollobas(system: SetPairSystem) -> bool:
    """X_i meets Y_j for all i != j."""
    validate_disjoint(system)
    pairs = system.pairs
    for i, (x, _) in enumerate(pairs):
        for j, (_, y) in enumerate(pairs):
            if i != j and x & y == 0:
                return False
    return True


def is_skew_bollobas(system: SetPairSystem) -> bool:
    """X_i meets Y_j for all i < j; depends on pair order."""
    validate_disjoint(system)
    pairs = system.pairs
    for i in range(len(pairs)):
        x = pairs[i][0]
        for j in range(i + 1, len(pairs)):
            if x & pairs[j][1] == 0:
                return False
    return True


def bollobas_bound(a: int, b: int) -> int:
    """binom(a+b, a): the size cap for skew systems with |X|<=a, |Y|<=b."""
    if a < 0 or b < 0:
        raise ValueError("bounds must be nonnegative")
    return math.comb(a + b, a)


def extract_pair_system(family: Family, embedding: Embedding) -> SetPairSystem:
    """Read the pairs (B_i, complement of T_i) off a union-of-2-chains copy.

    B_i and T_i are the bottom and top image of chain i; pairs come in
    chain order and are disjoint because B_i sits inside T_i.
    """
    chains = embedding.poset.chains
    if chains is None or any(len(c) != 2 for c in chains):
        raise PairSystemError("embedding target is not a union of 2-chains")
    if not verify_embedding(family, embedding.poset, embedding):
        raise PairSystemError("not a valid induced embedding into the family")
    full = full_mask(family.n)
    pairs = tuple(
        (embedding.assignment[c[0]], full ^ embedding.assignment[c[1]])
        for c in chains
    )
    return SetPairSystem(family.n, pairs)


def classify_bottom(mask: int, n: int, t: int) -> int | None:
    """Class 1..5 of a 2-chain bottom inside the two-layer family, or None.

    The classes, in order: t-subsets of [2t]; t-subsets of [2t+1] through
    2t+1; complements of (t+1)-subsets of [2t+1] through 2t+1; (t+1)-subsets
    of [2t+1] through 2t+1; complements of (t+2)-subsets of [2t].
    """
    window = interval_mask(1, 2 * t + 1)
    low = interval_mask(1, 2 * t)
    pivot = 1 << (2 * t)
    size = mask.bit_count()
    if size == t and mask & low == mask:
        return 1
    if size == t and mask & window == mask and mask & pivot:
        return 2
    comp = full_mask(n) ^ mask
    if not mask & pivot and comp & window == comp and comp.bit_count() == t + 1:
        return 3
    if size == t + 1 and mask & window == mask and mask & pivot:
        return 4
    if comp & low == comp and comp.bit_count() == t + 2:
        return 5
    return None


def transform_mc2_pairs(system: SetPairSystem, t: int) -> SetPairSystem:
    """Shrink an extracted system to the window [2t], reordered by class.

    Pairs are stably sorted by the class of their bottom X_i; classes 1-2
    keep X_i and restrict Y_i to [2t], the rest restrict X_i instead.  The
    output has |X_i| <= t and |Y_i| <= t and stays skew when the input came
    from a genuine induced union of 2-chains in the two-layer family.
    Raises if some bottom fits no class.
    """
    low = interval_mask(1, 2 * t)
    classed = []
    for i, (x, y) in enumerate(system.pairs):
        cls = classify_bottom(x, system.n, t)
        if cls is None:
            raise PairSystemError(
                "bottom set fits none of the five bottom classes "
                "(not a copy inside the two-layer family)",
                index=i,
            )
        classed.append((cls, x, y))
    classed.sort(key=lambda item: item[0])
    out = tuple(
        (x, y & low) if cls <= 2 else (x & low, y) for cls, x, y in classed
    )
    return SetPairSystem(system.n, out)


def pair_system_to_json(system: SetPairSystem) -> dict:
    return {
        "n": system.n,
        "pairs": [
            {"x": elements_of(x), "y": elements_of(y)} for x, y in system.pairs
        ],
    }


def pair_system_from_json(doc: object) -> SetPairSystem:
    if not isinstance(doc, dict) or "n" not in doc or "pairs" not in doc:
        raise PairSystemError('pair-system document needs "n" and "pairs"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_GROUND:
        raise PairSystemError(f'"n" must be an integer in [1, {MAX_GROUND}]')
    pairs = []
    raw = doc["pairs"]
    if not isinstance(raw, list):
        raise PairSystemError('"pairs" must be a list')
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "x" not in entry or "y" not in entry:
            raise PairSystemError('needs "x" and "y" element lists', index=i)
        try:
            pairs.append((mask_of(entry["x"], n), mask_of(entry["y"], n)))
        except (TypeError, ValueError) as err:
            raise PairSystemError(str(err), index=i) from err
    return SetPairSystem(n, tuple(pairs))
