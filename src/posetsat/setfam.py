"""Subsets of [n] as bitmasks, and canonically ordered set families.

A subset of the ground set [n] = {1, ..., n} is stored as an n-bit integer
mask: element i corresponds to bit i-1, so element 1 is the least
significant bit.  A :class:`Family` is a deduplicated tuple of such masks in
canonical order: ascending by (cardinality, numeric mask value).  All
operations here are pure; masks and families are immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable

MAX_GROUND = 64


class FamilyFormatError(ValueError):
    """Family JSON that violates the documented on-disk format."""


def mask_of(elements: Iterable[int], n: int) -> int:
    """Bitmask for a collection of 1-based elements of [n]."""
    m = 0
    for e in elements:
        if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
            raise ValueError(f"element {e!r} outside ground set [1, {n}]")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> list[int]:
    """1-based elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def interval_mask(a: int, b: int) -> int:
    """Mask of the interval [a, b]; empty when a > b."""
    if a > b:
        return 0
    return ((1 << b) - 1) ^ ((1 << (a - 1)) - 1)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def canonical_key(mask: int) -> tuple[int, int]:
    """Sort key giving the canonical family order: (cardinality, value)."""
    return (mask.bit_count(), mask)


def is_subset(a: int, b: int) -> bool:
    """True iff every element of mask a is in mask b."""
    return a & b == a


@dataclass(frozen=True)
class Family:
    """A set family over [n]: deduplicated masks in canonical order.

    Construct through :func:`canonicalize_family` unless the masks are
    already sorted; the constructor validates the invariants and rejects
    out-of-range or misordered input.
    """

    n: int
    sets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND:
            raise ValueError(f"ground size must be in [1, {MAX_GROUND}], got {self.n}")
        limit = 1 << self.n
        prev = None
        for m in self.sets:
            if not 0 <= m < limit:
                raise ValueError(f"mask {m:#x} has bits outside ground set [{self.n}]")
            key = canonical_key(m)
            if prev is not None and key <= prev:
                raise ValueError("sets not in canonical (cardinality, value) order")
            prev = key

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __contains__(self, mask: int) -> bool:
        return mask in self.sets

    def member_lists(self) -> list[list[int]]:
        """Members as ascending 1-based element lists, canonical order."""
        return [elements_of(m) for m in self.sets]


def canonicalize_family(sets: Iterable[int], n: int) -> Family:
    """Deduplicate and sort masks into canonical order.

    Idempotent and insensitive to input order; rejects masks with bits at or
    above position n.
    """
    return Family(n, tuple(sorted(set(sets), key=canonical_key)))


def complement_family(family: Family) -> Family:
    """The family of complements {[n] \\ F : F in family}; an involution."""
    full = full_mask(family.n)
    return canonicalize_family((full ^ m for m in family.sets), family.n)


def family_to_json(family: Family, generator: dict | None = None) -> dict:
    """Family as a JSON-ready dict: ``{"n": ..., "sets": [[elements], ...]}``.

    The optional ``generator`` sidecar records provenance and is ignored by
    the reader.
    """
    doc: dict = {"n": family.n, "sets": family.member_lists()}
    if generator is not None:
        doc["generator"] = generator
    return doc


def family_from_json(doc: object, lenient: bool = False) -> Family:
    """Parse a family document, canonicalizing member order.

    Strict mode (default) rejects duplicate sets and duplicate elements
    within a set; ``lenient`` silently merges them.
    """
    if not isinstance(doc, dict):
        raise FamilyFormatError("family document must be a JSON object")
    if "n" not in doc or "sets" not in doc:
        raise FamilyFormatError('family document needs "n" and "sets" fields')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_GROUND:
        raise FamilyFormatError(f'"n" must be an integer in [1, {MAX_GROUND}]')
    raw = doc["sets"]
    if not isinstance(raw, list):
        raise FamilyFormatError('"sets" must be a list of element lists')
    masks = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list):
            raise FamilyFormatError(f"set #{i} is not a list")
        try:
            m = mask_of(entry, n)
        except ValueError as err:
            raise FamilyFormatError(f"set #{i}: {err}") from err
        if not lenient and m.bit_count() != len(entry):
            raise FamilyFormatError(f"set #{i} repeats an element")
        masks.append(m)
    if not lenient and len(set(masks)) != len(masks):
        raise FamilyFormatError("duplicate sets in input (use lenient mode to merge)")
    return canonicalize_family(masks, n)


def dump_family(family: Family, fp: IO[str], generator: dict | None = None) -> None:
    json.dump(family_to_json(family, generator), fp, indent=1)
    fp.write("\n")


def load_family(fp: IO[str], lenient: bool = False) -> Family:
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as err:
        raise FamilyFormatError(f"not valid JSON: {err}") from err
    return family_from_json(doc, lenient=lenient)
