"""Independent reference implementations the tests check against.

These deliberately share no search machinery with the package: copies are
found by trying every |P|-subset of the family against every bijection, and
minimum saturated sizes by enumerating every family over the ground set.
Slow but obviously correct; keep them that way.
"""

from __future__ import annotations

from itertools import combinations, permutations

from posetsat.posetspec import ComparabilityMatrix
from posetsat.setfam import Family, canonical_key


def brute_force_has_copy(masks, poset: ComparabilityMatrix) -> bool:
    """Does any |P|-subset of the masks admit an order-matching bijection?"""
    p = poset.size
    if len(masks) < p:
        return False
    strict = [
        (i, j)
        for i in range(p)
        for j in range(p)
        if i != j and poset.leq(i, j)
    ]
    target_pairs = len(strict)
    for subset in combinations(masks, p):
        # No bijection can match unless the comparable-pair counts agree.
        comparable = 0
        for a, b in combinations(subset, 2):
            if a & b == a or a & b == b:
                comparable += 1
        if comparable != target_pairs:
            continue
        for image in permutations(subset):
            ok = True
            for i in range(p):
                for j in range(p):
                    if i == j:
                        continue
                    wanted = poset.leq(i, j)
                    got = image[i] & image[j] == image[i]
                    if wanted != got:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def brute_force_is_saturated(masks, n: int, poset: ComparabilityMatrix) -> bool:
    members = set(masks)
    if brute_force_has_copy(tuple(members), poset):
        return False
    for g in range(1 << n):
        if g in members:
            continue
        if not brute_force_has_copy(tuple(members | {g}), poset):
            return False
    return True


def brute_force_sat_star(n: int, poset: ComparabilityMatrix) -> tuple[int, Family]:
    """Minimum saturated family by enumerating every subset of 2^[n]."""
    universe = sorted(range(1 << n), key=canonical_key)
    best = None
    for selector in range(1 << len(universe)):
        masks = tuple(
            universe[i] for i in range(len(universe)) if selector >> i & 1
        )
        if best is not None and len(masks) >= best[0]:
            continue
        if brute_force_is_saturated(masks, n, poset):
            best = (len(masks), Family(n, tuple(sorted(masks, key=canonical_key))))
    assert best is not None
    return best


def all_families(n: int):
    """Every family over [n], as mask tuples in canonical order."""
    universe = sorted(range(1 << n), key=canonical_key)
    for selector in range(1 << len(universe)):
        yield tuple(universe[i] for i in range(len(universe)) if selector >> i & 1)


def brute_force_is_self_dual(poset: ComparabilityMatrix) -> bool:
    """Is there a bijection f with i <= j exactly when f(j) <= f(i)?"""
    p = poset.size
    return any(
        all(poset.leq(i, j) == poset.leq(f[j], f[i]) for i in range(p) for j in range(p))
        for f in permutations(range(p))
    )


def brute_force_least_image(masks, n: int, moved: int, self_dual: bool) -> tuple[int, ...]:
    """The least image of a family, in canonical order, under relabeling the
    lowest ``moved`` ground elements (and complementing, if ``self_dual``),
    each image built bit by bit."""
    full, low = (1 << n) - 1, (1 << moved) - 1
    images = []
    for perm in permutations(range(moved)):
        for flip in (0, full) if self_dual else (0,):
            image = [
                (g & ~low | sum(1 << perm[i] for i in range(moved) if g >> i & 1)) ^ flip
                for g in masks
            ]
            images.append(tuple(sorted(image, key=canonical_key)))
    return min(images, key=lambda family: [canonical_key(g) for g in family])
