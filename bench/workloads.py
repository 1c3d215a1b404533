"""Benchmark workloads: seeded inputs, timed operations, expected verdicts.

Every workload is a list of operations.  An operation calls the public API
of ``constructs``, ``posetspec``, ``embed``, ``verify`` or ``solver``, and
its verdict is compared with a pinned expected answer that names its
source.  A seed relabels the ground set of every family by a seeded
permutation (seed 0 is the identity); verdicts are mapped back through the
inverse permutation before they are compared, so the expected answers are
exact on every seed.  Relabeled inputs are only checked, never timed: the
cost of a search depends on the labeling (up to 3x between labelings of
mc2-binom(13,2)), so the timed passes always use the constructed labels.
The check pass spreads its sweeps over the pool to stay short.  The modules
are called through their attributes, so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from posetsat import constructs, embed, posetspec, setfam, solver, verify

PAPER = "paper"
PINNED = "pinned from current code"
POOL_WORKERS = 2


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``run`` gets the raw results of the earlier operations of the pass, by
    name.  ``verdict`` maps the raw result to JSON data in seed-0 labels; it
    runs outside the timing.
    """

    name: str
    run: Callable[[dict], object]
    verdict: Callable[[object], object]
    expected: object
    source: str


class Labels:
    """A seeded relabeling of the ground set [n] and its inverse."""

    def __init__(self, rng: random.Random | None, n: int):
        self.n = n
        self.perm = list(range(n))
        if rng is not None:
            rng.shuffle(self.perm)
        self.inverse = [0] * n
        for i, p in enumerate(self.perm):
            self.inverse[p] = i

    def _map(self, mask: int, perm: list[int]) -> int:
        out = 0
        for i in range(self.n):
            if mask >> i & 1:
                out |= 1 << perm[i]
        return out

    def family(self, fam: setfam.Family) -> setfam.Family:
        return setfam.canonicalize_family(
            [self._map(m, self.perm) for m in fam.sets], self.n)

    def masks(self, lists: list[list[int]]) -> list[int]:
        return [self._map(setfam.mask_of(s, self.n), self.perm) for s in lists]

    def sets_back(self, fam: setfam.Family) -> list[list[int]]:
        return setfam.canonicalize_family(
            [self._map(m, self.inverse) for m in fam.sets], self.n).member_lists()


CONSTRUCTORS = {
    "mck": "construct_mck",
    "mc2-binom": "construct_mc2_binom",
    "2ck-c1": "construct_2ck_c1",
    "b3": "construct_b3",
}


def _family(rng, kind: str, params: tuple) -> tuple[setfam.Family, Labels]:
    base = getattr(constructs, CONSTRUCTORS[kind])(*params)
    labels = Labels(rng, base.n)
    return labels.family(base), labels


def _first_completing(fam: setfam.Family, excluded: list[int]) -> int:
    """First absent subset in canonical order that is not an exception."""
    skip = set(fam.sets) | set(excluded)
    return min((g for g in range(1 << fam.n) if g not in skip),
               key=lambda g: (g.bit_count(), g))


def _sweep_ops(rng, check, label, kind, params, target, expected_sets, source,
               pooled: bool = False) -> list[Op]:
    """Exception sweep of a family; serial sweeps add a freeness check and
    one completing copy, checked by ``verify_embedding``."""
    workers = POOL_WORKERS if pooled or check else 1
    fam, labels = _family(rng, kind, params)
    poset = posetspec.build_poset(target)
    name = f"{label}/{target}"
    sweep = Op(f"{'pooled ' if pooled else ''}sweep {name}",
               lambda r: verify.exceptions(fam, poset, workers=workers),
               labels.sets_back, expected_sets, source)
    if pooled:
        return [sweep]  # the sweep checks freeness itself before it fans out
    g = _first_completing(fam, labels.masks(expected_sets))
    grown = setfam.canonicalize_family(fam.sets + (g,), fam.n)

    def copy_ok(emb) -> bool:
        return (emb is not None and g in emb.assignment
                and embed.verify_embedding(grown, poset, emb))

    return [
        Op(f"free {name}", lambda r: verify.is_induced_p_free(fam, poset),
           bool, True, f"{PAPER}: the construction is {target}-free"),
        sweep,
        Op(f"copy {name}",
           lambda r: embed.find_induced_copy(grown, poset, require=g),
           copy_ok, True, "definition: an absent subset that is not an "
           "exception completes a copy"),
    ]


# Exception sets in seed-0 labels.  The counts are the paper's; the member
# lists themselves are pinned from the current code.
MCK_EXC = [[1, 4, 5], [2, 4, 5]]
MC2_11_EXC = [[1], [2], [3], [4],
              [1, 2, 3, 5, 6, 7, 8, 9, 10, 11],
              [1, 2, 4, 5, 6, 7, 8, 9, 10, 11],
              [1, 3, 4, 5, 6, 7, 8, 9, 10, 11],
              [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]]
SRC_MCK = (f"{PAPER} (acceptance criterion 3): a count constant in n (2 at "
           f"n = 14), within the cap 2^(m+k-1) + 2^(m+k-2) = 48; member lists "
           f"{PINNED}")
SRC_MC2 = f"{PAPER}, README: 8 exceptions for t = 2; member lists {PINNED}"
SRC_SATURATED = f"{PAPER}, README: saturated, 0 exceptions"


# The chain and lattice families are sized so that a pass takes a few
# seconds: a run then repeats every operation several times, and the
# timings report each operation's median over those repetitions.
def chain_sweep(rng, check) -> list[Op]:
    return (_sweep_ops(rng, check, "mck(12,3,3)", "mck", (12, 3, 3), "3C3",
                       MCK_EXC, SRC_MCK)
            + _sweep_ops(rng, check, "mc2-binom(11,2)", "mc2-binom", (11, 2), "7C2",
                         MC2_11_EXC, SRC_MC2)
            + _sweep_ops(rng, check, "2ck-c1(11,4)", "2ck-c1", (11, 4), "2C4+C1", [],
                         SRC_SATURATED))


def lattice_sweep(rng, check) -> list[Op]:
    """Generic-engine work only; its pooled sweep is the benchmark's only
    timed use of the process pool."""
    ops = (_sweep_ops(rng, check, "b3(11)", "b3", (11,), "B3", [], SRC_SATURATED)
           + _sweep_ops(rng, check, "b3(10)", "b3", (10,), "B3", [], SRC_SATURATED,
                        pooled=True))
    for label, kind, params in (("b3(12)", "b3", (12,)),
                                ("mc2-binom(11,2)", "mc2-binom", (11, 2))):
        fam, _labels = _family(rng, kind, params)
        for target in ("B4-", "B4--"):
            poset = posetspec.build_poset(target)
            ops.append(Op(f"free {label}/{target}",
                          lambda r, fam=fam, poset=poset:
                              verify.is_induced_p_free(fam, poset),
                          bool, True, PINNED))
    return ops


# (target, n, sat*): the values are pinned from the current code.
SOLVES = (("2C2", 4, 8), ("3C1", 4, 8), ("B2", 4, 5), ("2C1", 5, 6))
# Solved in the check pass only, once a run: timed as well, it would leave a
# run too few passes for a steady median.
CHECKED_SOLVES = (("2C1+C2", 4, 7),)
SRC_WITNESS = "definition of sat*: the witness is free and has 0 exceptions"
SRC_GREEDY = ("greedy_saturate contract, acceptance criterion 3: "
              "the result is free and has 0 exceptions")


def _solve_ops(target: str, n: int, value: int) -> list[Op]:
    poset = posetspec.build_poset(target)
    name = f"{target} n={n}"
    solve = f"solve {name}"
    return [
        Op(solve, lambda r: solver.sat_star_exact(n, poset),
           lambda res: {"status": res.status, "value": res.value,
                        "witness_size": len(res.witness)},
           {"status": "exact", "value": value, "witness_size": value}, PINNED),
        Op(f"witness free {name}",
           lambda r: verify.is_induced_p_free(r[solve].witness, poset),
           bool, True, SRC_WITNESS),
        Op(f"witness sweep {name}",
           lambda r: verify.exceptions(r[solve].witness, poset),
           setfam.Family.member_lists, [], SRC_WITNESS),
    ]


def _greedy_ops(rng, check, label, kind, params, target) -> list[Op]:
    workers = POOL_WORKERS if check else 1
    fam, labels = _family(rng, kind, params)
    poset = posetspec.build_poset(target)
    name = f"{label}/{target}"
    greedy = f"greedy {name}"
    return [
        Op(greedy, lambda r: verify.greedy_saturate(fam, poset),
           lambda res: set(fam.sets) <= set(res.sets), True,
           "greedy_saturate contract: the result contains the input"),
        Op(f"greedy-result free {name}",
           lambda r: verify.is_induced_p_free(r[greedy], poset),
           bool, True, SRC_GREEDY),
        Op(f"greedy-result sweep {name}",
           lambda r: verify.exceptions(r[greedy], poset, workers=workers),
           labels.sets_back, [], SRC_GREEDY),
    ]


def exact_solve(rng, check) -> list[Op]:
    ops = []
    # The solver takes no family, so a seed has nothing to relabel.
    for target, n, value in CHECKED_SOLVES if check else SOLVES:
        ops += _solve_ops(target, n, value)
    ops += _greedy_ops(rng, check, "mck(11,3,3)", "mck", (11, 3, 3), "3C3")
    ops += _greedy_ops(rng, check, "mc2-binom(12,1)", "mc2-binom", (12, 1), "3C2")
    return ops


WORKLOADS: dict[str, Callable[[random.Random | None, bool], list[Op]]] = {
    "chain-sweep": chain_sweep,
    "lattice-sweep": lattice_sweep,
    "exact-solve": exact_solve,
}


def build(workload: str, seed: int = 0, check: bool = False) -> list[Op]:
    """The workload's operations on inputs relabeled by ``seed`` (0: none).

    ``check`` builds the untimed check pass, whose sweeps use the pool.
    """
    return WORKLOADS[workload](random.Random(seed) if seed else None, check)
