"""Induced-copy search: embed a target poset into a set family.

An induced copy of a target P inside a family F is an injective assignment
b of poset elements to members of F with p <= q in P if and only if
b(p) is a subset of b(q); incomparable elements must map to incomparable
sets.  Two engines implement the search behind one interface, ``find``
and ``find_containing``, each giving a copy's images in poset-element
order.  A ``CopySearch`` holds one of them, picked from its target:

* The generic engine is a forward-checking backtracker over one candidate
  domain per poset element, kept as a bitset over family indices.  A
  domain starts as the members with at least as many members above, below
  and apart as the element has in the target (a copy is injective).
  Placing an image ANDs the index row of its relation into the domain of
  every unplaced element, so a domain holds exactly the images that match
  everything placed, and an image that empties one is rejected at once.
  The element with the smallest domain is placed next.  It handles any
  target and serves every one that is not a pure chain union, the
  Boolean-lattice ones included.

* The chain engine serves every pure chain-union target.  Two chains are
  fully cross-incomparable exactly when each bottom escapes the other's
  top, so a chain is summarized by its (bottom, top) pair; the engine
  enumerates realizable interval nodes via bitset level sets (level j above
  a member holds the members on a chain of at least j + 2 sets from it,
  each level one gather of the one before) and picks one node per target
  chain, shortest chains first, shrinking a compatibility bitset as it
  goes.  Three prunings, each sound by a dominance or symmetry argument,
  keep it small.  Before each step down it colours the pool of candidates
  for the remaining chains greedily into classes of pairwise incompatible
  nodes; the remaining picks are pairwise compatible, one per class at
  most, so fewer classes than remaining chains cut the subtree, and in a
  tail of equal chains the next pick branches only on the nodes left
  outside the first classes.  Taking the shortest chains first leaves a
  uniform tail for the colouring: after the C1 pick of 2C_k+C1, the two
  k-chains.  A search pinned at a new member g tries, for g's own chain,
  only the endpoint classes whose longest chain through g has exactly the
  chain's length: any longer class can step an end towards g and only widen
  its pool.  A search for any copy makes its first pick once per orbit of
  the family's twin group, judged by the node's top.  This is what makes
  exhaustive negative verdicts (freeness proofs, exception sweeps) fast on
  families full of long chains.  A node's clashes are read from two rows
  per member, with no table over pairs of nodes, so it has no cap on their
  number.  Nodes are ordered by (top, bottom), and a build appends each
  top's nodes in turn.  The engine grows by appending unless a new member
  lies under an old one: an old member's chains then stay as they were, so
  the new tops' nodes, read from the grown family, come last, with no
  rebuild.  Members added in canonical order (by size, then value) lie
  under none before them, as the exact solver adds them.

Both engines read one containment index of the family: for each member,
the members above it and those below it, as bitsets over family indices
(the rest are apart), and for each ground element, the members that hold
it, so a new set's relation to every member is O(n) column reads.  It is
built by adding the members in turn, each in O(|F|), the way a searcher
grows by a member, and it keeps the family's twin classes, computed once.

A searcher reuses the copies it finds.  Lemma: let X be an induced copy in
F ∪ {g} that uses g, F′ ⊇ F, and g′ absent from F′.  If g′ stands in the
same relation to every other image of X as g does (inside g, containing g,
or apart from it), then X − g + g′ is an induced copy in F′ ∪ {g′}: the
other images are members of F′ and keep their relations to one another
and, by the hypothesis, to g′, which is none of them.  With g′ = g, a set
that completes a copy keeps completing one as the family grows.  The test
is ``need ⊆ g′ ⊆ room`` and g′ incomparable to each image in ``apart``,
where ``need`` is the union of the images inside g, ``room`` the
intersection of those containing g (unbounded when there are none), and
``apart`` the rest; an image inside g′ is a member and g′ is not, so it
lies strictly inside.  The triple is a *certificate*.  ``completes``
stores one for each copy it finds and answers a set that one covers with
no search; ``with_member`` hands the grown searcher a copy of the store.
``find`` and ``find_containing`` never read it, so their answers do not
depend on what was asked before.

Chains of equal length are interchangeable, and the chain engine never
searches a copy's equal chains in two orders.  Its first pick and the picks
between equal slots of a mixed tail take their interval nodes in ascending
order.  Inside a tail where every remaining slot has one length, each depth
drops a node from its candidates once it has been tried, and branches only
on the nodes its colouring bound left outside the first classes
(``_ChainEngine._solve``).  Either rule removes a factorial blowup without
changing whether a copy exists.  The generic engine does not break this
symmetry.  No search runs it on a chain target, but the tests do, as
the chain engine's reference: there it finds a copy exactly when the chain
engine does, possibly a different one, and a target with many equal
chains costs it more search.
Every search carries a node budget and raises
:class:`BudgetExceededError` when it runs out, which callers must keep
distinct from "no copy".
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from .posetspec import ComparabilityMatrix, render_poset_spec
from .setfam import Family, elements_of, is_subset

DEFAULT_NODE_BUDGET = 50_000_000

_LT, _GT, _INC = 0, 1, 2


class BudgetExceededError(RuntimeError):
    """Search ran out of nodes before reaching a verdict.

    Sweeps that abort midway attach what they had: ``partial`` holds the
    results gathered so far, and ``candidate`` the subset whose search ran
    out.
    """

    def __init__(
        self,
        message: str = "node budget exceeded",
        partial: object = None,
        candidate: int | None = None,
    ):
        super().__init__(message)
        self.partial = partial
        self.candidate = candidate


@dataclass(frozen=True)
class Embedding:
    """Images of poset elements, indexed like the comparability matrix."""

    poset: ComparabilityMatrix
    assignment: tuple[int, ...]


@dataclass(frozen=True)
class WitnessMatrix:
    """Incomparability witnesses for a chain-union embedding.

    ``entries[i][j]`` (i != j) is the smallest element of B_i \\ T_j, where
    B_i is the image of chain i's minimum and T_j the image of chain j's
    maximum; the diagonal is None.
    """

    chain_count: int
    entries: tuple[tuple[int | None, ...], ...]


class _FamilyIndex:
    """Containment index of distinct masks: two rows and the element columns.

    ``up[i]`` holds j iff masks[i] is a proper subset of masks[j], and
    ``down[i]`` the mirror; members are distinct, so the members apart
    from i are the rest, less i itself.  ``cols[e]`` holds the members that
    contain ground element e, so the members below and above any set are
    O(n) column reads.  One step, ``_add``, grows all three by a member:
    the constructor adds the members in turn, and ``extended`` adds one to
    copies.  A member given twice raises ValueError.
    """

    __slots__ = ("masks", "up", "down", "cols", "all_bits", "_twins")

    def __init__(self, masks: tuple[int, ...]):
        self.masks: tuple[int, ...] = ()
        self.up: list[int] = []
        self.down: list[int] = []
        self.cols: list[int] = []
        self.all_bits = 0
        self._twins: tuple[int, list[int]] | None = None
        for g in masks:
            self._add(g)

    def relation_to(self, g: int) -> tuple[int, int]:
        """Bitsets of the members strictly below g and strictly above g.

        A member lies inside g when it holds no element outside g, and
        contains g when it holds every element of g: O(n) column reads.
        Raises ValueError if g is already a member.
        """
        above, outside, rest = self.all_bits, 0, g
        for col in self.cols:
            if rest & 1:
                above &= col
            else:
                outside |= col
            rest >>= 1
        if rest:  # g holds an element that no member holds
            above = 0
        below = self.all_bits & ~outside
        if below & above:
            raise ValueError(f"{g:#x} is already a member of the family")
        return below, above

    def _add(self, g: int, relation: tuple[int, int] | None = None) -> None:
        """Grow the index by member g in place: g's relations are O(n)
        column reads, unless ``relation_to(g)`` is given, then g's bit goes
        into each related row and each column of an element of g.  Raises
        ValueError if g is a member."""
        below, above = relation or self.relation_to(g)
        bit = 1 << len(self.masks)
        for row, sel in ((self.up, below), (self.down, above)):
            while sel:
                low = sel & -sel
                sel ^= low
                row[low.bit_length() - 1] |= bit
        self.up.append(above)
        self.down.append(below)
        cols = self.cols
        cols.extend([0] * (g.bit_length() - len(cols)))
        rest = g
        while rest:
            low = rest & -rest
            cols[low.bit_length() - 1] |= bit
            rest ^= low
        self.masks += (g,)
        self.all_bits |= bit

    def extended(self, g: int, relation: tuple[int, int] | None = None) -> "_FamilyIndex":
        """Index for masks + (g,); raises ValueError if g is a member.
        ``relation``, if given, is ``relation_to(g)``, already read."""
        out = object.__new__(_FamilyIndex)
        out.masks, out.all_bits, out._twins = self.masks, self.all_bits, None
        out.up, out.down, out.cols = self.up[:], self.down[:], self.cols[:]
        out._add(g, relation)
        return out

    def twin_classes(self, n: int | None = None) -> list[int]:
        """Masks of the twin classes of [n], ordered by their lowest element.

        Ground elements i and j are twins when swapping them maps the family
        onto itself, that is, when the swap takes every member holding i but
        not j to a member: the members holding j but not i must be as many,
        and the swap maps them back.  Twin-ness is transitive, so each
        element is compared with the first element of every class so far,
        one pair of columns each.

        ``n`` must be at least the bit length of every member, else
        ValueError: a smaller ground would drop elements.  The classes are
        computed once.  Without ``n``, those already computed for any
        ground are returned, else those of the smallest ground that holds
        every member: the elements past every member are twins of each other
        and of any element no member holds, so every such ground gives the
        members the same orbits.
        """
        twins = self._twins
        if twins is not None and n in (None, twins[0]):
            return twins[1]
        if n is None:
            n = len(self.cols)
        elif n < len(self.cols):
            raise ValueError(f"a member holds an element past the ground set [{n}]")
        masks, members = self.masks, set(self.masks)
        cols = self.cols + [0] * (n - len(self.cols))
        classes: list[int] = []
        for i in range(n):
            col = cols[i]
            for c, cls in enumerate(classes):
                low = cls & -cls
                other = cols[low.bit_length() - 1]
                only = col & ~other
                if only.bit_count() == (other & ~col).bit_count():
                    pair = 1 << i | low
                    if all(masks[j] ^ pair in members for j in _bits(only)):
                        classes[c] = cls | 1 << i
                        break
            else:
                classes.append(1 << i)
        self._twins = (n, classes)
        return classes


class _Certificates:
    """Certificates of the copies a searcher has found (module docstring),
    indexed by ground element like ``_FamilyIndex.cols``: ``need_has[e]``
    and ``room_lacks[e]`` hold the certificates whose ``need`` holds e and
    whose ``room`` lacks it, ``bounded`` those whose ``room`` is finite.
    The columns run to the last element of any ``need`` or finite
    ``room``, so a set holding an element past them fits no bounded one."""

    __slots__ = ("need_has", "room_lacks", "bounded", "apart")

    def __init__(self):
        self.need_has, self.room_lacks, self.bounded = [], [], 0
        self.apart: list[tuple[int, ...]] = []

    def copy(self) -> "_Certificates":
        out = object.__new__(_Certificates)
        out.need_has, out.room_lacks = self.need_has[:], self.room_lacks[:]
        out.bounded, out.apart = self.bounded, self.apart[:]
        return out

    def add(self, g: int, images: tuple[int, ...]) -> None:
        """Store the certificate of a copy in F + {g} whose images use g;
        ``room`` is -1, every element, when no image contains g."""
        need, room, apart = 0, -1, []
        for m in images:
            if m == g:
                continue
            if m & g == m:
                need |= m
            elif m & g == g:
                room &= m
            else:
                apart.append(m)
        bit = 1 << len(self.apart)
        grow = max(need, room).bit_length() - len(self.need_has)  # room -1 adds none
        if grow > 0:  # every bounded certificate's room lacks the new elements
            self.need_has += [0] * grow
            self.room_lacks += [self.bounded] * grow
        for e in range(len(self.need_has)):
            if need >> e & 1:
                self.need_has[e] |= bit
            if not room >> e & 1:
                self.room_lacks[e] |= bit
        if room >= 0:
            self.bounded |= bit
        self.apart.append(tuple(apart))

    def covers(self, g: int) -> bool:
        """Whether a stored copy turns into one in F + {g} that uses g."""
        out_of_interval, rest = 0, g
        for need_has, room_lacks in zip(self.need_has, self.room_lacks):
            out_of_interval |= room_lacks if rest & 1 else need_has
            rest >>= 1
        if rest:  # g holds an element past every column
            out_of_interval |= self.bounded
        fits = ((1 << len(self.apart)) - 1) & ~out_of_interval
        while fits:
            low = fits & -fits
            fits ^= low
            for a in self.apart[low.bit_length() - 1]:
                common = g & a
                if common == g or common == a:
                    break
            else:
                return True
        return False


class _GenericEngine:
    """Forward-checking search for any target, over degree-filtered domains.

    ``rel[i][j]`` is the relation of element i to element j.  ``profiles``
    maps (above, below, apart) -- how many elements lie strictly above i,
    strictly below it and apart from it -- to the bitset of positions that
    have it.  ``find`` and ``find_containing`` return the images of a copy
    in the family ``index`` in poset-element order.
    """

    __slots__ = ("index", "size", "rel", "profiles")

    def __init__(self, index: _FamilyIndex, poset: ComparabilityMatrix):
        p = poset.size
        rows = poset.leq_rows
        rel = [[_INC] * p for _ in range(p)]
        for i in range(p):
            for j in range(p):
                if i == j:
                    continue
                if rows[i] >> j & 1:
                    rel[i][j] = _LT
                elif rows[j] >> i & 1:
                    rel[i][j] = _GT
        profiles: dict[tuple[int, int, int], int] = {}
        for i, row in enumerate(rel):
            key = (row.count(_LT), row.count(_GT), row.count(_INC) - 1)  # not i itself
            profiles[key] = profiles.get(key, 0) | 1 << i
        self.index = index
        self.size = p
        self.rel = rel
        self.profiles = profiles

    def grown(self, index: _FamilyIndex, poset: ComparabilityMatrix) -> "_GenericEngine":
        """The engine over ``index``, this engine's family grown by a member.
        ``rel`` and ``profiles`` depend on the target only, so they are
        shared."""
        out = object.__new__(_GenericEngine)
        out.index, out.size, out.rel, out.profiles = index, self.size, self.rel, self.profiles
        return out

    def domains(self, index: _FamilyIndex) -> list[int]:
        """Starting domain of every position: the members with enough room.

        An induced copy is injective, so the image of a position with a
        elements above it has at least a members above it in the family,
        and likewise below and apart.
        """
        others = len(index.masks) - 1  # every other member is above, below or apart
        degrees = [(u.bit_count(), d.bit_count()) for u, d in zip(index.up, index.down)]
        out = [0] * self.size
        for (above, below, apart), positions in self.profiles.items():
            dom = 0
            for j, (u, d) in enumerate(degrees):
                if u >= above and d >= below and others - u - d >= apart:
                    dom |= 1 << j
            for pos in _bits(positions):
                out[pos] = dom
        return out

    def find(self, budget: list[int]) -> tuple[int, ...] | None:
        """A copy in the family, or None."""
        index = self.index
        res = _run(index, self, budget, self.domains(index))
        return None if res is None else tuple(index.masks[i] for i in res)

    def find_containing(self, g: int, budget: list[int]) -> tuple[int, ...] | None:
        """A copy inside masks + {g} whose image uses g; g is not a member.

        Pins g to each position in turn; the first copy wins.  The domains
        are computed once, and a position whose domain lacks g is skipped
        without trying a candidate.  When g's own counts of members above,
        below and apart fit no position's profile, no domain holds g, and
        the search ends before the index is copied.
        """
        index = self.index
        below, above = index.relation_to(g)
        u, d = above.bit_count(), below.bit_count()
        apart = len(index.masks) - u - d
        for need_up, need_down, need_apart in self.profiles:
            if u >= need_up and d >= need_down and apart >= need_apart:
                break
        else:
            return None
        ext = index.extended(g, (below, above))
        g_bit = 1 << len(self.index.masks)
        start = self.domains(ext)
        for pin_pos, dom in enumerate(start):
            if not dom & g_bit:
                continue
            pinned = start[:]
            pinned[pin_pos] = g_bit
            res = _run(ext, self, budget, pinned)
            if res is not None:
                return tuple(ext.masks[i] for i in res)
        return None


def _run(
    index: _FamilyIndex,
    plan: _GenericEngine,
    budget: list[int],
    domains: list[int],
) -> list[int] | None:
    """Forward-checking backtrack; returns position -> family index, or None.

    ``domains[pos]`` is the bitset of family indices position pos may take;
    a pinned position gets a one-member domain.  The unplaced position with
    the smallest domain goes next, so an empty domain ends the search before
    any candidate is tried.  Placing an image ANDs the index row of its
    relation into the domain of every unplaced position (the apart row is
    every member neither above nor below the image, nor the image itself):
    the domains stay exact for everything placed, and an image that empties
    one is rejected at once.  No row holds its own member, so images stay
    distinct.
    ``budget`` is a one-element list decremented per candidate tried,
    shared across passes.
    """
    rel = plan.rel
    up, down, all_bits = index.up, index.down, index.all_bits
    assigned = [-1] * plan.size
    left = budget[0]

    def extend(doms: list[int], pos: int, free: list[int]) -> bool:
        nonlocal left
        rel_pos = rel[pos]
        cand = doms[pos]
        while cand:
            left -= 1
            if left < 0:
                budget[0] = 0
                raise BudgetExceededError()
            low = cand & -cand
            cand ^= low
            idx = low.bit_length() - 1
            if not free:
                assigned[pos] = idx
                return True
            u, d = up[idx], down[idx]
            rows = (u, d, all_bits & ~(u | d | low))  # indexed by _LT, _GT, _INC
            nxt = doms[:]
            best = -1
            for q in free:
                dom = doms[q] & rows[rel_pos[q]]
                if not dom:
                    break
                nxt[q] = dom
                size = dom.bit_count()
                if best < 0 or size < best_size:
                    best, best_size = q, size
            else:
                assigned[pos] = idx
                if extend(nxt, best, [q for q in free if q != best]):
                    return True
        return False

    first = min(range(plan.size), key=lambda q: domains[q].bit_count())
    found = extend(domains, first, [q for q in range(plan.size) if q != first])
    budget[0] = left
    return assigned if found else None


class _ChainEngine:
    """Interval-node search for pure chain-union targets.

    A k-chain inside the family is represented by its (bottom, top) pair of
    family indices, and the nodes are ordered by (top, bottom).  Bitset
    level sets tell which pairs can host which lengths: level j below a
    member holds the members on a chain of at least j + 2 sets up to it,
    and each level is one gather of the one before.  Cross-incomparability
    of two chains reduces to their extremes: bottom of each must escape the
    top of the other.  So node (b, t)
    clashes with ``nb[t] | nt[b]``, the nodes whose bottom fits in t and
    those whose top contains b, and the nodes compatible with everything
    chosen shrink by one mask per pick.  Memory grows with the nodes times
    the members, never with the nodes squared.  Slots run shortest first.
    Equal chains take their nodes in ascending order at depth 0 and on a
    mixed tail; inside a tail of equal chains each depth branches only on
    the nodes outside the colouring's first classes and drops each node
    once tried.  No pruning changes a verdict: the colouring bound and its
    branching rule (``_solve``) cut only subtrees that hold no copy; a
    pinned search tries only exact-reach endpoint classes (``_g_classes``),
    which dominate every other class; and ``find`` starts only from nodes
    whose top leads its twin orbit, which some copy reaches whenever any
    copy exists.  ``grown`` appends unless a new member lies under an old
    one: the new tops' nodes come last, and every build appends each top's
    nodes through one step (``_add_tops``).
    """

    __slots__ = (
        "index",
        "chains",
        "slots",
        "nodes",
        "all_nodes",
        "len_ok",
        "nb",
        "nt",
        "by_bottom",
        "by_top",
        "clash",
    )

    def __init__(self, index: _FamilyIndex, poset: ComparabilityMatrix):
        self.index = index
        self.chains = poset.chains
        # One slot per target chain, shortest first.
        self.slots = sorted(len(chain) for chain in self.chains)
        self.nodes: list[tuple[int, int]] = []
        self.by_bottom, self.by_top = [], []
        # len_ok[L]: the nodes that can host a chain of L sets, for L = 1
        # and each pair length.
        pair_lengths = sorted({length for length in self.slots if length >= 2})
        self.len_ok = dict.fromkeys([1, *pair_lengths], 0)
        self._add_tops(0)

    def _add_tops(self, old: int) -> None:
        """Append the nodes of each top from member ``old`` on, then read
        the clash rows anew.

        Top t's nodes are (b, t) for each b in level L - 2 below t, L the
        shortest pair length, and (t, t) when a slot is C1, in bottom order.
        A singleton hosts a chain of 1 set, every other node one of L, and a
        node hosts a longer length too when its bottom lies that much deeper.
        ``nb[x]`` holds the nodes whose bottom fits inside member x, ``nt[x]``
        those whose top contains x, and node (b, t) clashes with nb[t] | nt[b].
        """
        index, nodes, by_bottom, by_top = self.index, self.nodes, self.by_bottom, self.by_top
        up, down = index.up, index.down
        nf = len(index.masks)
        len_ok = self.len_ok
        pair_lengths = sorted(len_ok)[1:]  # len_ok is keyed by 1 and the pair lengths
        want_single = self.slots[0] == 1
        deepest = pair_lengths[-1] - 1 if pair_lengths else 0
        by_bottom.extend([0] * (nf - len(by_bottom)))
        for t in range(old, nf):
            # The bottoms of t's chains of L sets: level L - 2 below t.
            levels = _levels(down, down[t], deepest)
            bottoms = levels[pair_lengths[0] - 2] if levels else 0
            first = len(nodes)
            nodes.extend((b, t) for b in _bits(bottoms | want_single << t))
            mine = (1 << len(nodes)) - (1 << first)
            by_top.append(mine)
            for c in range(first, len(nodes)):
                by_bottom[nodes[c][0]] |= 1 << c
            single = by_bottom[t] & mine
            len_ok[1] |= single
            if pair_lengths:
                len_ok[pair_lengths[0]] |= mine & ~single
            for length in pair_lengths[1:]:
                len_ok[length] |= mine & _gather(by_bottom, levels[length - 2])
        self.all_nodes = (1 << len(nodes)) - 1
        self.nb = nb = [_gather(by_bottom, down[x] | 1 << x) for x in range(nf)]
        self.nt = nt = [_gather(by_top, up[x] | 1 << x) for x in range(nf)]
        # A node keeps the two references, and no mask is built per node.
        self.clash = [(nb[t], nt[b]) for b, t in nodes]

    def grown(self, index: _FamilyIndex, poset: ComparabilityMatrix) -> "_ChainEngine":
        """The engine over ``index``: this engine's family grown by the
        members past it, in order.

        Unless a new member lies under an old one, every old top keeps its
        chains, so the nodes so far, their lengths and their order stay;
        the new tops' nodes, read from the grown index, are appended
        (``_add_tops``).  The result equals a fresh build.  Otherwise it is
        built afresh.
        """
        old = len(self.index.masks)
        if any(index.up[t] & ((1 << old) - 1) for t in range(old, len(index.masks))):
            return _ChainEngine(index, poset)
        out = object.__new__(_ChainEngine)
        out.index, out.chains, out.slots = index, self.chains, self.slots
        out.nodes, out.len_ok = self.nodes[:], dict(self.len_ok)
        out.by_bottom, out.by_top = self.by_bottom[:], self.by_top[:]
        out._add_tops(old)
        return out

    def _solve(self, slots: list[int], cand: int, budget: list[int], first: int = -1):
        """Pick one compatible node per slot; returns chosen node ids or None.

        ``slots`` ascend.  ``cand`` holds the nodes every pick must be
        compatible with; ``first`` narrows the picks at depth 0 only.

        Colouring bound: the picks still to make are pairwise compatible
        nodes of a pool, so before the search steps a depth down it splits
        the pool greedily into classes of pairwise incompatible nodes, one
        clash set read per node.  Each class starts from the pool's highest
        node, whose top comes last in member order: in canonical order a
        largest set, which tends to clash with the most nodes, every one
        whose bottom it holds.  Pairwise compatible nodes take one class
        each at most, so fewer classes than remaining slots prune the
        subtree; the colouring stops once the count reaches the slots.

        The pool is every node compatible with ``cand`` and the picks so far
        that can host the next slot, the shortest remaining one.  A step is
        *uniform* when every remaining slot has one length; there the pool
        is the next depth's candidates.  Otherwise the pool is sound:

        * for lengths of at least 2, ``len_ok[L]`` lies inside
          ``len_ok[L']`` when L' <= L, so every remaining pick is in the pool;
        * for a C1 slot the pool holds singletons (b, b) only, and the map
          (b, t) -> (b, b) sends the remaining picks injectively into it and
          keeps them compatible, with each other and with everything the
          search must escape: b lies inside t, so b escapes whatever t
          escapes, and two compatible nodes never share a bottom.

        Branching (Tomita and Seki's MCQ, 2003, for the classes; Carraghan
        and Pardalos, 1990, for dropping a node once tried).  On a uniform
        step whose colouring reaches need - 1 classes with nodes to spare,
        the next depth branches only on the pool nodes left outside those
        classes, and a uniform depth past the first drops each node from
        its candidates once it has been branched on.  Proof: a class holds
        pairwise incompatible nodes, so any ``need`` pairwise compatible
        nodes of the pool include one outside the first need - 1 classes.
        Take the first such node in branch order.  Every node dropped
        before it was branched on earlier, outside the classes, so by that
        choice it is not in the set.  So the rest of the set is in that
        branch's candidates, and by induction on the slots left the branch
        finds a copy.  Only subtrees with no copy are cut, so verdicts do
        not change; node counts and the copy found can.

        Equal slots elsewhere take ascending nodes.  At depth 0 with every
        slot equal the cut lies on the candidates themselves, so every
        deeper pick lies above the first, and the tail search below is
        complete among those nodes.  On a mixed tail the cut lies on the
        next pick only: a later, longer pick may lie below, and cutting the
        candidates loses copies.
        """
        total = len(slots)
        if total == 0:
            return []
        ok = [self.len_ok[length] for length in slots]
        clash = self.clash
        chosen = [0] * total
        avail = [0] * total
        cand_stack = [0] * total
        cand_stack[0] = cand
        avail[0] = cand & ok[0] & first
        depth = 0
        left = budget[0]
        while depth >= 0:
            a = avail[depth]
            if not a:
                depth -= 1
                continue
            left -= 1
            if left < 0:
                budget[0] = 0
                raise BudgetExceededError()
            low = a & -a
            avail[depth] = a ^ low
            v = low.bit_length() - 1
            chosen[depth] = v
            step = depth + 1
            if step == total:
                budget[0] = left
                return chosen
            uniform = slots[depth] == slots[-1]
            if uniform and depth:
                cand_stack[depth] ^= low  # tried: no later pick takes it
            x, y = clash[v]
            nxt = cand_stack[depth] & ~(x | y)
            if uniform and not depth:
                nxt &= -1 << (v + 1)  # every slot equal: all picks above v
            pool = a = nxt & ok[step]
            if slots[step] == slots[depth] and not uniform:
                a &= -1 << (v + 1)  # equal chains in ascending node order
            if not a:
                continue
            need = total - step  # slots left; the colouring counts its classes off
            if need > 1:
                while pool:
                    need -= 1
                    if not need:
                        break
                    q = pool  # grow one class: keep what clashes with all of it
                    while q:
                        c = q.bit_length() - 1  # the highest node: the largest top
                        low = 1 << c
                        pool ^= low
                        x, y = clash[c]
                        q = q & (x | y) ^ low  # a node clashes with itself
                if need:
                    continue
                if slots[step] == slots[-1]:
                    a = pool  # branch only on the nodes outside the classes
            depth = step
            cand_stack[depth] = nxt
            avail[depth] = a
        budget[0] = left
        return None

    def _assemble(self, chosen: list[int], slots: list[int], extra=None):
        """Images in poset-element order; ``extra`` = (g_path, g_slot_length)
        when pinned.

        A node's chain is walked through the levels below its top, built
        here, for a copy already found.
        """
        index = self.index
        paths = []
        for v, length in zip(chosen, slots):
            b, t = self.nodes[v]
            if length == 1:
                paths.append([index.masks[b]])
            else:
                levels = _levels(index.down, index.down[t], length - 2)
                paths.append(_walk(index.masks, b, levels, index.up) + [index.masks[t]])
        if extra is not None:
            g_path, g_len = extra
            paths.append(g_path)
            slots = slots + [g_len]
        # Hand paths back to the original chains, matching lengths.
        by_len: dict[int, list[list[int]]] = {}
        for path, length in zip(paths, slots):
            by_len.setdefault(length, []).append(path)
        assignment = [0] * sum(slots)
        for chain in self.chains:
            for element, mask in zip(chain, by_len[len(chain)].pop()):
                assignment[element] = mask
        return tuple(assignment)

    def find(self, budget: list[int]):
        """A copy's images in poset-element order, or None.

        Depth 0 tries only nodes whose top is the lowest-index member of
        its orbit under the family's twin group; members m and m' share an
        orbit when |m ∩ C| = |m' ∩ C| for every twin class C.  No copy is
        lost.  Each σ in the twin group maps the family onto itself, so it
        maps a copy X to a copy σ(X).  Among these images take one whose
        least top over the chains of the first slot group (the shortest)
        is smallest.  That top leads its orbit, or some τ would send it to
        a lower member, and τσ(X) would beat σ(X).  Nodes are ordered by
        top, and compatible nodes have distinct tops (a bottom lies inside
        its own top, so it cannot escape an equal one), so that top's node
        is the lowest of σ(X)'s first slot group.  Depth 0 still takes
        equal chains in ascending order, so it tries that node, and the
        search below it is complete: it finds a copy whenever one extends
        the first pick with the rest of the first group above it
        (``_solve``), as σ(X) does.
        A pinned search is not symmetric in g and gets no such cut, and
        neither does a one-chain target: its first node tried is already a
        copy, so the cut cannot save a node, and computing the classes
        would cost more than the search.
        """
        index = self.index
        first = -1  # with no twins, every member leads its own orbit
        moving = [] if len(self.slots) == 1 else [
            cls for cls in index.twin_classes() if cls & (cls - 1)
        ]
        if moving:
            fixed = ~sum(moving)
            leaders, seen = 0, set()
            for i, m in enumerate(index.masks):
                orbit = (m & fixed, *[(m & cls).bit_count() for cls in moving])
                if orbit not in seen:
                    seen.add(orbit)
                    leaders |= 1 << i
            first = _gather(self.by_top, leaders)
        chosen = self._solve(self.slots, self.all_nodes, budget, first)
        if chosen is None:
            return None
        return self._assemble(chosen, self.slots)

    def find_containing(self, g: int, budget: list[int]):
        """A copy inside masks + {g} whose image uses g, as ``find`` gives
        it; g is not a member."""
        index = self.index
        down_set, up_set = index.relation_to(g)
        nb_g = _gather(self.by_bottom, down_set)
        nt_g = _gather(self.by_top, up_set)
        # Level j below (above) g: the members on a chain of at least j + 2
        # sets up (down) to g.  One level past the longest slot tells which
        # members reach exactly that far.
        longest = self.slots[-1]
        down_levels = _levels(index.down, down_set, longest)
        up_levels = _levels(index.up, up_set, longest)

        for length in dict.fromkeys(reversed(self.slots)):  # each length once, longest first
            rest_slots = self.slots[:]
            rest_slots.remove(length)
            scored = []
            for d, b, t in self._g_classes(length, down_levels, up_levels):
                cand = self.all_nodes
                cand &= ~(nb_g if t is None else self.nb[t])
                cand &= ~(nt_g if b is None else self.nt[b])
                scored.append((-cand.bit_count(), len(scored), d, b, t, cand))
            scored.sort()  # widest candidate pool first: succeeds soonest
            for _, _, d, b, t, cand in scored:
                budget[0] -= 1
                if budget[0] < 0:
                    budget[0] = 0
                    raise BudgetExceededError()
                chosen = self._solve(rest_slots, cand, budget)
                if chosen is None:
                    continue
                below, above = down_levels[: d - 2], up_levels[: length - 1 - d]
                g_path = self._g_path(g, b, below, t, above)
                return self._assemble(chosen, rest_slots, extra=(g_path, length))
        return None

    @staticmethod
    def _g_classes(length: int, down_levels: list[int], up_levels: list[int]):
        """(d, bottom, top) endpoint classes for g's own chain; None means g.

        A member's reach is the number of sets on its longest chain to g, g
        included, and g as an end reaches 1; a class reaches the sum of its
        ends' reaches less 1, its longest chain through g.  Only the classes
        that reach exactly ``length`` are yielded.  That is enough: a class
        pool is ``~nb[t] & ~nt[b]``, so a lower top or a higher bottom only
        widens it, and a class that reaches further can move its top (or
        bottom) one set towards g along its longest chain, reaching one set
        less with a pool at least as wide.  So an exact-reach class holds a
        copy whenever a longer one does, and a shorter one holds no chain of
        ``length`` sets.  The levels run to ``length - 1`` at least.  The
        split d is the bottom's reach, so the top reaches length + 1 - d.
        """
        if length == 1:
            yield (1, None, None)
            return
        for d in range(1, length + 1):
            tops = _exact_reach(up_levels, length + 1 - d)
            for b in _exact_reach(down_levels, d):
                for t in tops:
                    yield (d, b, t)

    def _g_path(self, g, b, below, t, above):
        """Realize g's chain from the exact-reach class (b, t): from b up to
        g through ``below``, the levels under g that b reaches past, then on
        to t through ``above``."""
        index = self.index
        down_part, up_part = [g], []
        if b is not None:
            down_part = _walk(index.masks, b, below, index.up) + down_part
        if t is not None:
            up_part = _walk(index.masks, t, above, index.down)[::-1]
        return down_part + up_part


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _gather(rows: list[int], members: int) -> int:
    """Union of ``rows[i]`` over the members i in a bitset."""
    out = 0
    while members:
        low = members & -members
        members ^= low
        out |= rows[low.bit_length() - 1]
    return out


def _levels(rows: list[int], first: int, count: int) -> list[int]:
    """``count`` level sets: ``first``, then each one gather of the last.

    With ``first`` the members next to an end point (the down row of a top,
    the members below g) and ``rows`` stepping away from it, level j holds
    the members on a chain of at least j + 2 sets to the end point.
    """
    out = [first]
    for _ in range(count - 1):
        out.append(_gather(rows, out[-1]))
    return out[:count]


def _exact_reach(levels: list[int], reach: int) -> list:
    """Members whose longest chain to the end point has exactly ``reach``
    sets; reach 1 is the end point itself, as None."""
    if reach == 1:
        return [None]
    return list(_bits(levels[reach - 2] & ~levels[reach - 1]))


def _walk(masks: tuple[int, ...], start: int, levels: list[int], step: list[int]) -> list[int]:
    """Masks of ``start`` and one member of each level, the last level first.

    ``start`` lies one level past the last, and each move along ``step``
    rows takes the lowest-indexed member of the next level down, which the
    level sets promise exists.
    """
    path = [masks[start]]
    cur = start
    for level in reversed(levels):
        nxt = step[cur] & level
        if not nxt:
            raise AssertionError("level sets broke their promise")
        cur = (nxt & -nxt).bit_length() - 1
        path.append(masks[cur])
    return path


class CopySearch:
    """Reusable induced-copy searcher bound to one family and one target.

    Holds one engine over the family's containment index, picked from the
    target: the chain engine for pure chain-union targets and the generic
    backtracker for every other.  Both answer ``find`` and
    ``find_containing`` with the images in poset-element order; only
    ``completes`` reads the certificates.  A repeated mask raises
    ValueError.
    """

    def __init__(self, masks: tuple[int, ...], poset: ComparabilityMatrix):
        self.poset = poset
        engine = _GenericEngine if poset.chains is None else _ChainEngine
        self._engine = engine(_FamilyIndex(masks), poset)
        self._certificates = _Certificates()

    @property
    def masks(self) -> tuple[int, ...]:
        return self._engine.index.masks

    def twin_classes(self, n: int) -> list[int]:
        """Masks of the twin classes of [n], ordered by their lowest element.

        ``n`` must be at least the bit length of every member, else
        ValueError.  Computed once per family and shared with the chain
        engine's ``find``.
        """
        return self._engine.index.twin_classes(n)

    def find(self, node_budget: int = DEFAULT_NODE_BUDGET) -> Embedding | None:
        """Some induced copy in the family, or None."""
        images = self._engine.find([node_budget])
        return None if images is None else Embedding(self.poset, images)

    def find_containing(
        self, g: int, node_budget: int = DEFAULT_NODE_BUDGET
    ) -> Embedding | None:
        """Some induced copy in family + {g} that uses g.

        Raises ValueError if g is already a member.
        """
        images = self._engine.find_containing(g, [node_budget])
        return None if images is None else Embedding(self.poset, images)

    def completes(self, g: int, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
        """Whether family + {g}, g not a member (unchecked), has an induced
        copy that uses g.  A set a stored certificate covers does by the
        module docstring's lemma, at no search and no budget; any other goes
        to ``find_containing``, and a copy found is stored."""
        if self._certificates.covers(g):
            return True
        copy = self.find_containing(g, node_budget)
        if copy is None:
            return False
        self._certificates.add(g, copy.assignment)
        return True

    def with_member(self, g: int) -> "CopySearch":
        """Searcher for the family extended by g, on the same kind of engine.

        Raises ValueError if g is already a member.  The index grows in
        O(|F|), and the engine grows over it: the chain engine appends
        unless a new member lies under an old one (``_ChainEngine.grown``),
        and is built afresh otherwise.  Certificates stay valid in every
        superfamily; each grown searcher gets its own copy.
        """
        return self.with_members((g,))

    def with_members(self, gs: Iterable[int]) -> "CopySearch":
        """Searcher for the family extended by each of ``gs`` in turn, as
        ``with_member`` grows it, with one copy of the index, the engine
        and the certificates in all."""
        # Not through __init__, which would build the index from scratch;
        # the exact solver grows a searcher at every accepted prefix.
        index = self._engine.index  # copied once, by its first extension
        for i, g in enumerate(gs):
            if i:
                index._add(g)
            else:
                index = index.extended(g)
        out = object.__new__(CopySearch)
        out.poset = self.poset
        out._engine = self._engine.grown(index, self.poset)
        out._certificates = self._certificates.copy()
        return out


def find_induced_copy(
    family: Family,
    poset: ComparabilityMatrix,
    *,
    require: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    order_seed: int = 0,
) -> Embedding | None:
    """Search the family for an induced copy of the target poset.

    Returns an Embedding or None; deterministic for fixed inputs.  With
    ``require`` set to a member mask, only copies whose image contains that
    member are reported.  ``order_seed`` > 0 shuffles the candidate order
    (seed 0 keeps the canonical order); this samples different copies but
    never changes whether one exists.  Raises BudgetExceededError when the
    node budget runs out before the search is decided.
    """
    masks = family.sets
    if order_seed:
        shuffled = list(masks)
        random.Random(order_seed).shuffle(shuffled)
        masks = tuple(shuffled)
    if require is not None:
        if require not in masks:
            raise ValueError("required mask is not a member of the family")
        rest = tuple(m for m in masks if m != require)
        return CopySearch(rest, poset).find_containing(require, node_budget)
    return CopySearch(masks, poset).find(node_budget)


def verify_embedding(
    family: Family, poset: ComparabilityMatrix, embedding: Embedding
) -> bool:
    """True iff the assignment is injective, inside F, and induced w.r.t. P."""
    images = embedding.assignment
    if len(images) != poset.size:
        raise ValueError(
            f"assignment length {len(images)} does not match poset size {poset.size}"
        )
    members = set(family.sets)
    if any(img not in members for img in images):
        return False
    if len(set(images)) != len(images):
        return False
    for i in range(poset.size):
        for j in range(poset.size):
            if i == j:
                continue
            if poset.leq(i, j) != is_subset(images[i], images[j]):
                return False
    return True


def witness_matrix(embedding: Embedding) -> WitnessMatrix:
    """Extract all pairwise incomparability witnesses from a chain-union copy.

    Entry (i, j) is the smallest element of B_i \\ T_j.  Raises ValueError
    if the target is not a pure chain union, or with a diagnostic if some
    B_i lies inside T_j (the embedding was not induced).
    """
    chains = embedding.poset.chains
    if chains is None:
        raise ValueError("witnesses are defined only for chain-union targets")
    bottoms = [embedding.assignment[c[0]] for c in chains]
    tops = [embedding.assignment[c[-1]] for c in chains]
    m = len(chains)
    entries = []
    for i in range(m):
        row: list[int | None] = []
        for j in range(m):
            if i == j:
                row.append(None)
                continue
            diff = bottoms[i] & ~tops[j]
            if diff == 0:
                raise ValueError(
                    f"chain {i} bottom is contained in chain {j} top: "
                    "no witness exists, embedding is not induced"
                )
            row.append((diff & -diff).bit_length())
        entries.append(tuple(row))
    return WitnessMatrix(m, tuple(entries))


def embedding_to_json(embedding: Embedding) -> dict:
    """Embedding as ``{"poset": spec, "images": [[elements], ...]}``."""
    if embedding.poset.spec is None:
        raise ValueError("embedding's poset carries no spec to name it by")
    return {
        "poset": render_poset_spec(embedding.poset.spec),
        "images": [elements_of(m) for m in embedding.assignment],
    }
