"""Labelings that pack a tree family edge-disjointly into looped K_n.

A labeling assigns one permutation of Z_n to each slot of a family.  Slot
k contributes the arcs (sigma_k(v), sigma_k(g_k(v))) of its root-at-k
tree, one per component vertex, the root's arc being a loop.  The
labeling is *complete* when the underlying unordered edges — n loops plus
binomial(n, 2) pairs — are pairwise distinct, i.e. they tile the complete
graph with a loop at every vertex.  Phi(family) is the set of complete
labelings; its members restricted to the components ("essential"
injections) determine membership, the remaining values being free fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._search import search
from .errors import (
    BadSizeError,
    BoundExceededError,
    DimensionMismatchError,
    NotAutomorphismError,
    NotCompleteError,
    OutOfRangeError,
)
from .functree import (
    AugFuncTree,
    AugTreeFamily,
    Mapping,
    check_permutation,
    is_int,
)

# Full enumeration of essential injections is exponential in n.  At the
# essential cap one call takes several seconds: the mixed family
# generate_family(6, "mixed", 3) has 1 215 360 members.  The search lists
# them as checked slot permutations in about 3.3 s of CPU time (12.1 M
# nodes, most of them counted by boundary memo hits; 1 956 distinct slot
# permutations built and checked, shared by all rows), and phi_enumerate,
# which sorts them and holds every member as a Labeling, takes about 9.4 s
# and peaks at 283 MB (Python 3.11.7 on a 2-core machine).
PHI_ESSENTIAL_MAX_N = 6


def _check_slot_count(n: int, sigmas: tuple) -> None:
    if len(sigmas) != n:
        raise DimensionMismatchError(
            f"labeling on Z_{n} needs {n} permutations, got {len(sigmas)}"
        )


@dataclass(frozen=True)
class Labeling:
    """One permutation of Z_n per slot, slot k relabeling tree k."""

    n: int
    sigmas: tuple[Mapping, ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise BadSizeError("a labeling needs at least one vertex")
        sigmas = tuple([check_permutation(s, n) for s in self.sigmas])
        _check_slot_count(n, sigmas)
        object.__setattr__(self, "sigmas", sigmas)

    @classmethod
    def _checked(cls, n: int, sigmas: tuple[Mapping, ...]) -> "Labeling":
        """A labeling whose slots need no second check.

        Precondition: every slot in ``sigmas`` is a tuple that
        ``check_permutation(·, n)`` would return unchanged.  Only the slot
        count is checked here.  The callers are `pack` (through
        `_labeling_from_injections`) and `phi_enumerate`, whose rows the
        engine checked slot by slot as it built them, and `closure_check`
        and `diagonal_relabel`, whose new slots are compositions of
        checked permutations and so permutations too.
        """
        _check_slot_count(n, sigmas)
        lab = object.__new__(cls)
        object.__setattr__(lab, "n", n)
        object.__setattr__(lab, "sigmas", sigmas)
        return lab


@dataclass(frozen=True)
class EdgeOrientation:
    """An orientation of looped K_n: all n loops plus one direction per pair."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.n
        arcs = set()
        edges = set()
        for a, b in self.arcs:
            # int() would truncate (0.7, 0) to the loop (0, 0); the exact
            # type test spares is_int for the engine's own arcs
            exact = type(a) is int and type(b) is int
            if not (exact or (is_int(a) and is_int(b))) or not (0 <= a < n and 0 <= b < n):
                raise NotCompleteError(f"arc ({a!r},{b!r}) outside Z_{n}")
            arcs.add((a, b))
            edges.add((a, b) if a <= b else (b, a))
        object.__setattr__(self, "arcs", frozenset(arcs))
        # a set cannot hold one arc twice, so a repeated edge is a pair
        # oriented both ways
        if len(edges) != len(arcs):
            edge = min((a, b) for a, b in arcs if a < b and (b, a) in arcs)
            raise NotCompleteError(f"edge {edge} oriented both ways")
        want = n * (n + 1) // 2
        if len(edges) != want:
            raise NotCompleteError(
                f"{len(edges)} distinct edges, an orientation of looped K_{n} has {want}"
            )

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)


# =====================================================================
# Completeness
# =====================================================================

def is_complete(
    family: AugTreeFamily, labeling: Labeling, classical: bool = False, *, _tables=None
) -> bool:
    """True iff the labeling's arcs tile looped K_n edge-disjointly.

    The arcs of slot k are the compiled root-at-k arcs of the stored tree,
    so no tree is rebuilt: this is the hot verification path.
    ``classical`` drops the n loops and only asks the binomial(n, 2)
    proper edges to be distinct.

    ``_tables`` are a sweep chunk's `_search.ChunkTables`, passed by
    `solver.pack`.  When their plan's tail is the family's, each tail
    slot's edge mask under its permutation is read from the plan, computed
    on the first labeling that uses that permutation there, and only the
    largest slot is walked arc by arc.  The verdict is the one without
    tables.
    """
    if labeling.n != family.n:
        raise DimensionMismatchError(
            f"labeling on Z_{labeling.n} against family on Z_{family.n}"
        )
    n = family.n
    trees = family.trees
    sigmas = labeling.sigmas
    seen = 0
    plan = None if _tables is None else _tables.plan
    if plan is not None and plan.tail == trees[:-1]:
        # Still an edge-by-edge check of this labeling.  The mask of slot
        # k is a pure function of (tree, sigma, n, classical): the plan's
        # dict for slot k belongs to one tree (`_search._tail_plan` keeps
        # it only while that tree stays, compared by value, and a tree
        # fixes n), there is one list of dicts per mode, and the dict is
        # keyed by sigma.  A clash inside one slot is -1, which always
        # fails: slot 0 has at most one arc, so it is never slot 0's; a
        # tail slot's, or-ed into seen, meets the edges of the next slot,
        # which has a pair arc; the largest slot's fails the sign test.
        # What is left of the check, that the slots' edges are pairwise
        # disjoint, is tested here for this labeling.
        for masks, sig, tree in zip(plan.masks[1 if classical else 0], sigmas, trees):
            m = masks.get(sig)
            if m is None:
                m = masks[sig] = _slot_mask(tree, sig, n, classical)
            if seen & m:
                return False
            seen |= m
        m = _slot_mask(trees[-1], sigmas[-1], n, classical)  # changes every family
        return m >= 0 and not seen & m
    for k in range(n):
        sig = sigmas[k]
        arcs = trees[k].compiled().slot_arcs()
        if classical:
            next(arcs)  # arc 0 is the root's loop
        for a, b in arcs:
            a, b = sig[a], sig[b]
            bit = 1 << (a * n + b if a <= b else b * n + a)  # one bit per edge
            if seen & bit:
                return False
            seen |= bit
    return True


def _slot_mask(tree: AugFuncTree, sig: Mapping, n: int, classical: bool) -> int:
    """The edges one slot's arcs cover under ``sig``, one bit per edge as
    in `is_complete`, or -1 if two of them cover the same edge."""
    arcs = tree.compiled().slot_arcs()
    if classical:
        next(arcs)  # arc 0 is the root's loop
    mask = 0
    for a, b in arcs:
        a, b = sig[a], sig[b]
        bit = 1 << (a * n + b if a <= b else b * n + a)
        if mask & bit:
            return -1
        mask |= bit
    return mask


def orientation(family: AugTreeFamily, labeling: Labeling) -> EdgeOrientation:
    """The arc set of a complete labeling; EdgeOrientation raises
    NotCompleteError on any clash."""
    if labeling.n != family.n:
        raise DimensionMismatchError(
            f"labeling on Z_{labeling.n} against family on Z_{family.n}"
        )
    arcs = frozenset(
        (sig[u], sig[w])
        for tree, sig in zip(family.trees, labeling.sigmas)
        for u, w in tree.compiled().slot_arcs()
    )
    return EdgeOrientation(n=family.n, arcs=arcs)


# =====================================================================
# Phi enumeration
# =====================================================================

def _labeling_from_injections(family: AugTreeFamily, row: tuple[Mapping, ...]) -> Labeling:
    """One engine solution, whose slot permutations the engine checked as
    it built them, as a Labeling.  The name predates those rows; it stays
    because the benchmark's tracer (``perfbench/layers.py``) wraps it."""
    return Labeling._checked(family.n, row)


def full_count_multiplier(n: int) -> int:
    """Members of Phi per essential member: slot k has n - k - 1 values
    outside its component, free in any order, so prod_k (n-k-1)!."""
    return math.prod(math.factorial(n - k - 1) for k in range(n))


def phi_enumerate(family: AugTreeFamily, mode: str = "essential") -> tuple[list[Labeling], int]:
    """All essential members of Phi, sorted, plus their count.

    ``essential``, the only mode, lists labelings up to the free values
    outside each component (each member extends its injections by the
    ascending fill).  Phi itself has count * `full_count_multiplier(n)`
    members.  Bound: n <= PHI_ESSENTIAL_MAX_N (BoundExceededError).
    """
    n = family.n
    if mode != "essential":
        raise ValueError(f"unknown phi_enumerate mode {mode!r}")
    if n > PHI_ESSENTIAL_MAX_N:
        raise BoundExceededError(
            f"phi_enumerate is exhaustive; n={n} exceeds the cap "
            f"{PHI_ESSENTIAL_MAX_N}"
        )
    rows = search(
        family,
        symmetry_pruning=False,
        classical=False,
        first_only=False,
    ).solutions
    rows.sort()
    members = [Labeling._checked(n, row) for row in rows]
    return members, len(members)


# =====================================================================
# Closure checks
# =====================================================================

def closure_check(family: AugTreeFamily, labeling: Labeling, tau, slot: int) -> bool:
    """Does right-composing one slot with a tree symmetry keep completeness?

    ``tau`` must commute with the slot's root-at-k map and fix its
    component setwise (NotAutomorphismError otherwise: a symmetry that
    moved the component would drag the slot's loop off its vertex).  The
    input labeling itself must be complete.
    """
    n = family.n
    tau = check_permutation(tau, n)
    if not is_int(slot) or not 0 <= slot < n:
        raise OutOfRangeError(f"slot {slot!r} outside Z_{n}")
    c = family.trees[slot].compiled()
    g = list(range(n))  # the root-at-slot map
    for v, p in c.slot_arcs():
        g[v] = p
    if any(g[tau[v]] != tau[g[v]] for v in range(n)):
        raise NotAutomorphismError(
            f"permutation does not commute with the slot-{slot} map"
        )
    comp = set(c.slot_vertex)
    if {tau[v] for v in comp} != comp:
        raise NotAutomorphismError(
            f"permutation does not preserve the slot-{slot} component"
        )
    if not is_complete(family, labeling):
        raise NotCompleteError("closure_check needs a complete labeling")
    sig = labeling.sigmas[slot]
    composed = tuple([sig[t] for t in tau])
    sigmas = list(labeling.sigmas)
    sigmas[slot] = composed
    return is_complete(family, Labeling._checked(n, tuple(sigmas)))


def diagonal_relabel(labeling: Labeling, gamma) -> Labeling:
    """Left-compose every slot with one permutation of the vertex labels."""
    gamma = check_permutation(gamma, labeling.n)
    return Labeling._checked(
        labeling.n, tuple(tuple([gamma[x] for x in sig]) for sig in labeling.sigmas)
    )
