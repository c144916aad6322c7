"""Exact odd clique minor search on small graphs by exhaustive enumeration.

Ground truth for the constructions: `has_odd_clique_minor` decides whether a
certificate of a given order exists, and `odd_hadwiger` computes the exact
odd clique minor number by iterative deepening.

The search enumerates ordered families of pairwise-disjoint connected vertex
subsets in canonical order (each family listed once, subsets sorted by their
minimum vertex).  A subset's usable colorings are those whose bichromatic
internal edges span it connectedly, which is exactly the condition for being
proper on some spanning tree; the pairwise monochromatic-connector
requirement then becomes a small constraint problem over those colorings,
checked with one round of filtering during placement and solved by
backtracking at the leaves.  Everything is deterministic: no randomness, a
fixed enumeration order, and the first model found in that order is the one
reported.

Orbit pruning (after McKay & Piperno, Practical graph isomorphism II, 2014)
cuts the enumeration by the host's automorphisms.  A stabilizer chain of
Aut(G) on the base 0, 1, ..., n-1 is computed once per call.  At a search
node whose placed subsets have largest vertex h, the group fixing 0..h
pointwise fixes every placed subset, so two candidate subsets in one of its
orbits lead to isomorphic subtrees; only the first generated is searched.
A family skipped that way has an image under that group that comes earlier
in the enumeration order, so the first model in that order is never
skipped: certificates are the same as without pruning and refutations stay
exhaustive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .constructions import odd_cycle_model, single_edge_model, singleton_model
from .errors import ParameterError, SearchTimeout
from .expansion import OddExpansionModel, branch_tree, least_monochromatic_edge
from .graphs import Graph, spanning_tree


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one exhaustive run: instance size cap, wall-clock seconds,
    and a search-node ceiling."""

    max_vertices: int = 16
    time_limit: float = 60.0
    node_limit: int = 100_000_000

    def __post_init__(self):
        if self.max_vertices <= 0 or self.time_limit <= 0 or self.node_limit <= 0:
            raise ParameterError("all budget fields must be positive")


@dataclass(frozen=True)
class ExactResult:
    """Outcome of odd_hadwiger.

    status: 'exact', 'lower_bound_only' (instance above the size cap), or
    'timeout' (budget exhausted; value is the best certified order found).
    refutation_order: for exhaustive results, the smallest order whose search
    came up empty; None when exactness is theorem-backed (bipartite or
    edgeless fast paths).
    """

    status: str
    value: int
    certificate: OddExpansionModel
    refutation_order: Optional[int] = None
    nodes: int = 0
    elapsed: float = 0.0


class _Budget:
    """Shared countdown across deepening rounds; the stabilizer chain's
    automorphism search ticks it too."""

    def __init__(self, budget: SearchBudget):
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit
        self.start = time.monotonic()
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise SearchTimeout("node limit exhausted", nodes=self.nodes,
                                elapsed=time.monotonic() - self.start)
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise SearchTimeout("time limit exhausted", nodes=self.nodes,
                                elapsed=time.monotonic() - self.start)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image_tables(perm) -> tuple:
    """Byte lookup tables that map a vertex mask through a permutation:
    the image of a mask is the OR of table[c][byte c of the mask]."""
    tables = []
    for base in range(0, len(perm), 8):
        table = [0] * (1 << min(8, len(perm) - base))
        for byte in range(1, len(table)):
            low = byte & -byte
            table[byte] = table[byte ^ low] | 1 << perm[base + low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


class _StabilizerChain:
    """The host's bitmask adjacency and its automorphism group, as a
    stabilizer chain on the base 0, 1, ..., n-1.

    levels[k] holds the generators found at level k: automorphisms that fix
    0..k-1 and move k.  The group fixing 0..k-1 pointwise is generated by the
    generators of levels k..n-1; orbit_sizes[k] is the size of k's orbit under
    it, so the product of orbit_sizes is |Aut(G)|.  groups[k] holds those
    generators as `_image_tables`, for k = 0..n (groups[n] is empty).
    """

    def __init__(self, g: Graph, budget: _Budget):
        self.n = g.n
        self.adj = [0] * g.n
        for u, v in g.edges:
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u
        self.levels: list[list[tuple[int, ...]]] = [[] for _ in range(g.n)]
        self.orbit_sizes = [1] * g.n
        self.groups: list[tuple] = [()] * (g.n + 1)
        found: list[tuple[int, ...]] = []  # generators of the levels above k
        tables: tuple = ()
        for k in range(g.n - 1, -1, -1):
            orbit = self._point_orbit(k, found)
            for x in range(k + 1, g.n):
                if x in orbit:
                    continue
                perm = self._automorphism(k, x, budget)
                if perm is not None:
                    self.levels[k].append(perm)
                    found.append(perm)
                    tables += (_image_tables(perm),)
                    orbit = self._point_orbit(k, found)
            self.orbit_sizes[k] = len(orbit)
            self.groups[k] = tables

    @staticmethod
    def _point_orbit(k: int, perms) -> set[int]:
        orbit = {k}
        stack = [k]
        while stack:
            v = stack.pop()
            for perm in perms:
                w = perm[v]
                if w not in orbit:
                    orbit.add(w)
                    stack.append(w)
        return orbit

    def _automorphism(self, k: int, x: int, budget: _Budget) -> Optional[tuple[int, ...]]:
        """An automorphism fixing 0..k-1 and mapping k to x, or None, by
        backtracking over the images of k and then of the other vertices,
        each next one the vertex with the most neighbours already mapped, so
        that adjacency cuts the choices early."""
        adj, n = self.adj, self.n
        everything = (1 << n) - 1
        order = [k]
        domain = (1 << (k + 1)) - 1
        while domain != everything:
            v = max(_bits(everything & ~domain), key=lambda u: (adj[u] & domain).bit_count())
            order.append(v)
            domain |= 1 << v
        image = list(range(n))

        def extend(i: int, domain: int, used: int) -> bool:
            # domain: the vertices mapped so far; used: their images
            if i == len(order):
                return True
            budget.tick()
            v = order[i]
            degree = adj[v].bit_count()
            earlier = 0  # images of v's mapped neighbours
            for u in _bits(adj[v] & domain):
                earlier |= 1 << image[u]
            for w in _bits(1 << x if v == k else everything & ~used):
                if adj[w].bit_count() == degree and adj[w] & used == earlier:
                    image[v] = w
                    if extend(i + 1, domain | 1 << v, used | 1 << w):
                        return True
            return False

        fixed = (1 << k) - 1
        return tuple(image) if extend(0, fixed, fixed) else None


class _Search:
    def __init__(self, g: Graph, r: int, budget: _Budget, chain: _StabilizerChain):
        self.g = g
        self.r = r
        self.n = g.n
        self.budget = budget
        self.adj = chain.adj
        self.groups = chain.groups
        self.full = (1 << g.n) - 1
        # subset mask -> tuple of (ones, ones_nbrs, twos, twos_nbrs)
        self._coloring_cache: dict[int, tuple] = {}
        self._nbr_cache: dict[int, int] = {}

    # -- subset machinery -------------------------------------------------

    def _neighborhood(self, mask: int) -> int:
        out = self._nbr_cache.get(mask)
        if out is None:
            out = 0
            for v in _bits(mask):
                out |= self.adj[v]
            self._nbr_cache[mask] = out
        return out

    def _admissible_colorings(self, mask: int) -> tuple:
        """All usable colorings of a connected subset, as (ones, N(ones),
        twos, N(twos)) tuples; `ones` is the color-1 vertex set."""
        cached = self._coloring_cache.get(mask)
        if cached is not None:
            return cached
        verts = list(_bits(mask))
        k = len(verts)
        out = []
        for pick in range(1 << k):
            ones = 0
            for pos in range(k):
                if pick >> pos & 1:
                    ones |= 1 << verts[pos]
            if self._spans_bichromatic(mask, ones):
                out.append((ones, self._neighborhood(ones) if ones else 0,
                            mask ^ ones, self._neighborhood(mask ^ ones) if mask ^ ones else 0))
        result = tuple(out)
        self._coloring_cache[mask] = result
        return result

    def _spans_bichromatic(self, mask: int, ones: int) -> bool:
        twos = mask ^ ones
        start = mask & -mask
        reach = start
        frontier = start
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                vb = 1 << v
                nxt |= self.adj[v] & (twos if vb & ones else ones)
            nxt &= mask & ~reach
            reach |= nxt
            frontier = nxt
        return reach == mask

    def _connected_subsets(self, anchor: int, allowed: int, max_size: int):
        """Connected subsets of `allowed` containing `anchor`, each exactly
        once, in a fixed depth-first order."""
        adj = self.adj

        def rec(cur, ext, forb, size):
            yield cur
            if size >= max_size:
                return
            cand = ext & ~forb
            local_forb = forb
            while cand:
                vb = cand & -cand
                cand ^= vb
                local_forb |= vb
                v = vb.bit_length() - 1
                new_cur = cur | vb
                new_ext = (ext | (adj[v] & allowed)) & ~new_cur
                yield from rec(new_cur, new_ext, local_forb, size + 1)

        start = 1 << anchor
        yield from rec(start, adj[anchor] & allowed & ~start, 0, 1)

    # -- compatibility ----------------------------------------------------

    @staticmethod
    def _compatible(ca, cb) -> bool:
        # A monochromatic cross edge exists iff some color-1 vertex of one
        # side neighbors a color-1 vertex of the other, or likewise color-2.
        return bool(ca[1] & cb[0]) or bool(ca[3] & cb[2])

    def _filter_new(self, domains, new_dom):
        kept = tuple(c for c in new_dom
                     if all(any(self._compatible(ci, c) for ci in d) for d in domains))
        return kept

    def _filter_old(self, domains, new_dom):
        out = []
        for d in domains:
            kept = tuple(ci for ci in d if any(self._compatible(ci, c) for c in new_dom))
            if not kept:
                return None
            out.append(kept)
        return out

    # -- main recursion ----------------------------------------------------

    def run(self) -> Optional[OddExpansionModel]:
        if self.r > self.n:
            return None
        return self._place(0, [], [], self.full, -1)

    def _place(self, depth, masks, domains, unused, last_anchor):
        if depth == self.r:
            return self._solve_csp(masks, domains)
        remaining = self.r - depth
        anchors = unused & ~((1 << (last_anchor + 1)) - 1)
        # the automorphisms fixing every vertex up to the largest placed one
        group = self.groups[(self.full ^ unused).bit_length()]
        seen: set[int] = set()  # orbits of the subsets generated so far
        for m in _bits(anchors):
            above_mask = ~((1 << (m + 1)) - 1)
            if (unused & above_mask).bit_count() < remaining - 1:
                break  # anchors are ascending; later ones only get worse
            allowed = unused & ~((1 << m) - 1)
            max_size = unused.bit_count() - (remaining - 1)
            for subset in self._connected_subsets(m, allowed, max_size):
                self.budget.tick()
                if group:
                    if subset in seen:
                        continue
                    self._add_orbit(seen, subset, group)
                rest = unused & ~subset
                future = rest & above_mask
                if future.bit_count() < remaining - 1:
                    continue
                if remaining > 1:
                    # every future tree needs its own neighbor of each
                    # placed tree among the still-free high vertices
                    short = False
                    for placed in masks:
                        if (self._neighborhood(placed) & future).bit_count() < remaining - 1:
                            short = True
                            break
                    if short or (self._neighborhood(subset) & future).bit_count() < remaining - 1:
                        continue
                dom = self._admissible_colorings(subset)
                if not dom:
                    continue
                if depth == 0:
                    # fix the anchor's color to 1: global color swap symmetry
                    dom = tuple(c for c in dom if c[0] & (1 << m))
                dom = self._filter_new(domains, dom)
                if not dom:
                    continue
                filtered = self._filter_old(domains, dom)
                if filtered is None:
                    continue
                found = self._place(depth + 1, masks + [subset],
                                    filtered + [dom], rest, m)
                if found is not None:
                    return found
        return None

    @staticmethod
    def _add_orbit(seen: set, mask: int, group) -> None:
        """Add mask's orbit under the group, the closure under its
        generators, to `seen`, which holds whole orbits only."""
        seen.add(mask)
        stack = [mask]
        while stack:
            x = stack.pop()
            for tables in group:
                y = 0
                rest = x
                for table in tables:
                    y |= table[rest & 255]
                    rest >>= 8
                if y not in seen:
                    seen.add(y)
                    stack.append(y)

    def _solve_csp(self, masks, domains):
        r = self.r
        chosen = [None] * r

        def backtrack(k):
            if k == r:
                return True
            for c in domains[k]:
                if all(self._compatible(chosen[i], c) for i in range(k)):
                    chosen[k] = c
                    if backtrack(k + 1):
                        return True
            chosen[k] = None
            return False

        if not backtrack(0):
            return None
        return self._build_model(masks, chosen)

    def _build_model(self, masks, chosen):
        trees = []
        coloring = {}
        for mask, col in zip(masks, chosen):
            ones = col[0]
            verts = list(_bits(mask))
            for v in verts:
                coloring[v] = 1 if (1 << v) & ones else 2
            bi_edges = []
            for u in verts:
                for w in _bits(self.adj[u] & mask):
                    if u < w and coloring[u] != coloring[w]:
                        bi_edges.append((u, w))
            sub = Graph(self.n, frozenset(bi_edges))
            trees.append(branch_tree(verts, spanning_tree(sub, verts)))
        connectors = {(i, j): least_monochromatic_edge(self.g, trees[i], trees[j], coloring)
                      for i in range(len(trees)) for j in range(i + 1, len(trees))}
        return OddExpansionModel(tuple(trees), coloring, connectors)


def has_odd_clique_minor(g: Graph, r: int,
                         budget: Optional[SearchBudget] = None) -> Optional[OddExpansionModel]:
    """Search exhaustively for an order-r certificate.

    Returns a passing model, or None when the whole canonical enumeration
    was exhausted without one.  Raises SearchTimeout when the budget runs
    out first, which is a distinct outcome from absence.
    """
    if r < 1:
        raise ParameterError(f"order must be >= 1, got {r}")
    budget = budget or SearchBudget()
    if g.n > budget.max_vertices:
        raise ParameterError(
            f"instance has {g.n} vertices, above the budget cap {budget.max_vertices}; "
            f"pass an extended budget to search anyway")
    shared = _Budget(budget)
    return _Search(g, r, shared, _StabilizerChain(g, shared)).run()


def odd_hadwiger(g: Graph, budget: Optional[SearchBudget] = None) -> ExactResult:
    """Exact odd clique minor number with certificate.

    Fast paths: an edgeless graph has value 1, and a graph with an edge but
    no odd cycle (`odd_cycle_model` returns None, so it is bipartite) has
    value 2, both without search.  Otherwise the odd cycle's certificate
    gives at least 3; instances within the size cap run iterative deepening
    until some order is exhaustively refuted.
    """
    if g.n < 1:
        raise ParameterError("graph has no vertices")
    budget = budget or SearchBudget()
    t0 = time.monotonic()
    if g.m == 0:
        return ExactResult("exact", 1, singleton_model(g), None, 0,
                           time.monotonic() - t0)
    cycle_cert = odd_cycle_model(g)
    if cycle_cert is None:
        return ExactResult("exact", 2, single_edge_model(g), None, 0,
                           time.monotonic() - t0)
    if g.n > budget.max_vertices:
        return ExactResult("lower_bound_only", 3, cycle_cert, None, 0,
                           time.monotonic() - t0)
    shared = _Budget(budget)
    best_value, best_cert = 3, cycle_cert
    try:
        chain = _StabilizerChain(g, shared)
        for r in range(3, g.n + 1):
            model = _Search(g, r, shared, chain).run()
            if model is None:
                return ExactResult("exact", best_value, best_cert, r,
                                   shared.nodes, time.monotonic() - t0)
            best_value, best_cert = r, model
    except SearchTimeout:
        return ExactResult("timeout", best_value, best_cert, None,
                           shared.nodes, time.monotonic() - t0)
    return ExactResult("exact", best_value, best_cert, g.n + 1,
                       shared.nodes, time.monotonic() - t0)
