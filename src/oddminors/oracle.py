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

The tree-count rule is the paper's ceiling argument for direct products of
K3 (see `constructions.direct_k3_upper_bound`), made generic.  When a subset
is placed with k trees still to come, those trees lie in the free vertices
above its anchor.  A tree of one vertex must be adjacent to every other
tree, and every other tree has at least 2 vertices; so when fewer than 2k
such vertices are free, the shortfall must be made up by singletons, which
form a clique among the free vertices adjacent to every placed subset.  A
subset without room for such a clique is skipped.  The rule only cuts
subtrees that hold no model, so, as with orbit pruning, the first model in
the enumeration order is never skipped.  A subset's usable colorings come in
swapped pairs, so only the half that gives its largest vertex color 2 is
tested; the swaps of those are listed after them in reverse, which is
exactly the order of a test of every coloring.

Two reformulations cut work, not subtrees.  A subset anchored at m leaves
|allowed| - |subset| free vertices above m, where `allowed` is the free
vertices from m up, and each tree still to come needs one; so subsets are
generated only up to that size.  A larger one would be refused as soon as
it was generated, and every subset its orbit would make the search skip is
as large and anchored no lower, so it is refused too: the same subsets are
searched, in the same order.  Two colorings are compatible when the ones
of one meet N(ones) of the other or likewise for twos; a coloring is
therefore compatible with some member of a domain iff it meets the OR of
the members' N(ones) with its ones or the OR of their N(twos) with its
twos.  One filter, `_filter`, tests against those unions and keeps exactly
the colorings, in the order, that a pairwise test would keep.  It serves
three uses.  It cuts a new domain by the placed ones.  It cuts each placed
domain by the new one: N() comes from a symmetric adjacency, so
compatibility is symmetric.  And at the leaf it gives the colorings of the
next tree compatible with each chosen one, each chosen coloring a domain
of one member.  Neither reformulation changes which families are searched
or in what order, so neither can change the first model.

Placed-tree budgets cut subsets before they are generated.  Each tree still
to come needs its own vertex of N(P) among the free vertices above the
anchor, for every placed tree P, so a subset may hold at most
|N(P) & allowed| - k vertices of N(P); once it holds that many, no further
vertex of N(P) is offered.  Generated, such a subset would fail the
neighbour shortfall check at once, and so would everything that contains
one, since budgets only tighten as a subset grows.  The orbits it would add
to `seen` hold only refused subsets: the automorphisms of the level fix
each placed tree pointwise, so they map N(P) onto itself, and a later image
is anchored no lower, so its `allowed` is no larger.  The subsets that
pass, their order and the first model are therefore those of the search
without budgets.

No domain runs empty, so none is tested for.  A subset generated is
connected, so coloring a BFS tree of it by depth parity is usable, and it
or its swap gives the largest vertex color 2; at the first tree the
anchor's color keeps one of each swapped pair.  Compatibility is
symmetric, and a new domain keeps only colorings with a compatible member
in every placed domain; so once it is non-empty, each placed domain keeps
that member when it is cut to the colorings compatible with some of the
new one.
"""

from __future__ import annotations

import time
from typing import Optional

from .errors import ParameterError, SearchTimeout
from .expansion import (OddExpansionModel, branch_tree, monochromatic_connector,
                        odd_cycle_model, single_edge_model, singleton_model)
from .graphs import Frozen, Graph, spanning_tree


class SearchBudget(Frozen):
    """Limits for one exhaustive run: instance size cap, wall-clock seconds,
    and a search-node ceiling."""

    _fields = ("max_vertices", "time_limit", "node_limit")
    max_vertices: int
    time_limit: float
    node_limit: int

    def __init__(self, max_vertices: int = 16, time_limit: float = 60.0,
                 node_limit: int = 100_000_000):
        # `not x > 0` and not `x <= 0`, so that a NaN is refused too
        if not (max_vertices > 0 and time_limit > 0 and node_limit > 0):
            raise ParameterError("all budget fields must be positive")
        self.__dict__.update(max_vertices=max_vertices, time_limit=time_limit,
                             node_limit=node_limit)


class ExactResult(Frozen):
    """Outcome of odd_hadwiger.

    status: 'exact', 'lower_bound_only' (instance above the size cap), or
    'timeout' (budget exhausted; value is the best certified order found).
    refutation_order: for exhaustive results, the smallest order whose search
    came up empty; None when exactness is theorem-backed (bipartite or
    edgeless fast paths).  elapsed: the call's wall seconds, which `exact`
    prints as `time_s`.
    """

    _fields = ("status", "value", "certificate", "refutation_order", "nodes", "elapsed")
    status: str
    value: int
    certificate: OddExpansionModel
    refutation_order: Optional[int]
    nodes: int
    elapsed: float

    def __init__(self, status: str, value: int, certificate: OddExpansionModel,
                 refutation_order: Optional[int] = None, nodes: int = 0, elapsed: float = 0.0):
        self.__dict__.update(status=status, value=value, certificate=certificate,
                             refutation_order=refutation_order, nodes=nodes, elapsed=elapsed)


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


class _Search:
    """One `has_odd_clique_minor` or `odd_hadwiger` call: the node countdown,
    which the automorphism search ticks too, the host's bitmask adjacency,
    its automorphism group as a stabilizer chain on the base 0, 1, ..., n-1,
    and the caches; `run` searches one order.

    levels[k] holds the generators found at level k: automorphisms that fix
    0..k-1 and move k.  The group fixing 0..k-1 pointwise is generated by the
    generators of levels k..n-1; orbit_sizes[k] is the size of k's orbit under
    it, so the product of orbit_sizes is |Aut(G)|.  groups[k] holds those
    generators as `_image_tables`, for k = 0..n (groups[n] is empty).

    The caches, a subset's usable colorings and a mask's neighbourhood, are
    keyed by a vertex mask and depend on the host alone, so every order
    searched in one call shares them.
    """

    def __init__(self, g: Graph, budget: SearchBudget):
        self.g = g
        self.n = g.n
        self.full = (1 << g.n) - 1
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit
        self.nodes = 0
        self.adj = [0] * g.n
        for u, row in g.rows():
            for v in row:
                self.adj[u] |= 1 << v
                self.adj[v] |= 1 << u
        # subset mask -> tuple of (ones, ones_nbrs, twos, twos_nbrs)
        self._coloring_cache: dict[int, tuple] = {}
        self._nbr_cache: dict[int, int] = {}
        self.levels: list[list[tuple[int, ...]]] = [[] for _ in range(g.n)]
        self.orbit_sizes = [1] * g.n
        self.groups: list[tuple] = [()] * (g.n + 1)
        found: list[tuple[int, ...]] = []  # generators of the levels above k
        tables: tuple = ()
        for k in range(g.n - 1, -1, -1):
            orbit = self._point_orbit(k, found)
            order = self._search_order(k)
            for x in range(k + 1, g.n):
                if x in orbit:
                    continue
                perm = self._automorphism(k, x, order)
                if perm is not None:
                    self.levels[k].append(perm)
                    found.append(perm)
                    tables += (_image_tables(perm),)
                    orbit = self._point_orbit(k, found)
            self.orbit_sizes[k] = len(orbit)
            self.groups[k] = tables

    def tick(self):
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise SearchTimeout("node limit exhausted", nodes=self.nodes)
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise SearchTimeout("time limit exhausted", nodes=self.nodes)

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

    def _search_order(self, k: int) -> list[int]:
        """The order in which `_automorphism` maps the vertices at level k:
        k, then each next one the vertex with the most neighbours among
        0..k and those before it, so that adjacency cuts the choices early."""
        adj, everything = self.adj, self.full
        order = [k]
        domain = (1 << (k + 1)) - 1
        while domain != everything:
            v = max(_bits(everything & ~domain), key=lambda u: (adj[u] & domain).bit_count())
            order.append(v)
            domain |= 1 << v
        return order

    def _automorphism(self, k: int, x: int, order: list[int]) -> Optional[tuple[int, ...]]:
        """An automorphism fixing 0..k-1 and mapping k to x, or None, by
        backtracking over the images of the vertices in `order`, level k's
        `_search_order`."""
        adj, everything = self.adj, self.full
        image = list(range(self.n))

        def extend(i: int, domain: int, used: int) -> bool:
            # domain: the vertices mapped so far; used: their images
            if i == len(order):
                return True
            self.tick()
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
        verts = [1 << v for v in _bits(mask)]
        k = len(verts)
        # A coloring and its swap are usable together, and pick p's swap is
        # pick 2^k - 1 - p: test the picks that leave the top vertex color 2,
        # then list their swaps in reverse, which is the order of all picks.
        # Pick p's ones are pick p & (p - 1)'s plus p's lowest vertex.
        ones_of = [0]
        half = []
        for pick in range(1 << (k - 1)):
            if pick:
                ones_of.append(ones_of[pick & (pick - 1)] | verts[(pick & -pick).bit_length() - 1])
            ones = ones_of[pick]
            if self._spans_bichromatic(mask, ones):
                half.append((ones, self._neighborhood(ones),
                             mask ^ ones, self._neighborhood(mask ^ ones)))
        result = tuple(half) + tuple((c[2], c[3], c[0], c[1]) for c in reversed(half))
        self._coloring_cache[mask] = result
        return result

    def _spans_bichromatic(self, mask: int, ones: int) -> bool:
        adj = self.adj
        twos = mask ^ ones
        reach = frontier = mask & -mask
        while frontier:
            nxt = 0
            while frontier:
                vb = frontier & -frontier
                frontier ^= vb
                nxt |= adj[vb.bit_length() - 1] & (twos if vb & ones else ones)
            frontier = nxt & ~reach
            reach |= frontier
        return reach == mask

    def _connected_subsets(self, anchor: int, allowed: int, max_size: int, budgets):
        """Connected subsets of `allowed` containing `anchor`, each exactly
        once, in a fixed depth-first order: after a subset come, for each of
        its candidates in ascending order, the subset with it added and then
        that one's own extensions.  A candidate once tried is barred from
        the extensions of its later siblings.

        `budgets` holds (mask, limit) pairs, and a subset with more than
        limit vertices in some mask is left out of that order, with every
        subset that contains it."""
        adj = self.adj
        start = 1 << anchor
        # a mask holding `limit` vertices of the subset is exhausted: its
        # other vertices stop being candidates.  `live` keeps the budgets
        # that a larger subset may still exhaust; adding a vertex re-tests
        # only those whose mask holds it.
        exhausted = 0
        live = []
        for mask, limit in budgets:
            held = mask >> anchor & 1
            if held > limit:
                return
            if held == limit:
                exhausted |= mask
            elif limit < max_size:
                live.append((mask, limit))
        yield start
        cand = adj[anchor] & allowed & ~(start | exhausted)
        if max_size <= 1 or not cand:
            return
        # one frame per subset still being extended: the subset, its
        # candidates not yet tried, the vertices barred below it and its
        # exhausted masks.  Its untried candidates are also the part of its
        # extension set that its children may use, so a child's candidates
        # are those plus the new vertex's free neighbours, less the child's
        # exhausted masks.
        stack = [(start, cand, 0, exhausted)]
        while stack:
            cur, cand, barred, exhausted = stack.pop()
            vb = cand & -cand
            cand ^= vb
            barred |= vb
            if cand:
                stack.append((cur, cand, barred, exhausted))
            cur |= vb
            yield cur
            if cur.bit_count() < max_size:
                for mask, limit in live:
                    if mask & vb and (cur & mask).bit_count() >= limit:
                        exhausted |= mask
                cand = (cand | adj[vb.bit_length() - 1] & allowed & ~(cur | barred)) & ~exhausted
                if cand:
                    stack.append((cur, cand, barred, exhausted))

    # -- compatibility ----------------------------------------------------

    @staticmethod
    def _unions(domains) -> list[tuple[int, int]]:
        """Per domain, the ORs of its colorings' N(ones) and N(twos): a
        coloring is compatible with some member of the domain iff its ones
        meet the first or its twos the second."""
        out = []
        for d in domains:
            ones_nbrs = twos_nbrs = 0
            for c in d:
                ones_nbrs |= c[1]
                twos_nbrs |= c[3]
            out.append((ones_nbrs, twos_nbrs))
        return out

    @staticmethod
    def _filter(unions, domain):
        """The colorings of `domain` compatible with some member of every
        domain whose `_unions` are given, in their order."""
        kept = []
        for c in domain:
            ones, twos = c[0], c[2]
            for ones_nbrs, twos_nbrs in unions:
                if not (ones & ones_nbrs or twos & twos_nbrs):
                    break
            else:
                kept.append(c)
        return tuple(kept)

    # -- main recursion ----------------------------------------------------

    def run(self, r: int) -> Optional[OddExpansionModel]:
        """The first order-r model in the enumeration order, or None."""
        self.r = r
        return self._place(0, [], [], [], self.full, self.full, -1)

    def _place(self, depth, masks, domains, nbrs, common, unused, last_anchor):
        """Place tree `depth` and the ones after it.  `nbrs` holds N(placed
        tree) for each placed tree and `common` their intersection."""
        k = self.r - depth - 1  # trees still to place after this one
        anchors = unused & ~((1 << (last_anchor + 1)) - 1)
        # the automorphisms fixing every vertex up to the largest placed one
        group = self.groups[(self.full ^ unused).bit_length()]
        seen: set[int] = set()  # orbits of the subsets generated so far
        unions = self._unions(domains)
        for m in _bits(anchors):
            above_mask = ~((1 << (m + 1)) - 1)
            if (unused & above_mask).bit_count() < k:
                break  # anchors are ascending; later ones only get worse
            allowed = unused & ~((1 << m) - 1)
            # a subset leaves |allowed| - |subset| free vertices above m,
            # and the k future trees need one each; they also need one
            # each in N(P) for every placed tree P, so the subset may take
            # at most |N(P) & allowed| - k vertices of N(P)
            budgets = [(p, (p & allowed).bit_count() - k) for p in nbrs] if k else ()
            for subset in self._connected_subsets(m, allowed, allowed.bit_count() - k, budgets):
                self.tick()
                if group:
                    if subset in seen:
                        continue
                    self._add_orbit(seen, subset, group)
                if k:
                    # every future tree needs its own neighbor of the new
                    # tree among the still-free high vertices
                    future = allowed & ~subset
                    nbr = self._neighborhood(subset)
                    if (nbr & future).bit_count() < k:
                        continue
                    # the tree-count rule: with fewer than two future
                    # vertices per future tree, at least `spare` of those
                    # trees are singletons, pairwise adjacent and adjacent
                    # to every placed tree
                    spare = 2 * k - future.bit_count()
                    if spare > 0 and not self._has_clique(future & nbr & common, spare):
                        continue
                dom = self._admissible_colorings(subset)
                if depth == 0:
                    # fix the anchor's color to 1: global color swap symmetry
                    dom = tuple(c for c in dom if c[0] & (1 << m))
                dom = self._filter(unions, dom)
                if not dom:
                    continue
                # compatibility is symmetric: each placed domain keeps the
                # colorings compatible with some member of the new one
                new = self._unions([dom])
                filtered = [self._filter(new, d) for d in domains]
                if k:
                    found = self._place(depth + 1, masks + [subset], filtered + [dom],
                                        nbrs + [nbr], common & nbr, unused & ~subset, m)
                else:
                    found = self._solve_csp(masks + [subset], filtered + [dom])
                if found is not None:
                    return found
        return None

    def _has_clique(self, cand: int, q: int) -> bool:
        """Whether `cand` holds q pairwise adjacent vertices."""
        if q <= 0:
            return True
        while cand.bit_count() >= q:
            low = cand & -cand
            cand ^= low
            if self._has_clique(cand & self.adj[low.bit_length() - 1], q - 1):
                return True
        return False

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
            # the colorings compatible with each chosen one: the unions of
            # one-member domains
            for c in self._filter([(ci[1], ci[3]) for ci in chosen[:k]], domains[k]):
                chosen[k] = c
                if backtrack(k + 1):
                    return True
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
            sub = Graph(self.n, bi_edges)
            trees.append(branch_tree(verts, spanning_tree(sub, verts)))
        model = OddExpansionModel(tuple(trees), coloring)
        return OddExpansionModel(model.trees, model.coloring, monochromatic_connector(self.g, model))


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
    return _Search(g, budget).run(r)


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
    best_value, best_cert = 3, cycle_cert
    try:
        search = _Search(g, budget)  # the stabilizer chain may time out too
        # run(n + 1) is None without a node: no anchor has n vertices above it
        for r in range(3, g.n + 2):
            model = search.run(r)
            if model is None:
                return ExactResult("exact", best_value, best_cert, r,
                                   search.nodes, time.monotonic() - t0)
            best_value, best_cert = r, model
    except SearchTimeout as e:
        return ExactResult("timeout", best_value, best_cert, None,
                           e.nodes, time.monotonic() - t0)
