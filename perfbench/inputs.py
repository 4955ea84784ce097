"""Seeded inputs and the benchmark's own answer oracles.

Every input a workload feeds the program comes from here, as a pure
function of the run seed.  Graphs have a fixed *shape* (drawn once from
``GRAPH_SHAPE_SEED``) and a per-seed *labelling*: the seed picks fresh
node names and the order the edges are loaded in.  So two seeds give
different inputs of exactly the same size and structure, and the work
counts (model atoms, chase steps and rounds) repeat exactly across runs,
while interning, hashing and iteration orders differ.

The oracles never call into ``repro``: reachability is a breadth-first
search and cycle membership a strongly-connected-components pass over
the benchmark's own copy of the edge set.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: The one seed that fixes every graph's shape (not its labels).
GRAPH_SHAPE_SEED = 20140622


def stream(seed: int, *labels) -> random.Random:
    """An RNG for one named input stream of one run seed."""
    material = repr((seed,) + labels).encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct constant names (bare identifiers in data syntax)."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = f"v{rng.getrandbits(40):010x}"
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


@dataclass(frozen=True)
class Graph:
    nodes: tuple[str, ...]
    #: Edges in load order (the order is part of the seeded input).
    edges: tuple[tuple[str, str], ...]


def graph_shape(nodes: int, edges: int) -> list[tuple[int, int]]:
    """A fixed random digraph on ``range(nodes)``: no loops, no duplicates."""
    rng = stream(GRAPH_SHAPE_SEED, "shape", nodes, edges)
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            out.append((u, v))
    return out


def seeded_graph(seed: int, nodes: int, edges: int, label: str = "graph") -> Graph:
    """The fixed shape, relabelled and reordered by ``seed``."""
    rng = stream(seed, label)
    names = fresh_names(rng, nodes)
    named = [(names[u], names[v]) for u, v in graph_shape(nodes, edges)]
    rng.shuffle(named)
    return Graph(tuple(names), tuple(named))


def edge_text(u: str, v: str) -> str:
    return f"E({u}, {v})"


def database_text(edges) -> str:
    return "\n".join(f"{edge_text(u, v)}." for u, v in edges) + "\n"


def digest(*parts: str) -> str:
    """SHA-256 over the generated inputs, in a fixed order."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def successors(edges) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
    return out


def reach_sets(nodes, edges) -> dict[str, frozenset[str]]:
    """For each node, the nodes it reaches by a path of length >= 1."""
    succ = successors(edges)
    reach: dict[str, frozenset[str]] = {}
    for start in nodes:
        seen: set[str] = set()
        frontier = list(succ.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                frontier.extend(succ.get(node, ()))
        reach[start] = frozenset(seen)
    return reach


def cycle_nodes(nodes, edges) -> frozenset[str]:
    """Nodes on a directed cycle: members of a strongly connected component
    with two or more nodes, or with a self-loop (iterative Tarjan)."""
    succ = successors(edges)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: set[str] = set()
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            node, children = work[-1]
            descended = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ.get(child, ()))))
                    descended = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in succ.get(node, ()):
                    result.update(component)
    return frozenset(result)
