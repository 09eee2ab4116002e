"""The masked BFS kernel.

The solver spends nearly all of its time running breadth-first searches in
small vertex-masked variants of one input graph.  ``bfs_tree`` is that one
kernel: a scalar loop over the graph's sorted adjacency rows.

BFS explores neighbors in ascending vertex id and fixes parent pointers on
first discovery, which makes the extracted route the lexicographically
smallest shortest path.  That canonical choice is what keeps solver runs,
including search-tree node counts, reproducible.  The kernel walks every
edge of ``adj``: ``search.solve`` takes a direct s-t edge out first.
"""

from __future__ import annotations

__all__ = ["bfs_tree"]


def bfs_tree(adj, blocked, src, target, dist, parent, queue, depth=-1):
    """Masked BFS from ``src`` over the sorted adjacency rows ``adj``.

    ``dist`` must read -1 at every vertex on entry; the kernel does not
    reset it, so that a call costs what it enqueues rather than the size of
    the graph.  It sets ``dist`` of each vertex it enqueues, and ``parent``
    of each enqueued vertex but ``src``; other ``parent`` entries keep
    whatever they held, which is safe because only ancestor chains from an
    enqueued vertex back to ``src`` are ever read.  ``queue`` is scratch of
    the same length and holds the enqueued vertices in discovery order, so
    ``queue[:count]`` with the returned count lists every ``dist`` entry the
    call set.  Vertices with a nonzero ``blocked`` entry are never entered.
    Returns early once ``target`` (negative = none) has been discovered, in
    which case only the target's ancestor chain is guaranteed to be filled.
    A non-negative ``depth`` stops the search at the first dequeued vertex
    at that distance, so only vertices within ``depth`` of ``src`` are
    reached.  Returns the number of vertices enqueued.
    """
    dist[src] = 0
    queue[0] = src
    if src == target:
        return 1
    head = 0
    tail = 1
    while head < tail:
        u = queue[head]
        du = dist[u]
        if du == depth:
            break
        head += 1
        for v in adj[u]:
            if blocked[v] or dist[v] >= 0:
                continue
            dist[v] = du + 1
            parent[v] = u
            queue[tail] = v
            tail += 1
            if v == target:
                return tail
    return tail
