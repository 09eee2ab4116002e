"""The three search kernels.

The solver spends nearly all of its time running breadth-first searches in
small vertex-masked variants of one input graph.  ``bfs_tree`` is the
kernel of that traffic: a scalar loop over the graph's sorted adjacency
rows, from one source, over a ``bytearray`` mask that it also uses to
record its visits and leaves as it found it.  It serves only the greedy's
path searches, through ``graph.shortest_path_blocked``.  On reduced graphs
the greedy's masked searches enqueue only about 22 vertices per call
(traced search-default) and stop early, so the one-sided loop wins there:
with ``bidir_path`` over the same mask in ``run_greedy`` instead,
search-default ran 21-36% fewer solves per second (two alternating pairs,
2-CPU host).

``bidir_path`` serves the path searches on the whole input graph: the
input-graph step (``preprocess.detect_on_input``) and the CLI's pair
sampling.  On root-batch's G(n, p) graphs (200-400 vertices, average
degree 8) a one-sided search there swept about 230 vertices before it
reached t.  ``bidir_path`` grows the smaller of two frontiers a level at
a time with set operations, over a ``set`` of blocked vertices, so its
callers allocate nothing of graph size.  It cut the step from 207-327 to
43-71 us per root-batch op (seed 0, best of 7 passes, 2-CPU host).

``ball`` gives every distance row: the reduction's balls
(``preprocess.reduce_instance``) and the search's full rows
(``graph.Workspace.distance_row``).  It returns a ball's distances as a
dict, so a reduction costs what its balls hold, at any depth: a ball stops
at its first empty level.  It is a scalar loop too: on search-default's
graphs (100-200 vertices) it ran about 40% faster than set operations per
level.

BFS explores neighbors in ascending vertex id and fixes parent pointers on
first discovery, which makes the extracted route the lexicographically
smallest shortest path; ``bidir_path`` returns that same path.  That
canonical choice is what keeps solver runs, including search-tree node
counts, reproducible.  The kernels walk every edge of ``adj``:
``search.solve`` takes a direct s-t edge out first.
"""

from __future__ import annotations

__all__ = ["bfs_tree", "bidir_path", "ball"]


def bfs_tree(adj, blocked, src, target, parent, queue):
    """Masked BFS from ``src`` towards ``target`` over the sorted adjacency
    rows ``adj``.

    Vertices with a nonzero ``blocked`` entry are never entered, except
    ``src`` itself: its entry is not read, so a search from a blocked source
    gives what it gives from an open one.  The kernel marks each vertex it
    enqueues in ``blocked`` as its visit record, and before it returns it
    clears those marks and restores the entry of ``src``: the mask reads as
    it did on entry, and a call costs what it enqueues rather than the size
    of the graph.  ``queue`` is scratch of the graph's length and holds the
    enqueued vertices in discovery order.  ``parent`` is set for each
    enqueued vertex but ``src``; other entries keep whatever they held,
    which is safe because only ancestor chains from an enqueued vertex back
    to ``src`` are ever read.  The search stops once ``target`` has been
    discovered.  Returns the number ``count`` of vertices enqueued; the
    target was reached exactly when ``queue[count - 1] == target``.
    """
    queue[0] = src
    if src == target:
        return 1
    was = blocked[src]
    blocked[src] = 1
    head = 0
    tail = 1
    while head < tail:
        u = queue[head]
        head += 1
        for v in adj[u]:
            if blocked[v]:
                continue
            blocked[v] = 1
            parent[v] = u
            queue[tail] = v
            tail += 1
            if v == target:
                head = tail  # ends the outer loop too
                break
    # every enqueued vertex read 0 on entry, but src
    for v in queue[:tail]:
        blocked[v] = 0
    blocked[src] = was
    return tail


def bidir_path(adj, blocked, a, b, depth):
    """Lexicographically smallest shortest a-b path over the sorted
    adjacency rows ``adj`` that avoids the ``set`` ``blocked``, as a tuple,
    or None when there is none of length at most ``depth`` (>= 0).  The
    path and the rules are those of :func:`bfs_tree` from
    ``a`` with target ``b`` and parents followed back: ``a`` itself may be
    blocked, a blocked ``b`` is never reached, and a == b gives ``(a,)``.

    The search grows the smaller frontier of the two sides by one whole
    level at a time.  A level's neighbours lie in the level before, the
    level itself or the next, so a new level is the union of its frontier's
    rows minus those two levels and ``blocked``.  Side a grows first, and
    while no level of one side meets the other, the radii sum below
    dist(a, b); so the first new level that meets the other side's last
    level marks the distance, and that meet set holds every vertex of a
    shortest path at its depth from ``a``.  The path is then walked forward
    from ``a`` in ascending id order: on side a over the level vertices that
    reach the meet set back through the levels, on side b over the level
    one closer to ``b``, where every neighbour lies on a shortest path.
    """
    if a == b:
        return (a,)
    if b in blocked:
        return None
    levels_a, levels_b = [{a}], [{b}]
    for _ in range(depth):
        if len(levels_a[-1]) <= len(levels_b[-1]):
            levels, other = levels_a, levels_b[-1]
        else:
            levels, other = levels_b, levels_a[-1]
        level = set()
        for u in levels[-1]:
            level.update(adj[u])
        level.difference_update(*levels[-2:], blocked)
        if not level:
            return None
        levels.append(level)
        meet = level & other
        if meet:
            break
    else:
        return None

    # the vertices of shortest paths on side a, level by level back from
    # the meet set; side a's last level holds the meet set
    on_path = [meet]
    for level in reversed(levels_a[1:-1]):
        reach = set()
        for w in on_path[-1]:
            reach.update(adj[w])
        on_path.append(reach & level)
    on_path.reverse()
    on_path += reversed(levels_b[:-1])
    path = [a]
    v = a
    for allowed in on_path:
        for w in adj[v]:
            if w in allowed:
                break
        path.append(w)
        v = w
    return tuple(path)


def ball(adj, src, depth):
    """The distance from ``src`` of every vertex within ``depth`` (>= 0) of
    it over the adjacency rows ``adj``, as a dict built level by level.

    The walk stops at its first empty level, so a ball costs what it holds
    at any ``depth``, however far beyond the eccentricity of ``src``."""
    dist = {src: 0}
    level = [src]
    for d in range(1, depth + 1):
        after = []
        for u in level:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    after.append(v)
        if not after:
            break
        level = after
    return dist
