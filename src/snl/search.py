"""Breadth-first search shared by every forward explorer.

One loop, one cap rule and one result vocabulary.  The state cap counts
states taken off the queue and is checked before each dequeue, so a search
capped at N expands exactly N states.  A successor is skipped when already
seen; otherwise `prune` may name a cap that rules it out (a token, value,
thread or stack bound), in which case it is dropped and the cap is recorded
as tripped.  A search that empties its queue without tripping any cap is
exhaustive.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Hashable, Iterable, NamedTuple


class Found(NamedTuple):
    """A goal state and the labels of a shortest path from the start."""

    labels: tuple
    state: Any
    explored: int


class Exhausted(NamedTuple):
    """Every reachable state was expanded and no cap pruned anything."""

    seen: dict
    explored: int


class Capped(NamedTuple):
    """The search stopped or pruned because of the named caps."""

    tripped: frozenset[str]
    seen: dict
    explored: int

    @property
    def reason(self) -> str:
        return ",".join(sorted(self.tripped))


def bfs(
    start: Hashable,
    successors: Callable[[Any], Iterable[tuple[Any, Hashable]]],
    goal: Callable[[Any], bool],
    limit: int,
    limit_name: str,
    prune: Callable[[Any], str | None] | None = None,
) -> Found | Exhausted | Capped:
    """Search from start for a state satisfying goal.

    successors(state) yields (label, next_state) pairs in a fixed order;
    `seen` maps every admitted state to its (parent, label), or None for
    the start, in discovery order; a state `prune` rules out is never in it.
    """
    seen: dict = {start: None}
    queue = deque([start])
    tripped: set[str] = set()
    explored = 0
    while queue:
        if explored >= limit:
            tripped.add(limit_name)
            break
        state = queue.popleft()
        explored += 1
        if goal(state):
            labels = []
            cursor = state
            while seen[cursor] is not None:
                cursor, label = seen[cursor]
                labels.append(label)
            labels.reverse()
            return Found(tuple(labels), state, explored)
        for label, nxt in successors(state):
            # one hash per successor: insert, and undo the insert if pruned
            entry = (state, label)
            if seen.setdefault(nxt, entry) is not entry:
                continue
            if prune is not None and (cap := prune(nxt)) is not None:
                tripped.add(cap)
                del seen[nxt]
                continue
            queue.append(nxt)
    if tripped:
        return Capped(frozenset(tripped), seen, explored)
    return Exhausted(seen, explored)
