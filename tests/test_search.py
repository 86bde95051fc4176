"""The breadth-first search core every explorer runs on."""

from snl.search import Capped, Exhausted, Found, bfs


def count_up(n):
    return [("inc", n + 1)]


def test_found_gives_shortest_labels_and_counts_the_goal():
    # from 0, +1 and *2 both lead on; 6 is reached by inc, inc, inc, dbl
    result = bfs(0, lambda n: [("inc", n + 1), ("dbl", 2 * n)], lambda n: n == 6, 100, "max_states")
    assert isinstance(result, Found)
    assert result.state == 6
    assert len(result.labels) == 4
    n = 0
    for label in result.labels:
        n = n + 1 if label == "inc" else 2 * n
    assert n == 6
    assert result.explored == 6  # 0, 1, 2, 3, 4 and the goal itself


def test_state_cap_counts_dequeued_states():
    result = bfs(0, count_up, lambda n: False, 5, "max_states")
    assert isinstance(result, Capped)
    assert result.tripped == {"max_states"}
    assert result.explored == 5
    # the sixth state was discovered but never taken off the queue
    assert set(result.seen) == {0, 1, 2, 3, 4, 5}


def test_cap_equal_to_the_state_count_is_exhaustive():
    result = bfs(0, lambda n: count_up(n) if n < 4 else [], lambda n: False, 5, "max_states")
    assert isinstance(result, Exhausted)
    assert result.explored == 5


def test_prune_names_its_cap_and_reason_lists_every_cap():
    result = bfs(
        0, count_up, lambda n: False, 3, "max_states",
        prune=lambda n: "max_value" if n > 1 else None,
    )
    assert isinstance(result, Capped)
    assert result.explored == 2
    assert result.reason == "max_value"
    result = bfs(
        0, lambda n: [("inc", n + 1), ("big", n + 100)], lambda n: False, 3, "max_states",
        prune=lambda n: "max_value" if n >= 100 else None,
    )
    assert result.reason == "max_states,max_value"


# 9 is offered by 1 and again by 2, and the prune rules it out both times
PRUNED_TWICE = {0: [("a", 1), ("b", 2)], 1: [("c", 9), ("d", 3)], 2: [("e", 9), ("f", 4)],
                3: [("g", 5)], 4: [("h", 1)], 5: []}


def test_pruned_state_never_enters_seen():
    offered = []

    def prune(n):
        offered.append(n)
        return "max_value" if n == 9 else None

    result = bfs(0, PRUNED_TWICE.__getitem__, lambda n: False, 100, "max_states", prune)
    assert isinstance(result, Capped) and result.reason == "max_value"
    assert offered.count(9) == 2
    # discovery order, each state with the parent and label that found it
    assert list(result.seen) == [0, 1, 2, 3, 4, 5]
    assert list(result.seen.values()) == [None, (0, "a"), (0, "b"), (1, "d"), (2, "f"), (3, "g")]
    found = bfs(0, PRUNED_TWICE.__getitem__, lambda n: n == 5, 100, "max_states", prune)
    assert isinstance(found, Found) and found.labels == ("a", "d", "g")
    assert found.explored == 6


def test_labelled_successors_get_the_label_that_admitted_each_state():
    handed = []

    def successors(n, label):
        handed.append((n, label))
        return PRUNED_TWICE[n]

    def prune(n):
        return "max_value" if n == 9 else None

    result = bfs(0, successors, lambda n: False, 100, "max_states", prune, labelled=True)
    # the start gets None, every other state the label of its seen entry
    assert handed == [(0, None), (1, "a"), (2, "b"), (3, "d"), (4, "f"), (5, "g")]
    assert handed == [(n, entry and entry[1]) for n, entry in result.seen.items()]
    handed.clear()
    found = bfs(0, successors, lambda n: n == 5, 100, "max_states", prune, labelled=True)
    assert isinstance(found, Found) and found.labels == ("a", "d", "g")
    assert handed == [(0, None), (1, "a"), (2, "b"), (3, "d"), (4, "f")]
