"""Conflict-serializability oracle.

Builds the precedence (serialization) graph of a committed history from the
versioned read/write footprints and checks it is acyclic.  Edge rules, for
pages carrying monotone version counters:

* **write-read**: reader observed version ``v > 0`` ⇒ edge
  ``installer(p, v) -> reader``.
* **write-write**: edge ``installer(p, v) -> installer(p, v+1)``.
* **read-write**: reader observed version ``v`` ⇒ edge
  ``reader -> installer(p, v+1)`` (the reader serializes before the next
  writer of the page).

All three are looked up in the history's own ``(page, version) ->
installer`` map, in one pass over the committed transactions.  Acyclicity
is decided by Kahn's topological sort, with a min-heap so that ties go to
the smallest transaction id.

Every protocol in the library must produce acyclic graphs on every
workload; the test suite checks this property with randomized and
hypothesis-generated workloads.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.analysis.history import History
from repro.errors import InvariantViolation


def precedence_graph(history: History) -> dict[int, set[int]]:
    """Build the precedence graph of a committed history.

    Returns:
        Adjacency sets: ``graph[a]`` holds every ``b`` with an edge
        ``a -> b``.  Every committed transaction is a key.

    Raises:
        InvariantViolation: If a transaction read a version ``v > 0`` that
            no committed transaction installed.
    """
    installers = history.installers
    graph: dict[int, set[int]] = {txn.txn_id: set() for txn in history}
    for txn in history:
        txn_id = txn.txn_id
        for page, version in txn.writes.items():
            previous = installers.get((page, version - 1))
            if previous is not None and previous != txn_id:
                graph[previous].add(txn_id)
        for page, version in txn.reads.items():
            if version > 0:
                writer = installers.get((page, version))
                if writer is None:
                    raise InvariantViolation(
                        f"T{txn_id} read version {version} of page {page}, "
                        f"which no committed transaction installed"
                    )
                if writer != txn_id:
                    graph[writer].add(txn_id)
            next_writer = installers.get((page, version + 1))
            if next_writer is not None and next_writer != txn_id:
                graph[txn_id].add(next_writer)
    return graph


def serialization_order(history: History) -> Optional[list[int]]:
    """A topological serialization order, or ``None`` if the graph is cyclic.

    The order is the lexicographically smallest one (Kahn's sort, ties
    broken by transaction id) so tests can assert on concrete orders.
    """
    graph = precedence_graph(history)
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for node in successors:
            indegree[node] += 1
    ready = [node for node, count in indegree.items() if count == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for successor in graph[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, successor)
    return order if len(order) == len(graph) else None


def check_serializable(history: History) -> bool:
    """Whether the committed history is conflict-serializable."""
    return serialization_order(history) is not None
