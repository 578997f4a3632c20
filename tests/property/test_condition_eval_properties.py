"""Property tests: the early-exit mode of ``eval_path_condition``.

Algorithm 1's delete and modify re-checks only ask whether a witness
remains, so they run ``eval(N, p, cond)`` with ``first_only=True``.
Over random trees and DAGs, label paths and predicates:

* the early-exit result is truthy exactly when the full result is
  non-empty (and is a subset of it);
* its charged ``object_reads`` / ``edge_traversals`` never exceed the
  full walk's, and equal them when no witness exists;
* the full walk returns and charges what the level-by-level definition
  (``follow_path`` plus one read per reached object tested) does;
* the early-exit witness and charges do not depend on
  ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsdb.traversal import eval_path_condition, follow_path
from repro.workloads import layered_dag, random_labelled_tree
from tests.property.support import common_settings

SETTINGS = dict(common_settings(60), derandomize=True)

LABELS = ("a", "b", "c")

PREDICATES = {
    "gt": lambda t: (lambda v: v > t),
    "le": lambda t: (lambda v: v <= t),
    "eq": lambda t: (lambda v: v == t),
}

paths = st.lists(st.sampled_from(LABELS), max_size=4)
predicates = st.tuples(
    st.sampled_from(sorted(PREDICATES)), st.integers(0, 100)
)


def _base(kind: str, seed: int, nodes: int):
    if kind == "tree":
        return random_labelled_tree(nodes=nodes, labels=LABELS, seed=seed)
    # One shared label: objects are reached along several paths at the
    # same depth, which both walks must expand only once.
    return layered_dag(
        depth=3, width=4, edges_per_node=2, seed=seed, uniform_label="a"
    )


def _charged(store, fn):
    before = store.counters.snapshot()
    result = fn()
    delta = store.counters.delta_since(before)
    return result, (delta.object_reads, delta.edge_traversals)


def _start(store, root: str, pick: int) -> str:
    sets = sorted(oid for oid in store.oids() if store.peek(oid).is_set)
    return root if pick == 0 else sets[pick % len(sets)]


@settings(**SETTINGS)
@given(
    kind=st.sampled_from(("tree", "dag")),
    seed=st.integers(0, 10_000),
    nodes=st.integers(1, 60),
    pick=st.integers(0, 5),
    path=paths,
    predicate=predicates,
)
def test_early_exit_agrees_with_full_walk(
    kind, seed, nodes, pick, path, predicate
):
    store, root = _base(kind, seed, nodes)
    start = _start(store, root, pick)
    name, threshold = predicate
    cond = PREDICATES[name](threshold)

    full, full_cost = _charged(
        store, lambda: eval_path_condition(store, start, path, cond)
    )
    first, first_cost = _charged(
        store,
        lambda: eval_path_condition(
            store, start, path, cond, first_only=True
        ),
    )
    assert bool(first) == bool(full)
    assert first <= full and len(first) <= 1
    assert first_cost[0] <= full_cost[0]
    assert first_cost[1] <= full_cost[1]
    if not full:
        assert first_cost == full_cost

    # The full walk is the level-by-level definition, charge for charge.
    reached, reach_cost = _charged(
        store, lambda: follow_path(store, start, path)
    )
    expected = set()
    for oid in reached:
        obj = store.get_optional(oid)  # the per-object test read
        if obj is not None and not obj.is_set and cond(obj.atomic_value()):
            expected.add(oid)
    assert full == expected
    assert full_cost == (reach_cost[0] + len(reached), reach_cost[1])


# -- hash-seed independence ---------------------------------------------------

_CASES = (
    ("tree", 1, 60, 0, ["a"], "gt", 50),
    ("tree", 2, 60, 0, ["a", "b"], "le", 40),
    ("tree", 3, 60, 1, ["b", "a"], "gt", 10),
    ("tree", 4, 60, 0, ["c", "c", "a"], "gt", 0),
    ("tree", 5, 60, 2, ["a", "a"], "eq", 7),
    ("tree", 6, 60, 0, [], "gt", 1000),
    ("tree", 7, 60, 0, ["b"], "le", 100),
    ("dag", 8, 0, 0, ["a", "a"], "gt", 30),
    ("dag", 9, 0, 3, ["a", "a"], "le", 80),
    ("dag", 10, 0, 0, ["a", "a", "a"], "gt", 90),
)

_SCRIPT = """
import json, sys
from tests.property.test_condition_eval_properties import run_cases
json.dump(run_cases(), sys.stdout)
"""


def run_cases() -> list:
    """Early-exit witness and charges for every fixed case."""
    out = []
    for kind, seed, nodes, pick, path, name, threshold in _CASES:
        store, root = _base(kind, seed, nodes)
        start = _start(store, root, pick)
        cond = PREDICATES[name](threshold)
        first, cost = _charged(
            store,
            lambda: eval_path_condition(
                store, start, path, cond, first_only=True
            ),
        )
        out.append([sorted(first), list(cost)])
    return out


def _run_with_hash_seed(hash_seed: str) -> list:
    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=repo,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_early_exit_is_hash_seed_independent():
    first = _run_with_hash_seed("1")
    second = _run_with_hash_seed("2")
    assert first == second
    assert any(witness for witness, _cost in first)
