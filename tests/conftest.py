import copy

import pytest
from hypothesis import strategies as st

# one value of every JSON type, plus NaN and infinity, which Python's json reads
JSON_VALUES = [None, True, False, 0, 3, -2, 2.5, float("nan"), float("inf"), "", "x", [], [1, "a"], {}, {"a": 1}]


def _mutate_json(data, tree) -> None:
    """Walk from the root of a JSON tree to a node at a random depth, then
    drop it, change its JSON type, make it NaN, or truncate it (a list or a
    string)."""
    depth = data.draw(st.integers(1, 6), label="depth")
    parent, key, node = None, None, tree
    while isinstance(node, (dict, list)) and node and depth:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)), label="key")
        parent, node, depth = node, node[key], depth - 1
    if parent is None:
        return
    kind = data.draw(st.sampled_from(["drop", "retype", "nan", "truncate"]), label="mutation")
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        value = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(node)]))
        parent[key] = copy.deepcopy(value)
    elif kind == "nan":
        parent[key] = float("nan")
    elif isinstance(node, list):
        del node[data.draw(st.integers(0, len(node)), label="keep"):]
    elif isinstance(node, str):
        parent[key] = node[: data.draw(st.integers(0, len(node)), label="keep")]


@pytest.fixture(scope="session")
def mutate_json():
    """Applies one to three random mutations to a JSON tree in place."""
    def mutate(data, tree) -> None:
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            _mutate_json(data, tree)
    return mutate
