"""JSON persistence for index trees and broadcast schedules.

A production broadcast server plans offline and ships the plan to the
transmitter; these helpers give both artifacts a stable, human-readable
interchange form:

* trees serialise structurally (labels, weights, keys, children);
* schedules serialise as the tree plus a placement table keyed by the
  node's preorder position — positions, not labels, so trees with
  duplicate labels round-trip exactly.

Round-tripping preserves structure, weights, placements and therefore
every metric; the tests assert equality through
:func:`repro.tree.validation.trees_equal` and the data wait.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..broadcast.schedule import BroadcastSchedule
from ..exceptions import ReproError
from ..tree.index_tree import IndexTree
from ..tree.node import DataNode, IndexNode, Node

__all__ = [
    "tree_to_dict",
    "tree_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "write_json_record",
]


class PersistenceError(ReproError):
    """A serialised document is malformed."""


def tree_to_dict(tree: IndexTree) -> dict[str, Any]:
    """Serialise a tree to a JSON-compatible dict."""

    def encode(node: Node) -> dict[str, Any]:
        if isinstance(node, DataNode):
            document: dict[str, Any] = {
                "type": "data",
                "label": node.label,
                "weight": node.weight,
            }
            if node.key is not None:
                document["key"] = node.key
            return document
        assert isinstance(node, IndexNode)
        return {
            "type": "index",
            "label": node.label,
            "children": [encode(child) for child in node.children],
        }

    return {"format": "broadcast-alloc/tree", "version": 1, "root": encode(tree.root)}


def tree_from_dict(document: dict[str, Any]) -> IndexTree:
    """Rebuild a tree from its serialised form."""
    if document.get("format") != "broadcast-alloc/tree":
        raise PersistenceError("not a broadcast-alloc tree document")

    def decode(node_document: dict[str, Any]) -> Node:
        kind = node_document.get("type")
        if kind == "data":
            return DataNode(
                node_document["label"],
                node_document["weight"],
                key=node_document.get("key"),
            )
        if kind == "index":
            children = [decode(c) for c in node_document.get("children", [])]
            return IndexNode(node_document.get("label", ""), children)
        raise PersistenceError(f"unknown node type {kind!r}")

    return IndexTree(decode(document["root"]))


def schedule_to_dict(schedule: BroadcastSchedule) -> dict[str, Any]:
    """Serialise a schedule (tree + placement, preorder-position keyed)."""
    nodes = schedule.tree.nodes()
    placement = [
        list(schedule.position(node)) for node in nodes
    ]
    return {
        "format": "broadcast-alloc/schedule",
        "version": 1,
        "channels": schedule.channels,
        "tree": tree_to_dict(schedule.tree),
        "placement": placement,
    }


def schedule_from_dict(document: dict[str, Any]) -> BroadcastSchedule:
    """Rebuild (and validate) a schedule from its serialised form."""
    if document.get("format") != "broadcast-alloc/schedule":
        raise PersistenceError("not a broadcast-alloc schedule document")
    tree = tree_from_dict(document["tree"])
    nodes = tree.nodes()
    placement_rows = document["placement"]
    if len(placement_rows) != len(nodes):
        raise PersistenceError(
            "placement table does not cover every tree node"
        )
    placement = {
        node: (int(channel), int(slot))
        for node, (channel, slot) in zip(nodes, placement_rows)
    }
    return BroadcastSchedule(
        tree, placement, channels=int(document["channels"])
    )


def write_json_record(path: str | Path, record: dict) -> dict:
    """Write ``record`` to ``path`` as indented JSON and return it."""
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return record


def save_schedule(schedule: BroadcastSchedule, path: str | Path) -> None:
    """Write a schedule document to ``path`` as JSON."""
    write_json_record(path, schedule_to_dict(schedule))


def load_schedule(path: str | Path) -> BroadcastSchedule:
    """Read and validate a schedule document from ``path``."""
    return schedule_from_dict(json.loads(Path(path).read_text()))
