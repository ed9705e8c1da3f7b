"""Regression guard: nothing under ``src/repro`` reassigns another object's methods.

Instrumentation observes a run through the components' ``observer``
hooks (:mod:`repro.engine.observer`).  Overwriting a method on a live
object instead pins hot call sites to attribute lookups and silently
misses callers that bound the method earlier, which is how a checker
once went blind.  This test walks the AST of every module and fails on
any assignment ``obj.name = ...`` where ``obj`` is not ``self`` and
``name`` is a method defined on a ``repro`` class.  The self-shadowing
prebind ``self._tx_done = self._tx_done`` stays legal.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _trees():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


def _is_self_attr(node, name=None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (name is None or node.attr == name)
    )


def method_names(trees) -> set:
    """Names defined as methods on some class and never as data.

    A name that is also a dataclass field or an instance attribute
    somewhere (``fragment``, ``retransmissions``) is ambiguous without
    types, so it is left out; a self-shadowing prebind is not data.
    """
    methods, data = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods.add(item.name)
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        data.add(item.target.id)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if _is_self_attr(target) and not _is_self_attr(
                        node.value, target.attr
                    ):
                        data.add(target.attr)
    return methods - data


def method_reassignments(trees) -> list:
    """``path:line: target`` for every method assigned onto another object."""
    methods = method_names(trees)
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and sub.attr in methods
                        and not (isinstance(sub.value, ast.Name) and sub.value.id == "self")
                    ):
                        found.append(
                            f"{path.relative_to(SRC)}:{sub.lineno}: {ast.unparse(sub)}"
                        )
    return found


def test_no_method_is_reassigned_on_another_object():
    assert method_reassignments(_trees()) == []


def test_guard_catches_a_method_patch():
    trees = _trees()
    patched = ast.parse(
        "def observe(link, log):\n"
        "    link.send = log.append\n"
        "    self._tx_done = self._tx_done\n"
    )
    trees[SRC / "probe.py"] = patched
    assert method_reassignments(trees) == ["probe.py:2: link.send"]
