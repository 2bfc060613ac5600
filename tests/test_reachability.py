"""Every definition and every config key in the package is read by the
package itself.

A top-level function, class or constant, or a method, that no other code
under src/rdiqsdc names is reachable only from the tests. The scalar
qstate algebra is kept on purpose as an independent test oracle. A config
key that no code outside `SCHEMA` names is accepted and then ignored.
"""
import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rdiqsdc"

# test oracles kept in the package: (module, name)
ORACLES = {("qstate", "outcome_probability"), ("qstate", "state_fidelity"),
           ("qstate", "states_close")}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and constant, and of
    each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(item.name):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, node


def _names(node: ast.AST):
    """Each identifier read or written in `node`: names and attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _unreferenced() -> set[tuple[str, str]]:
    """(module, name) of each definition named nowhere outside itself."""
    trees = _trees()
    everywhere = Counter(n for tree in trees.values() for n in _names(tree))
    return {(module, name)
            for module, tree in trees.items() for name, node in _definitions(tree)
            if everywhere[name] == sum(1 for n in _names(node) if n == name)}


def test_every_definition_is_named_by_the_package():
    found = _unreferenced()
    assert sorted(found - ORACLES) == []
    # an oracle the package starts to read leaves this list
    assert found == ORACLES


def _unread_keys() -> list[str]:
    """Each key of config.SCHEMA that no string outside SCHEMA spells."""
    trees = _trees()
    [schema] = [node.value for node in trees["config"].body
                if isinstance(node, ast.AnnAssign) and node.target.id == "SCHEMA"]
    inside = set(map(id, ast.walk(schema)))
    spelled = {node.value for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and id(node) not in inside}
    return [key.value for key in schema.keys if key.value not in spelled]


def test_every_config_key_is_read_by_the_package():
    assert _unread_keys() == []
