"""Module boundaries inside ``src/marginnet``."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "marginnet")


def test_no_module_imports_a_private_name_of_another():
    # A name that starts with an underscore belongs to its own module; a
    # sibling that needs it needs a public interface instead.
    private = []
    for file in sorted(os.listdir(SRC)):
        if not file.endswith(".py"):
            continue
        with open(os.path.join(SRC, file)) as f:
            tree = ast.parse(f.read(), file)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (
                    node.module or "").split(".")[0] == "marginnet"):
                private += [f"{file}: {node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
