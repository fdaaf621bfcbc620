"""Every top-level function and class in the library is referenced from
the library, the tests or the benchmark; an unreferenced one is dead
code."""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
LIB = os.path.join(ROOT, "src", "dercat")


def _trees(*dirs):
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), encoding="utf-8") as fh:
                    yield os.path.join(d, name), ast.parse(fh.read())


def _referenced_names(trees):
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def dead_definitions(lib_dir, *use_dirs):
    """(module, name) of top-level functions and classes of lib_dir that
    no code in lib_dir or use_dirs refers to."""
    used = _referenced_names(_trees(lib_dir, *use_dirs))
    dead = []
    for path, tree in _trees(lib_dir):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in used:
                dead.append((os.path.basename(path), node.name))
    return dead


def test_no_unreferenced_top_level_definitions():
    assert dead_definitions(LIB, os.path.dirname(__file__),
                            os.path.join(ROOT, "perfbench")) == []


def test_the_check_sees_an_unreferenced_definition(tmp_path):
    (tmp_path / "m.py").write_text("def used():\n    pass\n\n\n"
                                   "def unused():\n    used()\n")
    assert dead_definitions(str(tmp_path)) == [("m.py", "unused")]
