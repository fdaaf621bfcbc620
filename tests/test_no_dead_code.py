"""Every top-level function and class in the library, every method of its
top-level classes and every module-level assigned name is referenced from
the library, the tests or the benchmark; an unreferenced one is dead code.
Dunder names are read by the language and its tools and are not checked.
Only reads count as references: an assignment does not use its target.
Likewise every name a library function assigns is read in that function or
in a scope nested in it; `_` takes the values that are thrown away.
Every attribute a library class stores on self is read somewhere, and a
library name that only tests refer to is one of the kept references."""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
LIB = os.path.join(ROOT, "src", "dercat")
TESTS = os.path.dirname(__file__)
BENCH = os.path.join(ROOT, "perfbench")
# Library names that only tests use, kept as references: homology_dims is
# the rank count the quasi-isomorphism tests compare against, homology its
# presheaf form, loop_via_recollement the Ω half of the shift lemma.
KEPT_FOR_TESTS = {"homology_dims", "homology", "loop_via_recollement"}


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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _definitions(tree):
    """(qualified name, name) of the top-level functions and classes, of
    the non-dunder methods of the top-level classes and of the non-dunder
    names assigned at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) \
                            and not name.id.startswith("__"):
                        yield name.id, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("__"):
                    yield node.name + "." + item.name, item.name


def _attribute_reads(trees):
    return {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _stored_attributes(tree):
    """(Class.attribute, attribute) of the non-dunder attributes that the
    methods of tree's top-level classes store on self."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" \
                    and not node.attr.startswith("__"):
                yield cls.name + "." + node.attr, node.attr


def unread_attributes(lib_dir, *use_dirs):
    """(module, Class.attribute) of the attributes that a class of lib_dir
    stores on self and no code in lib_dir or use_dirs reads."""
    read = _attribute_reads(_trees(lib_dir, *use_dirs))
    return sorted({(os.path.basename(path), qualname)
                   for path, tree in _trees(lib_dir)
                   for qualname, name in _stored_attributes(tree)
                   if name not in read})


def only_tests_use(lib_dir, test_dir, *use_dirs):
    """(module, qualified name) of the definitions and stored attributes of
    lib_dir that code in test_dir refers to and code in lib_dir and
    use_dirs does not."""
    used = _referenced_names(_trees(lib_dir, *use_dirs))
    tested = _referenced_names(_trees(test_dir))
    used_attrs = _attribute_reads(_trees(lib_dir, *use_dirs))
    tested_attrs = _attribute_reads(_trees(test_dir))
    out = set()
    for path, tree in _trees(lib_dir):
        module = os.path.basename(path)
        out |= {(module, qualname) for qualname, name in _definitions(tree)
                if name in tested and name not in used}
        out |= {(module, qualname)
                for qualname, name in _stored_attributes(tree)
                if name in tested_attrs and name not in used_attrs}
    return sorted(out)


def dead_definitions(lib_dir, *use_dirs):
    """(module, qualified name) of the definitions of lib_dir that no code
    in lib_dir or use_dirs refers to."""
    used = _referenced_names(_trees(lib_dir, *use_dirs))
    dead = []
    for path, tree in _trees(lib_dir):
        for qualname, name in _definitions(tree):
            if name not in used:
                dead.append((os.path.basename(path), qualname))
    return dead


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn):
    """The nodes of fn's body outside the functions and classes nested in
    it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(lib_dir):
    """(module, function, name) of the names a function of lib_dir assigns
    and never reads, neither there nor in a scope nested in it."""
    out = []
    for path, tree in _trees(lib_dir):
        for fn in ast.walk(tree):
            if not isinstance(fn, _SCOPES):
                continue
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            stored = {n.id for n in _own_nodes(fn) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
            out.extend((os.path.basename(path),
                        getattr(fn, "name", "<lambda>"), name)
                       for name in sorted(stored - read - {"_"}))
    return sorted(out)


def test_no_unreferenced_top_level_definitions():
    assert dead_definitions(LIB, TESTS, BENCH) == []


def test_no_unread_local_names():
    assert unused_locals(LIB) == []


def test_no_unread_attributes():
    assert unread_attributes(LIB, TESTS, BENCH) == []


def test_no_library_code_only_tests_use():
    assert {q for _, q in only_tests_use(LIB, TESTS, BENCH)} == KEPT_FOR_TESTS


def test_the_check_sees_an_unreferenced_definition(tmp_path):
    (tmp_path / "m.py").write_text("def used():\n    pass\n\n\n"
                                   "def unused():\n    used()\n")
    (tmp_path / "c.py").write_text("class C:\n"
                                   "    def __init__(self):\n"
                                   "        self.used()\n\n"
                                   "    def used(self):\n"
                                   "        pass\n\n"
                                   "    def idle(self):\n"
                                   "        pass\n\n\n"
                                   "C()\n")
    (tmp_path / "v.py").write_text("__version__ = '1'\n"
                                   "READ, IDLE = 1, 2\n"
                                   "print(READ)\n")
    (tmp_path / "u.py").write_text("def f(pairs):\n"
                                   "    total, idle = 0, 0\n"
                                   "    for _, b in pairs:\n"
                                   "        def g():\n"
                                   "            return b\n"
                                   "        total += g()\n"
                                   "    return total\n\n\n"
                                   "f([])\n")
    assert dead_definitions(str(tmp_path)) == [("c.py", "C.idle"),
                                               ("m.py", "unused"),
                                               ("v.py", "IDLE")]
    assert unused_locals(str(tmp_path)) == [("u.py", "f", "idle")]


def test_the_check_sees_unread_attributes_and_test_only_names(tmp_path):
    lib, tests = tmp_path / "lib", tmp_path / "tests"
    lib.mkdir()
    tests.mkdir()
    (lib / "m.py").write_text("class C:\n"
                              "    def __init__(self):\n"
                              "        self.read = 1\n"
                              "        self.idle = 2\n"
                              "        self.tested = 3\n"
                              "        self.__private = 4\n\n"
                              "    def value(self):\n"
                              "        return self.read\n\n\n"
                              "def helper():\n"
                              "    return C().value()\n\n\n"
                              "def probe():\n"
                              "    pass\n\n\n"
                              "helper()\n")
    (tests / "t.py").write_text("from m import C, probe\n"
                                "assert C().tested == 3\n"
                                "probe()\n")
    assert unread_attributes(str(lib), str(tests)) == [("m.py", "C.idle")]
    assert only_tests_use(str(lib), str(tests)) == [
        ("m.py", "C.tested"), ("m.py", "probe")]
