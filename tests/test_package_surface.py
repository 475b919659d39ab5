"""Every public function and class of the package is used by the package.

A top-level public name that only tests reach is test scaffolding shipped
as API: it belongs in ``tests/oracles.py`` or nowhere.  The scan reads the
source of ``src/nuds/*.py`` and counts a name as used when some package
code outside the name's own definition refers to it as a name or as an
attribute.  Text in docstrings and comments is not code and does not
count, and neither does an import that nothing then reads.

The package also forks in exactly one function, ``nuds._fork.Child.start``,
which checks that a fork is safe and moves the child off the parent's CPU.
A second call to ``os.fork`` anywhere in ``src/nuds`` fails the suite.

Every JSON file the package writes goes through ``nuds.cli._write_json``,
which encodes at C speed.  Before Python 3.13 the stdlib encodes with an
indent in pure Python, several times slower, so outside the writer's own
fallback no ``json.dump``/``json.dumps``/``json.JSONEncoder`` call may pass
``indent=``, and no other function may write JSON.
"""

import ast
from pathlib import Path

import nuds

PACKAGE = Path(nuds.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node


def _references(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public top-level definition nothing else uses."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    # References made by each top-level statement, so that a definition's
    # own body can be left out when its name is looked up.
    statements = [
        (stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body
    ]
    unused = []
    for module, tree in trees.items():
        for node in _public_definitions(tree):
            if not any(
                node.name in refs for stmt, refs in statements if stmt is not node
            ):
                unused.append(f"{module}.{node.name}")
    return unused


def test_scan_sees_only_code_references():
    sources = {
        "a": (
            "def used():\n    pass\n\n"
            "def leaf():\n    '''Calls used(); see also orphan().'''\n    return used()\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
            "class Node:\n    def child(self) -> 'Node':\n        return Node()\n\n"
            "def _private():\n    pass\n"
        ),
        "b": "from a import leaf\n\n\ndef orphan():\n    pass\n",
    }
    # `leaf` is named only in an import nothing reads, `orphan` only in a
    # docstring, `recursive` and `Node` only inside their own definitions.
    assert unused_public_names(sources) == ["a.leaf", "a.recursive", "a.Node", "b.orphan"]


def test_every_public_definition_is_used_by_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_public_names(sources) == []


def fork_sites(sources: dict[str, str]) -> list[str]:
    """``module.qualified.function`` of each function that calls ``os.fork``.

    A ``from os import fork`` counts as a site of its own, at ``module``.
    """
    sites = []

    def visit(node: ast.AST, scope: list[str], module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, scope + [child.name], module)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "fork"
                and isinstance(child.value, ast.Name)
                and child.value.id == "os"
            ) or (
                isinstance(child, ast.ImportFrom)
                and child.module == "os"
                and any(alias.name == "fork" for alias in child.names)
            ):
                site = ".".join([module] + scope)
                if site not in sites:
                    sites.append(site)
            visit(child, scope, module)

    for module, text in sources.items():
        visit(ast.parse(text), [], module)
    return sites


def test_fork_scan_finds_every_site():
    sources = {
        "a": (
            "import os\n\n"
            "class Child:\n    def start(self):\n        return os.fork() or os.fork()\n\n"
            "def helper():\n    '''Calls os.fork() in a docstring only.'''\n"
        ),
        "b": "import os\n\n\ndef ad_hoc():\n    pid = os.fork()\n",
        "c": "from os import fork\n",
    }
    assert fork_sites(sources) == ["a.Child.start", "b.ad_hoc", "c"]


def test_the_fork_helper_is_the_only_fork_site():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert fork_sites(sources) == ["_fork.Child.start"]


# Calls of json.<name> that make JSON text, and the file methods that write.
JSON_ENCODERS = {"dump", "dumps", "JSONEncoder"}
FILE_WRITES = {"write", "write_text", "write_bytes"}


def _json_call(call: ast.Call) -> str | None:
    """``name`` for a call of ``json.<name>`` with ``name`` in JSON_ENCODERS."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in JSON_ENCODERS
        and isinstance(func.value, ast.Name)
        and func.value.id == "json"
    ):
        return func.attr
    return None


def _scopes(node: ast.AST, site: str):
    """(site, calls made by the scope's own code) for ``node`` and each definition in it."""
    calls, stack = [], list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, DEFINITIONS):
            yield from _scopes(child, f"{site}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            calls.append(child)
        stack.extend(ast.iter_child_nodes(child))
    yield site, calls


def json_sites(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """(indented encodes, JSON file writers) as sorted ``module.qualified.function`` sites.

    An indented encode is a JSON_ENCODERS call that passes ``indent=``.  A
    site writes JSON when it calls ``json.dump``, or when it both makes
    JSON text (a JSON_ENCODERS call or ``_indented_json``) and calls a
    FILE_WRITES method.  Module-level code is the site ``module``.
    """
    indented, writers = set(), set()
    for module, text in sources.items():
        for site, calls in _scopes(ast.parse(text), module):
            kinds = {_json_call(call) for call in calls} - {None}
            if any(
                _json_call(call) and any(k.arg == "indent" for k in call.keywords)
                for call in calls
            ):
                indented.add(site)
            encodes = bool(kinds) or any(
                isinstance(call.func, ast.Name) and call.func.id == "_indented_json"
                for call in calls
            )
            writes = any(
                isinstance(call.func, ast.Attribute) and call.func.attr in FILE_WRITES
                for call in calls
            )
            if "dump" in kinds or (encodes and writes):
                writers.add(site)
    return sorted(indented), sorted(writers)


def test_json_scan_finds_indented_encodes_and_json_writers():
    sources = {
        "a": (
            "import json\n\n"
            "def writer(path, doc):\n"
            "    try:\n        text = _indented_json(doc)\n"
            "    except ValueError:\n        text = json.dumps(doc, indent=2)\n"
            "    path.write_text(text)\n"
        ),
        "b": (
            "import json\n\n"
            "class Report:\n"
            "    def save(self, fh):\n        json.dump(self.doc, fh)\n\n"
            "    def text(self):\n        return json.dumps(self.doc)\n\n"
            "    def log(self, fh):\n        fh.write(repr(self))\n"
        ),
        "c": (
            "import json\n\n"
            "PRETTY = json.JSONEncoder(indent=4)\n\n"
            "def show(doc):\n"
            '    """Not json.dumps(doc, indent=2): that is a docstring."""\n'
            "    def inner():\n        return json.dumps(doc, indent=1)\n"
            "    print(json.dumps(doc))\n"
        ),
    }
    assert json_sites(sources) == (
        ["a.writer", "c", "c.show.inner"],
        ["a.writer", "b.Report.save"],
    )


def test_the_writer_is_the_only_json_write_site():
    # The writer's one indented call is its fallback for documents that
    # only the stdlib takes (a non-str key); nothing else indents or writes.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert json_sites(sources) == (["cli._write_json"], ["cli._write_json"])
