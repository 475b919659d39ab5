"""Every public function and class of the package is used by the package.

A top-level public name that only tests reach is test scaffolding shipped
as API: it belongs in ``tests/oracles.py`` or nowhere.  The scan reads the
source of ``src/nuds/*.py`` and counts a name as used when some package
code outside the name's own definition refers to it as a name or as an
attribute.  Text in docstrings and comments is not code and does not
count, and neither does an import that nothing then reads, nor a
function's own parameter or local variable of the same name.

The package also forks in exactly one function, ``nuds._fork.Child.start``,
which checks that a fork is safe and moves the child off the parent's CPU.
A second call to ``os.fork`` anywhere in ``src/nuds`` fails the suite.  The
jobs that fork through it are the two that ``nuds._fork`` and the README
document: ``nuds.cli._decode_split`` and ``nuds.dynamics.window_to_csv``.
A third ``Child()`` must update both documents and the pin here.

The kernels that ``recover``, ``check`` and ``demo`` are judged from
(``spectral_radius``, ``FrameAnalysis``, ``simulate``) run in the fields
of ``nuds.recovery.SystemAnalysis`` and at the few sites ``KERNEL_SITES``
names, so no command grows its own path to them.

Every JSON file the package writes goes through ``nuds.cli._write_json``,
which encodes at C speed.  Before Python 3.13 the stdlib encodes with an
indent in pure Python, several times slower, so no ``json.dump``/
``json.dumps``/``json.JSONEncoder`` call may pass ``indent=``, and no other
function may write JSON.

Every parameter with a default is set by some call in the package: a
default that every caller leaves alone is a constant, and one that no
caller reaches guards a path no input takes.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Names a function binds itself: its parameters and assignment targets."""
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    names = {a.arg for a in params if a is not None}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            continue  # a nested scope binds its own names
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _references(node: ast.AST, local: frozenset[str] = frozenset()) -> set[str]:
    """Names and attributes ``node`` reads, less the names local to a function."""
    if isinstance(node, FUNCTIONS):
        local = local | _bound(node)
    names = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            if child.id not in local:
                names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        names |= _references(child, local)
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
        "c": (
            "def shadowed():\n    pass\n\n"
            "def _local(xs):\n    shadowed = xs[0]\n    return shadowed\n\n"
            "def _param(shadowed):\n    return [shadowed for _ in ()]\n"
        ),
    }
    # `leaf` is named only in an import nothing reads, `orphan` only in a
    # docstring, `recursive` and `Node` only inside their own definitions,
    # and `shadowed` only as a local variable or a parameter.
    assert unused_public_names(sources) == [
        "a.leaf", "a.recursive", "a.Node", "b.orphan", "c.shadowed"
    ]


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


def call_sites(sources: dict[str, str], name: str) -> list[str]:
    """``module.qualified.function`` of each function that calls ``name``.

    A call of ``name`` or of ``<anything>.name`` counts; module-level code
    is the site ``module``.
    """
    sites = set()
    for module, text in sources.items():
        for site, calls in _scopes(ast.parse(text), module):
            if any(_callee(call) == name for call in calls):
                sites.add(site)
    return sorted(sites)


def test_child_scan_finds_every_job_site():
    sources = {
        "a": (
            "from _fork import Child\n\n"
            "def decode(text):\n    with Child() as child:\n        pass\n\n"
            "class Writer:\n    def write(self):\n"
            "        def inner():\n            return _fork.Child()\n"
            "        return inner\n"
        ),
        "b": (
            "import _fork\n\nCHILD = _fork.Child()\n\n"
            "def helper():\n    '''Calls Child() in a docstring only.'''\n"
        ),
    }
    assert call_sites(sources, "Child") == ["a.Writer.write.inner", "a.decode", "b"]


def test_the_documented_jobs_are_the_only_child_sites():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert call_sites(sources, "Child") == ["cli._decode_split", "dynamics.window_to_csv"]


# Where the package runs each kernel of the analysis record.  Beside the
# record's own fields, only the decode child computes rho(A) (it seeds the
# record) and ``simulate`` writes its trajectory without analysing it.
# thm317, whose I - A is singular, gives only its resolvent X = -B: the
# record analyses its adjoint family as it analyses any other.
KERNEL_SITES = {
    "spectral_radius": ["cli._radius", "recovery.SystemAnalysis.rho"],
    "FrameAnalysis": ["recovery.SystemAnalysis.sampling", "recovery.SystemAnalysis.subspace"],
    "simulate": ["cli.cmd_simulate", "recovery.SystemAnalysis.trajectory"],
}


def test_the_analysis_record_is_the_only_kernel_site():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: call_sites(sources, name) for name in KERNEL_SITES} == KERNEL_SITES


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
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert json_sites(sources) == ([], ["cli._write_json"])


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[tuple[str, int | None]]:
    """(name, positional index, or None if keyword-only) of each defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _sets(call: ast.Call, name: str, index: int | None, offset: int) -> bool:
    """Whether ``call`` sets the parameter by keyword, by ``**``, or by a
    positional or ``*`` argument that reaches its index."""
    keywords = {k.arg for k in call.keywords}  # None for a ** argument
    if name in keywords or None in keywords:
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > index - offset


def unused_options(sources: dict[str, str]) -> list[str]:
    """``module.qualified.function: parameter`` for each default no package call sets.

    Calls match definitions by name.  A method's first parameter takes no
    argument, and a call of a class is a call of its ``__init__``.
    """
    functions = []  # (site, name, offset of the first argument, defaulted parameters)

    def visit(node: ast.AST, scope: list[str], module: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], module, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                site = ".".join([module] + scope + [child.name])
                called_as = scope[-1] if in_class and child.name == "__init__" else child.name
                functions.append((site, called_as, int(in_class), _defaulted(child)))
                visit(child, scope + [child.name], module, False)
            else:
                visit(child, scope, module, in_class)

    trees = [ast.parse(text) for text in sources.values()]
    for module, tree in zip(sources, trees):
        visit(tree, [], module, False)
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [
        f"{site}: {name}"
        for site, called_as, offset, params in functions
        for name, index in params
        if not any(
            _callee(call) == called_as and _sets(call, name, index, offset) for call in calls
        )
    ]


def test_options_scan_finds_defaults_no_call_sets():
    sources = {
        "a": (
            "def f(x, y=1, *, z=2):\n    pass\n\n"
            "def g(x, y=1, z=2):\n    pass\n\n"
            "def h(x=1, y=2):\n    pass\n\n"
            "class C:\n"
            "    def __init__(self, a, b=0, c=0):\n        pass\n\n"
            "    def m(self, d=None):\n        def inner(e=0):\n            pass\n"
        ),
        "b": (
            "from a import C, f, g, h\n\n"
            "def run(xs, kw):\n"
            '    """f(1, 2) in a docstring sets nothing."""\n'
            "    f(1, z=3)\n    g(1, 2)\n    h(*xs)\n    C(1, 2).m(**kw)\n"
        ),
    }
    # f's y is set only in a docstring, g(1, 2) stops short of z, C(1, 2)
    # reaches b but not c, and nothing calls inner.
    assert unused_options(sources) == [
        "a.f: y", "a.g: z", "a.C.__init__: c", "a.C.m.inner: e"
    ]


def test_every_default_is_set_by_a_package_call():
    # The console script calls main() with no argv; tests and the
    # benchmark pass a list.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_options(sources) == ["cli.main: argv"]
