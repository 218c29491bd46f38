"""Every top-level function, class, constant, method and dataclass field in
src/polygraph is reached by product code, and every imported name is used
where it is imported.

A definition counts as used when product code refers to it: a file under
src/ or bench/, outside the definition itself and outside every
definition already found unused.  `polygraph/__init__.py` serves the
public API, so a name it serves is used: one it imports, or a key of the
literal name -> module table that its PEP 562 `__getattr__` reads.  That
file is the one list of names kept for callers outside the repository.
References from tests do not count: a helper only tests reach belongs in
the tests.  The unused set
is grown to a fixed point, so a helper called only by a dead helper is
dead too.  A reference is a name, an attribute, an imported name, or a
part of a dotted `module.name` string such as the bench tracer's
"kgraph.normal_form"; a bare string such as "index" is no reference.
Dunder functions, such as a module's `__getattr__`, are called by the
interpreter and are no definitions.
Methods are the non-dunder functions in the body of a top-level class,
and the fields of a top-level dataclass are definitions too, so each must
be read: a keyword passed to the constructor is no reference.
`self.m` inside class C, and `C.m` for a class C defined in src/, refer
to C.m alone, any other `x.m` to every method or field m, and a bare name
m (a parameter or local variable, say) to no method or field.  A name bound by
`from ... import` must be loaded in its file, apart from `__future__`
features and the re-exports of an `__init__.py`.

Every option has a product caller too: each parameter with a default, of
a top-level function or of a method (`__init__` included) of a top-level
class in src/polygraph, is passed by some call in product code outside
that definition, by keyword, by position, or by `*` or `**`.  A call is
matched to a definition by the name rules above, and a call to a class
is a call to its `__init__`.  And every default is read: some product
call leaves the parameter out, or product code refers to the function
other than by calling it (as `cli.CATALOG` holds the catalog builders),
so a caller may rely on it.  A default that every call overrides is
dead.  The parameters of the names that `polygraph/__init__.py` serves
are public API and exempt from both rules.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/polygraph/*.py"))
PRODUCT = sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py"))
FILES = sorted(PRODUCT + list((ROOT / "tests").rglob("*.py")))


def public_names(text: str) -> set:
    """The names an `__init__.py` serves: those it imports, and the string
    keys of each dict literal bound to a name that its `__getattr__` reads."""
    tree = ast.parse(text)
    hook = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
    read = {node.id for fn in hook for node in ast.walk(fn) if isinstance(node, ast.Name)}
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and any(getattr(target, "id", None) in read for target in node.targets)):
            names.update(key.value for key in node.value.keys)
    return names


PUBLIC = public_names((ROOT / "src/polygraph/__init__.py").read_text())


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node) -> bool:
    """Whether a class is decorated with `dataclass`, called or not."""
    heads = (getattr(d, "func", d) for d in node.decorator_list)
    return any("dataclass" in (getattr(h, "id", None), getattr(h, "attr", None)) for h in heads)


def _definitions(tree):
    """(name, first line, last line) of each top-level definition, of each
    non-dunder method of a top-level class, and of each field of a
    top-level dataclass."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_dunder(node.name):
                continue
            yield node.name, node.lineno, node.end_lineno
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _is_dataclass(node)):
                    yield f"{node.name}.{item.target.id}", item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node.lineno, node.end_lineno


def _owners(tree) -> dict:
    """Each `self.m` attribute inside a top-level class, with the class name."""
    return {sub: node.name for node in tree.body if isinstance(node, ast.ClassDef)
            for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name) and sub.value.id == "self"}


def _classes(sources: dict) -> set:
    return {node.name for text in sources.values() for node in ast.parse(text).body
            if isinstance(node, ast.ClassDef)}


def _name(node, owner: dict, classes: set) -> str:
    """The name a Name or Attribute node refers to: "C.m" for `self.m`
    inside class C and for `C.m` or `x.C.m` with C in `classes`, else the
    bare name or attribute."""
    if isinstance(node, ast.Name):
        return node.id
    if node in owner:
        return f"{owner[node]}.{node.attr}"
    base = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
    return f"{base}.{node.attr}" if base in classes else node.attr


def _references(tree, classes: set):
    """(name, line, member) of every name a file refers to, named by
    _name; `member` when it can read a method or field: an attribute or a
    part of a dotted string, but no bare name or imported name."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            yield _name(node, owner, classes), node.lineno, isinstance(node, ast.Attribute)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", node.value):
                for part in node.value.split("."):
                    yield part, node.lineno, True


def _inside(where, line, definition):
    path, _, first, last = definition
    return where == path and first <= line <= last


def unused_definitions(sources: dict, product: dict, public=frozenset()) -> list[str]:
    """The "module.name" of each definition in `sources` that no code in
    `product` reaches and that `public` does not name; both map a path to
    its text, and every source is also product code."""
    uses: dict = {name: [("<public>", 0, True)] for name in public}
    classes = _classes(sources)
    for path, text in product.items():
        for name, line, member in _references(ast.parse(text), classes):
            uses.setdefault(name, []).append((path, line, member))

    def reads(name):
        """The uses of a definition: for a method or field "C.m", those
        of "C.m" and the member uses of "m"."""
        if "." not in name:
            return uses.get(name, [])
        return uses.get(name, []) + [u for u in uses.get(name.rpartition(".")[2], []) if u[2]]

    defs = [(path, name, first, last) for path, text in sources.items()
            for name, first, last in _definitions(ast.parse(text))]
    dead: list = []
    while new := [d for d in defs if d not in dead and all(
            _inside(where, line, d) or any(_inside(where, line, x) for x in dead)
            for where, line, _ in reads(d[1]))]:
        dead += new
    return sorted(f"{Path(path).stem}.{name}" for path, name, _, _ in dead)


def _functions(tree):
    """(name, node, bound) of each top-level function and of each method of
    a top-level class: a method is "C.m" and an `__init__` is "C", the name
    a call to it uses; `bound` when a call fills the first parameter
    implicitly (self or cls)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name if item.name == "__init__" else f"{node.name}.{item.name}"
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                yield name, item, not static


def _outside(table: dict, name: str, path, fn) -> list:
    """The nodes that `table` files under `name`, and for a method "C.m"
    under "m" too, apart from those inside the function `fn` of `path`."""
    return [node for where, node in table.get(name, []) + (
                table.get(name.rpartition(".")[2], []) if "." in name else [])
            if not (where == path and fn.lineno <= node.lineno <= fn.end_lineno)]


def _option_uses(sources: dict, product: dict, public=frozenset()):
    """("module.name", options, passed, as_value) for each function in
    `sources` whose name (its class's, for an `__init__`) is not in
    `public`: its parameters with a default, the set of them that each
    call in `product` outside the function passes, and whether product
    code outside it refers to it other than by calling it."""
    classes = _classes(sources)
    calls: dict = {}
    values: dict = {}
    for path, text in product.items():
        tree = ast.parse(text)
        owner = _owners(tree)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls.setdefault(_name(node.func, owner, classes), []).append((path, node))
            elif (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                  and id(node) not in called):
                values.setdefault(_name(node, owner, classes), []).append((path, node))
    for path, text in sources.items():
        for name, fn, bound in _functions(ast.parse(text)):
            if name in public:
                continue
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            options = params[len(params) - len(fn.args.defaults):] + [
                a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            passed = []
            for call in _outside(calls, name, path, fn):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    passed.append(set(options))
                else:
                    passed.append(set(params[bound:bound + len(call.args)])
                                  | {k.arg for k in call.keywords})
            yield (f"{Path(path).stem}.{name}", options, passed,
                   bool(_outside(values, name, path, fn)))


def unpassed_options(sources: dict, product: dict, public=frozenset()) -> list[str]:
    """The "module.name(parameter)" of each parameter with a default, of a
    function in `sources`, that no call in `product` outside the function
    passes; the functions named in `public`, and the `__init__` of the
    classes named there, are skipped."""
    return sorted(f"{name}({p})" for name, options, passed, _ in
                  _option_uses(sources, product, public)
                  for p in options if not any(p in s for s in passed))


def overridden_defaults(sources: dict, product: dict, public=frozenset()) -> list[str]:
    """The "module.name(parameter)" of each parameter with a default that
    every call in `product` outside the function passes, so that the
    default is never read.  A function that product code passes as a value
    (a dict entry or a callback, say) relies on its defaults, and the names
    in `public` are skipped as in unpassed_options."""
    return sorted(f"{name}({p})" for name, options, passed, as_value in
                  _option_uses(sources, product, public) if not as_value
                  for p in options if all(p in s for s in passed))


def test_every_top_level_name_is_referenced():
    unused = unused_definitions({p: p.read_text() for p in SOURCES},
                                {p: p.read_text() for p in PRODUCT}, PUBLIC)
    assert not unused, f"defined but never reached by product code: {unused}"


def test_a_helper_called_only_by_a_dead_helper_is_dead():
    lib = ("def live():\n    return 1\n\n\n"
           "def dead():\n    return helper()\n\n\n"
           "def helper():\n    return 2\n")
    sources = {"src/lib.py": lib}
    cli = {"src/cli.py": "from .lib import live\n\nprint(live())\n"}
    assert unused_definitions(sources, {**sources, **cli}) == ["lib.dead", "lib.helper"]
    cli["src/cli.py"] += "print(helper())\n"
    assert unused_definitions(sources, {**sources, **cli}) == ["lib.dead"]


def test_only_dotted_strings_and_own_self_calls_are_references():
    lib = ("class A:\n    def run(self):\n        return self.size()\n\n"
           "    def size(self):\n        return 1\n\n\n"
           "class B:\n    def size(self):\n        return 2\n\n\n"
           "def helper():\n    return 3\n")
    sources = {"src/lib.py": lib}
    cli = {"src/cli.py": "from .lib import A, B\n\nprint(A().run(), B, 'helper')\n"}
    assert unused_definitions(sources, {**sources, **cli}) == ["lib.B.size", "lib.helper"]
    cli["src/cli.py"] += "print('lib.helper')\n"
    assert unused_definitions(sources, {**sources, **cli}) == ["lib.B.size"]
    cli["src/cli.py"] += "print(A.size)\n"
    assert unused_definitions(sources, {**sources, **cli}) == ["lib.B.size"]
    cli["src/cli.py"] += "print(A().size)\n"
    assert unused_definitions(sources, {**sources, **cli}) == []


def test_a_dataclass_field_is_read_by_name():
    lib = ("from dataclasses import dataclass\n\n\n"
           "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n\n"
           "    def total(self):\n        return self.x\n\n\n"
           "class B:\n    z: int = 0\n")
    sources = {"src/lib.py": lib}
    # passing a field to the constructor writes it; only a read counts
    cli = {"src/cli.py": "from .lib import A, B\n\nprint(A(x=1, y=2).total(), B)\n"}
    assert unused_definitions(sources, {**sources, **cli}) == ["lib.A.y"]
    cli["src/cli.py"] += "print(A(1, 2).y)\n"
    assert unused_definitions(sources, {**sources, **cli}) == []


def test_a_bare_name_reads_no_field_or_method():
    # an unread field named like a parameter elsewhere, as a `witness`
    # field would be next to InvalidConstruction.__init__'s `witness`
    lib = ("from dataclasses import dataclass\n\n\n"
           "@dataclass\nclass A:\n    first: int\n    witness: int\n\n"
           "    def size(self):\n        return self.first\n\n\n"
           "class Invalid(Exception):\n    def __init__(self, witness, size):\n"
           "        super().__init__(witness, size)\n")
    sources = {"src/lib.py": lib}
    cli = {"src/cli.py": "from .lib import A, Invalid\n\nprint(A(1, 2).first, Invalid(3, 4))\n"}
    assert unused_definitions(sources, {**sources, **cli}) == ["lib.A.size", "lib.A.witness"]
    cli["src/cli.py"] += "witness = 5\nprint(witness)\n"
    assert unused_definitions(sources, {**sources, **cli}) == ["lib.A.size", "lib.A.witness"]
    cli["src/cli.py"] += "print(A(1, 2).witness, A(1, 2).size())\n"
    assert unused_definitions(sources, {**sources, **cli}) == []


def test_the_getattr_table_serves_public_names():
    init = ('from .lib import live\n\n'
            '_LAYER_OF = {"lazy": "lib"}\n_OTHER = {"other": "lib"}\n\n\n'
            'def __getattr__(name):\n    return _LAYER_OF[name]\n')
    assert public_names(init) == {"live", "lazy"}
    lib = "def live():\n    return 1\n\n\ndef lazy(x=0):\n    return x\n\n\ndef other():\n    return 2\n"
    sources = {"src/lib.py": lib, "src/__init__.py": init}
    # the hook is no definition; the table it reads is used, the other dict is not
    assert unused_definitions(sources, sources) == ["__init__._OTHER", "lib.lazy", "lib.other"]
    assert unused_definitions(sources, sources, public_names(init)) == [
        "__init__._OTHER", "lib.other"]
    assert unpassed_options(sources, sources) == ["lib.lazy(x)"]
    assert unpassed_options(sources, sources, public_names(init)) == []


def test_every_option_is_passed_by_product_code():
    sources = {p: p.read_text() for p in SOURCES}
    product = {p: p.read_text() for p in PRODUCT}
    unpassed = unpassed_options(sources, product, PUBLIC)
    assert not unpassed, f"options that no product code passes: {unpassed}"
    # the public API's one option that no product code passes
    assert unpassed_options(sources, product) == ["groupcons.extend_to_group(symmetry)"]


def test_every_default_is_read_by_some_product_call():
    sources = {p: p.read_text() for p in SOURCES}
    product = {p: p.read_text() for p in PRODUCT}
    overridden = overridden_defaults(sources, product, PUBLIC)
    assert not overridden, f"defaults that every product call overrides: {overridden}"
    # no product code calls the public extend_to_group at all
    assert overridden_defaults(sources, product) == ["groupcons.extend_to_group(symmetry)"]


def test_a_default_is_read_by_a_call_that_omits_it_or_a_value():
    lib = ("def f(x, y=1):\n    return x + y\n\n\n"
           "def g(x=0):\n    return x\n\n\n"
           "def h(x=0):\n    return x\n")
    sources = {"src/lib.py": lib}
    cli = {"src/cli.py": "from .lib import f, g, h\n\nprint(f(1, 2), f(1, y=3), g(1), h(2))\n"}
    assert overridden_defaults(sources, {**sources, **cli}) == ["lib.f(y)", "lib.g(x)", "lib.h(x)"]
    assert overridden_defaults(sources, {**sources, **cli}, {"g"}) == ["lib.f(y)", "lib.h(x)"]
    cli["src/cli.py"] += "print(f(1), {'h': h})\n"
    assert overridden_defaults(sources, {**sources, **cli}, {"g"}) == []


def test_an_option_is_passed_by_keyword_position_or_star():
    lib = ("def f(x, y=1, *, z=2):\n    return f(x, 0, z=0)\n\n\n"
           "class A:\n    def __init__(self, n=0):\n        self.n = n\n\n"
           "    def g(self, w=3):\n        return w\n")
    sources = {"src/lib.py": lib}
    cli = {"src/cli.py": "from .lib import A, f\n\nprint(f(1), A().g())\n"}
    product = {**sources, **cli}
    assert unpassed_options(sources, product) == ["lib.A(n)", "lib.A.g(w)", "lib.f(y)", "lib.f(z)"]
    assert unpassed_options(sources, product, {"A", "f"}) == ["lib.A.g(w)"]
    cli["src/cli.py"] += "print(f(1, 2), A(5).g(w=4))\n"
    assert unpassed_options(sources, {**sources, **cli}) == ["lib.f(z)"]
    cli["src/cli.py"] += "print(f(**{'x': 1}))\n"
    assert unpassed_options(sources, {**sources, **cli}) == []


def test_every_imported_name_is_loaded():
    stale = []
    for path in FILES:
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    and path.name != "__init__.py"):
                stale += [f"{path.relative_to(ROOT)}: {alias.asname or alias.name}"
                          for alias in node.names if (alias.asname or alias.name) not in loaded]
    assert not stale, f"imported but never used: {stale}"
