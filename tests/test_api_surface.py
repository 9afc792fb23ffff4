"""Every name and every knob the package exports is used outside the tests.

A name is used when code in ``src/fermichain`` (the package ``__init__``
does not count), in ``demos/`` or in ``perfbench/`` refers to it: as a name
or an attribute, or as a string that is exactly the name (the tracer names
the functions it wraps that way).  A definition, an import, or a mention in
a docstring or a comment is not a use.  A public name that only tests reach
is dead weight: delete it, or move it into ``tests/`` if it serves there as
an independent oracle.  The same holds one level down: a public method or
property of an exported class must be reached as an attribute (``.name``)
somewhere in that code.

Likewise a defaulted parameter of an exported callable is a knob: some call
in that same code must pass it, by position, by keyword or through ``*`` or
``**``.  A knob every caller leaves at its default is a constant in
disguise: make it a module constant.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fermichain"


def _exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _user_texts() -> list:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        sources += sorted((ROOT / folder).rglob("*.py"))
    return [p.read_text(encoding="utf-8") for p in sources]


def _code_uses(texts) -> tuple:
    """(identifiers, attributes) the code refers to: every ast Name and
    Attribute, and every string constant that is exactly an identifier."""
    names, attributes = set(), set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names | attributes, attributes


def test_every_exported_name_has_a_user_outside_the_tests():
    used, _ = _code_uses(_user_texts())
    names = _exported_names()
    assert len(names) > 50  # the parse found the export list
    unused = sorted(set(names) - used)
    assert not unused, "exported, but only tests use: %s" % ", ".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def _signature(node):
    """(parameter names in positional order, names that have a default)."""
    if isinstance(node, ast.ClassDef):
        init = [n for n in node.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
        if init:
            names, defaulted = _signature(init[0])
            return names[1:], defaulted  # drop self
        if not _is_dataclass(node):
            return [], set()
        fields = [n for n in node.body
                  if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        return ([f.target.id for f in fields],
                {f.target.id for f in fields if f.value is not None})
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):])
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None}
    return positional + [a.arg for a in args.kwonlyargs], defaulted


def _exported_signatures() -> dict:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        module = ast.parse((PACKAGE / (node.module + ".py")).read_text(encoding="utf-8"))
        defs = {d.name: d for d in module.body
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
        for alias in node.names:
            if alias.name in defs:
                out[alias.asname or alias.name] = _signature(defs[alias.name])
    return out


def _passed(call: ast.Call, names: list) -> set:
    """The parameters one call passes; * or ** counts as passing them all."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return set(names)
    return set(names[:len(call.args)]) | {k.arg for k in call.keywords}


def test_every_defaulted_parameter_is_passed_by_some_caller():
    signatures = _exported_signatures()
    assert len(signatures) > 40  # the parse found the definitions
    passed = {}  # name -> parameters passed, for names some code calls
    for text in _user_texts():
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in signatures:
                passed.setdefault(name, set()).update(
                    _passed(call, signatures[name][0]))
    assert "omega" in passed  # the walk found the calls
    unturned = sorted("%s(%s)" % (name, p) for name, used in passed.items()
                      for p in signatures[name][1] - used)
    assert not unturned, "defaulted, but every caller leaves at the default: %s" % (
        ", ".join(unturned))


def _exported_members() -> list:
    """(class, member) for every public method or property of an exported class."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        module = ast.parse((PACKAGE / (node.module + ".py")).read_text(encoding="utf-8"))
        classes = {d.name: d for d in module.body if isinstance(d, ast.ClassDef)}
        for alias in node.names:
            if alias.name in classes:
                out += [(alias.name, d.name) for d in classes[alias.name].body
                        if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")]
    return out


def test_every_public_member_of_an_exported_class_has_a_user_outside_the_tests():
    # a member is used when some code reaches it as an attribute
    _, attributes = _code_uses(_user_texts())
    members = _exported_members()
    assert ("ModeSpec", "from_momentum") in members  # the parse found the members
    unused = sorted("%s.%s" % (cls, name) for cls, name in members
                    if name not in attributes)
    assert not unused, "public, but only tests use: %s" % ", ".join(unused)
