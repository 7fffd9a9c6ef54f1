"""Every exported name resolves, so no deletion leaves a stale export behind, every
exported function or class has a use outside the tests, and every module-level private
name has a use in the package.  Each public name has one import path, its module's, and
the CLI one entry, ridgeless.__main__.run.  The count rule is written once, in
spectra._check_count, the choice rule once, in spectra._check_choice, outside input
becomes a float array once, in spectra._float_array, and the checks a run skips are
decided once, in ExperimentConfig.__post_init__, and only the config reads `checks`.
The CLI's subcommands, its _cmd_ functions and the README's CLI quick start name the
same set."""

import argparse
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ridgeless

MODULES = ["cli", "design", "diagnostics", "experiments", "noise", "serialize", "spectra"]
SRC = Path(ridgeless.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "pyproject.toml")  # a mention in either is a use


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ridgeless.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_package_loads_no_numpy():
    # __init__ re-exports nothing, so `import ridgeless`, which `python -m ridgeless` runs
    # before its entry, leaves numpy (and OpenBLAS's thread pool) unloaded
    paths = [str(SRC.parent)] + [e for e in os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = "import sys, ridgeless; print('numpy' in sys.modules, ridgeless.__version__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False 0.1.0\n"), proc.stderr


def test_the_console_script_is_the_module_entry():
    # pyproject's script target is ridgeless.__main__.run, and the module's main guard
    # calls that run() and nothing else, so both entries run one function
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^ridgeless = "([\w.]+):(\w+)"$', text, re.M)
    main_module = importlib.import_module("ridgeless.__main__")
    assert getattr(importlib.import_module(target[1]), target[2]) is main_module.run
    tree = ast.parse(Path(main_module.__file__).read_text(encoding="utf-8"))
    guard = tree.body[-1]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == ["run()"]


def test_every_subcommand_is_declared_run_and_shown():
    # the parser's subcommands are cli._COMMANDS, in order; each runs its own _cmd_ function
    # and has a call in the README's CLI quick start, and no _cmd_ function is left unreachable
    from ridgeless import cli

    parser = cli._build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(subs.choices) == cli._COMMANDS
    for name, sub in subs.choices.items():
        assert sub.get_default("func") is getattr(cli, f"_cmd_{name}"), name
    assert {name[len("_cmd_"):] for name in vars(cli) if name.startswith("_cmd_")} == set(
        cli._COMMANDS)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start (CLI)\n", 1)[1].split("```sh\n", 1)[1].split("```")[0]
    shown = [line.split()[1] for line in block.splitlines() if line.startswith("ridgeless ")]
    assert set(shown) == set(cli._COMMANDS)


def _refers_to(tree: ast.AST, name: str) -> bool:
    """Whether tree reads name, bare or as an attribute, outside name's own def or class."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name and not isinstance(node.ctx, ast.Store):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _perfbench_imports() -> set:
    """The names that perfbench/ imports from the package (from ridgeless... import NAME)."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ridgeless"):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_exported_functions_and_classes_are_used_outside_the_tests(name):
    # a use is a reference in src/ (not the definition, not an __all__ entry), a
    # mention in README.md or pyproject.toml, or a perfbench/ import
    module = importlib.import_module(f"ridgeless.{name}")
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    docs = "".join((ROOT / doc).read_text(encoding="utf-8") for doc in DOCS)
    imported = _perfbench_imports()
    unused = [
        attr for attr in module.__all__
        if (inspect.isfunction(getattr(module, attr)) or inspect.isclass(getattr(module, attr)))
        and attr not in imported
        and not re.search(rf"\b{attr}\b", docs)
        and not any(_refers_to(tree, attr) for tree in trees)
    ]
    assert unused == []


def _private_names(tree: ast.Module) -> list:
    """The functions, classes and constants a module defines at top level under a _name."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("name", MODULES)
def test_private_names_are_used_in_the_package(name):
    # a use is a read in src/ outside the name's own definition, so a helper
    # that only the tests still call fails here
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    unused = [n for n in _private_names(tree) if not any(_refers_to(t, n) for t in trees)]
    assert unused == []


def _sites(tree: ast.AST, hit) -> list:
    """The enclosing function, as Class.function (None at module level), of each node of
    tree for which hit(node) holds."""
    found, stack = [], [(tree, None)]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if hit(node):
            found.append(where)
        stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return found


def _count_rule(node) -> bool:
    """A `type(x) is int` test."""
    return isinstance(node, ast.Compare) and bool(
        re.fullmatch(r"type\(.+\) is int", ast.unparse(node)))


def _float_conversion(node) -> bool:
    """np.array or np.asarray with a float64 dtype, by keyword or by position."""
    if not (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.array", "np.asarray")):
        return False
    dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
    return any(ast.unparse(d) in ("float", "np.float64") for d in dtypes)


def test_the_count_rule_is_written_once():
    # an int, never a bool: every library count, index and seed goes through
    # spectra._check_count, so a change to the rule is one edit; cli.py is left out,
    # its strict reader checks JSON types, not counts
    sites = [(path.name, where) for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
             for where in _sites(ast.parse(path.read_text(encoding="utf-8")), _count_rule)]
    assert sites == [("spectra.py", "_check_count")]


def test_outside_number_arrays_are_converted_once():
    # a spectrum, a design, a noise vector, beta*, fit targets and a residual's beta*
    # become float arrays in spectra._float_array alone, so a new private conversion
    # fails here.  The other site takes the package's own output floats
    sites = [(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where in _sites(ast.parse(path.read_text(encoding="utf-8")), _float_conversion)]
    assert sorted(sites) == [("serialize.py", "format_floats"), ("spectra.py", "_float_array")]


def _choice_test(node) -> bool:
    """An `if` whose test holds an `in` or `not in` comparison and whose body raises."""
    return isinstance(node, ast.If) and any(
        isinstance(op, (ast.In, ast.NotIn)) for c in ast.walk(node.test)
        if isinstance(c, ast.Compare) for op in c.ops) and any(
        isinstance(s, ast.Raise) for s in node.body)


def test_the_choice_rule_is_written_once():
    # a name from a fixed tuple (beta_direction, a noise direction, a CLI choice, a config
    # object's type) or a collection of them (checks) is checked in spectra._check_choice
    # alone.  cli.py's other membership tests are pinned by site: they look at a path
    # (_output_base), short-form parameters (parse_noise_spec) and JSON keys (read_spec's
    # "type" key and its missing keys), and its three choice sites call the rule
    sites = [(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where in _sites(ast.parse(path.read_text(encoding="utf-8")), _choice_test)]
    assert sorted(sites) == [("cli.py", "_output_base"), ("cli.py", "parse_noise_spec"),
                             ("cli.py", "read_spec"), ("cli.py", "read_spec"),
                             ("spectra.py", "_check_choice")]
    cli = {node.name: node for node in ast.parse((SRC / "cli.py").read_text(encoding="utf-8")).body
           if isinstance(node, ast.FunctionDef)}
    for name in ("_value", "_checks", "read_spec"):
        assert _refers_to(cli[name], "_check_choice"), name


def _check_test(node) -> bool:
    """An `in` or `not in` comparison, or a read of a config's enabled checks."""
    return (isinstance(node, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn))
                                                  for op in node.ops)
            or _checks_read(node))


def _checks_read(node) -> bool:
    """A read of a config's enabled checks."""
    return isinstance(node, ast.Attribute) and node.attr == "checks"


def test_the_skip_rule_is_written_once():
    # which checks a run skips, and why, is decided in ExperimentConfig.__post_init__; the
    # trials, the summary and the CLI's identity verdict ask only the config's one
    # predicate, _runs, and no other site reads the enabled checks
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")))
    for reason in ("skipped: effective-rank index is infinite", "skipped: hypothesis violated ("):
        assert text.count(reason) == 1, reason
    sites = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where in _sites(ast.parse(path.read_text(encoding="utf-8")), _checks_read)}
    assert sites == {("experiments.py", "ExperimentConfig.__post_init__"),
                     ("experiments.py", "ExperimentConfig._runs")}
    funcs = {(path.name, node.name): node for path in (SRC / "experiments.py", SRC / "cli.py")
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, ast.FunctionDef)}
    for name in (("experiments.py", "_evaluate"), ("experiments.py", "_summarize"),
                 ("cli.py", "_identity_status")):
        assert _sites(funcs[name], _check_test) == [], name
        assert _refers_to(funcs[name], "_runs"), name
