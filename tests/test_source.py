"""Checks on the package source itself."""

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equalshare"


def test_library_invariants_raise_instead_of_asserting():
    # `python -O` strips assert statements, so an invariant written as one
    # would silently stop being checked
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_np_vectorize():
    # np.vectorize is a per-element Python loop behind an array interface
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "vectorize"
        or isinstance(node, ast.alias) and node.name == "vectorize"
    ]
    assert found == []


def test_no_function_takes_a_size_cap():
    # size caps are module constants checked before anything is allocated;
    # a per-call cap would let one caller build what another is refused
    found = [
        f"{path.name}:{node.lineno}:{arg.arg}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs + [node.args.vararg, node.args.kwarg]
        if arg is not None and arg.arg.startswith("max_")
    ]
    assert found == []


def test_weights_batch_is_called_only_by_payoff_vectors_batch():
    # payoff_vectors_batch bounds the rows of each (Ny, K) weight matrix it
    # builds; any other caller could build one of any size
    callers = [
        f"{path.name}:{getattr(top, 'name', top.lineno)}"
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "weights_batch"
    ]
    assert callers == ["games.py:payoff_vectors_batch"]


def test_array_split_is_called_only_by_row_chunks():
    # row_chunks is the one rule for how a scan's rows are chunked; an
    # oracle that split its own rows could chunk a scan another way
    callers = [
        f"{path.name}:{getattr(top, 'name', top.lineno)}"
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "array_split"
    ]
    assert callers == ["games.py:row_chunks"]


def test_run_matches_is_called_only_by_the_sweep_run_match_and_simulate():
    # lowerbound_sweep plays every horizon x schedule x learner experiment;
    # another caller would be a second loop over matches to keep in step
    callers = [
        f"{path.name}:{getattr(top, 'name', top.lineno)}"
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "run_matches"
    ]
    assert callers == ["arena.py:run_match", "cli.py:cmd_simulate", "reproduce.py:lowerbound_sweep"]


def _named_outside(node, trees) -> bool:
    """Whether any of the trees names the definition `node` outside it."""
    own = {id(n) for n in ast.walk(node)}
    return any(
        id(n) not in own and node.name in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None))
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def test_private_names_are_used():
    # a private top-level function or class that nothing else in the
    # package names is dead code
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    unused = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not _named_outside(node, trees):
                unused.append(node.name)
    assert unused == []


def test_public_names_have_a_caller():
    # the library keeps only what a verb, a table, an oracle or the benchmark
    # calls: every public top-level function and class, and every public
    # method, is named in src/ outside its own definition or in bench/.
    # The package's exports do not count as a caller.
    bench = SRC.parent.parent / "bench"
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in modules]
    benches = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(bench.glob("*.py"))]
    assert trees and benches

    def defined(tree):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node
            if isinstance(node, ast.ClassDef):
                yield from (n for n in node.body if isinstance(n, ast.FunctionDef))

    # game_to_json writes the custom-game format that load_game("file:...") reads
    exempt = {"game_to_json"}
    uncalled = []
    for path, tree in zip(modules, trees):
        for node in defined(tree):
            if not node.name.startswith("_") and node.name not in exempt and not _named_outside(node, trees + benches):
                uncalled.append(f"{path.name}:{node.name}")
    assert uncalled == []


def _subcommands(parser, path=(), options=()):
    """(path, parser, options) of every leaf subcommand under `parser`,
    with the options of the parsers on its path."""
    options += tuple(a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction))
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser, options
    for group in groups:
        for name, sub in group.choices.items():
            yield from _subcommands(sub, path + (name,), options)


def test_every_cli_option_is_read():
    # an option that is parsed but never read has no effect: every option a
    # leaf subcommand accepts must be read as args.<dest> by its run
    # function or by a cli function that it calls
    from equalshare import cli

    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        found = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
                found.add(node.attr)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                found |= reads(node.func.id, seen)
        return found

    exempt = {"seed", "out", "threads"}  # global, given before the verb
    leaves = list(_subcommands(cli.build_parser()))
    assert len(leaves) == 10
    unread = []
    for path, parser, options in leaves:
        read = reads(parser.get_default("run").__name__, set())
        unread += [(" ".join(path), a.dest) for a in options if a.dest not in exempt | read]
    assert unread == []


def test_every_library_option_is_passed():
    # an option that no verb, table or benchmark unit sets is a constant
    # with extra steps: every parameter with a default, of every public
    # function and method, is passed by keyword or by position in at least
    # one call in src/ or bench/ that names the function.  A call with a
    # ** argument counts as passing every parameter.
    bench = SRC.parent.parent / "bench"
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in modules]
    calls = [
        node
        for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
    ]

    classes = {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}

    def defined(tree):
        """(qualified name, node, owning class or None) of each function and method."""
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node, None
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{n.name}", n, node.name) for n in node.body if isinstance(n, ast.FunctionDef))

    def names(call, name, owner):
        """Whether the call names the function: a method through its own
        class (HedgeState.fresh) or through an instance, not another class."""
        func = call.func
        if owner is None or not isinstance(func, ast.Attribute):
            return getattr(func, "id", getattr(func, "attr", None)) == name
        receiver = getattr(func.value, "id", getattr(func.value, "attr", None))
        return func.attr == name and (receiver == owner or receiver not in classes)

    def passed(call, params):
        if any(k.arg is None for k in call.keywords):
            return set(params)
        return set(params[:len(call.args)]) | {k.arg for k in call.keywords}

    # a test reference takes the parameters of the form it checks
    exempt = {("HedgeState.fresh", "rule"), ("ExploiterState.fresh", "eta"),
              # cmd_table and bench/rep.py pass these through a variable bound to either table
              ("mv_table", "seed"), ("mv_table", "runs"), ("sdg_table", "seed"), ("sdg_table", "runs")}
    unpassed = []
    for path, tree in zip(modules, trees):
        for qualname, node, owner in defined(tree):
            if node.name.startswith("_"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args][owner is not None:]  # not self or cls
            defaults = params[len(params) - len(args.defaults):] if args.defaults else []
            defaults += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            named = [c for c in calls if names(c, node.name, owner)]
            seen = set().union(*(passed(c, params) for c in named))
            unpassed += [f"{path.name}:{qualname}({p})" for p in defaults if p not in seen and (qualname, p) not in exempt]
    assert unpassed == []


def test_dataclass_fields_are_read():
    # a field that nothing reads records nothing: every field of a dataclass
    # in the package is read as an attribute somewhere in src/ or bench/,
    # by its own methods (a to_csv or __str__ that a verb prints) or by
    # other code.  A field's declaration is not a read.
    bench = SRC.parent.parent / "bench"
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py"))}
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    # serialized whole by dataclasses.asdict: every field reaches the output by name
    exempt = {"Metrics", "SweepRow"}
    unread = [
        f"{path.name}:{cls.name}.{item.target.id}"
        for path, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name not in exempt
        # @dataclass or @dataclass(...)
        and any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.target.id not in reads
    ]
    assert unread == []
