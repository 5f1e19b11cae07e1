#!/usr/bin/env python
"""Dead-surface gate: every public name in ``src/repro`` has a user.

A public name is a module-level ``def``/``class``/UPPER_CASE constant,
or a method (property included) of a module-level class, whose name
does not start with an underscore.  It passes when

* some code under ``src/``, ``examples/``, ``benchmarks/``,
  ``perfbench/`` or ``scripts/`` refers to it — as a name, an attribute,
  a keyword, or a word inside a string constant (``getattr``,
  perfbench's method-name lists) — outside its own definition, outside
  import statements and outside ``__all__`` lists; or
* it is exported by ``repro.api.__all__``; or
* only ``tests/`` refers to it **and** it is listed in ``TESTS_ONLY``
  below with a reason.

Anything else is dead surface: delete it, or give it a caller.  A
``TESTS_ONLY`` entry that is no longer needed (the name is gone, or
production code now uses it) is also a failure, so the table can only
shrink; adding to it is a review decision, not a way to make CI pass.

Matching is by bare name, not by resolved object: a reference to any
``.name`` keeps every definition called ``name`` alive.  That errs
toward silence — what this gate reports has no user under any reading.

The same holds for configuration: every field of the
``CONFIG_CLASSES`` dataclasses must be set somewhere under those roots,
or be listed in ``UNSET_FIELDS`` with a reason.  A field is set only by
a keyword (``field=``) to a call of its own class, of a module-level
alias of it in ``repro.core.config`` (``RuntimeConfig``), of ``with_``
or of ``replace``: a call of any other name that takes the same keyword
(a ``NetworkModel`` or ``Topology`` parameter) sets something else.  A
field nothing sets only ever holds its default; that value belongs to
the class that uses it.

Constructors get the same rule, with ``tests/`` counted as a caller:
a defaulted parameter of a public class's ``__init__`` (a *knob*) must
be passed somewhere under those roots or ``tests/`` — by keyword, or
by position in a call named after the class with more positional
arguments than the knob's index.  A knob only tests pass is the
class's home for a test-tuned value and stays; a knob no call passes
only ever holds its default, which belongs inside the class.  So does
a knob every call outside ``tests/`` passes, and passes as one and the
same literal: its default serves tests only, and the literal is the
class's behaviour.

A keyword whose value is the enclosing function's parameter of the
same name (``intra=intra``) only forwards that parameter, so it does
not pass the knob: a builder that threads a knob through leaves it at
its default unless the builder's callers set it, and they then pass
the builder's parameter, not the knob.

Usage: python scripts/check_dead_surface.py
"""

import ast
import re
import sys
from pathlib import Path

SELF = Path(__file__).resolve()
ROOT = SELF.parent.parent
PACKAGE = ROOT / "src" / "repro"
USER_ROOTS = ("src", "examples", "benchmarks", "perfbench", "scripts")

#: qualified name -> why a name only tests use is kept
TESTS_ONLY = {
    # -- test oracles: reference forms the production forms are checked
    #    against, and fixtures only tests build
    "repro.core.pipeline.PipelineCoefficients.brute_force_best":
        "test oracle: exhaustive search the Lemma-1 block size must match",
    "repro.core.pipeline.PipelineCoefficients.sequential_time":
        "test oracle: the unpipelined 5-step time the pipeline must beat",
    "repro.core.sync_cache.LRUVertexCache.invalidate":
        "test oracle: per-vertex twin of invalidate_many (property model)",
    "repro.engines.jni.JNIConfig.ms_per_entity":
        "test oracle: the boundary slope JVM_RUNTIME's k1/k3 are pinned to",
    "repro.ipc.scheduler.run_process":
        "test fixture: one process on a fresh scheduler",
    "repro.graph.generators.complete":
        "test fixture: the complete graph (LP, k-core ground truth)",
    # -- inspection hooks: read-only views tests assert state through
    "repro.algorithms.kcore.KCore.core_members":
        "inspection hook: decodes a finished k-core value table",
    "repro.cluster.cluster.Cluster.total_gpu_count":
        "inspection hook: accelerator census of a built cluster",
    "repro.core.sync_cache.LRUVertexCache.dirty_count":
        "inspection hook: lazy-upload backlog size",
    "repro.core.sync_cache.LRUVertexCache.dirty_ids":
        "inspection hook: lazy-upload backlog contents",
    "repro.core.sync_skip.SkipStats.skip_fraction":
        "inspection hook: Fig. 11(b)'s ratio on the strict detector",
    "repro.fault.checkpoint.CheckpointStore.latest_iteration":
        "inspection hook: superstep of the newest save, delta included",
    "repro.graph.graph.Graph.in_degrees":
        "inspection hook: generator and partition degree checks",
    "repro.graph.graph.Graph.max_degree":
        "inspection hook: dataset-twin skew checks",
    "repro.graph.graph.Graph.subgraph_edges":
        "inspection hook: edge-set comparison of a partition's parts",
    "repro.graph.metrics.degree_histogram":
        "inspection hook: twin calibration (docs/calibration.md)",
    "repro.graph.metrics.degree_skew":
        "inspection hook: twin calibration (docs/calibration.md)",
    "repro.graph.metrics.weighted_imbalance":
        "inspection hook: Lemma-2 share check on a partition",
    "repro.ipc.scheduler.Scheduler.category_time":
        "inspection hook: simulated ms charged to one category",
    "repro.ipc.shm.SharedMemorySegment.corrupted_regions":
        "inspection hook: what a shm-corruption fault hit",
    "repro.serve.scheduler.FairShareLedger.share_of":
        "inspection hook: a tenant's realised fair share",
    # -- API surface: the paper's or a user's, with no in-repo caller yet
    "repro.serve.service.GraphService.unload_graph":
        "API surface: documented service call (docs/streaming.md)",
}

#: The configuration dataclasses of ``repro.core.config`` whose every
#: field needs a setter outside tests/.
CONFIG_CLASSES = ("MiddlewareConfig", "StragglerConfig", "ClusterSpec")

#: qualified field -> why no code outside tests/ sets it
UNSET_FIELDS = {}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def assigns_all(node) -> bool:
    """Is ``node`` an assignment to ``__all__``?"""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def definitions():
    """``{qualified name: (bare name, file, first line, last line,
    is a class member)}`` for every public name ``src/repro`` defines."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent)
                          .with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text())

        def add(prefix, node, name, member=False):
            if not name.startswith("_"):
                found[f"{prefix}.{name}"] = (
                    name, path, node.lineno, node.end_lineno, member)

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                add(module, node, node.name)
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef):
                            add(f"{module}.{node.name}", member,
                                member.name, member=True)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name) and \
                            target.id.isupper():
                        add(module, node, target.id)
    return found


def references(path: Path):
    """``(word, line)`` for everything in ``path`` that can keep a name
    alive: names, attributes, keywords, words of non-docstring string
    constants.  Import statements and ``__all__`` lists do not count."""
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(ast.walk(node))
        elif assigns_all(node):
            skipped.update(ast.walk(node))
        elif (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
              and node.body and isinstance(node.body[0], ast.Expr)
              and isinstance(node.body[0].value, ast.Constant)
              and isinstance(node.body[0].value.value, str)):
            skipped.add(node.body[0].value)  # docstring
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in WORD.findall(node.value):
                yield word, node.lineno


def config_fields():
    """``{qualified name: (field, file, line)}`` for every field of the
    ``CONFIG_CLASSES``."""
    path = PACKAGE / "core" / "config.py"
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
            for member in node.body:
                if isinstance(member, ast.AnnAssign):
                    name = member.target.id
                    found[f"repro.core.config.{node.name}.{name}"] = (
                        name, path, member.lineno)
    return found


def config_setters():
    """``{config class: names of the calls that set its fields}``: the
    class, its module-level aliases in ``repro.core.config``, ``with_``
    and ``replace``."""
    setters = {cls: {cls, "with_", "replace"} for cls in CONFIG_CLASSES}
    for node in ast.parse((PACKAGE / "core" / "config.py")
                          .read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)
                and node.value.id in setters):
            setters[node.value.id].add(node.targets[0].id)
    return setters


def callee(call):
    """The bare name or attribute a call is made through, or None."""
    func = call.func
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def keywords(roots):
    """``(keyword, callee name, forwards)`` for every keyword passed to
    a call in a ``*.py`` under ``roots``; ``forwards`` when its value is
    the enclosing function's parameter of the same name."""
    found = []

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            params = {a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)}
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg:
                    found.append((kw.arg, callee(node),
                                  isinstance(kw.value, ast.Name)
                                  and kw.value.id == kw.arg
                                  and kw.arg in params))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    for root in roots:
        for path in (ROOT / root).rglob("*.py"):
            visit(ast.parse(path.read_text()), set())
    return found


def knobs():
    """``{qualified name: (knob, file, line, positional index or None,
    class)}`` for every defaulted ``__init__`` parameter of a public
    module-level class in ``src/repro``; keyword-only knobs have no
    positional index."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent)
                          .with_suffix("").parts).removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or \
                    node.name.startswith("_"):
                continue
            for member in node.body:
                if not (isinstance(member, ast.FunctionDef)
                        and member.name == "__init__"):
                    continue
                args = member.args
                positional = (args.posonlyargs + args.args)[1:]  # no self
                defaulted = positional[len(positional)
                                       - len(args.defaults):]
                params = [(a, positional.index(a)) for a in defaulted]
                params += [(a, None) for a, d in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                           if d is not None]
                for arg, index in params:
                    found[f"{module}.{node.name}.{arg.arg}"] = (
                        arg.arg, path, arg.lineno, index, node.name)
    return found


def calls_by_name(roots):
    """``{callee name: [call, ...]}`` over every call in a ``*.py``
    under ``roots``, the callee named by its bare name or attribute."""
    calls = {}
    for root in roots:
        for path in (ROOT / root).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = callee(node)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def widest_positional(calls):
    """``{callee name: most positional arguments passed}``; a
    ``*args`` argument counts as passing all."""
    return {name: max(sys.maxsize if any(isinstance(a, ast.Starred)
                                         for a in call.args)
                      else len(call.args) for call in group)
            for name, group in calls.items()}


def literal_passed(call, name, index):
    """``repr`` of the literal ``call`` passes for knob ``name`` (at
    positional ``index``), or None when it passes none, passes an
    expression, or may pass it through ``*args``/``**kwargs``."""
    node = None
    for kw in call.keywords:
        if kw.arg is None:
            return None
        if kw.arg == name:
            node = kw.value
    if node is None:
        if (index is None or index >= len(call.args)
                or any(isinstance(a, ast.Starred)
                       for a in call.args[:index + 1])):
            return None
        node = call.args[index]
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def reference_index(roots):
    """``{word: [(file, line), ...]}`` over every ``*.py`` under
    ``roots``."""
    index = {}
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            if path == SELF:
                continue  # TESTS_ONLY above names what it tables
            for word, line in references(path):
                index.setdefault(word, []).append((path, line))
    return index


def api_exports():
    tree = ast.parse((PACKAGE / "api.py").read_text())
    for node in tree.body:
        if assigns_all(node):
            return set(ast.literal_eval(node.value))
    return set()


def main() -> int:
    defs = definitions()
    used = reference_index(USER_ROOTS)
    tested = reference_index(("tests",))
    exported = api_exports()

    def has_user(index, qualified):
        name, path, first, last, _ = defs[qualified]
        return any(not (ref_path == path and first <= line <= last)
                   for ref_path, line in index.get(name, ()))

    dead, untabled, stale = [], [], []
    for qualified in sorted(defs):
        name, *_, member = defs[qualified]
        if has_user(used, qualified) or (name in exported and not member):
            if qualified in TESTS_ONLY:
                stale.append(qualified)
        elif has_user(tested, qualified):
            if qualified not in TESTS_ONLY:
                untabled.append(qualified)
        else:
            dead.append(qualified)
    stale += sorted(set(TESTS_ONLY) - set(defs))

    fields = config_fields()
    used_kws, test_kws = keywords(USER_ROOTS), keywords(("tests",))
    setters = config_setters()

    def sets(kws, qualified):
        name, cls = fields[qualified][0], qualified.split(".")[-2]
        return any(kw == name and call in setters[cls]
                   for kw, call, _ in kws)

    passed = {kw for kw, _, forwards in used_kws if not forwards}
    test_passed = {kw for kw, _, forwards in test_kws if not forwards}

    unset = [q for q in sorted(fields)
             if not sets(used_kws, q) and q not in UNSET_FIELDS]
    stale += [q for q in sorted(UNSET_FIELDS)
              if q not in fields or sets(used_kws, q)]

    params = knobs()
    calls = calls_by_name(USER_ROOTS)
    widest, test_widest = (widest_positional(calls),
                           widest_positional(calls_by_name(("tests",))))

    def passes(kw, wide, name, index, cls):
        return name in kw or (index is not None
                              and wide.get(cls, 0) > index)

    unpassed, pinned, test_only_knobs = [], [], 0
    for qualified, (name, _, _, index, cls) in sorted(params.items()):
        if passes(passed, widest, name, index, cls):
            values = {literal_passed(call, name, index)
                      for call in calls.get(cls, ())}
            if len(values) == 1 and None not in values:
                pinned.append(qualified)
            continue
        if passes(test_passed, test_widest, name, index, cls):
            test_only_knobs += 1
        else:
            unpassed.append(qualified)
    test_only_fields = sum(1 for q in fields if not sets(used_kws, q)
                           and sets(test_kws, q))
    print(f"settable values: {len(fields)} config fields "
          f"({test_only_fields} set only by tests), {len(params)} "
          f"constructor knobs ({test_only_knobs} passed only by tests)")

    for title, names in (
            ("no reference anywhere — delete, or give it a caller", dead),
            ("referenced only from tests/ and not in TESTS_ONLY", untabled),
            ("config fields nothing outside tests/ sets by keyword — "
             "retire them into the class that uses them", unset),
            ("constructor knobs no call passes, tests included — "
             "retire them into the class", unpassed),
            ("constructor knobs every call outside tests/ passes as one "
             "literal — retire them into the class", pinned),
            ("TESTS_ONLY / UNSET_FIELDS entries no longer needed — "
             "remove them", stale)):
        if names:
            print(f"{title}:")
            for qualified in names:
                where = "not defined"
                found = (defs.get(qualified) or fields.get(qualified)
                         or params.get(qualified))
                if found:
                    _, path, line, *_ = found
                    where = f"{path.relative_to(ROOT)}:{line}"
                print(f"  {qualified}  [{where}]")
    if dead or untabled or unset or unpassed or pinned or stale:
        return 1
    print(f"{len(defs)} public names in src/repro, "
          f"{len(TESTS_ONLY)} kept for tests only, none dead; "
          f"{len(UNSET_FIELDS)} config fields unset, no knob unpassed "
          f"or pinned to one literal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
