"""AST rule passes of the determinism linter.

Every rule is a function ``(tree, context) -> [Finding]`` registered in
``AST_RULES``.  Rules only *read* the AST; the optional ``fix`` payload
on a finding describes a mechanical rewrite that ``repro lint --fix``
(:mod:`repro.analysis.fixes`) can apply textually.

Rule catalogue
--------------
``nondet-hash``        builtin ``hash()``: salted per process (PYTHONHASHSEED),
                       so any value derived from it differs across runs --
                       the exact bug PR 1 shipped in graph generation.
``nondet-id``          builtin ``id()``: allocation-order dependent; using it
                       for keys or ordering leaks address-space layout.
``nondet-bare-random`` module-level ``random.*`` / ``numpy.random.*`` calls
                       (global, unseeded RNG state) and unseeded
                       ``random.Random()`` / ``np.random.default_rng()``.
``nondet-time``        wall-clock reads (``time.time`` & friends) inside
                       simulation modules, where they could leak into cycle
                       arithmetic.  Infrastructure packages (jobs, bench,
                       analysis, cluster, the CLI) legitimately measure wall
                       time and are exempt.
``nondet-set-iter``    ``for``-loop / comprehension iteration over a ``set``
                       expression or a local bound to one, and ``.pop()`` on
                       such a set: element order is hash-order.  Membership
                       tests and order-insensitive reductions are fine and
                       not flagged.  (``dict`` iteration is insertion-ordered
                       in Python 3.7+ and therefore exempt.)
``engine-quiescence``  an engine class that overrides ``tick`` /
                       ``blocks_dispatch`` / ``blocks_commit`` without
                       overriding ``quiescent`` breaks the fast-forward
                       quiescence contract: the inherited ``quiescent`` knows
                       nothing about the new per-cycle work, so event jumps
                       could elide it.  Defining ``next_event`` without
                       ``quiescent`` is flagged for the same reason.
``race-unguarded-write``  concurrency pass (:mod:`.concurrency`): a
                       thread-escaping attribute with an inferred lock
                       guard is written outside it.
``race-no-guard``      concurrency pass: a thread-escaping attribute is
                       mutated with no lock held anywhere.
``lock-order``         concurrency pass: statically nested locks form a
                       cycle (AB/BA deadlock recipe).
``time-exempt-drift``  dynamic check: ``TIME_EXEMPT_PREFIXES`` lists a
                       prefix matching no real directory, or an infra
                       package (imports ``threading``/``socket``/
                       ``subprocess``) is not listed.
"""

from __future__ import annotations

import ast
import os

from .linter import Finding, package_root

#: Wall-clock functions of the ``time`` module that must not appear in
#: simulation code.
_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: ``random`` module functions that use the global (unseeded) RNG state.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})

#: Legacy ``numpy.random`` functions backed by the global numpy RNG.
_GLOBAL_NP_RANDOM_FUNCS = frozenset({
    "choice", "normal", "permutation", "rand", "randint", "randn",
    "random", "random_sample", "seed", "shuffle", "uniform",
})

#: Path prefixes (relative to the package root, "/"-separated) where
#: wall-clock reads are legitimate: infrastructure that measures host
#: time, never simulated time.
TIME_EXEMPT_PREFIXES = ("jobs/", "bench/", "analysis/", "cluster/",
                        "faults/", "serve/", "tests/", "benchmarks/",
                        "__main__")

#: Base classes that mark a class as a runahead engine for the
#: quiescence-contract rule, plus a naming convention fallback.
_ENGINE_BASES = frozenset({"RunaheadEngine", "NullEngine"})
_ENGINE_HOOKS = ("tick", "blocks_dispatch", "blocks_commit")


def _name_of(node):
    """Dotted name of a Name/Attribute chain, e.g. ``np.random.seed``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(context, rule, node, message, fix=None):
    return Finding(rule=rule, path=context.path, line=node.lineno,
                   col=node.col_offset, message=message, fix=fix)


# ---------------------------------------------------------------------------
# nondet-hash / nondet-id
# ---------------------------------------------------------------------------
def rule_builtin_hash_id(tree, context):
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "hash":
            findings.append(_finding(
                context, "nondet-hash", node,
                "builtin hash() is salted per process (PYTHONHASHSEED); "
                "use zlib.crc32 / hashlib for stable hashing"))
        elif node.func.id == "id":
            findings.append(_finding(
                context, "nondet-id", node,
                "builtin id() depends on allocation order; do not use it "
                "for keys, ordering, or anything that reaches Metrics"))
    return findings


# ---------------------------------------------------------------------------
# nondet-bare-random
# ---------------------------------------------------------------------------
def rule_bare_random(tree, context):
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _name_of(node.func)
        if name is None:
            continue
        parts = name.split(".")
        # random.<global fn>(...)  -- global unseeded RNG state
        if len(parts) == 2 and parts[0] == "random" \
                and parts[1] in _GLOBAL_RANDOM_FUNCS:
            findings.append(_finding(
                context, "nondet-bare-random", node,
                f"{name}() uses the global random state; route it through "
                f"a seeded per-run RNG (random.Random(seed))",
                fix={"kind": "reroute_random",
                     "line": node.func.lineno,
                     "col": node.func.col_offset,
                     "end_col": node.func.col_offset + len("random")}))
        # random.Random() with no seed argument
        elif name in ("random.Random", "random.SystemRandom") \
                and not node.args and not node.keywords:
            findings.append(_finding(
                context, "nondet-bare-random", node,
                f"{name}() without a seed is nondeterministic; pass an "
                f"explicit seed"))
        # np.random.<legacy fn>(...) / numpy.random.<legacy fn>(...)
        elif len(parts) == 3 and parts[0] in ("np", "numpy") \
                and parts[1] == "random" \
                and parts[2] in _GLOBAL_NP_RANDOM_FUNCS:
            findings.append(_finding(
                context, "nondet-bare-random", node,
                f"{name}() uses numpy's global RNG; use "
                f"np.random.default_rng(seed)"))
        elif len(parts) == 3 and parts[0] in ("np", "numpy") \
                and parts[1] == "random" and parts[2] == "default_rng" \
                and not node.args and not node.keywords:
            findings.append(_finding(
                context, "nondet-bare-random", node,
                f"{name}() without a seed draws OS entropy; pass an "
                f"explicit seed"))
    return findings


# ---------------------------------------------------------------------------
# nondet-time
# ---------------------------------------------------------------------------
def rule_wall_clock(tree, context):
    if context.relpath.startswith(TIME_EXEMPT_PREFIXES):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _name_of(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "time" \
                and parts[1] in _TIME_FUNCS:
            findings.append(_finding(
                context, "nondet-time", node,
                f"{name}() reads the wall clock inside simulation code; "
                f"simulated time must come from the cycle counter"))
    return findings


# ---------------------------------------------------------------------------
# nondet-set-iter
# ---------------------------------------------------------------------------
def _is_set_expr(node, set_names):
    """Is ``node`` an expression that (statically) evaluates to a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset") and node.args:
        # Bare set()/frozenset() (empty) only matters once iterated via a
        # tracked name; a direct `for x in set()` is pointless but flagged
        # through the generic case below anyway.
        return True
    key = _target_key(node)
    return key is not None and key in set_names


def _target_key(node):
    """Trackable key for a Name or ``self.<attr>`` target/expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return f"self.{node.attr}"
    return None


def _produces_set(node):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    return False


def rule_set_iteration(tree, context):
    findings = []
    # Pass 1: names bound to set-producing expressions, module-wide.  This
    # is deliberately flow-insensitive: a name that ever holds a set is
    # suspect everywhere (rebinding a lane list over a set is exactly the
    # kind of bug the rule exists for).
    set_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _produces_set(node.value):
            for target in node.targets:
                key = _target_key(target)
                if key is not None:
                    set_names.add(key)
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and _produces_set(node.value):
            key = _target_key(node.target)
            if key is not None:
                set_names.add(key)

    def flag_iter(expr, what):
        fix = None
        if expr.lineno == getattr(expr, "end_lineno", None):
            fix = {"kind": "wrap_sorted", "line": expr.lineno,
                   "col": expr.col_offset, "end_col": expr.end_col_offset}
        findings.append(_finding(
            context, "nondet-set-iter", expr,
            f"iterating a set ({what}): element order is hash-order and "
            f"can differ between runs; wrap in sorted(...)", fix=fix))

    # Pass 2: iteration points.
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter, set_names):
                flag_iter(node.iter, ast.unparse(node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter, set_names):
                    flag_iter(gen.iter, ast.unparse(gen.iter))
        elif isinstance(node, ast.Call) and not node.args \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "pop":
            key = _target_key(node.func.value)
            if key is not None and key in set_names:
                findings.append(_finding(
                    context, "nondet-set-iter", node,
                    f"{key}.pop() removes an arbitrary (hash-ordered) "
                    f"element from a set"))
    return findings


# ---------------------------------------------------------------------------
# engine-quiescence
# ---------------------------------------------------------------------------
def _is_engine_class(node):
    if node.name.endswith("Engine"):
        return True
    for base in node.bases:
        name = _name_of(base)
        if name is not None and name.split(".")[-1] in _ENGINE_BASES:
            return True
    return False


def rule_engine_quiescence(tree, context):
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and _is_engine_class(node)):
            continue
        methods = {child.name for child in node.body
                   if isinstance(child, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
        overridden = [hook for hook in _ENGINE_HOOKS if hook in methods]
        if overridden and "quiescent" not in methods:
            findings.append(_finding(
                context, "engine-quiescence", node,
                f"engine {node.name} overrides {', '.join(overridden)} "
                f"without overriding quiescent(): the inherited quiescence "
                f"claim would let fast-forward elide the new per-cycle "
                f"work"))
        elif "next_event" in methods and "quiescent" not in methods:
            findings.append(_finding(
                context, "engine-quiescence", node,
                f"engine {node.name} defines next_event() without "
                f"quiescent(): wake-ups are only consulted for engines "
                f"that claim quiescence"))
    return findings


# ---------------------------------------------------------------------------
# time-exempt-drift (dynamic check)
# ---------------------------------------------------------------------------
#: Imports that mark a package as infrastructure (host-facing code that
#: legitimately measures wall time): thread, socket or process control.
_INFRA_IMPORTS = frozenset({"threading", "socket", "subprocess"})


def _exempt_list_line():
    """Line of the TIME_EXEMPT_PREFIXES assignment (for the finding)."""
    try:
        with open(__file__, encoding="utf-8") as handle:
            for number, text in enumerate(handle, start=1):
                if text.startswith("TIME_EXEMPT_PREFIXES"):
                    return number
    except OSError:
        pass
    return 0


def _package_imports_infra(directory):
    """Does any module in ``directory`` import threading/socket/etc.?"""
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            try:
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=name)
            except (OSError, SyntaxError):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    if any(alias.name.split(".")[0] in _INFRA_IMPORTS
                           for alias in node.names):
                        return True
                elif isinstance(node, ast.ImportFrom) and node.module \
                        and node.module.split(".")[0] in _INFRA_IMPORTS:
                    return True
    return False


def check_time_exemptions():
    """Flag drift between TIME_EXEMPT_PREFIXES and the real tree.

    * **Stale entry**: a listed prefix that matches no directory under
      the package root (or the repo root, for ``tests/`` and friends)
      and no module -- silently exempting nothing.
    * **Unlisted infra package**: a package directory whose modules
      import ``threading``/``socket``/``subprocess`` (host-facing
      infrastructure, which always ends up measuring wall time) but
      which is not in the exemption list; its wall-clock reads would be
      mis-flagged as simulation nondeterminism.
    """
    root = package_root()
    repo_root = os.path.dirname(os.path.dirname(root))
    line = _exempt_list_line()
    findings = []
    for prefix in TIME_EXEMPT_PREFIXES:
        if prefix.endswith("/"):
            name = prefix[:-1]
            if not (os.path.isdir(os.path.join(root, name))
                    or os.path.isdir(os.path.join(repo_root, name))):
                findings.append(Finding(
                    rule="time-exempt-drift", path=__file__, line=line,
                    col=0, message=(
                        f"TIME_EXEMPT_PREFIXES entry {prefix!r} matches "
                        f"no directory under {root} or {repo_root}; "
                        f"remove the stale exemption")))
        elif not os.path.exists(os.path.join(root, prefix + ".py")):
            findings.append(Finding(
                rule="time-exempt-drift", path=__file__, line=line,
                col=0, message=(
                    f"TIME_EXEMPT_PREFIXES entry {prefix!r} matches no "
                    f"module {prefix}.py under {root}; remove the stale "
                    f"exemption")))
    exempt_dirs = {p[:-1] for p in TIME_EXEMPT_PREFIXES if p.endswith("/")}
    for entry in sorted(os.listdir(root)):
        directory = os.path.join(root, entry)
        if not os.path.isdir(directory) or entry == "__pycache__":
            continue
        if entry in exempt_dirs:
            continue
        if _package_imports_infra(directory):
            findings.append(Finding(
                rule="time-exempt-drift", path=__file__, line=line,
                col=0, message=(
                    f"package {entry!r} imports threading/socket/"
                    f"subprocess (infrastructure) but is not in "
                    f"TIME_EXEMPT_PREFIXES; its wall-clock reads would "
                    f"be flagged as simulation nondeterminism")))
    return findings


#: rule name -> pass function.  Order is the report order.
def _rule_concurrency(tree, context):
    from .concurrency import rule_concurrency
    return rule_concurrency(tree, context)


AST_RULES = {
    "nondet-hash": rule_builtin_hash_id,
    "nondet-bare-random": rule_bare_random,
    "nondet-time": rule_wall_clock,
    "nondet-set-iter": rule_set_iteration,
    "engine-quiescence": rule_engine_quiescence,
    "race-unguarded-write": _rule_concurrency,
}

#: Passes that emit more rules than the name they are registered under;
#: lint_file consults this for --rules selection and suppressions.
CO_EMITTED = {
    "nondet-hash": ("nondet-id",),
    "race-unguarded-write": ("race-no-guard", "lock-order"),
}

ALL_RULE_NAMES = tuple(AST_RULES) \
    + tuple(name for names in CO_EMITTED.values() for name in names) \
    + ("schema-roundtrip", "engine-contract", "time-exempt-drift")
