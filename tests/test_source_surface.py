"""Every public top-level definition in ``src/`` is reached by something besides tests.

A function or class that only tests name is code the program never runs: it
costs reading and upkeep and proves nothing about the reproduction.  This
test scans ``src/`` for public (no leading underscore) top-level functions
and classes and fails on any that nothing but tests names.  What counts as
naming a definition:

* its own module, outside the definition itself;
* any other ``src/`` module, except re-exports: imports in ``__init__.py``
  and ``__all__`` lists do not count;
* the benchmarks, the examples, the docs (``docs/`` and the README), the CI
  files and the e2ebench files.

A kept exception goes in :data:`ALLOWED` with its reason.  An entry whose
definition is gone or has gained a caller is stale and fails the test too,
so the list only ever holds what it has to.

Because an import outside ``__init__.py`` counts as naming, a dead import
would hide a definition only tests reach; a second test fails on any
``src/`` module outside ``__init__.py`` that imports a name it never uses.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Files outside ``src/`` whose mentions count, and the suffixes read there.
OTHER_FILES = ("benchmarks/**/*", "examples/**/*", "docs/**/*", ".github/**/*", "e2ebench/**/*")
OTHER_SUFFIXES = (".py", ".md", ".yml", ".yaml")

_E2EBENCH = (
    "e2ebench's tracer imports its module by name, so it stays until the "
    "tracer reads the program's own trace instead of wrapping modules"
)
_BOUND = "a paper bound that the planned per-seed claim ledger checks"
_FACT = "an Appendix A fact that the planned per-seed claim ledger checks"
_CLAIM = "Claim 3.3's empirical check, which the planned per-seed claim ledger runs"
_TEST_INPUT = "a workload generator the tests use as input"

#: ``module:name`` -> why the definition stays although only tests reach it.
ALLOWED: Dict[str, str] = {
    "repro.communication.cost:transcript_bits": _E2EBENCH,
    "repro.communication.cost:evaluate_protocol": _E2EBENCH,
    "repro.communication.protocols.disjointness:TrivialDisjProtocol": _E2EBENCH,
    "repro.communication.protocols.disjointness:IntersectionProbeProtocol": _E2EBENCH,
    "repro.communication.protocols.disjointness:correct_disjointness_answer": _E2EBENCH,
    "repro.communication.protocols.disjointness:extract_inputs": _E2EBENCH,
    "repro.communication.protocols.ghd:TrivialGHDProtocol": _E2EBENCH,
    "repro.communication.protocols.ghd:correct_ghd_answer": _E2EBENCH,
    "repro.infotheory.estimators:plugin_entropy": _E2EBENCH,
    "repro.infotheory.estimators:plugin_mutual_information": _E2EBENCH,
    "repro.infotheory.information_cost:internal_information_cost": _E2EBENCH,
    "repro.infotheory.information_cost:information_cost_of_randomized_protocol": _E2EBENCH,
    "repro.baselines.har_peled:har_peled_space_words": _BOUND,
    "repro.core.algorithm1:expected_pass_count": _BOUND,
    "repro.core.algorithm1:solution_size_bound": _BOUND,
    "repro.core.algorithm1:space_bound_words": _BOUND,
    "repro.core.maxcover_stream:maxcover_space_bound_words": _BOUND,
    "repro.core.tradeoff:dsc_parameter_t": _BOUND,
    "repro.core.tradeoff:dsc_parameter_t_unscaled": _BOUND,
    "repro.core.tradeoff:theorem4_maxcover_space_lower_bound": _BOUND,
    "repro.core.tradeoff:har_peled_space_bound": _BOUND,
    "repro.core.tradeoff:demaine_space_bound": _BOUND,
    "repro.core.tradeoff:nisan_lower_bound": _BOUND,
    "repro.core.tradeoff:exact_solution_lower_bound": _BOUND,
    "repro.core.tradeoff:tradeoff_table": _BOUND,
    "repro.infotheory.facts:check_fact_conditioning_reduces_entropy": _FACT,
    "repro.infotheory.facts:check_fact_a2": _FACT,
    "repro.infotheory.facts:check_fact_a3": _FACT,
    "repro.lowerbound.properties:singleton_collection_coverage": _CLAIM,
    "repro.workloads.random_instances:zipfian_instance": _TEST_INPUT,
    "repro.workloads.random_instances:disjoint_blocks_instance": _TEST_INPUT,
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _identifiers(lines: Iterable[str]) -> Counter:
    return Counter(_IDENTIFIER.findall("".join(lines)))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_reexport(node: ast.stmt, in_init: bool) -> bool:
    if in_init and isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, (ast.Assign, ast.AugAssign)) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    )


def _scan() -> Tuple[List[Tuple[str, Counter]], Counter, Dict[str, Counter]]:
    """``(definitions, outside counts, per-module counts)`` over the tree.

    ``definitions`` holds ``("module:name", identifiers of the module
    outside that definition)`` for every public top-level def.
    """
    definitions: List[Tuple[str, Counter]] = []
    per_module: Dict[str, Counter] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        lines = path.read_text().splitlines(keepends=True)
        tree = ast.parse("".join(lines))
        dropped = set()
        for node in tree.body:
            if _is_reexport(node, path.name == "__init__.py"):
                dropped.update(range(node.lineno - 1, node.end_lineno))
        counted = _identifiers(line for i, line in enumerate(lines) if i not in dropped)
        per_module[module] = counted
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own = counted - _identifiers(lines[start - 1 : node.end_lineno])
                definitions.append((f"{module}:{node.name}", own))
    outside: Counter = Counter()
    for pattern in OTHER_FILES:
        for path in ROOT.glob(pattern):
            if path.is_file() and path.suffix in OTHER_SUFFIXES:
                outside.update(_identifiers([path.read_text()]))
    outside.update(_identifiers([(ROOT / "README.md").read_text()]))
    return definitions, outside, per_module


def test_only_tests_reach_nothing_outside_the_allowlist():
    definitions, outside, per_module = _scan()
    unreached = []
    for key, own in definitions:
        module, name = key.split(":")
        if own[name] or outside[name]:
            continue
        if any(counts[name] for other, counts in per_module.items() if other != module):
            continue
        unreached.append(key)
    unexpected = sorted(set(unreached) - set(ALLOWED))
    assert not unexpected, (
        "public definitions in src/ that only tests name (delete them with "
        f"their tests, or allowlist them with a reason): {unexpected}"
    )
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, f"allowlist entries that are gone or now reached: {stale}"


def _unused_imports(tree: ast.Module) -> List[str]:
    """Names ``tree`` imports that no ``Name`` node or string constant in it
    mentions (string constants cover quoted annotations and doctests)."""
    imported: List[str] = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_IDENTIFIER.findall(node.value))
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{_module_name(path)}:{name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert not unused, f"imports that their module never uses: {unused}"
