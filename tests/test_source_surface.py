"""Every public definition in ``src/`` is used by something besides tests.

A function, class, method or constant that only tests use is code the
program never runs: it costs reading and upkeep and proves nothing about the
reproduction.  This test lists the public (no leading underscore) top-level
functions and classes of ``src/``, the public methods of those classes
(``module:Class.method``) and the public ALL-CAPS module constants, and fails
on any that nothing but tests uses.

A use is read off the syntax tree of the program's code (``src/``,
``benchmarks/``, ``examples/``, ``e2ebench/`` and ``docs/*.py``): a name, an
attribute, or an identifier inside a string constant that is not a docstring
(so quoted annotations and e2ebench's lists of target names count, a doctest
does not).  Nothing inside an ``import``, an ``__all__`` assignment or the
definition itself counts.  The text of the written docs (``docs/**/*.md``
except the generated API pages in ``docs/api/``, which name every public
definition), the README and the CI files counts as well.

A kept exception goes in :data:`ALLOWED` with its reason.  An entry whose
definition is gone or has gained a use is stale and fails the test too, so
the list only ever holds what it has to.  A second test fails on any ``src/``
module outside ``__init__.py`` that imports a name it never uses.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Directories whose Python files are the program's code, besides ``docs/*.py``.
CODE_DIRS = ("src", "benchmarks", "examples", "e2ebench")
#: Text files whose identifiers count as uses.
TEXT_FILES = ("docs/**/*.md", "README.md", ".github/**/*.yml", ".github/**/*.yaml")
#: Generated output inside those globs, which never counts as a use.
GENERATED_DIRS = ("docs/api",)

_E2EBENCH = (
    "e2ebench's tracer imports its module by name, so it stays until the "
    "tracer reads the program's own trace instead of wrapping modules"
)
_BOUND = "a paper bound that the planned per-seed claim ledger checks"
_FACT = "an Appendix A fact that the planned per-seed claim ledger checks"
_CLAIM = "Claim 3.3's empirical check, which the planned per-seed claim ledger runs"
_TEST_INPUT = "a workload generator the tests use as input"

#: ``module:name`` -> why the definition stays although only tests use it.
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
    "repro.infotheory.odometer:truncate_at_budget": _E2EBENCH,
    "repro.workloads.io:dumps_instance": _E2EBENCH,
    "repro.workloads.io:save_instance": _E2EBENCH,
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
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_not_a_use(node: ast.AST) -> bool:
    """An import or an ``__all__`` assignment: it names, it does not use."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _uses(node: ast.AST, docstrings: Set[int]) -> Counter:
    """Identifiers ``node``'s subtree uses (see the module docstring)."""
    counts: Counter = Counter()
    stack = [node]
    while stack:
        current = stack.pop()
        if _is_not_a_use(current):
            continue
        if isinstance(current, ast.Name):
            counts[current.id] += 1
        elif isinstance(current, ast.Attribute):
            counts[current.attr] += 1
        elif (
            isinstance(current, ast.Constant)
            and isinstance(current.value, str)
            and id(current) not in docstrings
        ):
            counts.update(_IDENTIFIER.findall(current.value))
        stack.extend(ast.iter_child_nodes(current))
    return counts


def _code_uses(source: str) -> Counter:
    """Identifiers one module's code uses."""
    tree = ast.parse(source)
    return _uses(tree, _docstrings(tree))


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(name, node)`` for each definition of a module that the scan checks."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_public(node.name):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if _is_public(member.name):
                            yield f"{node.name}.{member.name}", member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _CONSTANT.fullmatch(name.id):
                        yield name.id, node


def _code_files(root: Path) -> List[Path]:
    files = [path for directory in CODE_DIRS for path in sorted((root / directory).rglob("*.py"))]
    return files + sorted((root / "docs").glob("*.py"))


def _text_identifiers(root: Path) -> Counter:
    """Identifier counts over the written docs, the README and the CI files."""
    generated = [root / name for name in GENERATED_DIRS]
    counts: Counter = Counter()
    for pattern in TEXT_FILES:
        for path in root.glob(pattern):
            if path.is_file() and not any(path.is_relative_to(d) for d in generated):
                counts.update(_IDENTIFIER.findall(path.read_text()))
    return counts


def _unused_definitions() -> List[str]:
    """``module:name`` of every checked definition that nothing but tests uses."""
    everywhere = _text_identifiers(ROOT)
    own: List[Tuple[str, str, Counter]] = []
    for path in _code_files(ROOT):
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        everywhere.update(_uses(tree, docstrings))
        if path.is_relative_to(SRC):
            for name, node in _definitions(tree):
                key = f"{_module_name(path)}:{name}"
                own.append((key, name.rpartition(".")[2], _uses(node, docstrings)))
    return sorted(key for key, name, inside in own if everywhere[name] <= inside[name])


def test_only_tests_reach_nothing_outside_the_allowlist():
    unused = _unused_definitions()
    unexpected = sorted(set(unused) - set(ALLOWED))
    assert not unexpected, (
        "public definitions in src/ that only tests use (delete them with "
        f"their tests, or allowlist them with a reason): {unexpected}"
    )
    stale = sorted(set(ALLOWED) - set(unused))
    assert not stale, f"allowlist entries that are gone or now used: {stale}"


def test_a_doctest_mention_is_not_a_use():
    source = 'def caller():\n    """Call it.\n\n    >>> helper()\n    """\n'
    assert _code_uses(source)["helper"] == 0
    assert _code_uses('"""Module text naming helper."""\n')["helper"] == 0


def test_a_quoted_annotation_is_a_use():
    assert _code_uses('def build() -> "Tracker":\n    pass\n')["Tracker"] == 1
    assert _code_uses('TARGETS = ("helper", "other")\n')["helper"] == 1


def test_an_import_is_not_a_use():
    source = (
        "import helper_module\n"
        "from package import helper\n"
        "__all__ = ['helper']\n"
    )
    uses = _code_uses(source)
    assert uses["helper"] == 0
    assert uses["helper_module"] == 0
    assert _code_uses("from package import helper\nhelper()\n")["helper"] == 1


def test_uses_inside_the_definition_do_not_count():
    tree = ast.parse(
        "class Meter:\n"
        "    def reset(self):\n"
        "        self.reset()\n"
        "    def charge(self):\n"
        "        self.reset()\n"
        "LIMIT = LIMIT_BASE = 3\n"
    )
    docstrings = _docstrings(tree)
    found = {name: _uses(node, docstrings) for name, node in _definitions(tree)}
    assert set(found) == {"Meter", "Meter.reset", "Meter.charge", "LIMIT", "LIMIT_BASE"}
    assert _uses(tree, docstrings)["reset"] - found["Meter.reset"]["reset"] == 1
    assert _uses(tree, docstrings)["charge"] - found["Meter.charge"]["charge"] == 0


def test_generated_api_pages_do_not_count_as_uses(tmp_path):
    (tmp_path / "docs" / "api").mkdir(parents=True)
    (tmp_path / "docs" / "api" / "page.md").write_text("only_in_generated_docs")
    (tmp_path / "docs" / "guide.md").write_text("named_in_written_docs")
    (tmp_path / "README.md").write_text("")
    counts = _text_identifiers(tmp_path)
    assert counts["named_in_written_docs"] == 1
    assert counts["only_in_generated_docs"] == 0


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
