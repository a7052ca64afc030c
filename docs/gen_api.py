"""Generate the docs-site API reference from the package docstrings.

Stdlib-only (no mkdocstrings plugin): walks every module under ``repro``,
renders each top-level subpackage as one markdown page under ``docs/api/``
(module docstrings verbatim, then a signature + summary list of the public
names defined in that module), plus an ``api/index.md`` landing page whose
links the mkdocs nav enters through.  Run before building the site::

    PYTHONPATH=src python docs/gen_api.py
    mkdocs build --strict

The generator is imported by the test suite, so a module whose docstring or
import breaks fails CI before the docs job does.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path
from typing import Dict, List

API_DIR = Path(__file__).parent / "api"

#: Optional extras.  A module that imports one of them at import time (the
#: NumPy kernel) is documented from its source where the extra is missing,
#: so a bare interpreter still writes and checks every page.
OPTIONAL_DEPENDENCIES = ("numpy",)


def iter_module_names() -> List[str]:
    """Every importable module under ``repro``, sorted by dotted name."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


def group_by_page(names: List[str]) -> Dict[str, List[str]]:
    """Map page key (top-level child, or ``repro`` itself) → its modules."""
    pages: Dict[str, List[str]] = {}
    for name in names:
        parts = name.split(".")
        page = "repro" if len(parts) == 1 else ".".join(parts[:2])
        pages.setdefault(page, []).append(name)
    return pages


def _first_paragraph(doc: str) -> str:
    return doc.strip().split("\n\n")[0].replace("\n", " ").strip()


def _signature(obj) -> str:
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(…)"
    if len(text) > 120:
        # Wide dataclass constructors: keep the parameter *names* readable.
        try:
            names = ", ".join(inspect.signature(obj).parameters)
            text = f"({names})"
        except (TypeError, ValueError):  # pragma: no cover - signature held above
            pass
    return text if len(text) <= 240 else text[:237] + "..."


def public_names(module) -> List[str]:
    """The module's public API: ``__all__`` or its own non-underscore names."""
    explicit = getattr(module, "__all__", None)
    if explicit is not None:
        return list(explicit)
    names = []
    for name, value in vars(module).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        defined_in = getattr(value, "__module__", None)
        if defined_in == module.__name__:
            names.append(name)
    return sorted(names)


def _entry(kind: str, name: str, signature: str, doc: str) -> str:
    summary = _first_paragraph(doc or "")
    return f"- **`{kind} {name}{signature}`** — {summary}"


def _imported_entries(module, top_level: bool) -> List[str]:
    entries = []
    for public in public_names(module):
        value = getattr(module, public, None)
        if value is None or inspect.ismodule(value):
            continue
        # Re-exported names are documented where they are defined.
        if not top_level and getattr(value, "__module__", module.__name__) != module.__name__:
            continue
        if inspect.isclass(value) or inspect.isfunction(value):
            kind = "class" if inspect.isclass(value) else "def"
            entries.append(_entry(kind, public, _signature(value), inspect.getdoc(value)))
        else:
            entries.append(f"- **`{public}`** — constant")
    return entries


def _source_signature(node) -> str:
    """A def's or a class constructor's parameters as written in the source."""
    if isinstance(node, ast.ClassDef):
        inits = [
            item
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        ]
        if not inits:
            return "(…)"
        arguments = inits[0].args
        arguments.args = arguments.args[1:]  # drop self
    else:
        arguments = node.args
    text = f"({ast.unparse(arguments)})"
    return text if len(text) <= 240 else text[:237] + "..."


def _source_module(name: str):
    """``(docstring, entries)`` of a module read from its source, not imported.

    Lists the public defs and classes, as :func:`public_names` does for a
    module without ``__all__``.
    """
    tree = ast.parse(Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8"))
    entries = [
        _entry(
            "class" if isinstance(node, ast.ClassDef) else "def",
            node.name,
            _source_signature(node),
            ast.get_docstring(node),
        )
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    return ast.get_docstring(tree), entries


def render_module_section(name: str, top_level: bool = False) -> str:
    """One module's documentation: docstring verbatim plus its public names."""
    try:
        module = importlib.import_module(name)
    except ModuleNotFoundError as error:
        if error.name not in OPTIONAL_DEPENDENCIES:
            raise
        doc, entries = _source_module(name)
    else:
        doc, entries = inspect.getdoc(module), _imported_entries(module, top_level)
    lines = [f"{'#' if top_level else '##'} `{name}`", ""]
    lines.append(doc if doc else "*No module docstring.*")
    lines.append("")
    if entries:
        lines.append("**Public API:**")
        lines.append("")
        lines.extend(entries)
        lines.append("")
    return "\n".join(lines)


def render_page(page: str, modules: List[str]) -> str:
    """The full markdown page for one top-level package."""
    sections = [render_module_section(modules[0], top_level=True)]
    for name in modules[1:]:
        sections.append(render_module_section(name))
    return "\n".join(sections).rstrip() + "\n"


def render_index(pages: Dict[str, List[str]]) -> str:
    lines = [
        "# API reference",
        "",
        "Generated from the package docstrings by `docs/gen_api.py` "
        "(run `PYTHONPATH=src python docs/gen_api.py` before `mkdocs build`).",
        "",
    ]
    for page in sorted(pages):
        module = importlib.import_module(page)
        summary = _first_paragraph(inspect.getdoc(module) or "")
        lines.append(f"- [`{page}`]({page}.md) — {summary}")
    lines.append("")
    return "\n".join(lines)


def main(api_dir: Path = API_DIR) -> List[Path]:
    """Write every API page; returns the written paths."""
    pages = group_by_page(iter_module_names())
    api_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for page, modules in sorted(pages.items()):
        path = api_dir / f"{page}.md"
        path.write_text(render_page(page, modules), encoding="utf-8")
        written.append(path)
    index = api_dir / "index.md"
    index.write_text(render_index(pages), encoding="utf-8")
    written.append(index)
    return written


if __name__ == "__main__":
    for path in main():
        print(f"wrote {path}")
