"""Documentation checks: the markdown files exist and what they name exists.

This is the test the CI ``docs`` job runs.  It walks every markdown link in
``README.md`` and ``docs/``, and asserts that relative targets point at files
that actually exist in the repository, and that every dotted ``repro.…``
name written in inline code resolves to a real module or attribute — the
failure mode it guards against is a rename or deletion silently orphaning
the docs.  External (``http(s)``, ``mailto``) links and pure in-page anchors
are not fetched.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links: [text](target), tolerating an optional title.
_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")
#: Fenced code blocks, removed before link extraction (may hold example links).
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)

#: Inline code spans, and the dotted ``repro.…`` names inside them.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_REPRO_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")

REQUIRED_DOCS = [
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCHMARKS.md",
    "ROADMAP.md",
    "CHANGES.md",
]


def _markdown_files():
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("**/*.md")))
    return files


def _relative_links(markdown_path: Path):
    text = _CODE_FENCE.sub("", markdown_path.read_text(encoding="utf-8"))
    for match in _LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]  # drop in-file anchors


def test_required_docs_exist():
    missing = [name for name in REQUIRED_DOCS if not (REPO_ROOT / name).is_file()]
    assert not missing, f"missing documentation files: {missing}"


@pytest.mark.parametrize("markdown_path", _markdown_files(),
                         ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(markdown_path):
    broken = []
    for target in _relative_links(markdown_path):
        resolved = (markdown_path.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, (
        f"{markdown_path.relative_to(REPO_ROOT)} has broken relative links: {broken}")


def test_readme_documents_the_cli_and_eval_workers():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for required in ("dataset", "evaluate", "compare", "complexity",
                     "--eval-workers", "python -m pytest -x -q"):
        assert required in readme, f"README.md no longer documents {required!r}"


def _documented_names(markdown_path: Path):
    text = _CODE_FENCE.sub("", markdown_path.read_text(encoding="utf-8"))
    for span in _CODE_SPAN.findall(text):
        yield from _REPRO_NAME.findall(span)


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then look the rest up as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("markdown_path", _markdown_files(),
                         ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_documented_repro_names_exist(markdown_path):
    missing = sorted({name for name in _documented_names(markdown_path)
                      if not _resolves(name)})
    assert not missing, (
        f"{markdown_path.relative_to(REPO_ROOT)} names code that does not "
        f"exist: {missing}")
