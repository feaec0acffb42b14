"""Docs integrity: the markdown link/anchor graph of README and docs/.

Every relative link in ``README.md`` and ``docs/*.md`` must point at a
file that exists in the repo, and every ``#anchor`` fragment must match a
heading in the target file (GitHub slug rules).  External ``http(s)``
links and GitHub-web-UI paths that escape the repo root (the CI badge)
are skipped -- this is an offline check.  Every ``examples/*.py``
script must also import cleanly against the current library API, and
``README.md``'s ``python`` blocks must run, in order, in one namespace.

This module runs in tier-1 and again in the CI docs job next to
``pytest --doctest-modules``.
"""

import re
import runpy
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
PYTHON_BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def doc_files():
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return files


def strip_code(text: str) -> str:
    """Drop fenced blocks and inline code spans before link scanning."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`]*`", "", text)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces->dashes."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def heading_slugs(path: Path):
    return {github_slug(m.group(1)) for m in HEADING_RE.finditer(path.read_text())}


def iter_links():
    for doc in doc_files():
        for target in LINK_RE.findall(strip_code(doc.read_text())):
            yield doc, target


def test_docs_exist():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
    assert (REPO_ROOT / "docs" / "chaos_campaigns.md").is_file()


@pytest.mark.parametrize(
    "doc,target",
    [pytest.param(d, t, id=f"{d.name}:{t}") for d, t in iter_links()],
)
def test_markdown_link_resolves(doc, target):
    if target.startswith(("http://", "https://", "mailto:")):
        pytest.skip("external link")
    path_part, _, anchor = target.partition("#")
    resolved = (doc.parent / path_part).resolve() if path_part else doc.resolve()
    if REPO_ROOT not in resolved.parents and resolved != REPO_ROOT:
        pytest.skip("GitHub web-UI path outside the repo checkout")
    assert resolved.exists(), f"{doc.name}: broken link target {target!r}"
    if anchor:
        assert resolved.suffix == ".md", (
            f"{doc.name}: anchor on non-markdown target {target!r}"
        )
        slugs = heading_slugs(resolved)
        assert anchor in slugs, (
            f"{doc.name}: anchor #{anchor} not a heading of "
            f"{resolved.name} (has: {sorted(slugs)})"
        )


def test_readme_layout_section_is_gone():
    """The stale hand-maintained Layout table was replaced by the docs."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert "## Layout" not in readme
    assert "docs/ARCHITECTURE.md" in readme


@pytest.mark.parametrize(
    "path",
    sorted((REPO_ROOT / "examples").glob("*.py")),
    ids=lambda path: path.name,
)
def test_example_imports(path):
    """Every example imports cleanly: no stale name of the library API.

    ``run_name`` is not ``"__main__"``, so the scripts' ``main()`` guards
    stay shut and only the module bodies (imports, constants) run.
    """
    runpy.run_path(str(path), run_name="__example__")


def test_readme_python_blocks_run():
    """README's ``python`` blocks run in order, sharing one namespace.

    A later block may use names an earlier one defined, as a reader
    pasting them into one session would; a retired API name in any
    block fails here.
    """
    blocks = PYTHON_BLOCK_RE.findall((REPO_ROOT / "README.md").read_text())
    assert blocks, "README.md has no python blocks"
    namespace = {"__name__": "__readme__"}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
