"""The documentation suite stays coherent: every page present, every
intra-repo link resolving.  The same checker runs standalone in the CI
docs-smoke job (``python scripts/check_docs_links.py``)."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPECTED_PAGES = (
    "index.md",
    "architecture.md",
    "api.md",
    "traces.md",
    "analysis.md",
    "service.md",
)


def test_documentation_suite_is_complete():
    assert (REPO_ROOT / "README.md").is_file()
    for page in EXPECTED_PAGES:
        assert (REPO_ROOT / "docs" / page).is_file(), f"docs/{page} missing"


def test_index_links_every_page():
    index = (REPO_ROOT / "docs" / "index.md").read_text()
    for page in EXPECTED_PAGES:
        if page != "index.md":
            assert page in index, f"docs/index.md does not mention {page}"


def test_no_broken_intra_repo_links():
    checker = REPO_ROOT / "scripts" / "check_docs_links.py"
    proc = subprocess.run(
        [sys.executable, str(checker)],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, (
        f"broken documentation links:\n{proc.stderr}\n{proc.stdout}"
    )
