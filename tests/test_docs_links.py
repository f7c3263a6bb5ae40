"""The docs link checker (tools/check_doc_links.py) and the repo's docs.

Two halves: unit tests for the checker's link extraction/resolution on a
fabricated tree, and the live gate — the repo's own tracked markdown must
contain no dead relative links (the same check CI runs).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_doc_links.py"

sys.path.insert(0, str(CHECKER.parent))
from check_doc_links import dead_links  # noqa: E402


class TestDeadLinkDetection:
    def test_live_relative_links_pass(self, tmp_path):
        (tmp_path / "other.md").write_text("# other\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "deep.md").write_text("# deep\n")
        doc = tmp_path / "doc.md"
        doc.write_text("[a](other.md) [b](sub/deep.md) "
                       "[c](other.md#section) [d](./other.md)\n")
        assert dead_links(doc, tmp_path) == []

    def test_dead_relative_link_is_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](nope/gone.md) for details\n")
        assert dead_links(doc, tmp_path) == [(doc, "nope/gone.md")]

    def test_external_and_anchor_links_are_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[w](https://example.com/x.md) "
                       "[m](mailto:a@b.c) [s](#local-heading)\n")
        assert dead_links(doc, tmp_path) == []

    def test_links_inside_fenced_code_blocks_are_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("```\n[example](not/a/real/file.md)\n```\n")
        assert dead_links(doc, tmp_path) == []

    def test_link_escaping_the_repo_is_dead(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[out](../../etc/passwd)\n")
        assert dead_links(doc, tmp_path) == [(doc, "../../etc/passwd")]


class TestRepoDocs:
    def test_tracked_markdown_has_no_dead_relative_links(self):
        """The CI docs gate, run in-process: every relative link in the
        repo's own markdown must resolve."""
        proc = subprocess.run([sys.executable, str(CHECKER)],
                              cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_tracked_file_deleted_from_the_worktree_is_skipped(self,
                                                               tmp_path):
        """A tracked markdown file deleted but not committed is not read
        (it used to crash the checker); a link to it is still dead."""
        (tmp_path / "tools").mkdir()
        shutil.copy(CHECKER, tmp_path / "tools" / CHECKER.name)
        (tmp_path / "README.md").write_text("[gone](GONE.md)\n")
        (tmp_path / "GONE.md").write_text("# soon deleted\n")
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        subprocess.run(["git", "add", "README.md", "GONE.md"], cwd=tmp_path,
                       check=True)
        (tmp_path / "GONE.md").unlink()
        proc = subprocess.run(
            [sys.executable, str(tmp_path / "tools" / CHECKER.name)],
            cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == ["README.md: GONE.md",
                                            "1 dead relative link(s)"]

    def test_tree_outside_a_git_checkout_is_walked(self, tmp_path):
        """Without git metadata (an unpacked archive) the checker walks the
        tree instead of dying on ``git ls-files``, skipping caches and
        virtualenvs, and reports exactly the one dead link."""
        (tmp_path / "tools").mkdir()
        shutil.copy(CHECKER, tmp_path / "tools" / CHECKER.name)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "guide.md").write_text("# guide\n")
        (tmp_path / "README.md").write_text(
            "[good](docs/guide.md) and [dead](docs/missing.md)\n")
        for skipped in (".venv", ".pytest_cache"):
            (tmp_path / skipped).mkdir()
            (tmp_path / skipped / "vendored.md").write_text("[x](nope.md)\n")
        # Keep git from finding a checkout above the temporary tree.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tmp_path.parent))
        proc = subprocess.run(
            [sys.executable, str(tmp_path / "tools" / CHECKER.name)],
            cwd=tmp_path, capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["README.md: docs/missing.md",
                                            "1 dead relative link(s)"]

    def test_checker_exits_nonzero_on_a_dead_link(self, tmp_path):
        doc = tmp_path / "broken.md"
        doc.write_text("[dead](missing.md)\n")
        proc = subprocess.run([sys.executable, str(CHECKER), str(doc)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "missing.md" in proc.stderr
