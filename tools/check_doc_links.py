#!/usr/bin/env python3
"""Fail the build on dead relative links in the repo's markdown docs.

Scans every tracked ``*.md`` file (or the paths given as arguments) for
inline markdown links and checks that each *relative* target exists on
disk, resolved against the linking file's directory.  External links
(``http(s)://``, ``mailto:``) and pure in-page anchors (``#section``) are
ignored; a ``path#anchor`` link is checked for ``path`` only.  Outside a
git checkout (an unpacked archive, say) every ``*.md`` under the repo root
is scanned instead, skipping version-control, cache and virtualenv
directories.

Exit status: 0 when every relative link resolves, 1 otherwise (one line
per dead link, ``file: target``).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

# Inline links only: [text](target).  Reference-style links are not used
# in this repo; images ![alt](target) are matched too via the optional !.
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

EXTERNAL = ("http://", "https://", "mailto:")

# Vendored paper-retrieval material, not repo documentation: its figure
# references point at assets that were never vendored.
EXCLUDED = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}

# Directories the tree walk skips: version control, virtualenvs and tool
# caches (any name ending in "_cache" too).
SKIPPED_DIRS = {".git", ".hg", ".svn", ".venv", "venv", ".tox", ".nox",
                "node_modules", "__pycache__", ".hypothesis", ".benchmarks"}


def markdown_files(root: Path):
    """The tracked markdown files, or every one under *root* when *root*
    is not a git checkout.  A tracked file deleted from the working tree
    has no links to check and is skipped (links *to* it are still dead)."""
    try:
        names = subprocess.run(
            ["git", "ls-files", "*.md", "**/*.md"], cwd=root,
            capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        names = []
        for directory, subdirs, files in os.walk(root):
            subdirs[:] = sorted(name for name in subdirs
                                if name not in SKIPPED_DIRS
                                and not name.endswith("_cache"))
            names += [Path(directory, name).relative_to(root).as_posix()
                      for name in sorted(files) if name.endswith(".md")]
    return [root / name for name in names
            if name not in EXCLUDED and (root / name).is_file()]


def dead_links(path: Path, root: Path):
    dead = []
    text = path.read_text(encoding="utf-8")
    # Links inside fenced code blocks are examples, not navigation.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        resolved = (path.parent / relative).resolve()
        try:
            resolved.relative_to(root.resolve())
        except ValueError:
            dead.append((path, target))  # escapes the repo
            continue
        if not resolved.exists():
            dead.append((path, target))
    return dead


def main(argv):
    root = Path(__file__).resolve().parent.parent
    files = [Path(name).resolve() for name in argv[1:]]
    if files:
        # Explicit arguments may live anywhere (e.g. a test's tmp dir);
        # treat each file's own directory as its containment root.
        broken = [entry for path in files
                  for entry in dead_links(path, path.parent)]
    else:
        files = markdown_files(root)
        broken = [entry for path in files
                  for entry in dead_links(path, root)]
    for path, target in broken:
        try:
            shown = path.relative_to(root)
        except ValueError:
            shown = path
        print(f"{shown}: {target}", file=sys.stderr)
    if broken:
        print(f"{len(broken)} dead relative link(s)", file=sys.stderr)
        return 1
    print(f"checked {len(files)} markdown file(s): all relative links OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
