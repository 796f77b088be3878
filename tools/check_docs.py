#!/usr/bin/env python3
"""Documentation checks: runnable examples, runnable docs, live links.

Four passes, each independently reported:

1. every ``examples/*.py`` runs to completion (subprocess, timeout);
2. every ```` ```python ```` fenced block in ``docs/API.md`` executes
   verbatim in its own interpreter — the API reference never drifts from
   the code;
3. every relative markdown link and ``#anchor`` in ``docs/*.md`` and
   ``README.md`` resolves (http/https/mailto links are skipped — no
   network in CI);
4. every ``python -m repro <command>`` in ``README.md``, ``docs/*.md``
   and ``.claude/skills/verify/SKILL.md`` names a subcommand of
   ``repro.cli``'s parser.

Run from the repository root:  python tools/check_docs.py
Exit status is non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_TIMEOUT_S = 300

# fenced code blocks: ```python ... ```
_FENCE_RE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
# markdown inline links: [text](target) — good enough for this repo's docs
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
# a CLI invocation: python -m repro <command> (may wrap after "repro")
_CLI_RE = re.compile(r"python3? -m repro\s+([a-z][\w-]*)")


def _python_env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_examples(failures: list[str]) -> None:
    """Pass 1: every example script exits 0."""
    scripts = sorted((REPO / "examples").glob("*.py"))
    if not scripts:
        failures.append("examples/: no scripts found")
        return
    for script in scripts:
        rel = script.relative_to(REPO)
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=REPO,
            env=_python_env(),
            capture_output=True,
            text=True,
            timeout=EXAMPLE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-8:]
            failures.append(f"{rel}: exit {proc.returncode}\n    " + "\n    ".join(tail))
            print(f"  FAIL {rel}")
        else:
            print(f"  ok   {rel}")


def run_doc_blocks(doc: Path, failures: list[str]) -> None:
    """Pass 2: every ```python block in ``doc`` executes verbatim."""
    text = doc.read_text()
    blocks = [m.group(1) for m in _FENCE_RE.finditer(text)]
    rel = doc.relative_to(REPO)
    if not blocks:
        failures.append(f"{rel}: no ```python blocks found")
        return
    for i, block in enumerate(blocks, 1):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".py", prefix=f"docblock{i}-", delete=False
        ) as fh:
            fh.write(block)
            tmp = fh.name
        try:
            proc = subprocess.run(
                [sys.executable, tmp],
                cwd=REPO,
                env=_python_env(),
                capture_output=True,
                text=True,
                timeout=EXAMPLE_TIMEOUT_S,
            )
        finally:
            os.unlink(tmp)
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-8:]
            failures.append(
                f"{rel} block {i}/{len(blocks)}: exit {proc.returncode}\n    "
                + "\n    ".join(tail)
            )
            print(f"  FAIL {rel} block {i}/{len(blocks)}")
        else:
            print(f"  ok   {rel} block {i}/{len(blocks)}")


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading: lowercase, drop punctuation."""
    text = re.sub(r"[`*_]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors_of(path: Path, cache: dict) -> set[str]:
    if path not in cache:
        cache[path] = {
            _github_slug(m.group(2)) for m in _HEADING_RE.finditer(path.read_text())
        }
    return cache[path]


def check_links(doc: Path, failures: list[str], anchor_cache: dict) -> None:
    """Pass 3: relative links point at real files; anchors at real headings."""
    rel = doc.relative_to(REPO)
    bad = []
    # strip fenced code before scanning, so code snippets aren't parsed as links
    text = re.sub(r"^```.*?^```\s*$", "", doc.read_text(), flags=re.MULTILINE | re.DOTALL)
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        dest = doc if not path_part else (doc.parent / path_part).resolve()
        if not dest.exists():
            bad.append(f"{target} -> missing file {path_part}")
            continue
        if anchor and dest.suffix == ".md" and anchor not in _anchors_of(dest, anchor_cache):
            bad.append(f"{target} -> no heading for #{anchor}")
    if bad:
        failures.append(f"{rel}: " + "; ".join(bad))
        print(f"  FAIL {rel} ({len(bad)} broken)")
    else:
        print(f"  ok   {rel}")


def cli_commands() -> set[str]:
    """The subcommands ``repro.cli``'s parser accepts."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser

    return {
        name
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    }


def check_cli_refs(doc: Path, commands: set[str], failures: list[str]) -> None:
    """Pass 4: every ``python -m repro <command>`` names a real subcommand."""
    rel = doc.relative_to(REPO)
    bad = sorted(
        {m.group(1) for m in _CLI_RE.finditer(doc.read_text())} - commands
    )
    if bad:
        failures.append(f"{rel}: unknown repro command(s) " + ", ".join(bad))
        print(f"  FAIL {rel} ({len(bad)} unknown)")
    else:
        print(f"  ok   {rel}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-examples", action="store_true",
                        help="only run the doc-block and link checks")
    args = parser.parse_args()

    failures: list[str] = []

    if not args.skip_examples:
        print("[1/4] examples/*.py")
        run_examples(failures)
    else:
        print("[1/4] examples/*.py (skipped)")

    print("[2/4] docs/API.md python blocks")
    run_doc_blocks(REPO / "docs" / "API.md", failures)

    docs = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    print("[3/4] markdown links and anchors")
    anchor_cache: dict = {}
    for doc in docs:
        check_links(doc, failures, anchor_cache)

    print("[4/4] python -m repro <command> references")
    commands = cli_commands()
    for doc in [*docs, REPO / ".claude" / "skills" / "verify" / "SKILL.md"]:
        check_cli_refs(doc, commands, failures)

    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nall documentation checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
