#!/usr/bin/env python3
"""CI docs gate: the handbook must not drift from the code.

Runs without a build (pure text checks), so the CI docs job is cheap:

  python3 scripts/check_docs.py

Checks, all blocking:

1. CLI flag agreement — every `--flag` named in piggy_tool's help tables
   (the block between `// [[HELP-TABLE-BEGIN]]` and `// [[HELP-TABLE-END]]`
   in tools/piggy_tool.cc, the single source of truth Usage() renders) also
   appears in README.md. This is the gate that caught the PR-10 drift
   (--trace-out / --stats / recover --json / --rebalance existed in the tool
   but not the README); add new flags to the help table first and the check
   forces the README to follow.
2. Markdown links — every relative link in README.md and docs/*.md resolves
   to a real file. Links that escape the repo root (GitHub-relative URLs
   like the CI badge's ../../actions/...) and external http(s) links are
   skipped.
3. Handbook presence — README.md links both docs/ARCHITECTURE.md and
   docs/PERFORMANCE.md, and CHANGES.md carries an entry for this PR.
4. Header doc-comments — the public contract headers open with a real
   doc-comment block and state their thread-safety contract somewhere
   (the word "thread" must appear; the convention is a "Thread-safety:"
   clause on the class or file comment).
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Public contract headers: must open with a doc-comment block and state a
# thread-safety contract. Extend this list when a new public surface lands.
CONTRACT_HEADERS = [
    "src/core/planner.h",
    "src/store/feed_service.h",
    "src/cluster/cluster_service.h",
    "src/durability/durable_state.h",
    "src/simd/dispatch.h",
    "src/simd/kernels.h",
]

CHANGES_ENTRY = r"PR[ -]?10\b"


def read(relpath):
    with open(os.path.join(REPO, relpath), encoding="utf-8") as f:
        return f.read()


def check_flag_agreement(errors):
    tool = read("tools/piggy_tool.cc")
    m = re.search(r"\[\[HELP-TABLE-BEGIN\]\](.*)\[\[HELP-TABLE-END\]\]",
                  tool, re.S)
    if not m:
        errors.append("tools/piggy_tool.cc: HELP-TABLE markers missing "
                      "(Usage() no longer renders from the doc tables?)")
        return
    flags = sorted(set(re.findall(r"--[a-z][a-z0-9-]*", m.group(1))))
    if len(flags) < 10:
        errors.append(f"help table parsed only {len(flags)} flags — "
                      "markers moved or table emptied?")
    readme = read("README.md")
    for flag in flags:
        # Word-boundary match so --report doesn't satisfy --reports.
        if not re.search(re.escape(flag) + r"(?![a-z0-9-])", readme):
            errors.append(f"README.md: piggy_tool flag '{flag}' from the "
                          "help table is undocumented")


def iter_markdown_files():
    yield "README.md"
    docs = os.path.join(REPO, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                yield os.path.join("docs", name)


def check_links(errors):
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    for relpath in iter_markdown_files():
        base = os.path.dirname(os.path.join(REPO, relpath))
        for target in link_re.findall(read(relpath)):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.realpath(os.path.join(base, path))
            if not resolved.startswith(os.path.realpath(REPO) + os.sep):
                continue  # GitHub-relative URL (e.g. the CI badge)
            if not os.path.exists(resolved):
                errors.append(f"{relpath}: broken link -> {target}")


def check_handbook(errors):
    readme = read("README.md")
    for doc in ("docs/ARCHITECTURE.md", "docs/PERFORMANCE.md"):
        if not os.path.exists(os.path.join(REPO, doc)):
            errors.append(f"{doc} is missing")
        elif doc not in readme:
            errors.append(f"README.md does not link {doc}")
    if not re.search(CHANGES_ENTRY, read("CHANGES.md")):
        errors.append(f"CHANGES.md: no entry matching /{CHANGES_ENTRY}/")


def check_header_comments(errors):
    for relpath in CONTRACT_HEADERS:
        if not os.path.exists(os.path.join(REPO, relpath)):
            errors.append(f"{relpath}: contract header missing "
                          "(update CONTRACT_HEADERS if it moved)")
            continue
        lines = read(relpath).splitlines()
        leading = 0
        for line in lines:
            if line.startswith("//"):
                leading += 1
            else:
                break
        if leading < 3:
            errors.append(f"{relpath}: wants a doc-comment block at the top "
                          f"(found {leading} leading comment lines)")
        if not re.search(r"thread", "\n".join(lines), re.I):
            errors.append(f"{relpath}: no thread-safety contract (the word "
                          "'thread' never appears)")


def main():
    errors = []
    check_flag_agreement(errors)
    check_links(errors)
    check_handbook(errors)
    check_header_comments(errors)
    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print("OK: help/README flags agree, links resolve, handbook present, "
          "contract headers documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
