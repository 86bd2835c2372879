#!/usr/bin/env python3
"""Checks that the README's knob table lists exactly the knobs the code reads.

The README calls its "Environment knobs" table the complete set. This
script holds it to that: every `RECLUSTER_*` row of the table must be a
string literal somewhere in the Rust sources under `crates/` and `src/`,
and every `"RECLUSTER_*"` string literal there must have a row. Names in
`ALLOWLIST` are literals that are not knobs (test-only names); they must
still occur in the code, so a stale entry fails too. The benchmark under
`perfbench/` is a workspace of its own and is not scanned.

Usage: python3 scripts/check_knobs.py [repo_root]. Exits non-zero
listing every row with no reader and every reader with no row.
"""

import os
import re
import sys

README = "README.md"
SOURCE_DIRS = ["crates", "src"]
TABLE_HEADING = "## Environment knobs"

# Literals under the scanned directories that name no knob.
ALLOWLIST = {
    # `knobs::env_parsed`'s unit test reads a name no environment sets.
    "RECLUSTER_KNOBTEST_UNSET",
}

LITERAL_RE = re.compile(r'"(RECLUSTER_[A-Z0-9_]+)"')
ROW_RE = re.compile(r"^\|\s*`(RECLUSTER_[A-Z0-9_]+)`\s*\|")


def table_knobs(root):
    """The `RECLUSTER_*` names of the rows of the README's knob table."""
    names = set()
    in_section = False
    with open(os.path.join(root, README), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("## "):
                in_section = line.strip() == TABLE_HEADING
                continue
            m = ROW_RE.match(line) if in_section else None
            if m:
                names.add(m.group(1))
    return names


def code_knobs(root):
    """Every `"RECLUSTER_*"` literal in the scanned Rust sources, with
    the first file it occurs in."""
    found = {}
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if not name.endswith(".rs"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    for knob in LITERAL_RE.findall(fh.read()):
                        found.setdefault(knob, os.path.relpath(path, root))
    return found


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    table = table_knobs(root)
    code = code_knobs(root)
    errors = []
    if not table:
        errors.append(f"{README}: no `RECLUSTER_*` rows under {TABLE_HEADING!r}")
    for knob in sorted(table - code.keys()):
        errors.append(f"{README}: row {knob} has no reader under {'/, '.join(SOURCE_DIRS)}/")
    for knob in sorted(code.keys() - table - ALLOWLIST):
        errors.append(f"{code[knob]}: reads {knob}, which has no row in the {README} knob table")
    for knob in sorted(ALLOWLIST - code.keys()):
        errors.append(f"allowlisted {knob} no longer occurs in the code")
    for knob in sorted(ALLOWLIST & table):
        errors.append(f"allowlisted {knob} also has a row in the {README} knob table")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        sys.exit(1)
    print(f"check_knobs: {len(table)} knob rows match the code's literals")


if __name__ == "__main__":
    main()
