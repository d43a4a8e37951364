#!/usr/bin/env python3
"""Fail CI when the docs drift from the code they describe.

Checks, over README.md and docs/*.md:

  1. Every `EpochStats.<field>` reference names a real member of the
     EpochStats struct in src/core/config.h.
  2. Every `storage.<knob>` / `pipeline.<knob>` / `checkpoint.<knob>` /
     `replica.<knob>` reference names a real member of StorageOptions /
     PipelineOptions / CheckpointOptions in src/core/config.h or
     ReplicaOptions in src/comm/gradient_exchange.h (the documented
     convention for naming config knobs), OR one of the dotted
     runtime-verification invariant names defined in src/util/rv_monitor.cc
     (which share the subsystem prefixes). `comm.<name>` references are
     invariant-only: they must match an invariant name exactly.
  3. Every relative markdown link points at a file that exists.
  4. The monitor table in docs/DETERMINISM.md lists exactly the invariant
     names RvInvariantName returns: no stale row for a deleted monitor, and
     no monitor without a row.

The parser is deliberately permissive (it may admit a few extra identifiers
from struct method bodies); it exists to catch renamed/removed fields and
dead links, not to be a C++ front end.
"""

import os
import re
import sys

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
CONFIG_H = os.path.join(REPO_ROOT, "src", "core", "config.h")
GRADIENT_EXCHANGE_H = os.path.join(
    REPO_ROOT, "src", "comm", "gradient_exchange.h"
)
RV_MONITOR_CC = os.path.join(REPO_ROOT, "src", "util", "rv_monitor.cc")
DETERMINISM_MD = os.path.join(REPO_ROOT, "docs", "DETERMINISM.md")

# Struct name -> (doc prefix used to reference its members, defining header).
STRUCTS = {
    "EpochStats": ("EpochStats", CONFIG_H),
    "StorageOptions": ("storage", CONFIG_H),
    "PipelineOptions": ("pipeline", CONFIG_H),
    "CheckpointOptions": ("checkpoint", CONFIG_H),
    "ReplicaOptions": ("replica", GRADIENT_EXCHANGE_H),
}

# Prefixes with no config struct behind them: every `<prefix>.<name>` doc
# reference must be an rv_monitor.cc invariant name, nothing else.
INVARIANT_ONLY_PREFIXES = ["comm"]

MEMBER_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w:<>,*&\s]*?[\s*&])([A-Za-z_]\w*)\s*(?:=[^;]*)?;", re.M
)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def struct_body(source, name, path):
    m = re.search(r"\bstruct\s+" + name + r"\s*\{", source)
    if m is None:
        sys.exit(f"check_docs_drift: struct {name} not found in {path}")
    depth = 0
    for i in range(m.end() - 1, len(source)):
        if source[i] == "{":
            depth += 1
        elif source[i] == "}":
            depth -= 1
            if depth == 0:
                return source[m.end() : i]
    sys.exit(f"check_docs_drift: unbalanced braces in struct {name}")


def struct_members(source, name, path):
    members = set()
    for line in struct_body(source, name, path).splitlines():
        code = line.split("//", 1)[0]
        if "(" in code:  # skip method declarations/calls
            continue
        m = MEMBER_RE.match(code)
        if m:
            members.add(m.group(1))
    return members


def rv_invariant_names():
    """The dotted invariant names RvInvariantName returns ("pipeline.ticket_order",
    ...) — docs reference monitored invariants by these names."""
    with open(RV_MONITOR_CC, encoding="utf-8") as f:
        source = f.read()
    return set(re.findall(r'return\s+"([a-z_]+\.[a-z_]+)"', source))


def monitor_table_rows():
    """Invariant names in the first column of DETERMINISM.md's monitor table:
    the table whose header row starts with `| invariant |`."""
    with open(DETERMINISM_MD, encoding="utf-8") as f:
        lines = f.read().splitlines()
    rows = {}
    in_table = False
    for number, line in enumerate(lines, start=1):
        if re.match(r"^\|\s*invariant\s*\|", line):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.startswith("|"):
            break
        m = re.match(r"^\|\s*`([^`]+)`\s*\|", line)
        if m:
            rows[m.group(1)] = number
    if not in_table:
        sys.exit("check_docs_drift: no `| invariant |` table in docs/DETERMINISM.md")
    return rows


def doc_files():
    files = [os.path.join(REPO_ROOT, "README.md")]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                files.append(os.path.join(docs_dir, name))
    return [f for f in files if os.path.isfile(f)]


def main():
    sources = {}
    known = {}
    for struct, (prefix, header) in STRUCTS.items():
        if header not in sources:
            with open(header, encoding="utf-8") as f:
                sources[header] = f.read()
        known[prefix] = struct_members(sources[header], struct, header)
    for prefix in INVARIANT_ONLY_PREFIXES:
        known[prefix] = set()
    invariants = rv_invariant_names()

    errors = []
    for path in doc_files():
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as f:
            text = f.read()

        for prefix, members in known.items():
            for m in re.finditer(r"\b" + prefix + r"\.([a-z_][a-z0-9_]*)\b", text):
                field = m.group(1)
                # Skip file-extension lookalikes ("training_pipeline.h" never
                # matches because of \b, but a bare "pipeline.h" path would).
                if field in ("h", "cc", "md", "json", "py", "yml"):
                    continue
                if f"{prefix}.{field}" in invariants:
                    continue
                if field not in members:
                    line = text.count("\n", 0, m.start()) + 1
                    errors.append(
                        f"{rel}:{line}: `{prefix}.{field}` is neither a config "
                        f"member nor an rv invariant"
                    )

        for m in LINK_RE.finditer(text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target_path)
            )
            if not os.path.exists(resolved):
                line = text.count("\n", 0, m.start()) + 1
                errors.append(f"{rel}:{line}: dangling link `{target}`")

    rel = os.path.relpath(DETERMINISM_MD, REPO_ROOT)
    rows = monitor_table_rows()
    for name, line in sorted(rows.items()):
        if name not in invariants:
            errors.append(
                f"{rel}:{line}: monitor table row `{name}` is not an rv invariant"
            )
    for name in sorted(invariants - set(rows)):
        errors.append(f"{rel}: monitor table has no row for rv invariant `{name}`")

    if errors:
        print("docs drift detected:")
        for e in errors:
            print("  " + e)
        return 1
    print(f"docs drift check: {len(doc_files())} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
