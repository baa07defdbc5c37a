"""Command-line driver for dtnlint.

Usage:
  python3 tools/dtnlint                     lint src/ + tools/*.cpp, all rules
  python3 tools/dtnlint FILE [FILE...]      lint specific files
  python3 tools/dtnlint --json PATH         also write a findings artifact
                                            (schema_version 1; '-' = stdout)
  python3 tools/dtnlint --rules a,b         run a subset of rules
  python3 tools/dtnlint --legacy            run only the six legacy
                                            determinism rules
  python3 tools/dtnlint --list-rules        print rule ids and exit
  python3 tools/dtnlint --self-test DIR     run the fixture self-test
                                            over DIR (tests/lint)
  python3 tools/dtnlint --allowlist PATH    override tools/lint_allowlist.txt

On a full-tree run (no explicit FILE arguments) the allowlist itself is
audited: an entry whose rule ran but that suppressed nothing is reported
as a `stale-allowlist` finding. `--no-audit-allowlist` disables this.

Exit status: 0 clean, 1 findings (or self-test failure), 2 usage error.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import engine
import rules_flow  # noqa: F401  -- registers the flow rules
import rules_legacy  # noqa: F401  -- registers the legacy rules
import selftest


def main(argv: list[str]) -> int:
    paths: list[str] = []
    json_out: str | None = None
    allowlist_path = engine.DEFAULT_ALLOWLIST
    rule_ids: list[str] | None = None
    legacy_only = False
    audit = None  # tri-state: None = auto (full-tree runs only)
    self_test_dir: str | None = None
    timing = False

    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--json":
            i += 1
            if i >= len(argv):
                print("dtnlint: --json needs a path (or '-')", file=sys.stderr)
                return 2
            json_out = argv[i]
        elif arg == "--allowlist":
            i += 1
            if i >= len(argv):
                print("dtnlint: --allowlist needs a path", file=sys.stderr)
                return 2
            allowlist_path = Path(argv[i])
        elif arg == "--rules":
            i += 1
            if i >= len(argv):
                print("dtnlint: --rules needs a comma-separated list",
                      file=sys.stderr)
                return 2
            rule_ids = [r.strip() for r in argv[i].split(",") if r.strip()]
        elif arg == "--legacy":
            legacy_only = True
        elif arg == "--list-rules":
            for rule in sorted(engine.all_rules(), key=lambda r: r.rule_id):
                tag = " (legacy)" if rule.legacy else ""
                print(f"{rule.rule_id}{tag}")
            return 0
        elif arg == "--audit-allowlist":
            audit = True
        elif arg == "--no-audit-allowlist":
            audit = False
        elif arg == "--self-test":
            i += 1
            if i >= len(argv):
                print("dtnlint: --self-test needs the lint fixture directory",
                      file=sys.stderr)
                return 2
            self_test_dir = argv[i]
        elif arg == "--time":
            timing = True
        elif arg.startswith("-"):
            print(f"dtnlint: unknown option {arg!r} (see tools/dtnlint/cli.py)",
                  file=sys.stderr)
            return 2
        else:
            paths.append(arg)
        i += 1

    if self_test_dir is not None:
        return selftest.run(Path(self_test_dir))

    if legacy_only and rule_ids is not None:
        print("dtnlint: --legacy and --rules are mutually exclusive",
              file=sys.stderr)
        return 2
    if legacy_only:
        rules = engine.legacy_rules()
    elif rule_ids is not None:
        rules = engine.rules_by_id(rule_ids)
    else:
        rules = engine.all_rules()

    explicit = bool(paths)
    targets = [Path(p) for p in paths] if explicit else engine.default_targets()
    for target in targets:
        if not target.exists():
            print(f"dtnlint: no such file: {target}", file=sys.stderr)
            return 2

    allowlist = engine.load_allowlist(allowlist_path)
    do_audit = audit if audit is not None else not explicit

    t0 = time.monotonic()
    result = engine.lint_paths(targets, rules, allowlist,
                               audit_allowlist=do_audit)
    elapsed = time.monotonic() - t0

    if json_out is not None:
        engine.write_json(result, rules, json_out)
    status = engine.report(result, rules)
    if timing:
        print(f"dtnlint: {result.files} files in {elapsed:.2f}s")
    return status
