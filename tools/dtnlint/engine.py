"""Rule framework for dtnlint: findings, allowlist, runner, JSON output.

A rule is a subclass of Rule registered with @register. Each rule gets the
parsed TranslationUnit plus a RuleContext and emits Findings; the engine
handles allowlist suppression (same format as the PR 2 lint:
`path:rule[:substring]  # why`), reporting, `--json` artifacts, and the
allowlist staleness audit (an entry that suppresses nothing on a full-tree
run is itself a finding — a reviewed exception must keep matching the line
it reviewed, or it is a mute button for code that no longer exists).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from cpp import TranslationUnit

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_ALLOWLIST = REPO_ROOT / "tools" / "lint_allowlist.txt"

JSON_SCHEMA_VERSION = 1


@dataclass
class Finding:
    file: str  # repo-relative posix path
    line: int
    rule: str
    snippet: str
    message: str
    suppressed_by: int | None = None  # allowlist entry line number

    def as_json(self) -> dict:
        out = {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "snippet": self.snippet,
            "message": self.message,
        }
        if self.suppressed_by is not None:
            out["suppressed_by_allowlist_line"] = self.suppressed_by
        return out


@dataclass
class AllowlistEntry:
    path: str
    rule: str
    substring: str | None
    lineno: int  # line in the allowlist file, for staleness reporting
    hits: int = 0


def load_allowlist(path: Path) -> list[AllowlistEntry]:
    entries: list[AllowlistEntry] = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(":", 2)
        if len(parts) < 2:
            print(f"dtnlint: bad allowlist entry at {path}:{lineno}: {raw!r}",
                  file=sys.stderr)
            sys.exit(2)
        entries.append(
            AllowlistEntry(
                path=parts[0].strip(),
                rule=parts[1].strip(),
                substring=parts[2].strip() if len(parts) == 3 else None,
                lineno=lineno,
            )
        )
    return entries


@dataclass
class RuleContext:
    rel_path: str
    lines: list[str]  # raw source lines, for snippets

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Rule:
    """Base class. Subclasses set `rule_id` and `message`, and implement
    check(tu, ctx) yielding (line, message-or-None) pairs or Findings."""

    rule_id: str = ""
    message: str = ""
    #: the six line-regex determinism rules that predate the flow rules;
    #: `--legacy` runs exactly this set.
    legacy: bool = False

    def applies_to(self, rel_path: str) -> bool:
        return True

    def check(self, tu: TranslationUnit, ctx: RuleContext):
        raise NotImplementedError

    def run(self, tu: TranslationUnit, ctx: RuleContext) -> list[Finding]:
        if not self.applies_to(ctx.rel_path):
            return []
        findings = []
        for hit in self.check(tu, ctx):
            if isinstance(hit, Finding):
                findings.append(hit)
                continue
            line, msg = hit
            findings.append(
                Finding(
                    file=ctx.rel_path,
                    line=line,
                    rule=self.rule_id,
                    snippet=ctx.snippet(line),
                    message=msg or self.message,
                )
            )
        return findings


_REGISTRY: dict[str, Rule] = {}


def register(cls):
    rule = cls()
    assert rule.rule_id and rule.rule_id not in _REGISTRY, rule.rule_id
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> list[Rule]:
    return list(_REGISTRY.values())


def legacy_rules() -> list[Rule]:
    return [r for r in _REGISTRY.values() if r.legacy]


def rules_by_id(ids) -> list[Rule]:
    missing = [i for i in ids if i not in _REGISTRY]
    if missing:
        print(f"dtnlint: unknown rule id(s): {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)
    return [_REGISTRY[i] for i in ids]


# Files whose name marks them as lint fixtures: every rule treats them as
# in-scope regardless of its directory filter, so self-test fixtures can
# exercise path-restricted rules from tests/lint/.
def is_fixture(rel_path: str) -> bool:
    name = Path(rel_path).name
    return name.startswith("fixture_") or "/fixtures/dtnlint/" in rel_path


@dataclass
class RunResult:
    findings: list[Finding] = field(default_factory=list)       # unsuppressed
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0
    stale_entries: list[AllowlistEntry] = field(default_factory=list)


def rel_to_repo(path: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return resolved.as_posix()


def lint_paths(paths, rules, allowlist, audit_allowlist=False) -> RunResult:
    result = RunResult()
    for path in paths:
        path = Path(path)
        rel = rel_to_repo(path)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as err:
            print(f"dtnlint: cannot read {rel}: {err}", file=sys.stderr)
            sys.exit(2)
        tu = TranslationUnit(rel, text)
        ctx = RuleContext(rel_path=rel, lines=text.splitlines())
        result.files += 1
        for rule in rules:
            for finding in rule.run(tu, ctx):
                entry = _match_allowlist(allowlist, finding)
                if entry is not None:
                    entry.hits += 1
                    finding.suppressed_by = entry.lineno
                    result.suppressed.append(finding)
                else:
                    result.findings.append(finding)

    if audit_allowlist:
        active = {r.rule_id for r in rules}
        for entry in allowlist:
            if entry.rule in active and entry.hits == 0:
                result.stale_entries.append(entry)
                result.findings.append(
                    Finding(
                        file=rel_to_repo(DEFAULT_ALLOWLIST),
                        line=entry.lineno,
                        rule="stale-allowlist",
                        snippet=f"{entry.path}:{entry.rule}"
                        + (f":{entry.substring}" if entry.substring else ""),
                        message="allowlist entry suppressed nothing on this "
                        "run: the exception it reviewed no longer exists — "
                        "delete the entry (a stale entry is a mute button "
                        "waiting for new code to hide under)",
                    )
                )
    result.findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return result


def _match_allowlist(entries, finding: Finding):
    for e in entries:
        if e.path != finding.file or e.rule != finding.rule:
            continue
        if e.substring is None or e.substring in finding.snippet:
            return e
    return None


def default_targets() -> list[Path]:
    targets = sorted((REPO_ROOT / "src").rglob("*.cpp"))
    targets += sorted((REPO_ROOT / "src").rglob("*.h"))
    targets += sorted((REPO_ROOT / "tools").glob("*.cpp"))
    return targets


def report(result: RunResult, rules) -> int:
    for f in result.findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.snippet}")
        print(f"    {f.message}")
    if result.findings:
        print(
            f"dtnlint: {len(result.findings)} finding(s) across "
            f"{result.files} file(s); fix them or add a reviewed entry to "
            f"{DEFAULT_ALLOWLIST.relative_to(REPO_ROOT)}"
        )
        return 1
    print(
        f"dtnlint: OK ({result.files} files, {len(rules)} rules, "
        f"{len(result.suppressed)} allowlisted exception(s))"
    )
    return 0


def write_json(result: RunResult, rules, out_path: str) -> None:
    record = {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": "dtnlint",
        "rules": sorted(r.rule_id for r in rules),
        "counts": {
            "files": result.files,
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
        },
        "findings": [f.as_json() for f in result.findings],
        "suppressed": [f.as_json() for f in result.suppressed],
    }
    payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if out_path == "-":
        sys.stdout.write(payload)
    else:
        Path(out_path).write_text(payload)
