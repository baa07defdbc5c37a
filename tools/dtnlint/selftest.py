"""dtnlint --self-test: prove every rule catches its seeded violations and
stays silent on the matching clean fixture.

Run as `dtnlint --self-test tests/lint`. Fixture contract:

  * Per-rule fixtures (tests/lint/fixtures/dtnlint/): for every non-legacy
    rule `some-rule` there is a `some_rule_bad.cpp` and a
    `some_rule_good.cpp`.
      - bad fixture: at least one seeded violation of that rule, and — run
        under the FULL rule set — every finding it produces belongs to
        that rule (a bad fixture may not smuggle violations of other
        rules, or a regression in those would hide here).
      - good fixture: zero findings under the full rule set. Each good
        fixture repeats its rule's trigger constructs inside comments and
        string literals, so comment/string immunity is re-proven per rule.
  * Legacy fixtures (tests/lint/fixture_*.cpp), run under the six legacy
    rules only:
      - fixture_banned.cpp trips every legacy rule;
      - fixture_clean.cpp and fixture_comment_immunity.cpp trip none;
      - fixture_allowlisted.cpp is fully suppressed by
        fixture_allowlist.txt, every entry of which suppresses something,
        and still fires without it.

The allowlist machinery is self-tested too: a synthetic entry must
suppress a bad-fixture finding, and a synthetic entry matching nothing
must be reported by the staleness audit.
"""

from __future__ import annotations

from pathlib import Path

import engine


def _flow_rules():
    return [r for r in engine.all_rules() if not r.legacy]


def _legacy_failures(lint_dir: Path) -> list[str]:
    rules = engine.legacy_rules()
    banned = lint_dir / "fixture_banned.cpp"
    clean = lint_dir / "fixture_clean.cpp"
    immune = lint_dir / "fixture_comment_immunity.cpp"
    allowlisted = lint_dir / "fixture_allowlisted.cpp"
    fixture_allowlist = lint_dir / "fixture_allowlist.txt"
    missing = [f"missing fixture {f}"
               for f in (banned, clean, immune, allowlisted, fixture_allowlist)
               if not f.exists()]
    if missing:
        return missing

    failures: list[str] = []
    tripped = {f.rule for f in engine.lint_paths([banned], rules, []).findings}
    for rule in rules:
        if rule.rule_id not in tripped:
            failures.append(
                f"{banned.name} did not trip legacy rule {rule.rule_id!r}")

    for clean_fixture in (clean, immune):
        for f in engine.lint_paths([clean_fixture], rules, []).findings:
            failures.append(
                f"{clean_fixture.name}:{f.line}: false positive {f.rule!r}: "
                f"{f.snippet}")

    # One banned hit per fixture-allowlist entry: with the list loaded
    # everything is suppressed and every entry suppresses something; without
    # it, something fires.
    entries = engine.load_allowlist(fixture_allowlist)
    for f in engine.lint_paths([allowlisted], rules, entries).findings:
        failures.append(
            f"{fixture_allowlist.name} failed to suppress {f.rule!r} at "
            f"{allowlisted.name}:{f.line}")
    for e in entries:
        if e.hits == 0:
            failures.append(
                f"{fixture_allowlist.name} entry {e.path}:{e.rule} "
                f"suppressed nothing (stale)")
    if not engine.lint_paths([allowlisted], rules, []).findings:
        failures.append(f"{allowlisted.name} contains no hits at all")
    return failures


def run(lint_dir: Path) -> int:
    failures: list[str] = []
    fixture_dir = lint_dir / "fixtures" / "dtnlint"
    if not fixture_dir.is_dir():
        print(f"dtnlint self-test: no fixture directory {fixture_dir}")
        return 1

    all_rules = engine.all_rules()
    flow = _flow_rules()
    if not flow:
        print("dtnlint self-test: no non-legacy rules registered")
        return 1

    for rule in flow:
        base = rule.rule_id.replace("-", "_")
        bad = fixture_dir / f"{base}_bad.cpp"
        good = fixture_dir / f"{base}_good.cpp"
        for f in (bad, good):
            if not f.exists():
                failures.append(f"missing fixture {f}")
        if not bad.exists() or not good.exists():
            continue

        bad_result = engine.lint_paths([bad], all_rules, [])
        mine = [f for f in bad_result.findings if f.rule == rule.rule_id]
        others = [f for f in bad_result.findings if f.rule != rule.rule_id]
        if not mine:
            failures.append(
                f"{bad.name}: rule {rule.rule_id!r} caught none of its "
                f"seeded violations")
        for f in others:
            failures.append(
                f"{bad.name}:{f.line}: unexpected {f.rule!r} finding in a "
                f"{rule.rule_id} fixture: {f.snippet}")

        good_result = engine.lint_paths([good], all_rules, [])
        for f in good_result.findings:
            failures.append(
                f"{good.name}:{f.line}: false positive {f.rule!r}: "
                f"{f.snippet}")

    # Allowlist suppression + staleness audit, on the first bad fixture
    # that produced findings.
    for rule in flow:
        bad = fixture_dir / f"{rule.rule_id.replace('-', '_')}_bad.cpp"
        if not bad.exists():
            continue
        result = engine.lint_paths([bad], all_rules, [])
        if not result.findings:
            continue
        target = result.findings[0]
        entries = [
            engine.AllowlistEntry(path=target.file, rule=target.rule,
                                  substring=None, lineno=1),
            engine.AllowlistEntry(path="no/such/file.cpp", rule=target.rule,
                                  substring=None, lineno=2),
        ]
        audited = engine.lint_paths([bad], all_rules, entries,
                                    audit_allowlist=True)
        if any(f.rule == target.rule and f.file == target.file
               for f in audited.findings):
            failures.append(
                f"allowlist failed to suppress {target.rule!r} in {bad.name}")
        stale = [f for f in audited.findings if f.rule == "stale-allowlist"]
        if len(stale) != 1:
            failures.append(
                f"staleness audit reported {len(stale)} stale entries on "
                f"{bad.name}; expected exactly the synthetic unused entry")
        break
    else:
        failures.append("no bad fixture produced findings for the "
                        "allowlist self-test")

    failures += _legacy_failures(lint_dir)

    if failures:
        for f in failures:
            print(f"dtnlint self-test FAIL: {f}")
        return 1
    print(f"dtnlint self-test: OK ({len(flow)} rules x good/bad fixtures, "
          f"{len(engine.legacy_rules())} legacy rules x legacy fixtures, "
          f"allowlist suppression + staleness audit)")
    return 0
