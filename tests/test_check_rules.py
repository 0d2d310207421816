"""Tests for ``repro check`` — the engine, every rule, and the CLI.

Each rule is exercised against a paired good/bad fixture under
``tests/fixtures/check/``: the bad fixture must produce the rule's
finding, the good fixture must come back completely clean.  Fixtures
are loaded through :func:`repro.check.load_source` with a *synthetic*
repo path so the path-scoped rules (replay path, resilience, ...) see
the snippet where the rule expects it to live.

The suite also pins the meta-properties the PR promises: the live tree
is clean (``repro check src tests`` exits 0), a deliberately inserted
violation fails the check, and the suppression ledger can only shrink.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import RULES, load_source, run_check
from repro.check.engine import check_files, discover
from repro.check.report import (
    format_github,
    format_json,
    format_suppressions,
    format_text,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "check"

#: Maximum allowed justified suppressions in src/.  This number may
#: only ever SHRINK: new code must satisfy the rules outright, not
#: suppress them.  (Raising it needs a PR-review-level justification.)
MAX_SUPPRESSIONS = 4

#: rule id -> synthetic repo path its fixtures are checked under.
FIXTURE_PATHS = {
    "REP101": "src/repro/analysis/example.py",
    "REP103": "src/repro/store/example.py",
    "REP104": "src/repro/serve/example.py",
    "REP201": "src/repro/memdev/example.py",
    "REP301": "src/repro/soc/example.py",
    "REP401": "src/repro/soc/example.py",
    "REP402": "src/repro/soc/example.py",
    "REP403": "src/repro/obs/names.py",
    "REP501": "src/repro/analysis/example.py",
    "REP502": "src/repro/analysis/example.py",
    "REP503": "src/repro/serve/example.py",
    "REP601": "src/repro/analysis/example.py",
    "REP701": "src/repro/resilience/example.py",
    "REP702": "src/repro/serve/example.py",
}


def check_fixture(name: str, rel_path: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    loaded = load_source(source, rel_path)
    assert not hasattr(loaded, "rule"), f"fixture {name} failed to parse"
    return check_files([loaded])


# ----------------------------------------------------------------------
# Every rule: bad fixture fires, good fixture is clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", sorted(FIXTURE_PATHS))
def test_bad_fixture_fires(rule_id):
    result = check_fixture(
        f"{rule_id.lower()}_bad.py", FIXTURE_PATHS[rule_id]
    )
    fired = {finding.rule for finding in result.findings}
    assert rule_id in fired, (
        f"{rule_id} did not fire on its bad fixture; got {fired}"
    )


@pytest.mark.parametrize("rule_id", sorted(FIXTURE_PATHS))
def test_good_fixture_clean(rule_id):
    result = check_fixture(
        f"{rule_id.lower()}_good.py", FIXTURE_PATHS[rule_id]
    )
    assert result.findings == [], (
        f"good fixture for {rule_id} reported: "
        f"{[f.message for f in result.findings]}"
    )
    assert result.exit_code == 0


def test_every_registered_rule_has_fixtures():
    for rule_id in RULES:
        assert (FIXTURES / f"{rule_id.lower()}_bad.py").is_file()
        assert (FIXTURES / f"{rule_id.lower()}_good.py").is_file()


def test_registry_iteration_order_is_sorted():
    # The registry must not depend on module import order: reports,
    # --list-rules, and suppression ledgers all iterate it, and their
    # output is diffed in CI.
    assert list(RULES) == sorted(RULES)


def test_fixture_paths_cover_every_registered_rule():
    assert set(FIXTURE_PATHS) == set(RULES)


# ----------------------------------------------------------------------
# Rule-specific behaviours beyond the basic pair
# ----------------------------------------------------------------------
def test_rep201_one_level_delegation_credited():
    source = (FIXTURES / "rep201_good.py").read_text(encoding="utf-8")
    # total_energy() never calls validate_vdd itself; it is clean only
    # because read_energy() (same project) validates directly.
    assert "total_energy" in source
    result = check_fixture("rep201_good.py", FIXTURE_PATHS["REP201"])
    assert result.findings == []


def test_rep201_multi_hop_delegation_credited():
    # The interprocedural funnel follows vdd through any number of
    # call hops: outer -> middle -> gate -> validate_vdd is clean.
    source = (
        "def gate(vdd: float) -> float:\n"
        "    from repro.core.errors import validate_vdd\n"
        "    return validate_vdd(vdd, 'gate')\n"
        "def middle(vdd: float) -> float:\n"
        "    return gate(vdd)\n"
        "def outer(vdd: float) -> float:\n"
        "    return middle(vdd)\n"
    )
    loaded = load_source(source, "src/repro/memdev/example.py")
    result = check_files([loaded])
    assert result.findings == [], [f.message for f in result.findings]


def test_rep201_delegation_to_nonvalidating_chain_still_flagged():
    # Depth alone earns no credit: the chain must actually reach
    # validate_vdd with the value.
    source = (
        "def sink(vdd: float) -> float:\n"
        "    return vdd * 2.0\n"
        "def middle(vdd: float) -> float:\n"
        "    return sink(vdd)\n"
        "def outer(vdd: float) -> float:\n"
        "    return middle(vdd)\n"
    )
    loaded = load_source(source, "src/repro/memdev/example.py")
    result = check_files([loaded])
    flagged = {f.message for f in result.findings}
    assert all(f.rule == "REP201" for f in result.findings)
    for name in ("sink", "middle", "outer"):
        assert any(name in m for m in flagged), (name, flagged)


def test_rules_scoped_to_their_paths():
    # The same wall-clock read is legal off the replay path...
    bad = (FIXTURES / "rep301_bad.py").read_text(encoding="utf-8")
    off_path = check_files(
        [load_source(bad, "src/repro/analysis/example.py")]
    )
    assert all(f.rule != "REP301" for f in off_path.findings)
    # ...and unseeded RNG is legal in tests.
    rng_bad = (FIXTURES / "rep101_bad.py").read_text(encoding="utf-8")
    in_tests = check_files(
        [load_source(rng_bad, "tests/test_example.py")]
    )
    assert in_tests.findings == []


def test_rep000_syntax_error_is_a_finding():
    loaded = load_source("def broken(:\n", "src/repro/soc/oops.py")
    assert loaded.rule == "REP000"
    result = check_files([], parse_failures=[loaded])
    assert result.exit_code == 1


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_justified_noqa_suppresses():
    source = (
        "import numpy as np\n"
        "def sample():\n"
        "    return np.random.default_rng()  "
        "# repro: noqa[REP101] fixture: entropy is the point here\n"
    )
    result = check_files(
        [load_source(source, "src/repro/analysis/example.py")]
    )
    assert result.findings == []
    assert len(result.suppressions) == 1
    assert result.suppressions[0].justification


def test_justified_noqa_suppresses_interprocedural_rule():
    # Suppressions work for flow-based rules too: the finding lands on
    # the touch line, which is where the noqa must sit.
    source = (FIXTURES / "rep503_bad.py").read_text(encoding="utf-8")
    source = source.replace(
        "self._jobs.pop(job_id)",
        "self._jobs.pop(job_id)  "
        "# repro: noqa[REP503] fixture: race is the point here",
    )
    result = check_files(
        [load_source(source, FIXTURE_PATHS["REP503"])]
    )
    flagged = {f.line for f in result.findings}
    assert len(result.suppressions) == 1
    # The two un-suppressed touches on other lines still fire.
    assert flagged, "expected remaining REP503 findings"


def test_unjustified_noqa_is_rep001():
    source = (
        "import numpy as np\n"
        "def sample():\n"
        "    return np.random.default_rng()  # repro: noqa[REP101]\n"
    )
    result = check_files(
        [load_source(source, "src/repro/analysis/example.py")]
    )
    assert {f.rule for f in result.findings} == {"REP001"}


def test_noqa_mentioned_in_docstring_is_not_a_suppression():
    source = (
        '"""Suppress with ``# repro: noqa[REP101] why``."""\n'
        "X = 1\n"
    )
    result = check_files(
        [load_source(source, "src/repro/analysis/example.py")]
    )
    assert result.suppressions == []


def test_suppression_ledger_only_shrinks():
    result = run_check([str(REPO_ROOT / "src")])
    assert len(result.suppressions) <= MAX_SUPPRESSIONS, (
        "new suppressions added; fix the violation instead, or shrink "
        "an existing suppression to make room"
    )
    for suppression in result.suppressions:
        assert suppression.justification, suppression
        assert all(rule in RULES for rule in suppression.rules)


# ----------------------------------------------------------------------
# The live tree is clean, and tampering breaks it
# ----------------------------------------------------------------------
def test_self_check_src_and_tests_clean():
    result = run_check(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
    )
    assert result.findings == [], format_text(result)
    assert result.exit_code == 0


def test_inserted_violation_fails_the_check(tmp_path):
    tree = tmp_path / "repro" / "soc"
    tree.mkdir(parents=True)
    bad = tree / "faults.py"
    bad.write_text(
        "import numpy as np\n"
        "def inject(vdd: float) -> float:\n"
        "    rng = np.random.default_rng()\n"
        "    return vdd * float(rng.random())\n",
        encoding="utf-8",
    )
    result = run_check([str(tmp_path)])
    fired = {finding.rule for finding in result.findings}
    assert "REP101" in fired
    assert "REP201" in fired
    assert result.exit_code == 1


def test_discover_skips_fixture_directories():
    targets = discover([str(REPO_ROOT / "tests")])
    assert targets, "discovery found no test files"
    assert not any("fixtures" in path.parts for path in targets)


# ----------------------------------------------------------------------
# Output formats and the CLI
# ----------------------------------------------------------------------
def _bad_result():
    bad = (FIXTURES / "rep101_bad.py").read_text(encoding="utf-8")
    return check_files(
        [load_source(bad, "src/repro/analysis/example.py")]
    )


def test_format_json_round_trips():
    document = json.loads(format_json(_bad_result()))
    assert document["exit_code"] == 1
    assert document["findings"][0]["rule"] == "REP101"


def test_format_github_annotations():
    text = format_github(_bad_result())
    assert text.startswith("::error file=src/repro/analysis/example.py")
    assert "title=REP101" in text


def test_format_suppressions_is_json():
    document = json.loads(format_suppressions(_bad_result()))
    assert document["count"] == 0
    assert document["suppressions"] == []


def test_cli_subcommand_end_to_end(tmp_path):
    tree = tmp_path / "repro" / "analysis"
    tree.mkdir(parents=True)
    (tree / "bad.py").write_text(
        "import numpy as np\n"
        "RNG = np.random.default_rng()\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", str(tmp_path),
         "--format=json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1, proc.stderr
    document = json.loads(proc.stdout)
    assert document["findings"][0]["rule"] == "REP101"


def test_cli_select_and_list_rules(capsys):
    from repro.check.cli import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out

    code = main(
        [str(REPO_ROOT / "src"), "--select", "REP701", "--format=text"]
    )
    assert code == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_rejects_unknown_rule():
    from repro.check.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "REP999"])
    assert excinfo.value.code == 2
