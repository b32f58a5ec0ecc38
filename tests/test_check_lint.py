"""Lint rules RC101-RC106 (repro.check.lint)."""

import pytest

from repro.check import lint
from repro.check.lint import (check_fingerprint, compute_fingerprint,
                              lint_file, run_lint, write_fingerprint)


def _lint_src(tmp_path, rel, source):
    """Drop ``source`` at ``tmp/<rel>`` and lint it as if the tmp dir
    were the repo root (so ``src/repro/...`` paths count as in-package)."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_file(path, repo_root=tmp_path)


def _rules(findings):
    return [f.rule for f in findings]


def test_rc101_wall_clock_in_sim_path(tmp_path):
    findings = _lint_src(tmp_path, "src/repro/sim/x.py",
                         "import time\nfrom datetime import datetime\n")
    assert _rules(findings) == ["RC101", "RC101"]
    assert "wall clock" in findings[0].message


def test_rc101_not_applied_outside_package(tmp_path):
    findings = _lint_src(tmp_path, "tests/helper.py", "import time\n")
    assert findings == []


def test_rc102_random(tmp_path):
    src = ("import random\n"
           "import numpy as np\n"
           "def f():\n"
           "    return np.random.rand()\n")
    findings = _lint_src(tmp_path, "src/repro/xhc/x.py", src)
    assert _rules(findings) == ["RC102", "RC102"]


def test_rc103_mutable_default_everywhere(tmp_path):
    src = ("def f(a, b=[]):\n    pass\n"
           "def g(*, c={}):\n    pass\n"
           "h = lambda x=set(): x\n"
           "def ok(d=None, e=(), f=0):\n    pass\n")
    findings = _lint_src(tmp_path, "tests/helper.py", src)
    assert _rules(findings) == ["RC103", "RC103", "RC103"]


def test_rc104_pokes_only_in_algorithm_scopes(tmp_path):
    src = ("def f(flag, view):\n"
           "    flag.value = 1\n"
           "    view.array()[0:4] = 0\n")
    findings = _lint_src(tmp_path, "src/repro/xhc/x.py", src)
    assert _rules(findings) == ["RC104", "RC104"]
    assert "SetFlag" in findings[0].message
    # The engine/sync internals legitimately implement the pokes.
    assert _lint_src(tmp_path, "src/repro/sync/x.py", src) == []


def test_suppression_comment(tmp_path):
    src = ("import time  # lint: disable=RC101\n"
           "import random  # lint: disable=RC101, RC102\n")
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert findings == []


def test_suppression_is_per_rule(tmp_path):
    src = "import time  # lint: disable=RC102\n"
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert _rules(findings) == ["RC101"]


def test_syntax_error_reported_not_raised(tmp_path):
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", "def f(:\n")
    assert _rules(findings) == ["syntax"]


def test_fingerprint_manifest_is_fresh():
    """The committed manifest matches the sources and SIM_VERSION."""
    assert check_fingerprint() == []


def test_fingerprint_detects_unbumped_change(monkeypatch):
    from repro.check import _sim_fingerprint as manifest
    tampered = dict(manifest.FINGERPRINT)
    tampered["sim/engine.py"] = "0" * 64
    monkeypatch.setattr(manifest, "FINGERPRINT", tampered)
    findings = check_fingerprint()
    assert _rules(findings) == ["RC105"]
    assert "bump" in findings[0].message
    assert "sim/engine.py" in findings[0].message


def test_fingerprint_detects_stale_manifest(monkeypatch):
    monkeypatch.setattr(lint, "_current_sim_version", lambda: 9999)
    findings = check_fingerprint()
    assert _rules(findings) == ["RC105"]
    assert "stale" in findings[0].message


def test_fingerprint_reports_unwatched_manifest_entry(monkeypatch):
    """A file dropped from SIM_FINGERPRINT_FILES must not leave a silent
    hash behind in the manifest."""
    from repro.check import _sim_fingerprint as manifest
    extra = dict(manifest.FINGERPRINT)
    extra["sim/retired.py"] = "0" * 64
    monkeypatch.setattr(manifest, "FINGERPRINT", extra)
    findings = check_fingerprint()
    assert _rules(findings) == ["RC105"]
    assert "stale" in findings[0].message
    assert "sim/retired.py" in findings[0].message
    assert "bump" not in findings[0].message


def test_write_fingerprint_roundtrip(tmp_path):
    (tmp_path / "check").mkdir()
    out = write_fingerprint(tmp_path)
    assert out == tmp_path / "check" / "_sim_fingerprint.py"
    ns = {}
    exec(out.read_text(encoding="utf-8"), ns)
    # tmp root has none of the watched files
    assert set(ns["FINGERPRINT"]) == set(lint.SIM_FINGERPRINT_FILES)
    assert all(v == "missing" for v in ns["FINGERPRINT"].values())


def test_compute_fingerprint_ignores_formatting(tmp_path):
    (tmp_path / "sim").mkdir(parents=True)
    target = tmp_path / "sim" / "engine.py"
    target.write_text("def f(x):\n    return x + 1\n")
    for rel in lint.SIM_FINGERPRINT_FILES:
        if rel != "sim/engine.py":
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text("")
    before = compute_fingerprint(tmp_path)
    # Comments and whitespace don't change the AST.
    target.write_text("# a comment\ndef f(x):\n    return x + 1\n")
    assert compute_fingerprint(tmp_path) == before
    # A semantic change does.
    target.write_text("def f(x):\n    return x + 2\n")
    assert compute_fingerprint(tmp_path) != before


def test_whole_tree_is_clean():
    """Satellite requirement: the repo itself passes its own lint."""
    report = run_lint()
    assert report.ok, "\n".join(str(f) for f in report)


def test_explicit_paths(tmp_path):
    bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n")
    report = run_lint(paths=[str(bad)], repo_root=tmp_path,
                      fingerprint=False)
    assert not report.ok
    assert _rules(report) == ["RC101"]


# -- RC106: per-event allocations in hot-path functions ----------------------

def test_rc106_allocations_in_hot_path(tmp_path):
    src = (
        "def step(self, x):  # hot-path\n"
        "    a = [x]\n"
        "    b = {1: x}\n"
        "    c = {x}\n"
        "    d = [i for i in range(x)]\n"
        "    e = f\"{x}\"\n"
        "    g = \"{}\".format(x)\n"
        "    h = \"%s\" % x\n"
        "    return a, b, c, d, e, g, h\n"
    )
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert _rules(findings) == ["RC106"] * 7


def test_rc106_marker_on_preceding_line(tmp_path):
    src = ("# hot-path\n"
           "def step(x):\n"
           "    return [x]\n")
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert _rules(findings) == ["RC106"]


def test_rc106_marker_on_multiline_signature(tmp_path):
    src = ("def step(a,\n"
           "         b):  # hot-path\n"
           "    return [a, b]\n")
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert _rules(findings) == ["RC106"]


def test_rc106_unmarked_function_is_free(tmp_path):
    src = ("def cold(x):\n"
           "    return [x], {1: x}, f\"{x}\"\n")
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert findings == []


def test_rc106_suppression(tmp_path):
    src = ("def step(x):  # hot-path\n"
           "    cold = [x]  # lint: disable=RC106\n"
           "    return cold\n")
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert findings == []


def test_rc106_annotations_not_flagged(tmp_path):
    # The [] inside Callable[[], None] is an ast.List; annotations never
    # execute per event and must not trip the rule.
    src = ("from typing import Callable, Optional\n"
           "def step(x, then: Optional[Callable[[], None]]) -> None:"
           "  # hot-path\n"
           "    return then\n")
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert findings == []


def test_rc106_nested_closure_inherits_hot_scope(tmp_path):
    src = ("def plan(x):  # hot-path\n"
           "    def complete():\n"
           "        return [x]\n"
           "    return complete\n")
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert _rules(findings) == ["RC106"]


def test_rc106_store_context_list_not_flagged(tmp_path):
    src = ("def step(pair):  # hot-path\n"
           "    [a, b] = pair\n"
           "    return a + b\n")
    findings = _lint_src(tmp_path, "src/repro/sim/x.py", src)
    assert findings == []


def test_rc106_hot_paths_in_tree_are_clean():
    """The real marked hot paths lint clean (cold branches suppressed)."""
    report = run_lint(fingerprint=False)
    rc106 = [f for f in report if f.rule == "RC106"]
    assert rc106 == [], [str(f) for f in rc106]
