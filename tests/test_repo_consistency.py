"""Repository self-consistency: the experiment index, CLI registry and
benchmark targets must stay in sync."""

import pathlib
import re

from repro.cli import FIGURES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_paper_figure_has_a_benchmark_file():
    bench = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
    required = {
        "test_table1_systems.py", "test_fig1a_domains.py",
        "test_fig1b_congestion.py", "test_fig3_smsc_mechanisms.py",
        "test_fig4_atomics.py", "test_fig7_osu_variants.py",
        "test_fig8_bcast.py", "test_fig9_layout_root.py",
        "test_table2_message_counts.py", "test_fig10_cacheline.py",
        "test_fig11_allreduce.py", "test_fig12_pisvm.py",
        "test_fig13_miniamr.py", "test_fig14_cntk.py",
    }
    assert required <= bench, required - bench


def test_design_md_indexes_every_benchmark():
    design = (ROOT / "DESIGN.md").read_text()
    for path in (ROOT / "benchmarks").glob("test_*.py"):
        if path.name == "conftest.py":
            continue
        assert path.name in design or path.stem in design, \
            f"{path.name} missing from DESIGN.md's experiment index"


def test_cli_registry_covers_core_artifacts():
    for key in ["table1", "table2", "fig1a", "fig1b", "fig3", "fig4",
                "fig7", "fig9", "fig10", "fig12", "fig14"]:
        assert key in FIGURES


def test_examples_exist_and_have_docstrings():
    examples = list((ROOT / "examples").glob("*.py"))
    assert len(examples) >= 3
    assert (ROOT / "examples" / "quickstart.py").exists()
    for path in examples:
        head = path.read_text().split('"""')
        assert len(head) >= 2 and len(head[1].strip()) > 40, \
            f"{path.name} needs a real module docstring"


def test_experiments_md_covers_every_figure():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for token in ("Table I", "Table II", "Fig. 1a", "Fig. 1b", "Fig. 3",
                  "Fig. 4", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10",
                  "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14",
                  "deviation"):
        assert re.search(token, text, re.IGNORECASE), token


def test_public_modules_have_docstrings():
    import importlib
    for name in ("repro", "repro.node", "repro.topology", "repro.memory",
                 "repro.sim", "repro.shmem", "repro.mpi",
                 "repro.mpi.colls", "repro.xhc", "repro.bench",
                 "repro.apps", "repro.cluster", "repro.analysis",
                 "repro.validate", "repro.cli"):
        mod = importlib.import_module(name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 30, name


# A dotted ``repro.*`` name in prose, not part of a path
# (``src/repro/...``) or a file name.
_DOTTED_NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def _resolves(name):
    """``name`` imports as a module, or its longest importable prefix
    carries the rest as attributes."""
    import importlib
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_name_only_code_that_exists():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").glob("*.md"))]
    missing = []
    for path in docs:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in _DOTTED_NAME.finditer(line):
                if not _resolves(m.group(0)):
                    missing.append(f"{path.name}:{lineno}: {m.group(0)}")
    assert not missing, missing


# A test file path (``tests/test_x.py``, optionally ``::test_name``) or a
# backticked test name (``test_x``, ``test_x.py``, ``test_x_*``).
_TEST_PATH = re.compile(r"(?<![\w./-])tests/(test_[\w*]*)\.py(?:::(\w+))?")
_TEST_NAME = re.compile(r"`(test_[\w*]*)(?:\.py)?(?:::(\w+))?`")


def _test_definitions():
    """``{directory: {file stem: names of the test functions in it}}``
    for tests/ and benchmarks/."""
    defs = {}
    for folder in ("tests", "benchmarks"):
        defs[folder] = {
            path.stem: set(re.findall(r"^\s*def (test_\w+)",
                                      path.read_text(), re.MULTILINE))
            for path in (ROOT / folder).glob("test_*.py")}
    return defs


def _names_a_test(defs, folders, name, func):
    """``name`` is a test file stem (a trailing ``*`` globs and must
    match one) or a test function in ``folders``; ``func``, when given,
    is a test function of that file."""
    import fnmatch
    files = {stem: funcs for folder in folders
             for stem, funcs in defs[folder].items()}
    stems = fnmatch.filter(files, name) if name.endswith("*") else \
        [name] if name in files else []
    if func is not None:
        return any(func in files[stem] for stem in stems)
    return bool(stems) or any(name in funcs for funcs in files.values())


def test_docs_name_only_tests_that_exist():
    """Every ``tests/*.py`` path and backticked ``test_*`` name in the
    docs names a file in tests/ or benchmarks/, or a test function."""
    defs = _test_definitions()
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").glob("*.md"))]
    missing = []
    for path in docs:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            found = [(("tests",), m) for m in _TEST_PATH.finditer(line)]
            found += [(("tests", "benchmarks"), m)
                      for m in _TEST_NAME.finditer(line)]
            for folders, m in found:
                if not _names_a_test(defs, folders, *m.groups()):
                    missing.append(f"{path.name}:{lineno}: {m.group(0)}")
    assert not missing, missing


def test_pyproject_version_matches_package_version():
    """docs/api.md counts its deprecation window from ``__version__``;
    the packaged version must say the same."""
    import repro
    text = (ROOT / "pyproject.toml").read_text()
    m = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert m is not None, "pyproject.toml declares no version"
    assert m.group(1) == repro.__version__
