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
                 "repro.sim", "repro.shmem", "repro.sync", "repro.mpi",
                 "repro.mpi.colls", "repro.xhc", "repro.bench",
                 "repro.apps", "repro.cluster", "repro.analysis",
                 "repro.validate", "repro.cli"):
        mod = importlib.import_module(name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 30, name


def test_pyproject_version_matches_package_version():
    """docs/api.md counts its deprecation window from ``__version__``;
    the packaged version must say the same."""
    import repro
    text = (ROOT / "pyproject.toml").read_text()
    m = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert m is not None, "pyproject.toml declares no version"
    assert m.group(1) == repro.__version__
