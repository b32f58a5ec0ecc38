"""AST-based lint with repo-specific rules.

The simulator's value rests on determinism and on a narrow sync API;
these rules encode exactly the ways we have seen (or fear) that being
eroded:

* **RC101** — no wall-clock (``time``/``datetime`` imports) inside
  ``src/repro``: simulated time comes from the engine, wall-clock reads
  make runs non-reproducible.
* **RC102** — no RNG (``random`` imports, ``numpy.random`` access)
  inside ``src/repro``: same determinism argument.
* **RC103** — no mutable default arguments (``def f(x=[])``), anywhere:
  a classic shared-state bug, fatal in a package whose objects are
  reused across simulation runs.
* **RC104** — collectives must not poke sync state or buffer bytes
  directly (``something.value = ...`` or ``view.array()[...] = ...``
  inside ``repro/mpi``, ``repro/xhc``, ``repro/apps``, ``repro/bench``):
  flag stores go through ``P.SetFlag`` so the engine can enforce the
  single-writer rule and the race checker sees the release edge; data
  moves through ``P.Copy``/``P.Reduce`` so it is priced and checked.
* **RC105** — engine-semantics changes require a ``SIM_VERSION`` bump:
  the watched sim-path sources are fingerprinted (AST dump, so comments
  and formatting don't count) into ``_sim_fingerprint.py``; if they
  changed without bumping :data:`repro.exec.cache.SIM_VERSION`, stale
  autotuning tables would silently survive. A manifest hash of a file
  no longer watched is reported as a stale manifest. Regenerate with
  ``python -m repro check --update-fingerprint`` after bumping.
* **RC106** — no per-event allocations in ``# hot-path`` functions:
  inside a function whose ``def`` line (or the line above it) carries a
  ``# hot-path`` marker, list/dict/set literals, comprehensions and
  string formatting (f-strings, ``.format``, ``%``) are flagged. These
  run once per simulated event; an allocation there is a measured
  regression (see docs/performance.md). Deliberate cold-path allocations
  inside a marked function carry ``# lint: disable=RC106``.

Suppress any rule on a specific line with ``# lint: disable=RC1xx``
(comma-separate several ids). See docs/checking.md for the catalogue and
how to add a rule.
"""

from __future__ import annotations

import ast
import hashlib
import re
from pathlib import Path

from .report import CheckReport, Finding

RULES = {
    "RC101": "wall-clock time in sim-path code",
    "RC102": "random-number generation in sim-path code",
    "RC103": "mutable default argument",
    "RC104": "raw sync/buffer poke outside the sync API",
    "RC105": "sim semantics changed without a SIM_VERSION bump",
    "RC106": "per-event allocation in a hot-path function",
}

# Files whose semantics define what a simulated result means; hashed into
# _sim_fingerprint.py (paths relative to the repro package directory).
SIM_FINGERPRINT_FILES = (
    "sim/engine.py",
    "sim/array_engine.py",
    "sim/primitives.py",
    "sim/syncobj.py",
    "sim/resources.py",
    "node.py",
    "memory/model.py",
    "memory/cache.py",
)

# RC104 applies where algorithm code lives, not in the engine/pricer
# internals that legitimately implement the pokes.
_POKE_SCOPES = ("mpi/", "xhc/", "apps/", "bench/")

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Z0-9, ]+)")

_HOT_PATH_RE = re.compile(r"#\s*hot-path\b")

_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist",
              ".eggs", "results", "figures"}


def _suppressions(source: str) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            out[lineno] = {r.strip() for r in m.group(1).split(",")}
    return out


def _hot_path_lines(source: str) -> set[int]:
    """Line numbers carrying a ``# hot-path`` marker."""
    return {lineno for lineno, line in
            enumerate(source.splitlines(), start=1)
            if _HOT_PATH_RE.search(line)}


class _FileLinter(ast.NodeVisitor):
    """Runs the AST rules over one file."""

    def __init__(self, rel: str, source: str, in_package: bool) -> None:
        self.rel = rel
        self.in_package = in_package
        self.in_poke_scope = in_package and any(
            f"/{scope}" in f"/{rel}" for scope in _POKE_SCOPES)
        self.suppressed = _suppressions(source)
        self.hot_lines = _hot_path_lines(source)
        # Lexical nesting depth of `# hot-path` functions; > 0 means the
        # node being visited runs on a marked hot path (RC106 applies).
        self._hot_depth = 0
        self.findings: list[Finding] = []

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if rule in self.suppressed.get(lineno, ()):
            return
        self.findings.append(Finding(
            kind="lint", rule=rule, message=message,
            where=f"{self.rel}:{lineno}",
        ))

    # RC101 / RC102 — imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self._import_rule(node, root)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            self._import_rule(node, node.module.split(".")[0])
        self.generic_visit(node)

    def _import_rule(self, node: ast.AST, root: str) -> None:
        if not self.in_package:
            return
        if root in ("time", "datetime"):
            self._add("RC101", node,
                      f"import of {root!r}: simulated code must take time "
                      f"from the engine, not the wall clock")
        elif root == "random":
            self._add("RC102", node,
                      "import of 'random': simulation must stay "
                      "deterministic; derive variation from inputs")

    # RC102 — numpy.random attribute use

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self.in_package and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            self._add("RC102", node,
                      "use of numpy.random: simulation must stay "
                      "deterministic; derive variation from inputs")
        self.generic_visit(node)

    # RC103 — mutable default args / RC106 — hot-path function scope

    def _is_hot_path(self, node) -> bool:
        """Marker on the ``def`` line, the line above it, or any line of a
        multi-line signature (up to the first body statement)."""
        first_body = node.body[0].lineno if node.body else node.lineno
        return any(line in self.hot_lines
                   for line in range(node.lineno - 1, first_body))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._defaults_rule(node)
        self._visit_function_body(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._defaults_rule(node)
        self._visit_function_body(node)

    def _visit_function_body(self, node) -> None:
        hot = self._is_hot_path(node)
        if hot or self._hot_depth > 0:
            # Annotations and decorators never execute per event (the
            # `[]` in `Callable[[], None]` is an ast.List); RC106 scans
            # only the executable body.
            if hot:
                self._hot_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            if hot:
                self._hot_depth -= 1
        else:
            self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._defaults_rule(node)
        self.generic_visit(node)

    def _defaults_rule(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None]:
            if self._is_mutable_literal(default):
                name = getattr(node, "name", "<lambda>")
                self._add("RC103", default,
                          f"mutable default argument in {name}(): use "
                          f"None and create it in the body")

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "dict", "set")
                and not node.args and not node.keywords)

    # RC106 — per-event allocations inside `# hot-path` functions

    def _hot_alloc(self, node: ast.AST, what: str) -> None:
        if self._hot_depth > 0:
            self._add("RC106", node,
                      f"{what} in a hot-path function: this allocates "
                      f"per event; hoist it, reuse a slot, or mark a "
                      f"deliberate cold branch with "
                      f"'# lint: disable=RC106'")

    def visit_List(self, node: ast.List) -> None:
        if isinstance(node.ctx, ast.Load):
            self._hot_alloc(node, "list literal")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._hot_alloc(node, "set literal")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._hot_alloc(node, "dict literal")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._hot_alloc(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._hot_alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._hot_alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        self._hot_alloc(node, "f-string formatting")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "format"):
            self._hot_alloc(node, "str.format() call")
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (isinstance(node.op, ast.Mod)
                and isinstance(node.left, (ast.Constant, ast.JoinedStr))
                and (isinstance(node.left, ast.JoinedStr)
                     or isinstance(node.left.value, str))):
            self._hot_alloc(node, "%-string formatting")
        self.generic_visit(node)

    # RC104 — raw pokes from algorithm code

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.in_poke_scope:
            for target in node.targets:
                self._poke_rule(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.in_poke_scope:
            self._poke_rule(node.target)
        self.generic_visit(node)

    def _poke_rule(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._poke_rule(elt)
            return
        if isinstance(target, ast.Attribute) and target.attr == "value":
            self._add("RC104", target,
                      "direct '.value =' store: write flags/atomics via "
                      "P.SetFlag / P.AtomicRMW so the single-writer rule "
                      "and release edges hold")
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Call)
                and isinstance(target.value.func, ast.Attribute)
                and target.value.func.attr == "array"):
            self._add("RC104", target,
                      "direct '.array()[...] =' store: move bytes via "
                      "P.Copy / P.Reduce so the transfer is priced and "
                      "race-checked")


# -- fingerprint (RC105) ----------------------------------------------------

def package_root() -> Path:
    """Directory of the ``repro`` package (…/src/repro)."""
    return Path(__file__).resolve().parents[1]


def compute_fingerprint(pkg_root: Path | None = None) -> dict[str, str]:
    """AST-level sha256 of every watched sim-semantics file."""
    root = pkg_root or package_root()
    out: dict[str, str] = {}
    for rel in SIM_FINGERPRINT_FILES:
        path = root / rel
        if not path.exists():
            out[rel] = "missing"
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out[rel] = hashlib.sha256(
            ast.dump(tree).encode("utf-8")).hexdigest()
    return out


def _current_sim_version() -> int:
    from ..exec.cache import SIM_VERSION
    return SIM_VERSION


def check_fingerprint(pkg_root: Path | None = None) -> list[Finding]:
    try:
        from . import _sim_fingerprint as manifest
    except ImportError:
        return [Finding(
            kind="lint", rule="RC105", where="src/repro/check",
            message=("fingerprint manifest missing; run "
                     "'python -m repro check --update-fingerprint'"))]
    current = compute_fingerprint(pkg_root)
    version = _current_sim_version()
    changed = sorted(
        rel for rel in current
        if manifest.FINGERPRINT.get(rel) != current[rel])
    # Hashes of files no longer in SIM_FINGERPRINT_FILES: nothing
    # compares them, so they would otherwise linger unnoticed.
    unwatched = sorted(set(manifest.FINGERPRINT) - set(current))
    findings: list[Finding] = []
    if changed and version == manifest.SIM_VERSION:
        findings.append(Finding(
            kind="lint", rule="RC105", where=changed[0],
            message=(f"sim semantics changed ({', '.join(changed)}) but "
                     f"SIM_VERSION is still {version}; bump "
                     f"repro.exec.cache.SIM_VERSION and run "
                     f"'python -m repro check --update-fingerprint'")))
    elif changed or unwatched or version != manifest.SIM_VERSION:
        reasons = []
        if version != manifest.SIM_VERSION:
            reasons.append(f"SIM_VERSION {manifest.SIM_VERSION} -> {version}")
        if unwatched:
            reasons.append(f"no longer watched: {', '.join(unwatched)}")
        findings.append(Finding(
            kind="lint", rule="RC105", where="src/repro/check",
            message=(f"fingerprint manifest is stale ({'; '.join(reasons)}"
                     f"); run 'python -m repro check --update-fingerprint'")))
    return findings


def write_fingerprint(pkg_root: Path | None = None) -> Path:
    """Regenerate ``_sim_fingerprint.py`` for the current sources."""
    root = pkg_root or package_root()
    current = compute_fingerprint(root)
    version = _current_sim_version()
    lines = [
        '"""Generated by `python -m repro check --update-fingerprint`.',
        "",
        "Records the AST fingerprint of the sim-semantics sources as of",
        "the last SIM_VERSION bump; lint rule RC105 compares against it.",
        '"""',
        "",
        f"SIM_VERSION = {version}",
        "",
        "FINGERPRINT = {",
    ]
    for rel in SIM_FINGERPRINT_FILES:
        lines.append(f"    {rel!r}: {current[rel]!r},")
    lines += ["}", ""]
    path = root / "check" / "_sim_fingerprint.py"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


# -- tree walking -----------------------------------------------------------

def _iter_py_files(roots: list[Path]):
    for root in roots:
        if root.is_file() and root.suffix == ".py":
            yield root
            continue
        for path in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIRS or part.startswith(".")
                   for part in path.parts):
                continue
            yield path


def lint_file(path: Path, repo_root: Path | None = None) -> list[Finding]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(kind="lint", rule="syntax",
                        where=f"{path}:{exc.lineno}", message=str(exc))]
    resolved = path.resolve()
    pkg = package_root()
    if repo_root is not None:
        try:
            rel = str(resolved.relative_to(repo_root.resolve()))
        except ValueError:
            rel = str(path)
    else:
        rel = str(path)
    rel_posix = rel.replace("\\", "/")
    # In-package if it lives under the real repro package, or under any
    # src/repro/ layout (absolute or repo-relative) — the latter lets
    # fixtures in temp dirs exercise the sim-path rules.
    in_package = (pkg == resolved or pkg in resolved.parents
                  or "/src/repro/" in f"/{rel_posix}"
                  or "/src/repro/" in resolved.as_posix())
    linter = _FileLinter(rel_posix, source, in_package)
    linter.visit(tree)
    return linter.findings


def run_lint(paths: list[str] | None = None,
             repo_root: str | Path | None = None,
             fingerprint: bool = True) -> CheckReport:
    """Lint ``paths`` (default: the package, tests and benchmarks dirs
    under ``repo_root``) and, once per run, verify the SIM_VERSION
    fingerprint."""
    root = Path(repo_root) if repo_root is not None \
        else package_root().parents[1]
    if paths:
        roots = [Path(p) for p in paths]
    else:
        roots = [package_root()]
        for extra in ("tests", "benchmarks", "examples", "scripts"):
            d = root / extra
            if d.is_dir():
                roots.append(d)
    report = CheckReport()
    for path in _iter_py_files(roots):
        report.extend(lint_file(path, repo_root=root))
    if fingerprint:
        report.extend(check_fingerprint())
    return report
