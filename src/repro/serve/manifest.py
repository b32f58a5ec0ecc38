"""The provenance manifest: a markdown ledger tying published artifacts
back to exact requests, configs and ``SIM_VERSION``.

Modeled on the Kadoshima ``results/final/manifest.md`` exemplar
(SNIPPETS.md #1): for every published artifact, the ledger answers
*which inputs produced this, and how do I regenerate it?* Here the
artifacts are the committed ``BENCH_<n>.json`` perf-trajectory records,
the tuned decision tables, and the daemon's served jobs (the ``done``
records of its event log, rotated segments included); the inputs are
content-addressed :class:`~repro.exec.RunRequest` hashes — the same
digests the sharded result store files entries under, so every number in
a BENCH series is traceable to an on-disk cache entry.

``python -m repro serve manifest`` renders this offline (no daemon
needed) and the CI serve-smoke job publishes it as an artifact.
"""

from __future__ import annotations

import glob
import json
import os

from ..exec.cache import SIM_VERSION
from ..exec.request import RUN_KINDS, RunRequest
from ..obs.svc import EVENT_LOG_NAME, EventLog
from .tables import TableServer


def _load_json(path: str) -> dict | None:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return doc if isinstance(doc, dict) else None
    except (json.JSONDecodeError, OSError):
        return None


def bench_requests(doc: dict) -> "list[tuple[str, RunRequest]]":
    """Reconstruct the exact requests behind a bench-sweep BENCH record.

    ``bench_trajectory_json`` records every run parameter precisely so a
    later session can re-run the sweep; that same completeness lets the
    manifest recompute each point's content address *today* and assert
    the linkage. Series whose labels are not runnable components (or
    records that are not sweeps) yield nothing.
    """
    if "series" not in doc or doc.get("collective") not in RUN_KINDS:
        return []
    out: list[tuple[str, RunRequest]] = []
    for series in doc.get("series", []):
        label = series.get("label")
        for point in series.get("points", []):
            try:
                req = RunRequest(
                    doc["system"], doc["collective"], int(point["size"]),
                    int(doc["nranks"]), component=label,
                    warmup=int(doc.get("warmup", 1)),
                    iters=int(doc.get("iters", 3)))
            except (KeyError, TypeError, ValueError):
                continue
            out.append((label, req))
    return out


def _bench_section(path: str, doc: dict) -> list[str]:
    tag = doc.get("tag", os.path.basename(path))
    lines = [f"### `{os.path.basename(path)}` — {tag}", ""]
    title = doc.get("title")
    if title:
        lines += [f"- artifact: {title}"]
    reqs = bench_requests(doc)
    if reqs:
        system = doc["system"]
        sizes = sorted({req.size for _l, req in reqs})
        components = sorted({label for label, _r in reqs})
        lines += [
            f"- run parameters: system `{system}`, "
            f"collective `{doc['collective']}`, nranks {doc['nranks']}, "
            f"warmup {doc.get('warmup', 1)}, iters {doc.get('iters', 3)}",
            f"- components: {', '.join(f'`{c}`' for c in components)}",
            f"- sizes: {', '.join(str(s) for s in sizes)}",
            f"- requests: {len(reqs)} points, content-addressed at "
            f"SIM_VERSION {SIM_VERSION}:",
        ]
        for label, req in reqs[:4]:
            lines.append(f"  - `{req.key()}` ← {label} @ {req.size} B")
        if len(reqs) > 4:
            lines.append(f"  - … {len(reqs) - 4} more "
                         f"(same parameters, remaining sizes/components)")
        lines += [
            "- regenerate: `python -m repro bench "
            f"{doc['collective']} --system {system} "
            f"--nranks {doc['nranks']} "
            f"--sizes {','.join(str(s) for s in sizes)} "
            f"--warmup {doc.get('warmup', 1)} "
            f"--iters {doc.get('iters', 3)} --cache`",
        ]
        exec_info = doc.get("exec")
        if exec_info:
            lines.append(
                f"- recorded run: {exec_info.get('simulations', '?')} new "
                f"simulations, {exec_info.get('cache_hits', '?')} cached, "
                f"wall {exec_info.get('wall_s', '?')}s")
    else:
        kind = doc.get("kind", "record")
        recorded = doc.get("sim_version")
        lines += [f"- non-sweep record (kind: {kind})"]
        if recorded is not None:
            lines.append(f"- recorded at SIM_VERSION {recorded}")
        note = doc.get("note")
        if note:
            lines.append(f"- note: {note}")
    lines.append("")
    return lines


def build_manifest(root: str | os.PathLike = ".", *,
                   state_dir: str | None = None,
                   tables_root: str | None = None) -> str:
    """Render the full ledger for a repo checkout as markdown."""
    root = os.fspath(root)
    lines = [
        "# Results manifest",
        "",
        "Ledger tying published artifacts (BENCH records, tuned decision",
        "tables, served sweeps) to the exact content-addressed requests",
        "and simulator version that produced them. Regenerate with",
        "`python -m repro serve manifest`.",
        "",
        f"- simulator: SIM_VERSION {SIM_VERSION}",
        "- request hashes: sha256 over the canonical request payload "
        "(`RunRequest.key()`), identical to the sharded result-store "
        "filenames under `results/cache/objects/`",
        "",
        "## BENCH perf-trajectory records",
        "",
    ]
    bench_paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not bench_paths:
        lines += ["(no BENCH records found)", ""]
    for path in bench_paths:
        doc = _load_json(path)
        if doc is None:
            lines += [f"### `{os.path.basename(path)}`", "",
                      "- unreadable record (skipped)", ""]
            continue
        lines += _bench_section(path, doc)

    lines += ["## Tuned decision tables", ""]
    server = TableServer(tables_root
                         or os.path.join(root, "results", "tuned"))
    tables = server.available()
    if not tables:
        lines += ["(no decision tables found)", ""]
    for info in tables:
        rel = os.path.relpath(info["table"], root)
        lines += [
            f"### `{rel}`",
            "",
            f"- etag: `{info['etag']}`",
            f"- entries: {info['entries']} "
            f"(systems: {', '.join(info['systems'])})",
            "- regenerate: `python -m repro tune` "
            "(serve live: `python -m repro serve tables "
            "--system <s> --collective <c> --size <n>`)",
            "",
        ]

    lines += ["## Served jobs (request ledger)", ""]
    log = EventLog(os.path.join(
        state_dir or os.path.join(root, "results", "serve"),
        EVENT_LOG_NAME))
    records = [r for r in log.records() if r.get("event") == "done"]
    if not records:
        lines += ["(no serve request ledger found)", ""]
    else:
        lines += [f"{len(records)} job(s) on record; most recent first:", ""]
        for record in reversed(records[-10:]):
            hashes = record.get("request_hashes", [])
            shown = ", ".join(f"`{h[:12]}…`" for h in hashes[:3])
            if len(hashes) > 3:
                shown += f", … {len(hashes) - 3} more"
            lines.append(
                f"- job {record.get('job')} (tenant `{record.get('tenant')}`"
                f", SIM_VERSION {record.get('sim_version')}): "
                f"{record.get('requests')} request(s), "
                f"{record.get('new')} new / {record.get('cached')} cached"
                f"{' — ' + shown if shown else ''}")
        lines.append("")
    return "\n".join(lines)


def write_manifest(path: str | os.PathLike,
                   root: str | os.PathLike = ".", *,
                   state_dir: str | None = None,
                   tables_root: str | None = None) -> str:
    """Render and write the ledger; returns the rendered text."""
    text = build_manifest(root, state_dir=state_dir,
                          tables_root=tables_root)
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return text
