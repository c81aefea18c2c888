"""Pretty-printer for run manifests (``repro.cli report <run-id>``).

Renders the stage-time breakdown of a recorded run as an indented tree.
Sibling spans with the same name are aggregated into one line (``x N``) —
the five boundary fits read as one ``boundary.fit`` row, not five — and
each line shows summed wall time, the share of the run and summed CPU
time.  The metric snapshot follows as counter/gauge/histogram tables.

The *stage coverage* figure is the acceptance gate of the instrumentation:
the fraction of the root span's wall time accounted for by its direct
children.  Low coverage means a pipeline stage is running untraced.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.obs.manifest import RunManifest
from repro.obs.trace import Span

__all__ = ["render_report", "stage_coverage", "build_tree"]


def build_tree(spans: List[Span]) -> Tuple[List[Span], Dict[Optional[int], List[Span]]]:
    """Return (root spans, children-by-parent-id) for a flat span list."""
    by_id = {recorded.span_id: recorded for recorded in spans}
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    roots: List[Span] = []
    for recorded in spans:
        parent = recorded.parent_id
        if parent is None or parent not in by_id:
            roots.append(recorded)
        else:
            children[parent].append(recorded)
    return roots, children


def stage_coverage(spans: List[Span]) -> Optional[float]:
    """Fraction of root wall time covered by the roots' direct children."""
    roots, children = build_tree(spans)
    total = sum(root.wall for root in roots)
    if total <= 0:
        return None
    covered = sum(child.wall for root in roots for child in children[root.span_id])
    return min(1.0, covered / total)


def _group_by_name(group: List[Span]) -> List[Tuple[str, List[Span]]]:
    """Sibling spans bucketed by name, ordered by first start time."""
    buckets: Dict[str, List[Span]] = defaultdict(list)
    for sibling in group:
        buckets[sibling.name].append(sibling)
    return sorted(buckets.items(), key=lambda item: min(s.start for s in item[1]))


def _render_group(name: str, group: List[Span], children, depth: int,
                  run_wall: float, lines: List[str]) -> None:
    wall = sum(s.wall for s in group)
    cpu = sum(s.cpu for s in group)
    label = f"{'  ' * depth}{name}"
    if len(group) > 1:
        label += f" x{len(group)}"
    share = f"{100.0 * wall / run_wall:5.1f}%" if run_wall > 0 else "    -"
    lines.append(f"  {label:<44} {wall * 1e3:9.1f} ms {share} {cpu * 1e3:9.1f} ms")
    nested: List[Span] = []
    for member in group:
        nested.extend(children.get(member.span_id, []))
    for child_name, child_group in _group_by_name(nested):
        _render_group(child_name, child_group, children, depth + 1, run_wall, lines)


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_report(manifest: RunManifest) -> str:
    """Render the full stage-time / metric breakdown of one run."""
    lines: List[str] = []
    lines.append(f"run {manifest.run_id} · command: {manifest.command}")
    lines.append(f"created: {manifest.created}")
    versions = manifest.environment.get("versions", {})
    env_bits = [f"python {versions.get('python', '?')}"]
    for package in ("numpy", "scipy", "repro"):
        if versions.get(package):
            env_bits.append(f"{package} {versions[package]}")
    if manifest.git and manifest.git.get("revision"):
        dirty = "*" if manifest.git.get("dirty") else ""
        env_bits.append(f"git {manifest.git['revision'][:12]}{dirty}")
    lines.append(" · ".join(env_bits))

    spans = manifest.span_objects()
    if spans:
        roots, children = build_tree(spans)
        run_wall = sum(root.wall for root in roots)
        lines.append("")
        lines.append(f"{'stage':<46} {'wall':>12} {'share':>5} {'cpu':>12}")
        for name, group in _group_by_name(roots):
            _render_group(name, group, children, 0, run_wall, lines)
        coverage = stage_coverage(spans)
        if coverage is not None:
            lines.append(f"  stage coverage of run wall time: {coverage * 100.0:.1f}%")
    else:
        lines.append("")
        lines.append("no spans recorded (run without --trace?)")

    metrics = manifest.metrics or {}
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    if counters or gauges or histograms:
        lines.append("")
        lines.append("metrics:")
    if counters:
        lines.append("  counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"    {name:<42} {_format_value(value):>12}")
    if gauges:
        lines.append("  gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"    {name:<42} {_format_value(value):>12}")
    if histograms:
        lines.append("  histograms:")
        lines.append(f"    {'name':<42} {'count':>7} {'mean':>12} {'min':>12} {'max':>12}")
        for name, summary in sorted(histograms.items()):
            lines.append(
                f"    {name:<42} {summary.get('count', 0):>7}"
                f" {_format_value(summary.get('mean')):>12}"
                f" {_format_value(summary.get('min')):>12}"
                f" {_format_value(summary.get('max')):>12}"
            )

    if manifest.results:
        lines.append("")
        lines.append("results:")
        for key, value in sorted(manifest.results.items()):
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)
