"""Unified command-line interface: ``python -m repro.cli <command>``.

Commands
--------
table1        reproduce Table 1 (FP/FN of boundaries B1..B5)
figure4       reproduce the Figure 4 geometry summary
audit         screen a device population and print the audit sheet
generate      synthesize an experiment and save it to .npz
ablation      run one of the ablation studies (A1/A2/A5/A7; A5 and A7a
              inject their alternative models, no config field selects them)
report        pretty-print the manifest of a traced run
export-bundle fit a detector and export it as a ``repro-bundle-v1`` file
serve         serve a detector bundle over the HTTP screening API
score         screen devices against a bundle (local) or a server (--url)

Every experiment command accepts ``--trace`` (record spans + metrics and
write ``<run-dir>/manifest.json``), ``--run-dir``
(defaults to ``runs/<run-id>``) and ``--log-level``.  Every command
computes each stage it needs; nothing is cached between runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import List, Optional

from repro import obs
from repro.core.config import DetectorConfig
from repro.core.io import load_experiment_data, save_experiment_data
from repro.core.pipeline import GoldenChipFreeDetector
from repro.core.report import format_table1
from repro.experiments.ablations import (
    ablate_boundary_method,
    ablate_kde,
    ablate_kmm,
    ablate_kmm_bandwidth,
    ablate_regression_mode,
    format_rows,
)
from repro.experiments.figure4 import run_figure4
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
from repro.experiments.table1 import run_table1
from repro.serve.engine import DEFAULT_MAX_BATCH, DEFAULT_MAX_QUEUE

ABLATIONS = {
    "kde": (ablate_kde, "A1: KDE tail modeling"),
    "kmm": (ablate_kmm, "A2: PCM population calibration"),
    "kmm-bandwidth": (ablate_kmm_bandwidth, "A2b: KMM kernel bandwidth"),
    "regression": (ablate_regression_mode, "A5: regression mode"),
    "boundary": (ablate_boundary_method, "A7a: one-class classifier"),
}


def _add_obs(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by every experiment command."""
    parser.add_argument(
        "--trace", action="store_true",
        help="record spans + metrics and write a run manifest "
             "(results are bit-identical with tracing on or off)",
    )
    parser.add_argument(
        "--run-dir", type=str, default=None,
        help="directory for manifest.json "
             "(default: runs/<run-id>; implies nothing without --trace)",
    )
    parser.add_argument(
        "--log-level", type=str, default="warning",
        choices=["debug", "info", "warning", "error"],
        help="logging verbosity of the repro.* loggers",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=16, help="experiment seed")
    parser.add_argument("--chips", type=int, default=40, help="fabricated chips")
    parser.add_argument(
        "--kde-samples", type=int, default=30_000, help="tail-enhanced set size M'"
    )
    parser.add_argument(
        "--data", type=str, default=None,
        help="load measurements from a .npz written by the generate command",
    )
    _add_obs(parser)


def _resolve_data(args):
    if args.data:
        return load_experiment_data(args.data)
    return generate_experiment_data(PlatformConfig(seed=args.seed, n_chips=args.chips))


def _detector_config(args) -> DetectorConfig:
    return DetectorConfig(kde_samples=args.kde_samples)


def _cmd_table1(args) -> int:
    result = run_table1(detector_config=_detector_config(args), data=_resolve_data(args))
    print(result.format())
    print(f"\nmatches paper shape: {result.matches_paper_shape()}")
    args._results = {
        "boundaries": {
            name: {"fp_count": metric.fp_count, "fn_count": metric.fn_count}
            for name, metric in result.metrics.items()
        },
        "matches_paper_shape": result.matches_paper_shape(),
    }
    return 0


def _cmd_figure4(args) -> int:
    result = run_figure4(detector_config=_detector_config(args), data=_resolve_data(args))
    print(result.format())
    return 0


def _cmd_audit(args) -> int:
    data = _resolve_data(args)
    detector = _fit_detector(args, data)
    verdicts = detector.classify(data.dutt_fingerprints, boundary=args.boundary)
    flagged = int((~verdicts).sum())
    print(f"boundary {args.boundary}: flagged {flagged} of {data.n_devices} devices")
    args._results = {
        "boundary": args.boundary,
        "flagged": flagged,
        "n_devices": data.n_devices,
    }
    if data.infested is not None:
        print()
        print(format_table1(detector.evaluate(data.dutt_fingerprints, data.infested)))
    return 0


def _cmd_generate(args) -> int:
    data = generate_experiment_data(PlatformConfig(seed=args.seed, n_chips=args.chips))
    path = save_experiment_data(data, args.output)
    print(f"wrote {data.n_devices} DUTTs + {data.sim_fingerprints.shape[0]} "
          f"simulated devices to {path}")
    args._results = {
        "output": str(path),
        "n_dutts": data.n_devices,
        "n_simulated": int(data.sim_fingerprints.shape[0]),
    }
    return 0


def _cmd_ablation(args) -> int:
    runner, title = ABLATIONS[args.study]
    rows = runner(
        data=_resolve_data(args),
        base_config=_detector_config(args),
    )
    print(format_rows(rows, title))
    return 0


def _fit_detector(args, data) -> GoldenChipFreeDetector:
    """Fit the full three-stage detector on the experiment ``data``."""
    detector = GoldenChipFreeDetector(_detector_config(args))
    detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
    detector.fit_silicon(data.dutt_pcms)
    return detector


def _cmd_export_bundle(args) -> int:
    detector = _fit_detector(args, _resolve_data(args))
    info = detector.export_bundle(args.output)
    print(f"wrote bundle {info.path}")
    print(f"  boundaries:     {', '.join(info.header['detector']['boundaries'])}")
    print(f"  schema version: {info.schema_version}")
    print(f"  digest:         {info.digest}")
    args._serve = {
        "bundle": str(info.path),
        "digest": info.digest,
        "schema_version": info.schema_version,
    }
    args._results = dict(args._serve)
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.server import DetectorServer

    server = DetectorServer(
        args.bundle,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
    )
    summary = server.bundle_summary()
    args._serve = {
        "bundle": summary["path"],
        "digest": summary["digest"],
        "schema_version": summary["schema_version"],
    }
    print(f"serving {summary['path']}")
    print(f"  boundaries: {', '.join(summary['boundaries'])}")
    print(f"  digest:     {summary['digest']}")
    print(f"  url:        {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
    return 0


def _cmd_score(args) -> int:
    data = load_experiment_data(args.data)
    boundaries = args.boundary or None
    if args.url:
        from repro.serve.client import ScoringClient

        with ScoringClient(args.url) as client:
            result = client.score(data.dutt_fingerprints, boundaries=boundaries)
        source = args.url
    else:
        from repro.serve.bundle import load_bundle
        from repro.serve.engine import ScoringEngine

        loaded = load_bundle(args.bundle)
        args._serve = {
            "bundle": loaded.path,
            "digest": loaded.digest,
            "schema_version": int(loaded.header["schema_version"]),
        }
        result = ScoringEngine(loaded.detector).score(
            data.dutt_fingerprints, boundaries=boundaries
        )
        source = args.bundle
    print(f"scored {result.n_devices} devices against {source}")
    flagged = {}
    for name in sorted(result.verdicts):
        count = int((~result.verdicts[name]).sum())
        flagged[name] = count
        print(f"  {name}: flagged {count} of {result.n_devices}")
    args._results = {"n_devices": result.n_devices, "flagged": flagged}
    return 0


def _resolve_run_path(run: str) -> str:
    """Map a run id / run directory / manifest path onto an existing path."""
    if os.path.exists(run):
        return run
    candidate = os.path.join("runs", run)
    if os.path.exists(candidate):
        return candidate
    raise SystemExit(f"no run found at {run!r} (also tried {candidate!r})")


def _cmd_report(args) -> int:
    from repro.obs.manifest import load_manifest
    from repro.obs.report import render_report

    manifest = load_manifest(_resolve_run_path(args.run))
    print(render_report(manifest))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="reproduce Table 1")
    _add_common(table1)
    table1.set_defaults(handler=_cmd_table1)

    figure4 = commands.add_parser("figure4", help="reproduce Figure 4 geometry")
    _add_common(figure4)
    figure4.set_defaults(handler=_cmd_figure4)

    audit = commands.add_parser("audit", help="screen a device population")
    _add_common(audit)
    audit.add_argument("--boundary", default="B5", choices=["B1", "B2", "B3", "B4", "B5"])
    audit.set_defaults(handler=_cmd_audit)

    generate = commands.add_parser("generate", help="synthesize + save an experiment")
    generate.add_argument("output", help="target .npz path")
    generate.add_argument("--seed", type=int, default=16)
    generate.add_argument("--chips", type=int, default=40)
    _add_obs(generate)
    generate.set_defaults(handler=_cmd_generate)

    ablation = commands.add_parser("ablation", help="run one ablation study")
    ablation.add_argument("study", choices=sorted(ABLATIONS))
    _add_common(ablation)
    ablation.set_defaults(handler=_cmd_ablation)

    report = commands.add_parser("report", help="pretty-print a traced run")
    report.add_argument(
        "run",
        help="run id under runs/, a run directory, or a manifest.json path",
    )
    report.set_defaults(handler=_cmd_report)

    export_bundle = commands.add_parser(
        "export-bundle",
        help="fit a detector and export it as a repro-bundle-v1 file",
    )
    export_bundle.add_argument("output", help="target bundle .npz path")
    _add_common(export_bundle)
    export_bundle.set_defaults(handler=_cmd_export_bundle)

    serve = commands.add_parser(
        "serve", help="serve a detector bundle over the HTTP screening API"
    )
    serve.add_argument("bundle", help="repro-bundle-v1 file to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=DEFAULT_MAX_BATCH,
        help="devices per micro-batch scoring pass",
    )
    serve.add_argument(
        "--max-queue", type=int, default=DEFAULT_MAX_QUEUE,
        help="queued-request bound; beyond it requests get HTTP 429",
    )
    serve.add_argument(
        "--log-level", type=str, default="warning",
        choices=["debug", "info", "warning", "error"],
        help="logging verbosity of the repro.* loggers",
    )
    serve.set_defaults(handler=_cmd_serve)

    score = commands.add_parser(
        "score", help="screen a measured population against a detector"
    )
    score.add_argument(
        "--data", required=True,
        help=".npz written by the generate command (the DUTT fingerprints)",
    )
    target = score.add_mutually_exclusive_group(required=True)
    target.add_argument("--bundle", help="score in-process against this bundle")
    target.add_argument("--url", help="score against a running serve instance")
    score.add_argument(
        "--boundary", action="append", choices=["B1", "B2", "B3", "B4", "B5"],
        help="boundary subset to score (repeatable; default: all in bundle)",
    )
    _add_obs(score)
    score.set_defaults(handler=_cmd_score)

    return parser


def _run_config(args) -> dict:
    """The JSON-ready configuration recorded in the manifest."""
    skip = {"handler", "command", "trace", "run_dir", "log_level"}
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and not key.startswith("_")
    }
    if hasattr(args, "kde_samples"):
        config["detector"] = dataclasses.asdict(_detector_config(args))
    return config


def _run_traced(args, argv: List[str]) -> int:
    """Run one command under tracing and write its run manifest."""
    from repro.obs.manifest import (
        RunManifest,
        collect_environment,
        git_revision,
        new_run_id,
        write_manifest,
    )
    from repro.obs.trace import span

    run_dir = args.run_dir or os.path.join("runs", new_run_id())
    run_id = os.path.basename(os.path.normpath(run_dir))
    created = time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
    obs.enable()
    try:
        with span(args.command):
            status = args.handler(args)
    finally:
        spans, snapshot = obs.disable()

    manifest = RunManifest(
        run_id=run_id,
        command=args.command,
        created=created,
        argv=list(argv),
        environment=collect_environment(),
        git=git_revision(),
        config=_run_config(args),
        seeds={"experiment": args.seed} if hasattr(args, "seed") else {},
        metrics=snapshot,
        spans=[entry.to_dict() for entry in spans],
        results=getattr(args, "_results", None),
        serve=getattr(args, "_serve", None),
    )
    path = write_manifest(manifest, run_dir)
    print(f"run manifest: {path}", file=sys.stderr)
    print(f"inspect with: python -m repro.cli report {run_dir}", file=sys.stderr)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    obs.setup_logging(getattr(args, "log_level", "warning"))
    try:
        if getattr(args, "trace", False):
            return _run_traced(args, argv)
        return args.handler(args)
    except BrokenPipeError:
        # The stdout consumer (head, less, ...) went away mid-report; point
        # stdout at devnull so the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
