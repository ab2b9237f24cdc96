"""Command-line entry point: experiments and the serving workflow.

Usage::

    python -m repro list
    python -m repro run table3
    python -m repro run fig4 --scale paper --seed 11
    python -m repro run all --json
    python -m repro fit-save compas --out artifacts/compas
    python -m repro serve --artifact artifacts/compas --port 8351

``run`` prints the same table/series the corresponding paper artefact
reports (``--json`` switches to the machine-readable serialisation);
``--scale paper`` switches from the reduced default protocol to the
paper's full grids and dataset sizes.  ``fit-save`` fits a full
serving pipeline (scaler -> iFair -> scorer -> thresholds) on one of
the evaluation datasets and writes a versioned artifact directory;
``serve`` loads such an artifact and answers JSON requests over HTTP.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

import repro
from repro.exceptions import ReproError
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.registry import EXPERIMENTS, run_experiment, run_experiment_dict
from repro.telemetry.logs import configure_logging

_DESCRIPTIONS = {
    "table1": "motivating Xing example (group-fair yet individually unfair)",
    "table2": "dataset statistics",
    "fig2": "synthetic-property study (iFair vs LFR)",
    "fig3": "utility vs individual-fairness trade-off (classification)",
    "table3": "classification with three tuning criteria",
    "table4": "Xing score-weight sensitivity",
    "table5": "ranking task (Xing, Airbnb)",
    "fig4": "adversarial obfuscation accuracy",
    "fig5": "post-hoc parity via FA*IR on iFair scores",
}

_FIT_DATASETS = ("compas", "census", "credit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the iFair paper's tables and figures.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lst = sub.add_parser("list", help="list available experiments")
    _add_logging_flags(lst)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper table/figure) or 'all'",
    )
    run.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="fast",
        help="reduced protocol (default) or the paper's full protocol",
    )
    run.add_argument(
        "--seed", type=int, default=7, help="master random seed (default 7)"
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of rendered tables",
    )
    _add_pair_mode_flags(run)
    _add_tuning_flags(run)
    _add_logging_flags(run)

    fit = sub.add_parser(
        "fit-save",
        help="fit a serving pipeline on a dataset and save the artifact",
    )
    fit.add_argument("dataset", choices=_FIT_DATASETS, help="dataset to fit on")
    fit.add_argument("--out", required=True, help="artifact output directory")
    fit.add_argument(
        "--records", type=int, default=1000, help="training records (default 1000)"
    )
    fit.add_argument(
        "--n-prototypes", type=int, default=10, help="iFair K (default 10)"
    )
    fit.add_argument(
        "--lambda-util", type=float, default=1.0, help="utility weight (default 1)"
    )
    fit.add_argument(
        "--mu-fair", type=float, default=1.0, help="fairness weight (default 1)"
    )
    fit.add_argument(
        "--criterion",
        choices=("parity", "equal_opportunity"),
        default="parity",
        help="decision-threshold calibration criterion (default parity)",
    )
    fit.add_argument(
        "--max-iter", type=int, default=100, help="L-BFGS budget (default 100)"
    )
    fit.add_argument(
        "--seed", type=int, default=7, help="master random seed (default 7)"
    )
    fit.add_argument(
        "--fit-jobs",
        type=int,
        default=None,
        metavar="J",
        help="worker processes for the fit's restarts (-1 = per CPU)",
    )
    fit.add_argument(
        "--tune",
        action="store_true",
        help=(
            "grid-search the mixture coefficients on a validation split "
            "before the final fit (see --tune-criterion)"
        ),
    )
    fit.add_argument(
        "--tune-criterion",
        choices=("max_utility", "max_fairness", "optimal"),
        default="optimal",
        help="selection rule for --tune (default optimal)",
    )
    _add_pair_mode_flags(fit)
    _add_tuning_flags(fit)
    _add_logging_flags(fit)

    serve = sub.add_parser("serve", help="serve a saved artifact over HTTP")
    serve.add_argument("--artifact", required=True, help="artifact directory")
    serve.add_argument("--host", default="127.0.0.1", help="bind host")
    serve.add_argument("--port", type=int, default=8351, help="bind port")
    serve.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="max rows per model evaluation (default 256)",
    )
    serve.add_argument(
        "--batch-delay-ms",
        type=float,
        default=0.0,
        help=(
            "micro-batch window in milliseconds: how long the leader "
            "request waits to coalesce concurrent followers into one "
            "model pass (applied per engine worker; default 0 adds no "
            "latency, ~2 trades p50 for throughput under load)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "engine worker processes (default 1 = single in-process "
            "engine, simplest to debug); N>=2 forks N workers sharing "
            "the model read-only via shared memory and enables "
            "POST /v1/admin/reload blue/green model swaps"
        ),
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help=(
            "per-attempt worker reply deadline in milliseconds "
            "(multi-worker tier only): a worker that misses it is "
            "killed and the request rerouted to a healthy peer; "
            "default 0 waits forever"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        help=(
            "admission gate (multi-worker tier only): max requests in "
            "flight past the gate; excess load queues up to "
            "--shed-queue-ms then is shed with 429 + Retry-After; "
            "default 0 = unbounded"
        ),
    )
    serve.add_argument(
        "--shed-queue-ms",
        type=float,
        default=100.0,
        help=(
            "max milliseconds a request may wait at the admission gate "
            "before being shed (only meaningful with --max-inflight; "
            "default 100)"
        ),
    )
    serve.add_argument(
        "--online-refit",
        action="store_true",
        help=(
            "attach the drift-response controller (multi-worker tier "
            "only): served traffic is buffered in a sliding window, "
            "fairness drift / covariate shift triggers a warm "
            "partial_fit refit over the window and a blue/green "
            "hot-swap of the refreshed model"
        ),
    )
    serve.add_argument(
        "--refresh-window",
        type=int,
        default=512,
        help=(
            "sliding-window rows the online controller buffers for the "
            "shift statistic, landmark re-anchoring and refits "
            "(requires --online-refit; default 512)"
        ),
    )
    serve.add_argument(
        "--drift-policy",
        choices=("monitor", "shift", "either", "both"),
        default="either",
        help=(
            "which signal schedules an online refit: the fairness "
            "monitor's drift flags, the covariate shift statistic, "
            "either (default), or only when both agree "
            "(requires --online-refit)"
        ),
    )
    serve.add_argument(
        "--refit-cooldown",
        type=float,
        default=30.0,
        help=(
            "minimum seconds between automatic online refits "
            "(requires --online-refit; default 30)"
        ),
    )
    _add_logging_flags(serve)
    return parser


def _add_logging_flags(parser: argparse.ArgumentParser) -> None:
    """Structured-logging flags shared by every verb.

    The library itself never writes to stderr; these flags turn on the
    ``repro`` logging tree for the duration of the command.  With
    ``--log-level INFO`` the ``serve`` verb emits one access-log record
    per handled request; ``--log-json`` switches every record to
    one-line JSON for log shippers.
    """
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="WARNING",
        help="stderr log threshold for repro's loggers (default WARNING)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as one-line JSON instead of text",
    )


def _add_pair_mode_flags(parser: argparse.ArgumentParser) -> None:
    """Fairness-oracle flags shared by ``run`` and ``fit-save``."""
    parser.add_argument(
        "--pair-mode",
        choices=("auto", "full", "sampled"),
        default="auto",
        help=(
            "fairness-oracle mode for iFair fits: full sums every record "
            "pair exactly, sampled a fixed pair subsample (default auto)"
        ),
    )


def _add_tuning_flags(parser: argparse.ArgumentParser) -> None:
    """Parallel-tuning flags shared by ``run`` and ``fit-save``.

    ``--tune-jobs 4`` runs candidate fits on four worker processes
    (training arrays broadcast once via shared memory); results are
    identical to the serial run for any value.  ``--tune-strategy
    halving`` switches the search to successive halving — typically
    2-4x fewer fit-iterations over the paper grid.
    """
    parser.add_argument(
        "--tune-jobs",
        type=int,
        default=None,
        metavar="J",
        help=(
            "worker processes for hyper-parameter search "
            "(default serial, -1 = one per CPU)"
        ),
    )
    parser.add_argument(
        "--tune-strategy",
        choices=("exhaustive", "halving"),
        default="exhaustive",
        help="grid-search strategy (default exhaustive)",
    )
    parser.add_argument(
        "--tune-promote",
        choices=("rank", "extrapolate"),
        default="rank",
        help=(
            "halving rung promotion: observed-score rank or "
            "learning-curve extrapolation (default rank)"
        ),
    )


def _config(args) -> ExperimentConfig:
    if args.scale == "paper":
        config = ExperimentConfig.paper(random_state=args.seed)
    else:
        config = ExperimentConfig.fast(random_state=args.seed)
    if args.pair_mode != "auto":
        config = replace(config, pair_mode=args.pair_mode)
    if (
        args.tune_jobs is not None
        or args.tune_strategy != "exhaustive"
        or args.tune_promote != "rank"
    ):
        config = replace(
            config,
            tune_jobs=args.tune_jobs,
            tune_strategy=args.tune_strategy,
            tune_promote=args.tune_promote,
        )
    return config


def _cmd_run(args) -> int:
    config = _config(args)
    targets = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.json:
        results = {target: run_experiment_dict(target, config) for target in targets}
        payload = results[targets[0]] if len(targets) == 1 else results
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for target in targets:
        print(run_experiment(target, config))
        print()
    return 0


def _cmd_fit_save(args) -> int:
    from repro.data import generate_census, generate_compas, generate_credit
    from repro.serving import fit_serving_pipeline, save_artifact

    if args.dataset == "compas":
        dataset = generate_compas(args.records, random_state=args.seed)
    elif args.dataset == "census":
        dataset = generate_census(args.records, random_state=args.seed)
    else:
        dataset = generate_credit(args.records, random_state=args.seed)
    artifact = fit_serving_pipeline(
        dataset,
        n_prototypes=args.n_prototypes,
        lambda_util=args.lambda_util,
        mu_fair=args.mu_fair,
        criterion=args.criterion,
        max_iter=args.max_iter,
        pair_mode=args.pair_mode,
        n_jobs=args.fit_jobs,
        tune=args.tune,
        tune_criterion=args.tune_criterion,
        tune_jobs=args.tune_jobs,
        tune_strategy=args.tune_strategy,
        tune_promote=args.tune_promote,
        random_state=args.seed,
    )
    path = save_artifact(args.out, artifact)
    tuned = artifact.metadata.get("tuned")
    suffix = (
        f", tuned lambda={tuned['lambda_util']} mu={tuned['mu_fair']}"
        if tuned
        else ""
    )
    print(
        f"saved {args.dataset} serving artifact to {path} "
        f"(K={args.n_prototypes}, loss={artifact.model.loss_:.4f}, "
        f"criterion={args.criterion}{suffix})"
    )
    return 0


def _check_online_args(args) -> None:
    """Online knobs require the controller — fail loudly rather than
    silently serving without the drift response the user tuned."""
    if args.online_refit:
        return
    if args.refresh_window != 512:
        raise ReproError("--refresh-window requires --online-refit")
    if args.drift_policy != "either":
        raise ReproError("--drift-policy requires --online-refit")
    if args.refit_cooldown != 30.0:
        raise ReproError("--refit-cooldown requires --online-refit")


def _cmd_serve(args) -> int:
    from repro.serving import serve_artifact

    _check_online_args(args)
    # serve_artifact loads first, so artifact problems report as
    # artifact errors and only a failing socket bind as a bind error
    # (worker processes are also torn down on a failed bind).
    try:
        service = serve_artifact(
            args.artifact,
            host=args.host,
            port=args.port,
            batch_size=args.batch_size,
            max_batch_delay=args.batch_delay_ms / 1000.0,
            workers=args.workers,
            deadline_s=(args.deadline_ms / 1000.0) if args.deadline_ms > 0 else None,
            max_inflight=args.max_inflight if args.max_inflight > 0 else None,
            shed_queue_s=args.shed_queue_ms / 1000.0,
            online_refit=args.online_refit,
            refresh_window=args.refresh_window,
            drift_policy=args.drift_policy,
            refit_cooldown_s=args.refit_cooldown,
            verbose=True,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port} ({exc})", file=sys.stderr)
        return 1
    host, port = service.address
    endpoints = ", ".join(service.engine.endpoints())
    tier = f"{args.workers} workers" if args.workers > 1 else "in-process"
    if args.online_refit:
        tier += f", online refit ({args.drift_policy})"
    print(
        f"serving {args.artifact} on http://{host}:{port} "
        f"({endpoints}; {tier})"
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("shutting down")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_format=args.log_json)
    try:
        if args.command == "list":
            for name in sorted(EXPERIMENTS):
                print(f"{name:8s} {_DESCRIPTIONS.get(name, '')}")
            return 0
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "fit-save":
            return _cmd_fit_save(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
