"""Command-line interface: run paper scenarios without writing code.

Usage (also available as ``python -m repro``):

    python -m repro run --protocols proteus-p --bandwidth 50 --rtt 30
    python -m repro run --protocols cubic,proteus-s --trace t.jsonl
    python -m repro run --protocols cubic --metrics m.json --sample 0.5
    python -m repro trace t.jsonl --kind mi --flow 2 --limit 5
    python -m repro pair --primary cubic --scavenger proteus-s
    python -m repro protocols

Every command prints a small table; ``--json`` / ``--csv`` write the
underlying data for plotting.  ``run --trace`` / ``run --metrics`` and
``trace`` are the observability entry points (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from .analysis import jains_index
from .harness import (
    TIMELINES,
    TOPOLOGIES,
    FlowSpec,
    LinkConfig,
    Timeline,
    TopologySpec,
    load_timeline,
    load_topology,
    print_table,
    run_flows,
    run_pair,
)
from .harness.export import (
    run_result_summary,
    write_run_json,
    write_throughput_series_csv,
)
from .protocols import PROTOCOL_NAMES
from .sim.dynamics import DynamicsError


@contextmanager
def _one_line_errors(args: argparse.Namespace):
    """Bad scenario input ends the command with one line: a ``ValueError``,
    or a ``DynamicsError`` from a timeline the topology cannot carry."""
    try:
        yield
    except (ValueError, DynamicsError) as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from exc


@contextmanager
def _recording(path: str | None):
    """A :class:`~repro.obs.JsonlTraceSink` streaming to ``path`` while a
    run goes (``None`` when there is no path); a run that raises leaves
    no file behind."""
    if path is None:
        yield None
        return
    from .obs import JsonlTraceSink

    with JsonlTraceSink(path) as sink:
        try:
            yield sink
        except BaseException:
            sink.close()
            sink.path.unlink(missing_ok=True)
            raise


@contextmanager
def _environ(name: str, value: str | None):
    """``os.environ[name] = value`` while a command runs (None leaves it
    as it is); pool workers started inside inherit it, and the old value
    is back when the command returns."""
    before = os.environ.get(name)
    if value is not None:
        os.environ[name] = value
    try:
        yield
    finally:
        if before is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = before


def _link_from_args(args: argparse.Namespace) -> LinkConfig:
    return LinkConfig(
        bandwidth_mbps=args.bandwidth,
        rtt_ms=args.rtt,
        buffer_kb=args.buffer,
        loss_rate=args.loss,
        noise_severity=args.noise,
        reverse_noise_severity=args.noise,
    )


def _timeline_from_args(args: argparse.Namespace) -> Timeline | None:
    if not args.timeline:
        return None
    try:
        return load_timeline(args.timeline)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from exc


def _topology_from_args(args: argparse.Namespace) -> TopologySpec | None:
    if not getattr(args, "topology", None):
        return None
    try:
        return load_topology(args.topology)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from exc


def _add_link_args(
    parser: argparse.ArgumentParser, default_duration: float = 30.0
) -> None:
    parser.add_argument("--bandwidth", type=float, default=50.0, help="Mbps")
    parser.add_argument("--rtt", type=float, default=30.0, help="base RTT, ms")
    parser.add_argument("--buffer", type=float, default=375.0, help="buffer, KB")
    parser.add_argument("--loss", type=float, default=0.0, help="random loss rate")
    parser.add_argument(
        "--noise", type=float, default=0.0, help="WiFi-like noise severity"
    )
    parser.add_argument(
        "--timeline",
        type=str,
        default=None,
        metavar="NAME_OR_JSON",
        help="link-dynamics timeline: a preset name "
        f"({', '.join(sorted(TIMELINES))}) or a JSON spec file",
    )
    parser.add_argument(
        "--topology",
        type=str,
        default=None,
        metavar="NAME_OR_JSON",
        help="multi-hop topology: a preset name "
        f"({', '.join(sorted(TOPOLOGIES))}) or a JSON spec file "
        "(default: classic single-bottleneck dumbbell)",
    )
    parser.add_argument(
        "--duration", type=float, default=default_duration, help="seconds"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=str, default=None, help="write summary JSON")
    parser.add_argument(
        "--csv", type=str, default=None, help="write throughput series CSV"
    )


def _export(args: argparse.Namespace, result) -> None:
    if args.json:
        write_run_json(args.json, result)
        print(f"wrote {args.json}")
    if args.csv:
        write_throughput_series_csv(args.csv, result)
        print(f"wrote {args.csv}")


def _print_link_events(result) -> None:
    if not result.link_events:
        return
    print_table(
        ["t (s)", "link", "event"],
        [
            (f"{event.time_s:g}", event.link, event.describe())
            for event in result.link_events
        ],
        title=f"timeline '{result.timeline.label}'"
        if result.timeline and result.timeline.label
        else "timeline events",
    )


def cmd_run(args: argparse.Namespace) -> int:
    """One run: a flow per ``--protocols`` entry, starts ``--stagger``
    apart, then a per-flow table over the measurement window."""
    from .obs import MetricsRegistry

    names = [name.strip() for name in args.protocols.split(",") if name.strip()]
    if not names:
        raise SystemExit(f"repro run: no protocols in {args.protocols!r}")
    for name in names:
        if name.lower() not in PROTOCOL_NAMES:
            raise SystemExit(
                f"repro run: unknown protocol {name!r}; "
                f"known: {', '.join(PROTOCOL_NAMES)}"
            )
    if args.sample is not None and not args.metrics:
        raise SystemExit("repro run: --sample needs --metrics")
    registry = MetricsRegistry() if args.metrics else None
    with _one_line_errors(args), _recording(args.trace) as tracer:
        config = _link_from_args(args)
        result = run_flows(
            [FlowSpec(name, start_time=i * args.stagger) for i, name in enumerate(names)],
            config,
            duration_s=args.duration,
            seed=args.seed,
            timeline=_timeline_from_args(args),
            topology=_topology_from_args(args),
            tracer=tracer,
            metrics=registry,
            sample_period_s=args.sample,
        )
    summary = run_result_summary(result)
    flows = summary["flows"]
    t0, t1 = summary["measurement_window_s"]
    print_table(
        ["flow", "protocol", "Mbps", "p95 RTT (ms)", "min RTT (ms)", "losses"],
        [
            (
                flow["flow_id"],
                flow["protocol"],
                f"{flow['throughput_mbps']:.2f}",
                f"{flow['p95_rtt_ms']:.1f}" if "p95_rtt_ms" in flow else "-",
                f"{flow['min_rtt_ms']:.1f}" if "min_rtt_ms" in flow else "-",
                flow["losses"],
            )
            for flow in flows
        ],
        title=f"{args.protocols} on {config.bandwidth_mbps:g} Mbps / "
        f"{config.rtt_ms:g} ms / {config.buffer_kb:g} KB, window {t0:g}-{t1:g} s",
    )
    print(
        f"utilization {summary['utilization']:.3f}, Jain's index "
        f"{jains_index([flow['throughput_mbps'] for flow in flows]):.3f}"
    )
    _print_link_events(result)
    if tracer is not None:
        print(f"digest: {tracer.digest()}")
        print(f"wrote {args.trace} ({tracer.count} events)")
    if registry is not None:
        _write_metrics(args, registry.snapshot())
    _export(args, result)
    return 0


def _write_metrics(args: argparse.Namespace, snapshot: dict) -> None:
    """Print a metrics snapshot as a series table and write it as JSON."""
    import json

    rows: list[tuple[str, str]] = []
    for key, value in snapshot["counters"].items():
        rows.append((key, str(value)))
    for key, value in snapshot["gauges"].items():
        rows.append((key, "-" if value is None else f"{value:.6g}"))
    for key, hist in snapshot["histograms"].items():
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        rows.append(
            (key, f"n={hist['count']} mean={mean:.6g} max={hist.get('max', 0):.6g}")
        )
    print_table(["series", "value"], rows, title=f"metrics for {args.protocols}")
    path = Path(args.metrics)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
    print(f"wrote {args.metrics}")


def cmd_pair(args: argparse.Namespace) -> int:
    with _one_line_errors(args):
        pair = run_pair(
            args.primary,
            args.scavenger,
            _link_from_args(args),
            duration_s=args.duration,
            seed=args.seed,
            timeline=_timeline_from_args(args),
            topology=_topology_from_args(args),
        )
    print_table(
        ["metric", "value"],
        [
            ("primary solo (Mbps)", f"{pair.primary_solo_mbps:.2f}"),
            ("primary with scavenger (Mbps)", f"{pair.primary_with_scavenger_mbps:.2f}"),
            ("primary throughput ratio", f"{pair.primary_throughput_ratio:.3f}"),
            ("scavenger (Mbps)", f"{pair.scavenger_mbps:.2f}"),
            ("joint utilization", f"{pair.utilization:.3f}"),
            ("primary p95-RTT ratio", f"{pair.primary_rtt_ratio_95th:.2f}"),
        ],
        title=f"{args.primary} (primary) vs {args.scavenger} (scavenger)",
    )
    return 0


def cmd_many(args: argparse.Namespace) -> int:
    """Many short primaries vs a few scavengers over a shared core."""
    from .harness import run_many

    with _one_line_errors(args):
        result = run_many(
            args.primary,
            args.scavenger,
            _link_from_args(args),
            n_flows=args.flows,
            n_scavengers=args.scavengers,
            flow_kb=args.flow_kb,
            duration_s=args.duration,
            seed=args.seed,
            topology=_topology_from_args(args),
        )
    window = result.measurement_window()
    scav = [result.throughput_mbps(i, window) for i in range(args.scavengers)]
    shorts = result.stats[args.scavengers:]
    target = int(args.flow_kb * 1e3)
    done = sum(1 for s in shorts if s.delivered_bytes >= target)
    print_table(
        ["metric", "value"],
        [
            ("short flows", str(len(shorts))),
            ("completed in-run", f"{done} ({100.0 * done / max(1, len(shorts)):.1f}%)"),
            ("scavengers", str(args.scavengers)),
            ("scavenger Mbps (total)", f"{sum(scav):.2f}"),
            ("utilization", f"{result.utilization(window):.3f}"),
        ],
        title=f"{args.flows} x {args.primary} ({args.flow_kb:g} KB) vs "
        f"{args.scavengers} x {args.scavenger}",
    )
    _export(args, result)
    return 0


def cmd_protocols(_args: argparse.Namespace) -> int:
    for name in PROTOCOL_NAMES:
        print(name)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Filter, summarise and export a trace file ``repro run --trace`` wrote.

    One pass over the file's lines: each matching event is counted and
    fed to the digest (and the ``--out`` file) as it is read, and only
    the first ``--limit`` of them are kept, so memory does not grow with
    the trace.
    """
    from .obs import event_to_json, trace_digest, write_jsonl
    from .obs.trace import event_filter, iter_jsonl

    if args.limit < 0:
        print(f"repro trace: --limit must be at least 0, got {args.limit}", file=sys.stderr)
        return 2
    keep = event_filter(flows=args.flow, links=args.link, kinds=args.kind)
    by_kind: Counter[str] = Counter()
    head: list[dict] = []
    total = 0
    unreadable: Exception | None = None

    def matches():
        nonlocal total, unreadable
        try:
            for event in iter_jsonl(args.file):
                total += 1
                if keep(event):
                    by_kind[event["kind"]] += 1
                    if len(head) < args.limit:
                        head.append(event)
                    yield event
        except (OSError, ValueError) as exc:
            unreadable = exc

    # The --out file is written beside its target and renamed into place
    # once the whole trace has been read: a bad line leaves no torn file,
    # and an --out naming the input does not truncate it mid-read.
    out = Path(args.out) if args.out else None
    tmp = None if out is None else out.with_name(f"{out.name}.{os.getpid()}.tmp")
    try:
        # One encoding pass feeds both the digest and the --out file.
        digest = trace_digest(matches()) if tmp is None else write_jsonl(matches(), tmp)
        if tmp is not None and unreadable is None:
            tmp.replace(out)
    finally:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
    if unreadable is not None:
        print(f"repro trace: cannot read {args.file}: {unreadable}", file=sys.stderr)
        return 2
    matched = sum(by_kind.values())
    print_table(
        ["kind", "events"],
        [(kind, str(count)) for kind, count in sorted(by_kind.items())]
        + [("total (matched/all)", f"{matched}/{total}")],
        title=f"trace of {args.file}",
    )
    print(f"digest: {digest}")
    for event in head:
        print(event_to_json(event))
    if args.out:
        print(f"wrote {args.out} ({matched} events)")
    return 0


def _csv_floats(raw: str | None, default: tuple[float, ...]) -> tuple[float, ...]:
    if raw is None:
        return default
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise SystemExit(f"repro sweep: bad float list {raw!r}: {exc}") from exc
    if not values:
        raise SystemExit(f"repro sweep: empty float list {raw!r}")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    """Supervised, resumable Fig-8 matrix sweep (see docs/ROBUSTNESS.md)."""
    from .harness.scenarios import (
        MATRIX_BANDWIDTHS_MBPS,
        MATRIX_BUFFER_BDP,
        MATRIX_RTTS_MS,
        config_matrix,
    )
    from .harness.supervise import (
        STATUS_OK,
        RetryPolicy,
        run_matrix,
        summarize_outcomes,
    )

    manifest = args.resume or args.manifest
    # Watchdog budget for every simulation in this sweep.
    budget = None if args.max_events is None else str(args.max_events)
    with _environ("REPRO_MAX_EVENTS", budget), _one_line_errors(args):
        configs = config_matrix(
            _csv_floats(args.bandwidths, MATRIX_BANDWIDTHS_MBPS),
            _csv_floats(args.rtts, MATRIX_RTTS_MS),
            _csv_floats(args.buffers, MATRIX_BUFFER_BDP),
        )
        if args.limit is not None:
            configs = configs[: args.limit]
        policy = RetryPolicy() if args.retries is None else RetryPolicy(retries=args.retries)
        outcomes = run_matrix(
            primary=args.primary,
            scavenger=args.scavenger,
            configs=configs,
            n_trials=args.trials,
            base_seed=args.seed,
            duration_s=args.duration,
            jobs=args.jobs,
            policy=policy,
            manifest=manifest,
        )
    counts = summarize_outcomes(outcomes)
    ratios = [
        outcome.value["primary_throughput_ratio"]
        for outcome in outcomes
        if outcome.ok and isinstance(outcome.value, dict)
    ]
    rows = [
        ("cells", str(counts["total"])),
        ("ok", str(counts[STATUS_OK])),
        ("failed", str(counts["failed"])),
        ("timed-out", str(counts["timed-out"])),
        ("crashed-worker", str(counts["crashed-worker"])),
        ("resumed from manifest", str(counts["resumed"])),
    ]
    if ratios:
        rows.append(
            ("mean primary tput ratio", f"{sum(ratios) / len(ratios):.3f}")
        )
    print_table(
        ["metric", "value"],
        rows,
        title=f"sweep {args.primary} vs {args.scavenger} "
        f"({len(configs)} configs x {args.trials} trials)",
    )
    if manifest:
        print(f"manifest: {manifest}")
    failures = [outcome for outcome in outcomes if not outcome.ok]
    for outcome in failures[:5]:
        label = (outcome.payload or {}).get("config", {}).get("label", outcome.key[:12])
        print(
            f"  {outcome.status}: {label} seed={outcome.seed} "
            f"attempts={outcome.attempts} error={outcome.error}",
            file=sys.stderr,
        )
    if len(failures) > 5:
        print(f"  ... and {len(failures) - 5} more failures", file=sys.stderr)
    return 1 if failures else 0


def cmd_attack(args: argparse.Namespace) -> int:
    """Adversarial scenario search (see docs/ADVERSARY.md)."""
    import json

    from .adversary import (
        CampaignConfig,
        artifact_record,
        load_artifact,
        replay_artifact,
        run_campaign,
        shrink_item,
    )

    if args.rerun:
        try:
            report = replay_artifact(args.rerun)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro attack: cannot replay {args.rerun}: {exc}", file=sys.stderr)
            return 2
        print_table(
            ["metric", "value"],
            [
                ("objective", report["objective"]),
                ("recorded score", f"{report['recorded_score']:.6g}"),
                ("recomputed score", f"{report['recomputed_score']:.6g}"),
                ("violation", str(report["violation"])),
                ("bit-exact match", str(report["match"])),
            ],
            title=f"replay of {args.rerun}",
        )
        return 0 if report["match"] else 1

    if args.shrink:
        try:
            record = load_artifact(args.shrink)
            result = shrink_item(record["item"])
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro attack: cannot shrink {args.shrink}: {exc}", file=sys.stderr)
            return 2
        out_path = Path(args.shrink).with_suffix(".shrunk.json")
        config = CampaignConfig.from_dict(record["campaign"])
        shrunk_record = artifact_record(
            config,
            result.item,
            result.value,
            eval_index=record.get("eval_index", 0),
            parent={"size": result.parent_size, "path": str(args.shrink)},
        )
        out_path.write_text(json.dumps(shrunk_record, sort_keys=True, indent=1) + "\n")
        print_table(
            ["metric", "value"],
            [
                ("parent size", str(result.parent_size)),
                ("shrunk size", str(result.size)),
                ("accepted steps", str(result.steps)),
                ("score", f"{float(result.value['score']):.6g}"),
                ("wrote", str(out_path)),
            ],
            title=f"shrink of {args.shrink}",
        )
        return 0

    controller_params = {}
    if args.controller_params:
        try:
            controller_params = json.loads(args.controller_params)
        except ValueError as exc:
            raise SystemExit(
                f"repro attack: bad --controller-params JSON: {exc}"
            ) from exc
    config = CampaignConfig(
        objective=args.objective,
        controller={"protocol": args.controller, "params": controller_params},
        primary=args.primary,
        budget=args.budget,
        seed=args.seed,
        generation_size=args.generation,
        elite_count=args.elites,
        duration_s=args.duration,
        threshold=args.threshold,
    )
    # Identical genomes (and shrink re-evaluations) hit the result cache.
    cache = None if args.no_cache else os.environ.get("REPRO_CACHE", "1")
    try:
        with _environ("REPRO_CACHE", cache):
            result = run_campaign(
                config,
                args.out,
                jobs=args.jobs,
                shrink=not args.no_shrink,
                resume=args.resume,
            )
    except (FileExistsError, ValueError) as exc:
        print(f"repro attack: {exc}", file=sys.stderr)
        return 2
    summary = result.summary()
    statuses = summary["statuses"]
    rows = [
        ("objective", summary["objective"]),
        ("evaluations", str(summary["evaluations"])),
        (
            "ok / failed / timed-out / crashed",
            "{} / {} / {} / {}".format(
                statuses.get("ok", 0),
                statuses.get("failed", 0),
                statuses.get("timed-out", 0),
                statuses.get("crashed-worker", 0),
            ),
        ),
        ("violations", str(summary["violations"])),
        (
            "best score",
            "-" if summary["best_score"] is None else f"{summary['best_score']:.6g}",
        ),
        ("best is a violation", str(summary["best_violation"])),
    ]
    if result.shrunk is not None:
        rows.append(
            (
                "shrunk reproducer",
                f"size {result.shrunk.parent_size} -> {result.shrunk.size} "
                f"({result.out_dir / 'best_shrunk.json'})",
            )
        )
    print_table(
        ["metric", "value"],
        rows,
        title=f"attack on {args.controller} ({config.objective}, "
        f"seed {config.seed})",
    )
    print(f"campaign: {result.out_dir}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``, and ``repro lint`` (= ``--check lint``)."""
    # Imported here so simulation commands never pay for the analyzers.
    from .devtools.analysis import (
        Project,
        describe_checks,
        format_report_github,
        format_report_json,
        format_report_text,
        run_check,
        write_trace_schema,
    )

    if args.list_checks:
        print(describe_checks())
        return 0
    paths = args.paths if args.paths else ["src"]
    if args.docs_dir:
        docs_dir = Path(args.docs_dir)
    else:
        # Auto-detect: documentation checks only make sense at repo root.
        docs_dir = Path("docs") if Path("docs").is_dir() else None
    try:
        project = Project.load(paths)
    except FileNotFoundError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    if args.update_schema:
        if docs_dir is None:
            print("repro check: --update-schema needs --docs-dir", file=sys.stderr)
            return 2
        written = write_trace_schema(paths, docs_dir, project=project)
        print(f"wrote {written}")

    try:
        report = run_check(
            paths, checks=args.check or None, docs_dir=docs_dir, project=project
        )
    except ValueError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(format_report_json(report))
    elif args.format == "github":
        output = format_report_github(report)
        if output:
            print(output)
    else:
        print(format_report_text(report))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PCC Proteus reproduction — run paper scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="one run: a flow per protocol over a link, optionally traced"
    )
    p_run.add_argument(
        "--protocols",
        default="cubic,proteus-s",
        metavar="CSV",
        help="comma-separated protocols, one flow each (staggered starts)",
    )
    p_run.add_argument(
        "--stagger", type=float, default=1.0, help="seconds between flow starts"
    )
    _add_link_args(p_run, default_duration=10.0)
    p_run.add_argument(
        "--trace", default=None, metavar="JSONL",
        help="record every trace event as canonical JSONL and print its digest",
    )
    p_run.add_argument(
        "--metrics", default=None, metavar="JSON",
        help="attach a metrics registry, print it and write its snapshot",
    )
    p_run.add_argument(
        "--sample", type=float, default=None, metavar="SECONDS",
        help="with --metrics: also sample bottleneck backlog every SECONDS "
        "of sim time",
    )
    p_run.set_defaults(fn=cmd_run)

    p_pair = sub.add_parser("pair", help="scavenger vs primary")
    p_pair.add_argument("--primary", default="cubic", choices=PROTOCOL_NAMES)
    p_pair.add_argument("--scavenger", default="proteus-s", choices=PROTOCOL_NAMES)
    _add_link_args(p_pair)
    p_pair.set_defaults(fn=cmd_pair)

    p_many = sub.add_parser(
        "many",
        help="many short primary flows vs a few scavengers on a shared core",
    )
    p_many.add_argument("--primary", default="cubic", choices=PROTOCOL_NAMES)
    p_many.add_argument("--scavenger", default="proteus-s", choices=PROTOCOL_NAMES)
    p_many.add_argument(
        "--flows", type=int, default=1000, help="number of short primary flows"
    )
    p_many.add_argument(
        "--scavengers", type=int, default=4, help="long-lived scavenger flows"
    )
    p_many.add_argument(
        "--flow-kb", type=float, default=50.0, help="size of each short flow, KB"
    )
    _add_link_args(p_many)
    p_many.set_defaults(fn=cmd_many)

    p_list = sub.add_parser("protocols", help="list protocol names")
    p_list.set_defaults(fn=cmd_protocols)

    p_sweep = sub.add_parser(
        "sweep",
        help="supervised, resumable Fig-8 matrix sweep (see docs/ROBUSTNESS.md)",
    )
    p_sweep.add_argument("--primary", default="cubic", choices=PROTOCOL_NAMES)
    p_sweep.add_argument("--scavenger", default="proteus-s", choices=PROTOCOL_NAMES)
    p_sweep.add_argument("--trials", type=int, default=1, help="seeds per config")
    p_sweep.add_argument("--seed", type=int, default=1, help="base seed")
    p_sweep.add_argument("--duration", type=float, default=10.0, help="seconds per cell")
    p_sweep.add_argument(
        "--bandwidths", default=None, metavar="CSV", help="Mbps list, e.g. 20,50,100"
    )
    p_sweep.add_argument(
        "--rtts", default=None, metavar="CSV", help="RTT ms list, e.g. 10,30,100"
    )
    p_sweep.add_argument(
        "--buffers", default=None, metavar="CSV", help="buffer sizes in BDP multiples"
    )
    p_sweep.add_argument(
        "--limit", type=int, default=None, help="run only the first N configs"
    )
    p_sweep.add_argument(
        "--manifest",
        default=None,
        metavar="JSONL",
        help="checkpoint each completed cell to this append-only manifest",
    )
    p_sweep.add_argument(
        "--resume",
        default=None,
        metavar="JSONL",
        help="resume from (and keep checkpointing to) this manifest",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=None,
        help="retries per failing cell (default REPRO_TRIAL_RETRIES / 2)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default REPRO_JOBS)"
    )
    p_sweep.add_argument(
        "--max-events", type=int, default=None,
        help="engine watchdog: max events per simulation (sets REPRO_MAX_EVENTS)",
    )
    p_sweep.set_defaults(fn=cmd_sweep)

    p_trace = sub.add_parser(
        "trace",
        help="filter a trace file 'repro run --trace' wrote "
        "(see docs/OBSERVABILITY.md)",
    )
    p_trace.add_argument("file", metavar="JSONL", help="the recorded trace")
    p_trace.add_argument(
        "--flow", type=int, action="append", metavar="ID",
        help="keep only this flow id (repeatable)",
    )
    p_trace.add_argument(
        "--link", action="append", metavar="NAME",
        help="keep only this link (repeatable, e.g. bottleneck)",
    )
    p_trace.add_argument(
        "--kind", action="append", metavar="PATTERN",
        help="keep only this event kind or namespace (repeatable, e.g. "
        "mi, link.drop, rate)",
    )
    p_trace.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="print the first N matching events as JSONL",
    )
    p_trace.add_argument(
        "--out", default=None, metavar="JSONL",
        help="write matching events as canonical JSONL",
    )
    p_trace.set_defaults(fn=cmd_trace)

    p_attack = sub.add_parser(
        "attack",
        help="adversarial scenario search against a controller "
        "(see docs/ADVERSARY.md)",
    )
    p_attack.add_argument(
        "--objective",
        default="primary_harm",
        choices=["primary_harm", "starvation"],
        help="violation objective the search maximizes",
    )
    p_attack.add_argument(
        "--budget", type=int, default=200, help="genome evaluations to spend"
    )
    p_attack.add_argument("--seed", type=int, default=7, help="campaign seed")
    p_attack.add_argument(
        "--controller",
        default="proteus-s",
        choices=PROTOCOL_NAMES,
        help="controller under test (the scavenger)",
    )
    p_attack.add_argument(
        "--controller-params",
        default=None,
        metavar="JSON",
        help="extra controller kwargs as JSON, e.g. "
        '\'{"utility_params": {"d": 1.0}}\' for a mis-tuned Proteus-S',
    )
    p_attack.add_argument(
        "--primary", default="cubic", choices=PROTOCOL_NAMES,
        help="the primary flow whose throughput the scavenger must not steal",
    )
    p_attack.add_argument(
        "--out", default="attack-out", metavar="DIR",
        help="campaign directory (manifest, artifacts)",
    )
    p_attack.add_argument(
        "--resume",
        action="store_true",
        help="continue the campaign recorded in --out (bit-identical result)",
    )
    p_attack.add_argument(
        "--replay", dest="rerun", default=None, metavar="ARTIFACT",
        help="re-evaluate an archived artifact and verify bit-exact equality",
    )
    p_attack.add_argument(
        "--shrink", default=None, metavar="ARTIFACT",
        help="delta-debug an archived artifact to a minimal reproducer",
    )
    p_attack.add_argument(
        "--no-shrink", action="store_true",
        help="skip the automatic shrink of the campaign's best violation",
    )
    p_attack.add_argument(
        "--generation", type=int, default=20, help="genomes per generation"
    )
    p_attack.add_argument(
        "--elites", type=int, default=5, help="elite pool for mutation/crossover"
    )
    p_attack.add_argument(
        "--duration", type=float, default=8.0, help="simulated seconds per run"
    )
    p_attack.add_argument(
        "--threshold", type=float, default=None,
        help="violation threshold (default: objective-specific)",
    )
    p_attack.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default REPRO_JOBS)"
    )
    p_attack.add_argument(
        "--no-cache", action="store_true", help="do not enable the result cache"
    )
    p_attack.set_defaults(fn=cmd_attack)

    p_lint = sub.add_parser(
        "lint",
        help="the per-file determinism/unit-safety rules alone: alias for "
        "'check --check lint' (see docs/DEVTOOLS.md)",
    )
    p_lint.add_argument(
        "paths", nargs="*", help="files or directories (default: src)"
    )
    p_lint.set_defaults(
        fn=cmd_check,
        check=["lint"],
        format="text",
        docs_dir=None,
        update_schema=False,
        list_checks=False,
    )

    p_check = sub.add_parser(
        "check",
        help="static analysis: per-file lint rules, tracepoints, layering "
        "(see docs/DEVTOOLS.md)",
    )
    p_check.add_argument(
        "paths", nargs="*", help="files or directories (default: src)"
    )
    p_check.add_argument(
        "--check",
        action="append",
        metavar="ANALYZER",
        help="run only this analyzer (repeatable; default: all)",
    )
    p_check.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="finding output format (github = workflow annotations)",
    )
    p_check.add_argument(
        "--docs-dir",
        default=None,
        metavar="DIR",
        help="docs directory for tracepoint schema checks "
        "(default: ./docs when it exists)",
    )
    p_check.add_argument(
        "--update-schema",
        action="store_true",
        help="regenerate docs/TRACE_SCHEMA.md from the tracepoint declarations",
    )
    p_check.add_argument(
        "--list-checks", action="store_true", help="describe analyzers and exit"
    )
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
