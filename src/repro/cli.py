"""Command-line interface: ``repro-sim``.

Subcommands mirror the paper's studies:

* ``characterize`` — shared/private hit breakdown per workload (F1-F3)
* ``compare``      — policy shoot-out incl. OPT on identical streams (F4/F5)
* ``oracle``       — sharing-oracle gains over a base policy (F6)
* ``predict``      — fill-time predictor accuracy study (T3)
* ``sweep``        — oracle gain vs LLC capacity (F7)
* ``phases``       — per-block sharing stability and PC ambiguity (F9/T4)
* ``mix``          — sharing-oracle on a multi-programmed mix (F10)
* ``record``       — record a workload's LLC stream to a file
* ``replay``       — replay a recorded stream under chosen policies
* ``inspect``      — microarchitectural probe report per workload
* ``fuzz``         — scenario fuzzing: mine policy inversions at scale
* ``bench``        — timed warm-sweep cells -> BENCH_<rev>.json trajectory
* ``cache``        — inspect or clear the persistent stream cache
* ``list``         — available workloads, policies, profiles

``compare``/``oracle``/``sweep``/``predict`` accept ``--jobs N`` to fan the
experiment matrix out over worker processes (``--jobs 0`` = every core),
and every subcommand shares a persistent on-disk stream cache (default
``~/.cache/repro-sim``; override with ``--cache-dir`` or the
``REPRO_SIM_CACHE_DIR`` environment variable, disable with ``--no-cache``)
so the expensive hierarchy recording pass is paid once per machine.

Examples::

    repro-sim characterize --profile scaled-4mb --workloads streamcluster
    repro-sim oracle --base lru --profile scaled-8mb --jobs 4
    repro-sim predict --predictors address pc hybrid
    repro-sim cache info
"""

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.analysis.aggregate import append_group_means, append_summary_rows
from repro.analysis.tables import render_table
from repro.common.config import PROFILE_NAMES
from repro.common.errors import ReproError
from repro.policies.registry import POLICY_NAMES
from repro.predictors.registry import PREDICTOR_NAMES
from repro.sim import telemetry
from repro.sim.experiment import (
    AUTO_CACHE_DIR,
    ExperimentContext,
    cache_entries,
    clear_cache,
    orphan_tmp_entries,
    resolve_cache_dir,
    shared_context,
)
from repro.sim.parallel import (
    DEFAULT_RETRIES,
    compare_many,
    inspect_many,
    oracle_many,
    predict_many,
    sweep_many,
)
from repro.sim.results import is_failure, split_failures
from repro.workloads.registry import workload_names


def _positive_int(text: str) -> int:
    """argparse type: reject nonpositive values at parse time, not in a
    worker process halfway through a sweep."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: integer >= 0 (``--jobs 0`` means every core)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: strictly positive float (timeouts, horizons)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _capacity_multiple(text: str) -> float:
    """argparse type: a sweep capacity multiple, validated at parse time.

    Multiples must be positive finite powers of two (0.25, 0.5, 1, 2, ...):
    :func:`repro.sim.parallel.scaled_geometry` snaps the scaled set count to
    the nearest power of two, so any other multiple would silently land on
    a different capacity than requested — reject it with a one-line error
    instead of sweeping a geometry the user did not ask for.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"capacity multiple must be positive and finite, got {value}"
        )
    if 2.0 ** round(math.log2(value)) != value:
        raise argparse.ArgumentTypeError(
            f"capacity multiple {value} is not a power of two; the swept "
            f"geometry would snap to a different capacity (use 0.25, 0.5, "
            f"1, 2, 4, ...)"
        )
    return value


class _SizesAction(argparse.Action):
    """``--sizes`` list action rejecting duplicate multiples up front."""

    def __call__(self, parser, namespace, values, option_string=None):
        seen = set()
        for value in values:
            if value in seen:
                parser.error(
                    f"argument {option_string}: duplicate capacity "
                    f"multiple {value}"
                )
            seen.add(value)
        setattr(namespace, self.dest, tuple(values))


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default="scaled-4mb", choices=PROFILE_NAMES,
        help="machine profile (default: scaled-4mb)",
    )
    parser.add_argument(
        "--workloads", nargs="*", default=None, metavar="NAME",
        help="workload subset (default: all)",
    )
    parser.add_argument(
        "--accesses", type=_positive_int, default=300_000,
        help="per-workload access budget (default: 300000)",
    )
    parser.add_argument("--seed", type=_nonnegative_int, default=42,
                        help="base seed")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent stream cache directory "
             "(default: $REPRO_SIM_CACHE_DIR or ~/.cache/repro-sim)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent stream cache",
    )
    telemetry_group = parser.add_mutually_exclusive_group()
    telemetry_group.add_argument(
        "--telemetry", dest="telemetry", action="store_true", default=True,
        help="record a run manifest + event log under <cache>/runs "
             "(default: on; inspect with 'repro-sim runs list/show')",
    )
    telemetry_group.add_argument(
        "--no-telemetry", dest="telemetry", action="store_false",
        help="disable run telemetry (outputs are byte-identical)",
    )
    _add_db_argument(parser)
    _add_fastpath_argument(parser)


def _add_db_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", nargs="?", const="auto", default=None, metavar="PATH",
        help="mirror this run live into the experiment store (bare --db "
             "uses expdb.sqlite3 inside the runs root; also enabled by "
             "$REPRO_SIM_DB; JSONL files remain the source of truth)",
    )


def _add_fastpath_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-fastpath", action="store_true",
        help="force the scalar cache model for every replay (the LRU "
             "stack-distance tier, the set-partitioned "
             "RRIP/DIP/NRU/random/OPT tiers and the native SHiP/oracle "
             "backend; results are bit-identical, this only trades speed)",
    )


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_nonnegative_int, default=1, metavar="N",
        help="worker processes for the experiment matrix "
             "(1 = serial, 0 = all cores; results are bit-identical)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort the whole run on the first cell error (default: "
             "retry, then complete with partial results and record the "
             "failures in the run manifest)",
    )
    parser.add_argument(
        "--retries", type=_nonnegative_int, default=DEFAULT_RETRIES,
        metavar="N",
        help=f"retry budget per failing cell (default: {DEFAULT_RETRIES}; "
             "ignored under --fail-fast)",
    )
    parser.add_argument(
        "--cell-timeout", type=_positive_float, default=None, metavar="SEC",
        help="per-cell completion deadline in seconds (parallel graceful "
             "mode only; default: none)",
    )


def _run_kwargs(args) -> dict:
    """:func:`repro.sim.parallel.run_cells` knobs from parsed flags."""
    return {
        "fail_fast": getattr(args, "fail_fast", False),
        "retries": getattr(args, "retries", DEFAULT_RETRIES),
        "timeout": getattr(args, "cell_timeout", None),
    }


def _cache_spec(args):
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return AUTO_CACHE_DIR


def _fastpath_spec(args) -> Optional[bool]:
    """Three-state fastpath gate from the CLI flag (None = auto)."""
    return False if getattr(args, "no_fastpath", False) else None


def _context(args) -> ExperimentContext:
    context = shared_context(
        args.profile, args.accesses, args.seed, cache_dir=_cache_spec(args)
    )
    context.fastpath = _fastpath_spec(args)
    if args.workloads:
        unknown = set(args.workloads) - set(workload_names())
        if unknown:
            raise SystemExit(f"unknown workloads: {sorted(unknown)}")
        context.workload_list = list(args.workloads)
    return context


def _runs_root(args):
    """Where this invocation's run records live (tracks --cache-dir)."""
    spec = getattr(args, "cache_dir", None)
    if spec:
        return telemetry.resolve_runs_root(cache_dir=spec)
    return telemetry.resolve_runs_root()


@contextmanager
def _telemetry_run(args, command: str, context=None):
    """Scope one CLI invocation as a telemetry run (or a no-op).

    Emits the manifest skeleton up front, activates the recorder so every
    stage span from here (including worker processes) lands in the event
    log, and seals the manifest with the final status — ``failed`` on an
    exception, ``completed_with_failures`` when graceful mode recorded
    failed cells, ``completed`` otherwise.
    """
    if not getattr(args, "telemetry", True):
        yield None
        return
    run = telemetry.create_run(
        _runs_root(args), command=command,
        argv=getattr(args, "_argv", None) or sys.argv[1:],
    )
    run.update_manifest(**telemetry.describe_environment(context))
    _attach_db_sink(args, run)
    with telemetry.activate(run):
        try:
            yield run
        except BaseException as error:
            run.finish(status="failed",
                       error=f"{type(error).__name__}: {error}")
            print(f"telemetry: run {run.run_id} -> {run.run_dir}",
                  file=sys.stderr)
            raise
    cells = run.manifest.get("cells") or {}
    status = "completed_with_failures" if cells.get("failed") else "completed"
    run.finish(status=status)
    print(f"telemetry: run {run.run_id} -> {run.run_dir}", file=sys.stderr)


def _attach_db_sink(args, run) -> None:
    """Mirror the run into the experiment store when --db/REPRO_SIM_DB asks.

    A database problem must never take down the run itself — the JSONL
    files are the source of truth and remain ingestable post hoc — so any
    failure here degrades to a one-line warning.
    """
    from repro.sim.expdb import LiveDbWriter, resolve_db_path

    try:
        db_path = resolve_db_path(getattr(args, "db", None),
                                  _runs_root(args))
        if db_path is None:
            return
        run.attach_sink(LiveDbWriter(db_path, run))
    except Exception as error:  # noqa: BLE001 - observability is optional
        print(f"warning: experiment store disabled for this run: "
              f"{type(error).__name__}: {error}", file=sys.stderr)


def _report_failures(failures) -> None:
    """Surface graceful-mode cell failures on stderr (tables skip them).

    Grid cells (one ``sweep_grid`` cell spanning every capacity point of a
    workload) surface the same :class:`CellFailure` in several result
    slots; report each distinct failure once.
    """
    for failure in dict.fromkeys(failures):
        print(
            f"warning: cell ({failure.kind}, {failure.workload}) failed "
            f"after {failure.attempts} attempt(s): "
            f"{failure.error_type}: {failure.error}",
            file=sys.stderr,
        )


def cmd_list(args) -> int:
    print("workloads :", ", ".join(workload_names()))
    print("policies  :", ", ".join(POLICY_NAMES), "(+ opt via compare --opt)")
    print("predictors:", ", ".join(PREDICTOR_NAMES))
    print("profiles  :", ", ".join(PROFILE_NAMES))
    return 0


def cmd_characterize(args) -> int:
    context = _context(args)
    rows = []
    with _telemetry_run(args, "characterize", context):
        reports = {name: context.characterize(name)
                   for name in context.workload_list}
    for name, report in reports.items():
        b = report.breakdown
        rows.append([
            name,
            report.result.accesses,
            report.result.miss_ratio,
            b.shared_residency_fraction,
            b.shared_hit_fraction,
            b.hit_density_ratio,
            b.ro_fraction_of_shared_hits,
        ])
    from repro.workloads.registry import get_workload as _get_workload

    append_group_means(rows, numeric_columns=[2, 3, 4, 5, 6],
                       group_of=lambda name: _get_workload(name).suite)
    append_summary_rows(rows, numeric_columns=[2, 3, 4, 5, 6])
    print(render_table(
        ["workload", "llc_accesses", "miss_ratio", "shared_res_frac",
         "shared_hit_frac", "hit_density", "ro_share"],
        rows,
        title=f"Characterization ({args.profile}, LRU residencies)",
    ))
    return 0


def cmd_compare(args) -> int:
    context = _context(args)
    with _telemetry_run(args, "compare", context) as run:
        if run:
            run.update_manifest(
                policies=list(args.policies) + (["opt"] if args.opt else []),
                jobs=args.jobs,
            )
        comparisons = compare_many(
            context, context.workload_list, args.policies,
            include_opt=args.opt, jobs=args.jobs, **_run_kwargs(args),
        )
    comparisons, failures = split_failures(comparisons)
    _report_failures(failures)
    rows = []
    for name, comparison in comparisons.items():
        rows.append([name] + [comparison.results[p].miss_ratio
                              for p in comparison.policies()])
    headers = ["workload"] + (args.policies + (["opt"] if args.opt else []))
    append_summary_rows(rows, numeric_columns=list(range(1, len(headers))))
    print(render_table(headers, rows,
                       title=f"LLC miss ratios ({args.profile})"))
    return 0


def cmd_oracle(args) -> int:
    context = _context(args)
    with _telemetry_run(args, "oracle", context) as run:
        if run:
            run.update_manifest(policies=[args.base], jobs=args.jobs)
        studies = oracle_many(
            context, context.workload_list, base=args.base, mode=args.mode,
            turnovers=args.turnovers, jobs=args.jobs, **_run_kwargs(args),
        )
    studies, failures = split_failures(studies)
    _report_failures(failures)
    rows = []
    for name, study in studies.items():
        rows.append([
            name,
            study.base.miss_ratio,
            study.oracle.miss_ratio,
            study.miss_reduction,
            study.shared_fill_fraction,
        ])
    append_summary_rows(rows, numeric_columns=[1, 2, 3, 4])
    print(render_table(
        ["workload", f"{args.base}_mr", "oracle_mr", "miss_reduction",
         "shared_fills"],
        rows,
        title=f"Sharing-oracle study (base={args.base}, {args.profile})",
    ))
    return 0


def cmd_predict(args) -> int:
    context = _context(args)
    with _telemetry_run(args, "predict", context) as run:
        if run:
            run.update_manifest(predictors=list(args.predictors),
                                jobs=args.jobs)
        matrices = predict_many(
            context, context.workload_list, args.predictors, jobs=args.jobs,
            **_run_kwargs(args),
        )
    matrices, failures = split_failures(matrices)
    _report_failures(failures)
    rows = []
    for (name, predictor_name), m in matrices.items():
        rows.append([
            f"{name}/{predictor_name}",
            m.total, m.base_rate, m.accuracy, m.precision, m.recall,
            m.coverage,
        ])
    print(render_table(
        ["workload/predictor", "fills", "base_rate", "accuracy",
         "precision", "recall", "coverage"],
        rows,
        title=f"Fill-time sharing predictability ({args.profile})",
    ))
    return 0


SWEEP_FACTORS = (0.5, 1.0, 2.0, 4.0)
"""LLC capacity multiples explored by the F7-style sweep."""


def cmd_sweep(args) -> int:
    from repro.analysis.aggregate import amean
    from repro.sim.parallel import scaled_geometry

    factors = args.sizes if getattr(args, "sizes", None) else SWEEP_FACTORS
    context = _context(args)
    with _telemetry_run(args, "sweep", context) as run:
        if run:
            run.update_manifest(policies=[args.base], jobs=args.jobs,
                                factors=list(factors))
        studies = sweep_many(
            context, context.workload_list, factors,
            base=args.base, turnovers=args.turnovers, jobs=args.jobs,
            **_run_kwargs(args),
        )
    studies, failures = split_failures(studies)
    _report_failures(failures)
    rows = []
    for factor in factors:
        per_workload = [studies[(factor, name)]
                        for name in context.workload_list
                        if (factor, name) in studies]
        if not per_workload:
            continue  # every cell of this capacity point failed
        reductions = [study.miss_reduction for study in per_workload]
        miss_ratios = [study.base.miss_ratio for study in per_workload]
        rows.append([scaled_geometry(context.geometry, factor).describe(),
                     amean(miss_ratios), amean(reductions), max(reductions)])
    print(render_table(
        ["llc", f"avg_{args.base}_mr", "avg_oracle_red", "max_oracle_red"],
        rows,
        title=f"Oracle gain vs LLC capacity (base={args.base})",
    ))
    return 0


def cmd_cache(args) -> int:
    spec = args.cache_dir if args.cache_dir else AUTO_CACHE_DIR
    directory = resolve_cache_dir(spec)
    if args.action == "clear":
        removed = clear_cache(spec)
        print(f"removed {removed} cached artifact file(s) from {directory}")
        return 0
    from repro.oracle.runner import annotation_memo_stats

    entries = cache_entries(spec)
    orphans = orphan_tmp_entries(spec)
    streams = [e for e in entries if e[0].name.endswith((".rllc", ".rllc.gz"))]
    total = sum(size for __, size in entries)
    memo = annotation_memo_stats()
    print(render_table(
        ["metric", "value"],
        [
            ["cache directory", str(directory)],
            ["cached streams", len(streams)],
            ["total files", len(entries)],
            ["total bytes", total],
            ["orphan tmp files", len(orphans)],
            ["orphan tmp bytes", sum(size for __, size in orphans)],
            # The in-memory oracle-annotation memo (this process): LRU-
            # bounded per (stream, horizon-window, cap); see
            # repro.oracle.runner.ANNOTATION_MEMO_CAPACITY.
            ["annotation memo entries",
             f"{memo['entries']}/{memo['capacity']}"],
            ["annotation memo hits", memo["hits"]],
            ["annotation memo misses", memo["misses"]],
            ["annotation memo evictions", memo["evictions"]],
        ],
        title="Persistent stream cache",
    ))
    return 0


def cmd_phases(args) -> int:
    from repro.characterization.pc_profile import PcSharingProfiler
    from repro.characterization.phases import SharingPhaseTracker
    from repro.sim.multipass import run_policy_on_stream

    context = _context(args)
    rows = []
    with _telemetry_run(args, "phases", context):
        for name in context.workload_list:
            artifacts = context.artifacts(name)
            tracker, profiler = SharingPhaseTracker(), PcSharingProfiler()
            run_policy_on_stream(
                artifacts.stream, context.geometry, "lru",
                seed=args.seed, observers=(tracker, profiler),
                fastpath=context.fastpath,
            )
            stats = tracker.finalize()
            profile = profiler.finalize()
            rows.append([
                name, stats.transitions, stats.last_value_accuracy,
                stats.bimodal_block_fraction, profile.majority_accuracy,
                profile.mixed_pc_fraction,
            ])
    print(render_table(
        ["workload", "transitions", "last_value_acc", "bimodal_blocks",
         "pc_majority_acc", "mixed_pcs"],
        rows,
        title=f"Sharing stability and PC ambiguity ({args.profile})",
    ))
    return 0


def cmd_mix(args) -> int:
    from repro.oracle.runner import run_oracle_study
    from repro.sim.multipass import record_llc_stream
    from repro.workloads.multiprogram import MultiprogramMix

    context = _context(args)
    mix = MultiprogramMix(args.components)
    with _telemetry_run(args, "mix", context):
        trace = mix.generate(
            num_threads=context.machine.num_cores,
            scale=context.machine.scale,
            target_accesses=args.accesses,
            seed=args.seed,
        )
        stream, stats = record_llc_stream(trace, context.machine)
        study = run_oracle_study(
            stream, context.geometry, base=args.base,
            fastpath=context.fastpath,
        )
    print(render_table(
        ["metric", "value"],
        [
            ["mix", mix.name],
            ["llc accesses", stats.llc_accesses],
            [f"{args.base} miss ratio", study.base.miss_ratio],
            ["oracle miss ratio", study.oracle.miss_ratio],
            ["oracle miss reduction", study.miss_reduction],
            ["shared fill fraction", study.shared_fill_fraction],
        ],
        title=f"Multi-programmed oracle study ({args.profile})",
    ))
    return 0


def cmd_record(args) -> int:
    from repro.cache.stream_io import write_llc_stream

    context = _context(args)
    with _telemetry_run(args, "record", context):
        for name in context.workload_list:
            artifacts = context.artifacts(name)
            path = f"{args.out_prefix}{name}.rllc.gz"
            write_llc_stream(artifacts.stream, path)
            print(f"recorded {name}: {len(artifacts.stream)} LLC accesses"
                  f" -> {path}")
    return 0


def cmd_replay(args) -> int:
    from repro.cache.stream_io import read_llc_stream
    from repro.common.config import profile as load_profile
    from repro.common.errors import ConfigError
    from repro.common.rng import derive_seed
    from repro.policies.registry import make_policy
    from repro.sim.multipass import run_opt, run_policy_on_stream
    from repro.sim.sampling import SampledLlcSimulator

    geometry = load_profile(args.profile).llc
    if args.sample_ratio > 1:
        if args.opt:
            raise ConfigError(
                "--opt needs the full stream; it cannot be combined with "
                "--sample-ratio > 1"
            )
        if geometry.num_sets % args.sample_ratio != 0:
            # Reject before any stream is read or replayed.
            raise ConfigError(
                f"--sample-ratio {args.sample_ratio} must divide the "
                f"{geometry.num_sets} LLC sets of profile {args.profile}"
            )
    rows = []
    for path in args.streams:
        stream = read_llc_stream(path)
        row = [stream.name]
        for policy in args.policies:
            if args.sample_ratio > 1:
                # The sampled-set slice derives from the seed (and stream)
                # so sampled replays are reproducible from the seed alone,
                # matching the fuzz harness's campaign cells.
                simulator = SampledLlcSimulator.from_seed(
                    geometry,
                    make_policy(policy,
                                seed=derive_seed(args.seed, "replay", policy)),
                    args.seed, args.sample_ratio, stream.name,
                )
                row.append(simulator.run(stream).miss_ratio)
            else:
                result = run_policy_on_stream(stream, geometry, policy,
                                              seed=args.seed,
                                              fastpath=_fastpath_spec(args))
                row.append(result.miss_ratio)
        if args.opt:
            row.append(
                run_opt(stream, geometry,
                        fastpath=_fastpath_spec(args)).miss_ratio
            )
        rows.append(row)
    headers = ["stream"] + list(args.policies) + (["opt"] if args.opt else [])
    suffix = (f", 1/{args.sample_ratio} sets sampled"
              if args.sample_ratio > 1 else "")
    print(render_table(headers, rows,
                       title=f"Replayed miss ratios ({args.profile}{suffix})"))
    return 0


def cmd_inspect(args) -> int:
    from repro.characterization.report import render_probe_report

    context = _context(args)
    probes = list(args.probes) if args.probes else None
    with _telemetry_run(args, "inspect", context) as run:
        if run:
            run.update_manifest(
                policies=[args.policy], jobs=args.jobs,
                probes=probes if probes else "auto",
            )
        reports = inspect_many(
            context, context.workload_list, policy=args.policy,
            probes=probes, jobs=args.jobs, **_run_kwargs(args),
        )
        reports, failures = split_failures(reports)
        if run:
            # Machine-readable twin of the rendered report, one JSON file
            # per workload inside the run directory ('runs show' re-renders
            # them later without re-simulating).
            for name, report in reports.items():
                payload_path = run.run_dir / f"inspect_{name}.json"
                payload_path.write_text(
                    json.dumps(report.as_dict(), indent=2) + "\n",
                    encoding="utf-8",
                )
    _report_failures(failures)
    for index, report in enumerate(reports.values()):
        if index:
            print()
        print(render_probe_report(report))
    return 0


def _parse_trace_spec(spec: str):
    """``PATH`` or ``PATH:FMT`` -> (path, fmt) for the trace ingester.

    A trailing ``:token`` that looks like a format name (no path
    separators or dots) but isn't a known format is rejected — a typo'd
    format must not silently degrade into a missing-file cell failure.
    """
    from repro.trace.ingest import _FORMATS

    path, sep, fmt = spec.rpartition(":")
    if sep and fmt in _FORMATS:
        return path, fmt
    if sep and fmt and "/" not in fmt and "." not in fmt:
        raise argparse.ArgumentTypeError(
            f"unknown trace format {fmt!r}; expected one of "
            f"{', '.join(_FORMATS)}"
        )
    return spec, "auto"


def _fuzz_config(args):
    from repro.sim.fuzz import FuzzConfig

    return FuzzConfig(
        seed=args.seed,
        scenarios=args.scenarios,
        policies=tuple(args.policies),
        base=args.base,
        accesses=args.accesses,
        sample_ratio=args.sample_ratio,
        flip_margin=args.flip_margin,
        spike_threshold=args.spike_threshold,
        mix_fraction=args.mix_fraction,
        max_full=args.max_full,
        trace_files=tuple(args.trace),
        fastpath=_fastpath_spec(args),
    )


def _flip_labels(record) -> str:
    flips = record.get("flips") or []
    labels = [f"{f['expected_better']}>{f['expected_worse']}" for f in flips]
    return ",".join(labels) if labels else "-"


def cmd_fuzz_run(args) -> int:
    from repro.sim.fuzz import run_fuzz_campaign

    config = _fuzz_config(args)
    with _telemetry_run(args, "fuzz", None) as run:
        if run:
            run.update_manifest(fuzz=config.as_dict(), jobs=args.jobs)
        corpus = run_fuzz_campaign(
            config, jobs=args.jobs, **_run_kwargs(args)
        )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=2, sort_keys=True)
        handle.write("\n")
    interesting = corpus["interesting"]
    mismatches = corpus["mismatches"]
    failures = corpus["failures"]
    print(render_table(
        ["metric", "value"],
        [
            ["scenarios run", len(corpus["scenarios"])],
            ["frontier (best->worst)", " > ".join(corpus["frontier"])],
            ["interesting cells", len(interesting)],
            ["full-fidelity re-runs", len(corpus["full"])],
            ["sampled-vs-full mismatches", len(mismatches)],
            ["failed cells", len(failures)],
            ["corpus", args.output],
        ],
        title=f"Fuzz campaign (seed {config.seed}, "
              f"1/{config.sample_ratio} sets sampled)",
    ))
    for failure in failures:
        print(f"warning: cell ({failure['kind']}, {failure['workload']}) "
              f"failed: {failure['error_type']}: {failure['error']}",
              file=sys.stderr)
    if mismatches:
        for entry in mismatches:
            print(f"error: cell {entry['id']} sampled-vs-full MISMATCH: "
                  f"{entry}", file=sys.stderr)
        return 1
    return 0


def cmd_fuzz_triage(args) -> int:
    from repro.sim.fuzz import corpus_scenario, load_corpus

    corpus = load_corpus(args.corpus)
    means = corpus.get("policy_mean_miss_ratio", {})
    print(render_table(
        ["policy", "mean miss ratio"],
        [[policy, round(means.get(policy, 0.0), 4)]
         for policy in corpus["frontier"]],
        title=f"Reference frontier ({len(corpus['scenarios'])} scenarios, "
              f"seed {corpus['config']['seed']})",
    ))
    rows = []
    for scenario_id in corpus["interesting"][: args.limit]:
        record = corpus_scenario(corpus, scenario_id)
        full = corpus.get("full", {}).get(scenario_id)
        rows.append([
            scenario_id, record["kind"],
            f"c{record['cores']} {record['llc_sets']}x{record['llc_ways']}",
            _flip_labels(record),
            round(record.get("oracle_gain", 0.0), 4),
            "yes" if record.get("oracle_spike") else "no",
            ("ok" if full["sampled_match"] and full["fastpath_match"]
             and full.get("recorder_match", True)
             else "MISMATCH") if full else "-",
        ])
    shown = len(rows)
    total = len(corpus["interesting"])
    print(render_table(
        ["cell", "kind", "machine", "flips", "oracle gain", "spike",
         "full check"],
        rows,
        title=f"Interesting cells ({shown} of {total} shown)",
    ))
    if corpus.get("mismatches"):
        print(f"error: corpus records {len(corpus['mismatches'])} "
              f"sampled-vs-full mismatch(es)", file=sys.stderr)
        return 1
    return 0


def cmd_fuzz_replay_cell(args) -> int:
    from repro.sim.fuzz import (
        DEFAULT_PROBES,
        load_corpus,
        replay_corpus_cell,
    )

    corpus = load_corpus(args.corpus)
    probes = () if args.no_probes else DEFAULT_PROBES
    record = replay_corpus_cell(corpus, args.cell_id, probes=probes)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    rows = [
        ["llc accesses", record["llc_accesses"]],
        ["sampled accesses", record["sampled_accesses"]],
        ["sampled counts match corpus",
         "yes" if record["sampled_match"] else "NO"],
        ["substream matches reference sampler",
         "yes" if record["sampled_reference_match"] else "NO"],
        ["full tiered matches --no-fastpath",
         "yes" if record["fastpath_match"] else "NO"],
        ["recorder matches object hierarchy",
         "yes" if record["recorder_match"] else "NO"],
        ["full oracle gain", round(record["oracle_gain_full"], 4)],
    ]
    for policy, cell in record["full"].items():
        rows.append([f"{policy} full miss ratio",
                     round(cell["miss_ratio"], 4)])
    print(render_table(
        ["check", "value"], rows,
        title=f"Full-fidelity replay of {args.cell_id}",
    ))
    ok = (record["sampled_match"] and record["sampled_reference_match"]
          and record["fastpath_match"] and record["recorder_match"])
    if not ok:
        print(f"error: cell {args.cell_id} did NOT reproduce bit-identically",
              file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args) -> int:
    handler = {
        "run": cmd_fuzz_run,
        "triage": cmd_fuzz_triage,
        "replay-cell": cmd_fuzz_replay_cell,
    }[args.fuzz_action]
    return handler(args)


def cmd_bench(args) -> int:
    from repro.sim.bench import GOLDEN_CELL, run_bench

    repeats = args.repeats
    if args.quick:
        args.accesses = min(args.accesses, 60_000)
        repeats = min(repeats, 2)
    context = _context(args)
    with _telemetry_run(args, "bench", context):
        payload, path = run_bench(
            context, workload=args.workload, repeats=repeats,
            out_dir=args.out_dir,
        )
    rows = [
        [name, cell["min_sec"], cell["mean_sec"],
         round(cell["accesses_per_sec"])]
        for name, cell in payload["cells"].items()
    ]
    print(render_table(
        ["cell", "min_sec", "mean_sec", "acc_per_sec"], rows,
        title=(
            f"Bench {payload['rev']} ({args.profile}, {args.workload}, "
            f"{payload['target_accesses']} accesses, min of {repeats})"
        ),
    ))
    overhead = payload["disabled_probe_overhead"]
    print(f"disabled-probe overhead on {GOLDEN_CELL}: {overhead:+.4%}")
    speedups = payload.get("setpath_speedups") or {}
    if speedups:
        rendered = ", ".join(
            f"{name} {value:.2f}x" for name, value in speedups.items()
        )
        print(f"set-partitioned speedup vs scalar twin: {rendered}")
    grid_speedups = payload.get("gridpath_speedups") or {}
    if grid_speedups:
        rendered = ", ".join(
            f"{name} {value:.2f}x" for name, value in grid_speedups.items()
        )
        print(f"grid-replay speedup vs per-cell twin: {rendered}")
    native_speedups = payload.get("nativepath_speedups") or {}
    if native_speedups:
        rendered = ", ".join(
            f"{name} {value:.2f}x" for name, value in native_speedups.items()
        )
        print(f"native scalar-backend speedup vs model twin: {rendered}")
    vs = payload.get("vs_previous")
    if vs:
        print(f"golden throughput vs {vs['rev']}: "
              f"{vs['golden_speedup']:.3f}x")
    print(f"wrote {path}")
    _ingest_bench_result(args, path)
    failed = False
    if args.max_overhead is not None and overhead > args.max_overhead:
        print(
            f"error: disabled-probe overhead {overhead:.4%} exceeds the "
            f"{args.max_overhead:.2%} bound",
            file=sys.stderr,
        )
        failed = True
    if args.min_setpath_speedup is not None:
        for name, value in speedups.items():
            if value < args.min_setpath_speedup:
                print(
                    f"error: {name} is only {value:.2f}x its scalar twin "
                    f"(bound {args.min_setpath_speedup:.2f}x) — the "
                    f"set-partitioned tier may have silently fallen back",
                    file=sys.stderr,
                )
                failed = True
    if args.min_gridpath_speedup is not None:
        for name, value in grid_speedups.items():
            if value < args.min_gridpath_speedup:
                print(
                    f"error: {name} is only {value:.2f}x its per-cell twin "
                    f"(bound {args.min_gridpath_speedup:.2f}x) — the grid "
                    f"replay may have degenerated to independent replays",
                    file=sys.stderr,
                )
                failed = True
    if args.min_nativepath_speedup is not None:
        for name, value in native_speedups.items():
            if value < args.min_nativepath_speedup:
                print(
                    f"error: {name} is only {value:.2f}x its model twin "
                    f"(bound {args.min_nativepath_speedup:.2f}x) — the "
                    f"native scalar backend may have silently fallen back",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


def _ingest_bench_result(args, path) -> None:
    """Index a freshly written BENCH_<rev>.json when --db/REPRO_SIM_DB is on.

    Keeps the experiment store's bench trajectory current without a
    manual ``db ingest``; when the store is off this is a no-op, and like
    the live sink a database problem only costs a warning.
    """
    from repro.sim.expdb import connect, ingest_bench_file, resolve_db_path

    try:
        db_path = resolve_db_path(getattr(args, "db", None),
                                  _runs_root(args))
        if db_path is None:
            return
        conn = connect(db_path)
        try:
            ingest_bench_file(conn, path)
        finally:
            conn.close()
    except Exception as error:  # noqa: BLE001 - observability is optional
        print(f"warning: bench result not indexed: "
              f"{type(error).__name__}: {error}", file=sys.stderr)


def _warn_corrupt(path, detail) -> None:
    """One-line stderr warning for a corrupt telemetry file (no traceback)."""
    print(f"warning: {path}: {detail}", file=sys.stderr)


def _render_probe_payloads(run_dir) -> None:
    """Fold any inspect_*.json probe reports of a run into ``runs show``."""
    from repro.characterization.report import render_probe_report

    for path in sorted(run_dir.glob("inspect_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            _warn_corrupt(path, "corrupt probe report; skipping")
            continue
        if not isinstance(payload, dict) or "result" not in payload:
            _warn_corrupt(path, "unrecognized probe report; skipping")
            continue
        print()
        try:
            print(render_probe_report(payload))
        except (KeyError, TypeError, ValueError):
            _warn_corrupt(path, "truncated probe report; skipping")


def _event_summaries(root, runs):
    """Per-run event count + last kind for ``runs list``.

    Exact counts come from the experiment store when one sits next to the
    runs root (one SELECT for every run); runs the store does not know
    fall back to :func:`telemetry.quick_event_summary`, whose cost is
    capped per run however large the event log grew — a 1000-run root
    must list in interactive time, not O(n·events).
    """
    from repro.sim.expdb import DB_FILENAME, connect, resolve_db_path

    summaries = {}
    db_path = resolve_db_path(None, root)
    if db_path is None:
        db_path = root / DB_FILENAME
    if db_path.is_file():
        try:
            conn = connect(db_path, create=False)
            try:
                for row in conn.execute(
                    "SELECT run_id, events_count, last_event_kind"
                    " FROM runs WHERE events_count IS NOT NULL"
                ):
                    summaries[row["run_id"]] = (
                        row["events_count"], row["last_event_kind"], False
                    )
            finally:
                conn.close()
        except Exception:  # noqa: BLE001 - a broken index never blocks list
            summaries = {}
    for run in runs:
        if run.run_id not in summaries:
            quick = telemetry.quick_event_summary(run.path)
            summaries[run.run_id] = (
                quick["events"], quick["last_kind"], quick["approx"]
            )
    return summaries


def cmd_runs(args) -> int:
    root = _runs_root(args)
    if args.action == "list":
        swept = telemetry.sweep_orphan_manifests(root)
        if swept:
            print(
                f"warning: swept {len(swept)} orphaned manifest temp "
                f"file(s) left by killed runs",
                file=sys.stderr,
            )
        rows = []
        runs = telemetry.list_runs(
            root,
            on_error=lambda path, detail: _warn_corrupt(path, detail),
        )
        summaries = _event_summaries(root, runs)
        for run in runs:
            manifest = run.manifest
            cells = manifest.get("cells")
            if not isinstance(cells, dict):
                cells = {}
            workloads = manifest.get("workloads")
            events, last_kind, approx = summaries[run.run_id]
            rows.append([
                run.run_id,
                manifest.get("command", "?"),
                run.status,
                manifest.get("machine", "?"),
                len(workloads) if isinstance(workloads, list) else "?",
                cells.get("completed", ""),
                cells.get("failed", ""),
                f"~{events}" if approx else events,
                last_kind or "-",
                manifest.get("wall_sec", ""),
            ])
        print(render_table(
            ["run", "command", "status", "machine", "workloads",
             "cells_ok", "cells_failed", "events", "last_event",
             "wall_sec"],
            rows,
            title=f"Telemetry runs ({root})",
        ))
        return 0

    # A killed run can leave a manifest temp file in the directory being
    # shown; sweep the orphan window here the way `runs list` does so a
    # `show` racing a kill never trips over the tmp artifact.
    swept = telemetry.sweep_orphan_manifests(root)
    if swept:
        print(
            f"warning: swept {len(swept)} orphaned manifest temp "
            f"file(s) left by killed runs",
            file=sys.stderr,
        )
    run = telemetry.load_run(args.run_id, root)
    skip = {"failures", "argv"}
    rows = [[key, value] for key, value in run.manifest.items()
            if key not in skip]
    print(render_table(["field", "value"], rows,
                       title=f"Run {run.run_id} manifest"))
    events = telemetry.read_events(
        run.path,
        on_error=lambda path, count: _warn_corrupt(
            path, f"skipped {count} malformed event line(s)"
        ),
    )
    stages = telemetry.summarize_spans(events)
    if stages:
        stage_rows = []
        for stage, stats in sorted(stages.items()):
            view = stats.as_dict()
            stage_rows.append([
                stage, view["count"], round(view["total"], 4),
                round(view["mean"], 4), round(view["max"], 4),
            ])
        print(render_table(
            ["stage", "spans", "total_sec", "mean_sec", "max_sec"],
            stage_rows, title="Stage spans",
        ))
    failures = run.manifest.get("failures")
    if isinstance(failures, list) and failures:
        print(render_table(
            ["cell", "workload", "error", "attempts"],
            [[f.get("kind"), f.get("workload"),
              f"{f.get('error_type')}: {f.get('error')}", f.get("attempts")]
             for f in failures if isinstance(f, dict)],
            title="Failed cells",
        ))
    _render_probe_payloads(run.path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Sharing-aware LLC replacement studies (IISWC 2013 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list workloads/policies/profiles")

    p = subparsers.add_parser("characterize", help="shared-vs-private hit breakdown")
    _add_common_arguments(p)

    p = subparsers.add_parser("compare", help="policy comparison on identical streams")
    _add_common_arguments(p)
    _add_jobs_argument(p)
    p.add_argument("--policies", nargs="*",
                   default=["lru", "dip", "srrip", "drrip", "ship"],
                   choices=POLICY_NAMES)
    p.add_argument("--opt", action="store_true", help="include Belady's OPT")

    p = subparsers.add_parser("oracle", help="sharing-oracle gain study")
    _add_common_arguments(p)
    _add_jobs_argument(p)
    p.add_argument("--base", default="lru", choices=POLICY_NAMES)
    p.add_argument("--mode", default="both",
                   choices=("victim-exempt", "insert-promote", "both"))
    p.add_argument("--turnovers", type=_positive_float, default=1.75,
                   help="oracle retention horizon in cache turnovers")

    p = subparsers.add_parser("predict", help="fill-time predictor accuracy")
    _add_common_arguments(p)
    _add_jobs_argument(p)
    p.add_argument("--predictors", nargs="*", default=["address", "pc", "hybrid"],
                   choices=PREDICTOR_NAMES)

    p = subparsers.add_parser("sweep", help="oracle gain vs LLC capacity")
    _add_common_arguments(p)
    _add_jobs_argument(p)
    p.add_argument("--base", default="lru", choices=POLICY_NAMES)
    p.add_argument("--turnovers", type=_positive_float, default=1.75)
    p.add_argument(
        "--sizes", nargs="+", type=_capacity_multiple, action=_SizesAction,
        default=None, metavar="X",
        help="capacity multiples to sweep (positive powers of two, no "
             f"duplicates; default: {' '.join(str(f) for f in SWEEP_FACTORS)})",
    )

    p = subparsers.add_parser("phases",
                              help="sharing stability and PC ambiguity")
    _add_common_arguments(p)

    p = subparsers.add_parser("mix",
                              help="oracle study on a multi-programmed mix")
    _add_common_arguments(p)
    p.add_argument("--components", nargs="+",
                   default=["swaptions", "canneal"],
                   help="workload names composing the mix")
    p.add_argument("--base", default="lru", choices=POLICY_NAMES)

    p = subparsers.add_parser("record", help="record LLC streams to files")
    _add_common_arguments(p)
    p.add_argument("--out-prefix", default="stream_",
                   help="output filename prefix (default: stream_)")

    p = subparsers.add_parser("replay", help="replay recorded streams")
    p.add_argument("streams", nargs="+", help="stream files from 'record'")
    p.add_argument("--profile", default="scaled-4mb", choices=PROFILE_NAMES)
    p.add_argument("--policies", nargs="*", default=["lru", "srrip"],
                   choices=POLICY_NAMES)
    p.add_argument("--opt", action="store_true", help="include Belady's OPT")
    p.add_argument("--seed", type=_nonnegative_int, default=42)
    p.add_argument("--sample-ratio", type=_positive_int, default=1,
                   metavar="N",
                   help="simulate only every Nth LLC set (UMON-style set "
                        "sampling; 1 = full simulation)")
    _add_fastpath_argument(p)

    p = subparsers.add_parser(
        "inspect",
        help="microarchitectural probe report (per-set/per-policy counters)",
    )
    _add_common_arguments(p)
    _add_jobs_argument(p)
    p.add_argument("--policy", default="lru", choices=POLICY_NAMES,
                   help="replacement policy governing the probed replay")
    from repro.sim.probes import PROBE_NAMES

    p.add_argument(
        "--probes", nargs="*", default=None, metavar="NAME",
        choices=PROBE_NAMES,
        help=f"probe subset (default: auto-select for the policy; "
             f"choices: {', '.join(PROBE_NAMES)})",
    )

    p = subparsers.add_parser(
        "fuzz",
        help="scenario fuzzing: mine policy inversions at scale",
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_action", required=True)

    fp = fuzz_sub.add_parser(
        "run", help="run a seeded campaign and emit inversions.json"
    )
    fp.add_argument("--scenarios", type=_nonnegative_int, default=100,
                    metavar="N",
                    help="synthetic scenarios to sample (default: 100)")
    fp.add_argument("--seed", type=_nonnegative_int, default=42,
                    help="campaign seed; every cell derives from it")
    fp.add_argument("--policies", nargs="*",
                    default=["lru", "lip", "srrip", "drrip", "ship"],
                    choices=POLICY_NAMES,
                    help="policy grid replayed per scenario")
    fp.add_argument("--base", default="lru", choices=POLICY_NAMES,
                    help="oracle base policy (default: lru)")
    fp.add_argument("--accesses", type=_positive_int, default=6000,
                    help="per-scenario trace budget (default: 6000)")
    fp.add_argument("--sample-ratio", type=_positive_int, default=4,
                    metavar="N",
                    help="simulate every Nth LLC set during the campaign "
                         "sweep (default: 4)")
    fp.add_argument("--flip-margin", type=_positive_float, default=0.02,
                    metavar="FRAC",
                    help="miss-ratio margin declaring an ordering flip "
                         "(default: 0.02)")
    fp.add_argument("--spike-threshold", type=_positive_float, default=0.08,
                    metavar="FRAC",
                    help="sampled oracle gain declaring a spike "
                         "(default: 0.08)")
    fp.add_argument("--mix-fraction", type=float, default=0.25,
                    metavar="FRAC",
                    help="fraction of scenarios drawn as f10-style "
                         "multiprogram mixes (default: 0.25)")
    fp.add_argument("--max-full", type=_nonnegative_int, default=16,
                    metavar="N",
                    help="cap on full-fidelity re-runs of interesting "
                         "cells (default: 16)")
    fp.add_argument("--trace", action="append", default=[],
                    type=_parse_trace_spec, metavar="PATH[:FMT]",
                    help="ingest an external ChampSim/Pin trace as an "
                         "extra scenario (FMT: champsim|pin|auto; "
                         "repeatable)")
    fp.add_argument("--output", default="inversions.json", metavar="FILE",
                    help="corpus output path (default: inversions.json)")
    fp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="directory whose runs/ receives telemetry "
                         "(default: $REPRO_SIM_CACHE_DIR or "
                         "~/.cache/repro-sim)")
    tg = fp.add_mutually_exclusive_group()
    tg.add_argument("--telemetry", dest="telemetry", action="store_true",
                    default=True, help="record a telemetry run (default)")
    tg.add_argument("--no-telemetry", dest="telemetry",
                    action="store_false", help="disable run telemetry")
    _add_db_argument(fp)
    _add_jobs_argument(fp)
    _add_fastpath_argument(fp)

    fp = fuzz_sub.add_parser(
        "triage", help="summarise a corpus: frontier + interesting cells"
    )
    fp.add_argument("corpus", help="inversions.json from 'fuzz run'")
    fp.add_argument("--limit", type=_positive_int, default=20,
                    help="interesting cells to show (default: 20)")

    fp = fuzz_sub.add_parser(
        "replay-cell",
        help="reproduce one corpus cell at full fidelity with probes",
    )
    fp.add_argument("corpus", help="inversions.json from 'fuzz run'")
    fp.add_argument("cell_id", help="scenario id (e.g. s00042)")
    fp.add_argument("--output", default=None, metavar="FILE",
                    help="write the full-fidelity record as JSON")
    fp.add_argument("--no-probes", action="store_true",
                    help="skip probe evidence (faster)")

    p = subparsers.add_parser(
        "bench",
        help="timed warm-sweep cells -> BENCH_<rev>.json trajectory",
    )
    _add_common_arguments(p)
    p.add_argument("--workload", default="streamcluster",
                   help="bench workload (default: streamcluster)")
    p.add_argument("--repeats", type=_positive_int, default=3,
                   help="timing repeats per cell; minimum is reported")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized run: caps accesses at 60k and repeats at 2")
    p.add_argument("--out-dir", default="benchmarks/results", metavar="DIR",
                   help="directory receiving BENCH_<rev>.json "
                        "(default: benchmarks/results)")
    p.add_argument(
        "--max-overhead", type=_positive_float, default=None, metavar="FRAC",
        help="fail (exit 1) when the disabled-probe overhead on the golden "
             "warm-replay cell exceeds this fraction (CI uses 0.02)",
    )
    p.add_argument(
        "--min-setpath-speedup", type=_positive_float, default=None,
        metavar="X",
        help="fail (exit 1) when any set-partitioned cell is less than X "
             "times faster than its forced-scalar twin (CI uses 2.0)",
    )
    p.add_argument(
        "--min-gridpath-speedup", type=_positive_float, default=None,
        metavar="X",
        help="fail (exit 1) when the grid-replay cell is less than X "
             "times faster than its independent per-cell twin (CI uses 2.0)",
    )
    p.add_argument(
        "--min-nativepath-speedup", type=_positive_float, default=None,
        metavar="X",
        help="fail (exit 1) when the native SHiP cell is less than X "
             "times faster than its forced-model twin (CI uses 2.0)",
    )

    p = subparsers.add_parser("cache",
                              help="inspect or clear the persistent stream cache")
    p.add_argument("action", choices=("info", "clear"),
                   help="info: show location/size; clear: delete artifacts")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default: $REPRO_SIM_CACHE_DIR "
                        "or ~/.cache/repro-sim)")

    p = subparsers.add_parser(
        "runs", help="inspect telemetry run manifests and event logs"
    )
    p.add_argument("action", choices=("list", "show"),
                   help="list: one row per run; show: manifest + stage "
                        "spans + failed cells of one run")
    p.add_argument("run_id", nargs="?", default=None,
                   help="run id (unique prefixes accepted; required for "
                        "'show')")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory whose runs/ to inspect")

    from repro.sim.expdb.cli import add_db_parser

    add_db_parser(subparsers)
    return parser


_COMMANDS = {
    "list": cmd_list,
    "characterize": cmd_characterize,
    "compare": cmd_compare,
    "oracle": cmd_oracle,
    "predict": cmd_predict,
    "sweep": cmd_sweep,
    "phases": cmd_phases,
    "mix": cmd_mix,
    "record": cmd_record,
    "replay": cmd_replay,
    "inspect": cmd_inspect,
    "fuzz": cmd_fuzz,
    "bench": cmd_bench,
    "cache": cmd_cache,
    "runs": cmd_runs,
}


def _cmd_db(args) -> int:
    from repro.sim.expdb.cli import cmd_db

    return cmd_db(args)


_COMMANDS["db"] = _cmd_db


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # The manifest must record the invocation actually parsed — which is
    # `argv` when a caller (tests, `db replay --exec`) passed one — or
    # `db replay` would reconstruct the host process's command line.
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    if args.command == "runs" and args.action == "show" and not args.run_id:
        print("error: 'runs show' needs a run id", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro-sim ... | head` closes stdout early. Point stdout at
        # devnull so the interpreter's exit-time flush doesn't raise a
        # second BrokenPipeError, and exit with the conventional
        # 128+SIGPIPE code instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
