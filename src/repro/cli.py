"""Command-line interface: the ``socrates`` tool.

Subcommands cover the whole reproduction workflow:

===============  ==========================================================
``list``         list the available benchmarks
``features``     print the Milepost feature vector of a kernel
``predict``      print COBAYN's CF1..CF4 predictions for a kernel
``weave``        weave a benchmark and print the adaptive source + metrics
``build``        run the full toolflow; optionally save the oplist/source
``trace``        run a runtime scenario from a JSON mARGOt configuration
``check``        static analysis: OpenMP race lint + weave verification
``obs``          export/validate/diff traces, metrics dumps; live dashboard
``energy``       virtual-RAPL energy observatory: report, timeline, budget SLOs
``bench``        performance observatory: baselines and the regression gate
``table1``       regenerate Table I
``fig3``         regenerate Figure 3 (ASCII boxplots)
``fig4``         regenerate Figure 4 (budget sweep table)
``fig5``         regenerate Figure 5 (ASCII trace)
===============  ==========================================================

All output goes to stdout; every command returns a process exit code,
so ``main`` is directly testable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np


def _positive(convert, expected: str):
    """An argparse type: ``convert(text)``, rejected unless finite and
    > 0.  argparse prefixes the flag to the message."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_pool_size = _positive(int, "a positive process-pool size (max_workers)")
_seconds = _positive(float, "a positive number of seconds")
_count = _positive(int, "a positive integer")


def _dataset_size(text: str) -> int:
    """run --size: an integer of at least 4, the smallest dimension the
    interpreted benchmarks run at."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 4:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 4, got {text!r}"
        )
    return value


def _thread_counts(text: str) -> List[int]:
    """--threads: comma-separated positive counts, sorted and deduplicated."""
    tokens = [token.strip() for token in text.split(",")]
    if not all(token.isdecimal() and int(token) > 0 for token in tokens):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        )
    return sorted({int(token) for token in tokens})


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_pool_size,
        help="evaluate design points on a process pool of this size",
    )


def _add_dse_arguments(
    parser: argparse.ArgumentParser,
    workers: bool = False,
    repetitions: int = 3,
    threads_help: str = "comma-separated thread counts for the DSE",
) -> None:
    """--threads and --repetitions of the toolflow's DSE (then --workers)."""
    parser.add_argument("--threads", type=_thread_counts, help=threads_help)
    parser.add_argument("--repetitions", type=int, default=repetitions)
    if workers:
        _add_workers_argument(parser)


def _add_app_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", help="benchmark name (see `socrates list`)")


def _add_machine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        metavar="NAME",
        help="machine model from the registry (e.g. xeon_2s, biglittle_4p4e; "
        "default: the paper's dual-socket Xeon)",
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="also record this invocation into the telemetry warehouse at DIR "
        "(runs under the deterministic virtual clock)",
    )
    parser.add_argument(
        "--store-label",
        default="",
        metavar="LABEL",
        help="label mixed into the recorded run's identity "
        "(distinguishes otherwise identical runs)",
    )


def _make_obs(args: argparse.Namespace):
    """An enabled Observability when any obs flag asks for one, else None."""
    if (
        getattr(args, "trace_out", None)
        or getattr(args, "audit_out", None)
        or getattr(args, "metrics_out", None)
    ):
        from repro.obs import Observability

        return Observability()
    return None


def _run_obs(args: argparse.Namespace):
    """The Observability a command runs under.

    With ``--store`` it is the deterministic virtual-clock one, so the
    recorded run id and artifact hashes are pure functions of (source,
    machine, seed, knobs); otherwise whatever the obs flags ask for.
    """
    if getattr(args, "store", None):
        from repro.obs.store import recording_observability

        return recording_observability()
    return _make_obs(args)


def _note_recorded(kind: str, store_dir, recorded) -> None:
    """The stderr notice for a ``(run_id, created)`` warehouse record."""
    run_id, created = recorded
    verb = "recorded" if created else "already recorded"
    print(f"{verb} {kind} run {run_id} in {store_dir}", file=sys.stderr)


def _print_json_line(document) -> None:
    """Machine mode: one line, stable key order, no screen-scraping."""
    print(json.dumps(document, sort_keys=True, separators=(",", ":")))


def _toolflow(args: argparse.Namespace, obs=None):
    from repro.core.toolflow import SocratesToolflow

    backend = None
    if getattr(args, "workers", None):
        from repro.engine import ProcessPoolBackend

        backend = ProcessPoolBackend(max_workers=args.workers)
    kwargs = {}
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    return SocratesToolflow(
        machine=getattr(args, "machine", None),
        dse_repetitions=getattr(args, "repetitions", 3),
        thread_counts=getattr(args, "threads", None),
        backend=backend,
        obs=obs,
        **kwargs,
    )


def _write_obs_artifacts(obs, args: argparse.Namespace) -> None:
    """Honor --trace-out / --audit-out / --metrics-out from any
    obs-enabled command.

    Notices go to stderr so they never corrupt a --json document on
    stdout."""
    if getattr(args, "trace_out", None):
        from repro.obs.export import write_chrome_trace

        count = write_chrome_trace(obs.tracer.spans, args.trace_out)
        print(
            f"Wrote Chrome trace to {args.trace_out} ({count} spans)",
            file=sys.stderr,
        )
    if getattr(args, "audit_out", None):
        from repro.obs.export import write_audit_jsonl

        count = write_audit_jsonl(obs.audit, args.audit_out)
        print(
            f"Wrote adaptation audit to {args.audit_out} ({count} entries)",
            file=sys.stderr,
        )
    if getattr(args, "metrics_out", None):
        from repro.obs.export import write_prometheus

        count = write_prometheus(obs.metrics, args.metrics_out)
        print(
            f"Wrote metrics to {args.metrics_out} ({count} series)",
            file=sys.stderr,
        )


def _load_app(name: str):
    from repro.polybench.suite import load

    return load(name)


def _standard_space(machine):
    """The toolflow's default autotuning lattice on ``machine``:
    standard optimization levels x all thread counts x both bindings
    (x one pin per cluster type on heterogeneous machines)."""
    from repro.engine.model import DesignSpace
    from repro.gcc.flags import standard_levels

    if machine.is_homogeneous:
        pins, capacities = (None,), None
    else:
        pins = tuple(machine.cluster_names())
        capacities = {name: machine.cluster_logical_cpus(name) for name in pins}
    return DesignSpace(
        compiler_configs=standard_levels(),
        thread_counts=list(range(1, machine.logical_cpus + 1)),
        clusters=pins,
        cluster_capacities=capacities,
    )


def _explore_front(args: argparse.Namespace, app, obs, plan, seed, root_span):
    """One seeded exploration of ``app`` over the standard space on a
    fresh engine, and its throughput/power Pareto front.

    ``root_span``, when set, names a span around the profiling and the
    exploration.  Returns ``(engine, exploration, front)``.
    """
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.dse.pareto import pareto_front
    from repro.engine.core import EvaluationEngine

    engine = EvaluationEngine(machine=getattr(args, "machine", None), obs=obs)
    explorer = DesignSpaceExplorer(
        engine.compiler,
        engine.executor,
        engine.omp,
        repetitions=args.repetitions,
        engine=engine,
    )
    with obs.tracer.span(root_span) if root_span else contextlib.nullcontext():
        profile = engine.profile(app)
        space = _standard_space(engine.machine)
        result = explorer.explore(profile, space, seed=seed, prune_plan=plan)
    front = pareto_front(result.knowledge, [("throughput", True), ("power", False)])
    return engine, result, front


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    from repro.polybench.suite import all_apps

    print(f"{'name':14s} {'category':24s} {'kernels'}")
    for app in all_apps():
        print(f"{app.name:14s} {app.category:24s} {', '.join(app.kernels)}")
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    from repro.milepost.features import extract_features

    app = _load_app(args.app)
    vector = extract_features(app.parse(), app.kernels[0])
    print(f"Milepost features of {app.name} / {vector.kernel}:")
    for name, value in vector.values.items():
        print(f"  {name:28s} {value:12.4g}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.cobayn.autotuner import CobaynAutotuner
    from repro.cobayn.corpus import build_corpus
    from repro.milepost.features import extract_features
    from repro.polybench.suite import all_apps

    flow = _toolflow(args)
    app = _load_app(args.app)
    training = [candidate for candidate in all_apps() if candidate.name != app.name]
    corpus = build_corpus(training, flow.compiler, flow.executor, flow.omp)
    tuner = CobaynAutotuner()
    tuner.train(corpus)
    features = extract_features(app.parse(), app.kernels[0])
    prediction = tuner.predict(features)
    print(f"COBAYN predictions for {app.name} (trained on the other {len(training)}):")
    for index, (config, posterior) in enumerate(prediction.ranked[: args.k], start=1):
        print(f"  CF{index}: p={posterior:.4f}  {config.label}")
    return 0


def cmd_weave(args: argparse.Namespace) -> int:
    from repro.cir import to_source
    from repro.gcc.flags import paper_custom_flags, standard_levels
    from repro.lara.metrics import weave_benchmark

    app = _load_app(args.app)
    configs = standard_levels() + paper_custom_flags()
    report, weaver = weave_benchmark(app, configs)
    if args.source:
        print(to_source(weaver.unit))
    print(
        f"# {report.benchmark}: Att={report.attributes} Act={report.actions} "
        f"O-LOC={report.original_loc} W-LOC={report.weaved_loc} "
        f"D-LOC={report.delta_loc} Bloat={report.bloat:.2f}"
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    json_mode = getattr(args, "json", False)
    store_dir = getattr(args, "store", None)
    obs = _run_obs(args)
    flow = _toolflow(args, obs=obs)
    app = _load_app(args.app)
    if not json_mode:
        print(f"Building adaptive {app.name}...")
    if store_dir:
        result, recorded = _build_and_record(
            flow, app, obs, _open_store(store_dir), args.store_label, {}
        )
        _note_recorded("build", store_dir, recorded)
    else:
        result = flow.build(app)
    if not json_mode:
        print("Custom flags (COBAYN):")
        for index, config in enumerate(result.custom_flags, start=1):
            print(f"  CF{index}: {config.label}")
        print(
            f"Knowledge base: {len(result.exploration.knowledge)} operating points "
            f"({result.exploration.coverage:.0%} of the space)"
        )
    if args.oplist:
        from repro.margot.oplist import save_knowledge

        save_knowledge(
            result.exploration.knowledge,
            args.oplist,
            machine=flow.machine.name if getattr(args, "machine", None) else None,
        )
        if not json_mode:
            print(f"Wrote oplist to {args.oplist}")
    if args.source_out:
        with open(args.source_out, "w") as handle:
            handle.write(result.adaptive_source)
        if not json_mode:
            print(f"Wrote adaptive source to {args.source_out}")
    if json_mode:
        payload = {
            "app": app.name,
            "custom_flags": [config.label for config in result.custom_flags],
            "knowledge_points": len(result.exploration.knowledge),
            "coverage": result.exploration.coverage,
        }
        if args.stage_report:
            payload["stage_report"] = result.stage_report()
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.stage_report:
        print(json.dumps(result.stage_report(), indent=2))
    if obs is not None:
        _write_obs_artifacts(obs, args)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Build an app and dump the stage-event + engine-cache telemetry."""
    flow = _toolflow(args)
    app = _load_app(args.app)
    result = flow.build(app)
    payload = {
        "app": app.name,
        "backend": flow.engine.backend.name,
        **result.stage_report(),
        "engine": flow.engine.stats(),
    }
    if getattr(args, "json", False):
        _print_json_line(payload)
    else:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.scenario import Phase, Scenario
    from repro.core.trace import summarize_phases, trace_to_csv
    from repro.margot.config import apply_configuration, load_config
    from repro.obs.store import content_hash

    config = load_config(args.config)
    store_dir = getattr(args, "store", None)
    obs = _run_obs(args)
    flow = _toolflow(args, obs=obs)
    app_def = _load_app(config.kernel)
    print(f"Building adaptive {config.kernel}...")
    with (
        obs.tracer.span(f"trace:{config.kernel}")
        if store_dir
        else contextlib.nullcontext()
    ) as trace_span:
        result = flow.build(app_def)
        app = result.adaptive
        apply_configuration(config, app)

        phase_specs = []
        names = config.state_names()
        interval = args.duration / len(names)
        for index, name in enumerate(names):
            phase_specs.append(Phase(index * interval, name))
        scenario = Scenario(phases=phase_specs, duration_s=args.duration)
        print(f"Running {args.duration:.0f}s over states: {', '.join(names)}")
        records = scenario.run(app)

    for summary in summarize_phases(records, scenario):
        print(
            f"  [{summary.start_s:6.1f}-{summary.end_s:6.1f}s] {summary.state:14s} "
            f"{summary.invocations:5d} inv  {summary.mean_power_w:6.1f} W  "
            f"{summary.mean_time_s * 1e3:8.1f} ms  T={summary.dominant_threads} "
            f"{summary.dominant_binding} {summary.dominant_compiler}"
        )
    if args.csv:
        trace_to_csv(records, args.csv)
        print(f"Wrote trace to {args.csv}")
    if obs is not None:
        obs.absorb_engine(flow.engine)
        _write_obs_artifacts(obs, args)
    if store_dir:
        # record only after the engine counters were absorbed (the
        # monitors are absorbed after every invocation), so the stored
        # metrics.prom carries both
        recorded = _record_run(
            _open_store(store_dir),
            "trace",
            obs.tracer.spans,
            obs.metrics,
            obs.audit,
            app=config.kernel,
            label=args.store_label,
            source=app_def.source_fingerprint(),
            metrics={
                "wall_s": trace_span.duration_s,
                "invocations": len(records),
            },
            **_flow_identity(
                flow,
                config_sha256=content_hash(Path(args.config).read_bytes()),
                duration=args.duration,
                slowdowns=[],
            ),
        )
        _note_recorded("trace", store_dir, recorded)
    return 0


def cmd_profiles(args: argparse.Namespace) -> int:
    """Print the AST-derived workload profile of every benchmark."""
    from repro.polybench.suite import all_apps
    from repro.polybench.workload import profile_kernel

    print(
        f"{'benchmark':12s} {'GFLOP':>7s} {'WS[MB]':>7s} {'AI':>6s} {'par':>5s} "
        f"{'regions':>8s} {'dep':>4s} {'red':>4s} {'depth':>6s}"
    )
    for app in all_apps():
        profile = profile_kernel(app)
        print(
            f"{app.name:12s} {profile.flops / 1e9:7.2f} "
            f"{profile.working_set_bytes / 1e6:7.1f} "
            f"{profile.arithmetic_intensity:6.3f} {profile.parallel_fraction:5.2f} "
            f"{profile.parallel_regions:8.0f} "
            f"{'yes' if profile.loop_carried_dependence else 'no':>4s} "
            f"{'yes' if profile.reduction_innermost else 'no':>4s} "
            f"{profile.max_depth:6d}"
        )
    return 0


def cmd_loocv(args: argparse.Namespace) -> int:
    """COBAYN leave-one-out cross-validation over the suite."""
    from repro.cobayn.evaluation import loocv_report
    from repro.polybench.suite import all_apps

    flow = _toolflow(args)
    names = args.apps.split(",") if args.apps else None
    apps = [app for app in all_apps() if names is None or app.name in names]
    report = loocv_report(apps, flow.compiler, flow.executor, flow.omp, k=args.k)
    print("COBAYN leave-one-out cross-validation")
    print(report.to_table())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Interpret a benchmark source (optionally weaved) at a tiny size."""
    from repro.cir import parse
    from repro.cir.interp import Interpreter

    obs = _make_obs(args)
    if obs is None:
        from repro.obs import NULL_OBS

        obs = NULL_OBS
    app = _load_app(args.app)
    overrides = {name: args.size for name in app.sizes}
    for name in overrides:
        if name.startswith("TSTEPS"):
            overrides[name] = 2

    with obs.tracer.span(f"run:{app.name}", app=app.name, weaved=args.weaved):
        if args.weaved:
            from repro.gcc.flags import paper_custom_flags, standard_levels
            from repro.lara.metrics import default_versions, weave_benchmark

            configs = standard_levels() + paper_custom_flags()
            arms = len(default_versions(configs))
            if not 0 <= args.version < arms:
                raise ValueError(
                    f"--version {args.version}: the woven {app.name} has "
                    f"versions 0..{arms - 1}"
                )
            with obs.tracer.span("weave"):
                _, weaver = weave_benchmark(app, configs)
            stubs = {
                "margot_init": lambda: None,
                "margot_update": lambda v, t: (v.set(args.version), t.set(1)),
                "margot_start_monitor": lambda: None,
                "margot_stop_monitor": lambda: None,
                "margot_log": lambda: None,
            }
            interp = Interpreter(
                weaver.unit, macro_overrides=overrides, intrinsics=stubs
            )
            print(
                f"Interpreting weaved {app.name} (version {args.version}) at {overrides}..."
            )
        else:
            with obs.tracer.span("parse"):
                unit = app.parse()
            interp = Interpreter(unit, macro_overrides=overrides)
            print(f"Interpreting {app.name} at {overrides}...")

        with obs.tracer.span("interpret", size=args.size):
            code = interp.run_main()
    print(f"main() returned {code}")
    if obs.enabled:
        _write_obs_artifacts(obs, args)
    import numpy as np

    for decl_name in sorted(
        name
        for name in ("D", "G", "y", "corr", "A", "w", "x1", "table", "C")
        if interp.globals.has(name)
    ):
        value = interp.global_value(decl_name)
        if isinstance(value, np.ndarray):
            print(f"  {decl_name}: shape={value.shape} checksum={float(np.sum(value)):.6f}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Static analysis: race lint + flag safety + weave verifier, exit 0/2/3.

    ``socrates check 2mm`` lints one benchmark (pristine + woven);
    ``--all`` covers the whole suite; ``--source FILE`` lints an
    arbitrary C file (race + flag-safety rules only).
    ``--json``/``--sarif`` emit a machine-readable document, to stdout
    or ``--out FILE``.  ``--prune-plan FILE`` (single app) compiles
    the static verdicts into a lattice prune plan for ``socrates dse``.
    """
    from repro.analysis import CheckReport, check_app, check_source_text

    include_woven = not args.pristine_only
    obs = _make_obs(args)
    if args.source:
        if getattr(args, "prune_plan", None):
            raise ValueError("--prune-plan needs a benchmark app")
        try:
            with open(args.source) as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as error:
            raise ValueError(f"{args.source}: cannot read source ({error})") from None
        try:
            diagnostics = check_source_text(text, filename=args.source)
        except RecursionError:
            # legal C can nest deeper than the recursive analyses reach
            raise ValueError(
                f"{args.source}: expressions or statements nest too deeply to "
                f"analyse (beyond the interpreter's recursion limit of "
                f"{sys.getrecursionlimit()})"
            ) from None
        report = CheckReport()
        report.extend(diagnostics, units=1)
    elif getattr(args, "all", False) or args.app:
        if getattr(args, "all", False):
            from repro.polybench.suite import all_apps

            apps = all_apps()
            if getattr(args, "prune_plan", None):
                raise ValueError("--prune-plan needs a single benchmark, not --all")
        else:
            apps = [_load_app(args.app)]
        report = CheckReport()
        for app in apps:
            diagnostics = check_app(app, include_woven=include_woven)
            report.extend(diagnostics, units=2 if include_woven else 1)
            if obs is not None:
                # mirror the toolflow's post-weave gate: per-rule
                # counters and one audit trace per diagnostic, exactly
                # once per app on this CLI path
                from repro.obs import CheckTrace

                for diag in diagnostics:
                    obs.metrics.counter(
                        "socrates_check_diagnostics_total",
                        "Static-analysis diagnostics emitted by socrates check",
                        labels={"rule": diag.rule},
                    ).inc()
                    if obs.audit is not None:
                        obs.audit.record_check(
                            CheckTrace(
                                app=app.name,
                                rule=diag.rule,
                                severity=diag.severity.value,
                                message=diag.message,
                                location=diag.location,
                                phase=diag.phase,
                            )
                        )
        if getattr(args, "prune_plan", None):
            from repro.analysis.cost import build_prune_plan
            from repro.machine.registry import resolve_machine

            machine = resolve_machine(getattr(args, "machine", None))
            plan = build_prune_plan(
                apps[0], _standard_space(machine), machine=machine
            )
            with open(args.prune_plan, "w") as handle:
                json.dump(plan.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(
                f"Wrote prune plan to {args.prune_plan}: "
                f"{plan.masked_count}/{plan.space_size} points masked "
                f"({plan.masked_fraction():.0%}), trusted={plan.trusted}"
            )
    else:
        raise ValueError("name a benchmark, or use --all / --source FILE")

    if obs is not None:
        _write_obs_artifacts(obs, args)
    document = None
    if args.json:
        document = report.as_dict()
    elif args.sarif:
        document = report.as_sarif()
    if document is not None:
        rendered = json.dumps(document, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered + "\n")
        else:
            print(rendered)
    else:
        for diag in report.diagnostics:
            print(diag.format())
        print(report.summary())
    return report.exit_code


def cmd_dse(args: argparse.Namespace) -> int:
    """Run one design-space exploration, optionally statically pruned.

    ``socrates dse 2mm --prune`` builds the static prune plan (cost
    oracle + flag safety) and explores only the unmasked lattice;
    ``--prune-plan FILE`` loads a plan written by ``socrates check``.
    ``--verify-front`` additionally runs the *unpruned* exploration in
    a fresh engine and fails (exit 1) unless both seeded Pareto fronts
    are bit-identical — the soundness gate CI runs.
    """
    from repro.dse.pareto import canonical_front
    from repro.obs import Observability

    app = _load_app(args.app)
    store_dir = getattr(args, "store", None)
    plan = None
    if getattr(args, "prune_plan", None):
        from repro.analysis.cost import PrunePlan

        plan = PrunePlan.load(args.prune_plan)
        if plan.app != app.name:
            raise ValueError(f"prune plan is for {plan.app!r}, not {app.name!r}")
    elif args.prune:
        from repro.analysis.cost import build_prune_plan
        from repro.machine.registry import resolve_machine

        resolved = resolve_machine(getattr(args, "machine", None))
        plan = build_prune_plan(app, _standard_space(resolved), machine=resolved)

    obs = _run_obs(args) or Observability()
    engine, result, front = _explore_front(args, app, obs, plan, args.seed, None)
    counters = engine.counters
    if store_dir:
        knobs = {
            "repetitions": args.repetitions,
            "pruned": plan is not None,
            "slowdowns": [],
        }
        _note_recorded(
            "dse",
            store_dir,
            _store_dse_run(
                _open_store(store_dir),
                app,
                args.seed,
                args.store_label,
                knobs,
                obs,
                engine,
                result,
                front,
            ),
        )
    fronts_identical = None
    if args.verify_front:
        _, _, baseline_front = _explore_front(
            args, app, Observability(), None, args.seed, None
        )
        fronts_identical = canonical_front(front) == canonical_front(baseline_front)

    document = {
        "app": app.name,
        "seed": args.seed,
        "repetitions": args.repetitions,
        "space_size": result.space_size,
        "points_evaluated": counters.points_evaluated,
        "points_masked": counters.points_masked,
        "pruned_points": result.pruned_points,
        "prune_audit_records": len(obs.audit.prunes) if obs.audit is not None else 0,
        "front_size": len(front),
        "front": canonical_front(front),
        "pruned": plan is not None,
        "fronts_identical": fronts_identical,
    }
    _write_obs_artifacts(obs, args)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            f"dse {app.name}: {counters.points_evaluated} evaluated, "
            f"{counters.points_masked} masked "
            f"({result.pruned_points}/{result.space_size} statically pruned), "
            f"front size {len(front)}"
        )
        if fronts_identical is not None:
            print(
                "pruned and unpruned Pareto fronts are "
                + ("bit-identical" if fronts_identical else "DIFFERENT")
            )
    if fronts_identical is False:
        return 1
    return 0


def _fig5_scenario(args: argparse.Namespace, obs):
    """Build an adaptive app and run the fig5-style requirement flip.

    The shared workload behind ``obs export``, the ``energy`` commands
    and warehouse ``trace`` records: Thr/W^2 for the first third of
    ``--duration``, plain Throughput for the middle third, Thr/W^2
    again for the last.  Returns ``(toolflow_result, app, records,
    toolflow)``.  Progress notices go to stderr so they never corrupt
    a --json document on stdout.
    """
    from repro.core.scenario import fig5_flip

    flow = _toolflow(args, obs=obs)
    app_def = _load_app(args.app)
    print(f"Building adaptive {app_def.name} (traced)...", file=sys.stderr)
    result = flow.build(app_def)
    app = result.adaptive
    scenario = fig5_flip(app, args.duration)
    print(
        f"Running fig5-style scenario for {args.duration:.0f}s...", file=sys.stderr
    )
    records = scenario.run(app)
    obs.absorb_engine(flow.engine)
    return result, app, records, flow


def cmd_obs_export(args: argparse.Namespace) -> int:
    """Build an app, run a fig5-style scenario, export all obs formats.

    Produces ``trace.json`` (Chrome trace_event), ``events.jsonl``
    (full event stream), ``metrics.prom`` (Prometheus text) and
    ``audit.jsonl`` (adaptation audit) under ``--out-dir``.
    """
    from pathlib import Path

    from repro.obs import Observability
    from repro.obs.export import (
        write_audit_jsonl,
        write_chrome_trace,
        write_jsonl,
        write_prometheus,
    )

    obs = Observability()
    _, _, records, _ = _fig5_scenario(args, obs)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = obs.tracer.spans
    written = {
        "trace.json": write_chrome_trace(spans, out_dir / "trace.json"),
        "events.jsonl": write_jsonl(
            out_dir / "events.jsonl", spans, obs.metrics, obs.audit
        ),
        "metrics.prom": write_prometheus(obs.metrics, out_dir / "metrics.prom"),
        "audit.jsonl": write_audit_jsonl(obs.audit, out_dir / "audit.jsonl"),
    }
    print(
        f"Scenario: {len(records)} invocations, "
        f"{len(obs.audit)} operating-point switches explained"
    )
    for name, count in written.items():
        print(f"Wrote {out_dir / name} ({count} records)")
    return 0


def cmd_obs_validate(args: argparse.Namespace) -> int:
    """Validate exported observability artifacts (exit 2 on failure).

    Arguments may be files or directories; a directory is walked
    recursively, every artifact with a recognized suffix is sniffed
    and validated (per-file verdict lines), files no validator claims
    are counted as skipped, and the first malformed artifact stops
    the walk with exit 2 — so a whole telemetry warehouse or artifact
    dump is checked in one call.
    """
    from pathlib import Path

    from repro.obs.validate import VALIDATABLE_SUFFIXES, validate_file

    def describe(path, summary) -> None:
        details = ", ".join(
            f"{key}={value}" for key, value in sorted(summary.items())
        )
        print(f"{path}: OK ({details})")

    validated = 0
    skipped = 0
    for raw in args.files:
        target = Path(raw)
        if target.is_dir():
            members = [path for path in sorted(target.rglob("*")) if path.is_file()]
            if not members:
                raise ValueError(f"{target}: directory contains no files")
            for path in members:
                if path.suffix.lower() not in VALIDATABLE_SUFFIXES:
                    skipped += 1
                    continue
                try:
                    summary = validate_file(path)
                except ValueError as error:
                    message = str(error)
                    prefix = f"{path}: "
                    if message.startswith(prefix):
                        message = message[len(prefix):]
                    print(f"{path}: FAIL ({message})")
                    return 2
                describe(path, summary)
                validated += 1
        else:
            # plain files keep the historical contract: a ValueError
            # propagates to main() and exits 2 with the error on stderr
            describe(target, validate_file(target))
            validated += 1
    print(f"validated {validated} file(s), skipped {skipped}")
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """Span-level diff of two Chrome trace exports."""
    from repro.obs.profile import (
        diff_flame,
        format_name_diff,
        name_diff_dict,
        trace_name_totals,
    )

    diff = diff_flame(
        trace_name_totals(args.trace_a), trace_name_totals(args.trace_b)
    )
    if args.json:
        _print_json_line(name_diff_dict(diff))
        return 0
    print(f"trace diff: a={args.trace_a}  b={args.trace_b}")
    print(
        format_name_diff(
            diff, limit=args.limit, hide_unchanged=not args.show_unchanged
        )
    )
    return 0


def _profile_source(args: argparse.Namespace):
    """Spans + optional energy attribution behind flame/what-if.

    Three sources: ``--trace FILE`` reconstructs the tree from an
    exported Chrome trace, ``--scenario NAME`` runs a bench scenario
    once, and a benchmark APP runs the fig5-style adaptive workload
    with the energy ledger joined per stack.  Returns
    ``(roots, energy, total_energy_j, label)``.
    """
    from repro.obs.profile import attribute_energy, build_tree, load_chrome_trace

    if getattr(args, "trace", None):
        return load_chrome_trace(args.trace), None, None, str(args.trace)
    if getattr(args, "scenario", None):
        from repro.bench.scenarios import run_scenario

        result = run_scenario(args.scenario, repeats=1)
        return build_tree(result.spans), None, None, f"bench:{args.scenario}"
    if not getattr(args, "app", None):
        raise ValueError(
            "pass a benchmark APP, --trace FILE, or --scenario NAME"
        )
    from repro.obs.energy import EnergyLedger

    obs, result, app, records, timeline = _energy_scenario(args)
    idle_power = app.executor.idle_breakdown().totals()
    ledger = EnergyLedger.from_timeline(
        timeline, stage_events=result.stage_events, idle_power_w=idle_power
    )
    roots = build_tree(obs.tracer.spans)
    energy = attribute_energy(roots, ledger)
    # the what-if total spans both ledger accounts the attribution maps
    # from: the adaptive run (operating points + idle floor) and the
    # host-side toolflow stages
    total_energy_j = (
        ledger.totals_j()["package"] + ledger.stage_totals_j()["package"]
    )
    return roots, energy, total_energy_j, app.name


def cmd_obs_flame(args: argparse.Namespace) -> int:
    """Virtual-time flame graph: table, folded, JSON, SVG, or diffs."""
    from pathlib import Path

    from repro.obs.profile import (
        FlameProfile,
        diff_flame,
        format_stack_diff,
        load_flame_profile,
        render_svg,
    )

    if args.diff:
        profile_a = load_flame_profile(args.diff[0])
        profile_b = load_flame_profile(args.diff[1])
        diff = diff_flame(
            profile_a,
            profile_b,
            label_a=profile_a.label or str(args.diff[0]),
            label_b=profile_b.label or str(args.diff[1]),
        )
        if args.json:
            print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_stack_diff(diff, limit=args.limit))
        return 0

    roots, energy, _, label = _profile_source(args)
    profile = FlameProfile.from_tree(roots, label=label, energy=energy)

    if args.against_baseline:
        from repro.bench.baseline import load_baseline

        base = load_baseline(args.against_baseline).stack_profile()
        if not base.stacks:
            raise ValueError(
                f"{args.against_baseline}: baseline carries no committed "
                "stacks; regenerate it with `socrates bench run ... --out`"
            )
        diff = diff_flame(
            base, profile, label_a=base.label, label_b=profile.label or "fresh"
        )
        if args.json:
            print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_stack_diff(diff, limit=args.limit))
        return 0

    title = f"{label} — virtual-time flame graph"
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = {
            "profile.folded": profile.as_folded(),
            "profile.json": json.dumps(
                profile.as_dict(), indent=2, sort_keys=True
            )
            + "\n",
            "flame.svg": render_svg(profile, title=title),
        }
        for name, text in written.items():
            (out_dir / name).write_text(text)
            print(f"Wrote {out_dir / name}")
        return 0

    if args.folded:
        text = profile.as_folded()
    elif args.json:
        text = json.dumps(profile.as_dict(), indent=2, sort_keys=True) + "\n"
    elif args.svg:
        text = render_svg(profile, title=title)
    else:
        text = profile.format_table(limit=args.limit) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"Wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_obs_whatif(args: argparse.Namespace) -> int:
    """Causal what-if: ranked payoff of speeding up each target."""
    from repro.obs.profile import DEFAULT_SPEEDUPS, whatif

    speedups = tuple(DEFAULT_SPEEDUPS)
    if args.speedups:
        try:
            speedups = tuple(
                float(token) / 100.0
                for token in args.speedups.split(",")
                if token.strip()
            )
        except ValueError:
            raise ValueError(
                f"--speedups expects comma-separated percentages, "
                f"got {args.speedups!r}"
            ) from None
    if not speedups:
        raise ValueError("--speedups names no speedups")
    # rank by the 50% column when present, else the deepest hypothetical
    rank_speedup = (
        0.50
        if any(abs(speedup - 0.50) < 1e-12 for speedup in speedups)
        else max(speedups)
    )
    roots, energy, total_energy_j, label = _profile_source(args)
    report = whatif(
        roots,
        speedups=speedups,
        energy=energy,
        total_energy_j=total_energy_j,
        rank_speedup=rank_speedup,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"what-if analysis: {label}")
        print(report.format(limit=args.limit))
    return 0


def _resolve_incident(args: argparse.Namespace):
    """Pick one bundle under ``--dir`` by id prefix or ``--latest``.

    Returns the loaded document.  Raises ValueError (exit 2) when the
    selection is ambiguous, missing, or the directory has no bundles.
    """
    from repro.obs.flight import incident_paths, load_incident

    paths = incident_paths(args.dir)
    if not paths:
        raise ValueError(f"{args.dir}: no INC_*.json incident bundles found")
    prefix = getattr(args, "incident_id", None)
    if prefix:
        matches = [
            path
            for path in paths
            if path.stem.removeprefix("INC_").startswith(prefix)
        ]
        if not matches:
            raise ValueError(
                f"{args.dir}: no incident id starts with {prefix!r} "
                f"({len(paths)} bundle(s) present)"
            )
        if len(matches) > 1:
            names = ", ".join(path.stem.removeprefix("INC_") for path in matches)
            raise ValueError(f"incident id prefix {prefix!r} is ambiguous: {names}")
        return load_incident(matches[0])
    # --latest: highest alert timestamp wins, path name as tie-break
    documents = [load_incident(path) for path in paths]
    return max(documents, key=lambda doc: (doc["t"], doc["incident_id"]))


def cmd_obs_incidents_record(args: argparse.Namespace) -> int:
    """Inject a power-cap violation and record the incident bundles.

    Runs a 3-phase MAPE-K scenario on ``--machine`` where the outer
    phases optimize throughput and blow through ``--power-budget``
    while the middle phase caps power below it — so the burn-rate
    detector fires once per violating phase, each alert snapshots the
    flight recorder into an ``INC_*.json`` bundle, and the run is
    fully seeded: repeated invocations produce byte-identical bundle
    ids.
    """
    from pathlib import Path

    from repro.core.scenario import power_cap_flip
    from repro.obs import Observability
    from repro.obs.alerts import AlertPolicy
    from repro.obs.energy import EnergyBudget

    policy = AlertPolicy(
        budgets=(EnergyBudget("package_cap", power_w=args.power_budget),),
        burn_short_s=0.1,
        burn_long_s=0.5,
    )
    obs = Observability(alerting=True, alert_policy=policy)
    engine = obs.alerts
    assert engine is not None
    if args.baseline:
        from repro.bench import load_baseline

        engine.baseline = load_baseline(args.baseline)
    flow = _toolflow(args, obs=obs)
    app_def = _load_app(args.app)
    print(f"Building adaptive {app_def.name} on {flow.machine.name} (alerting)...")
    app = flow.build(app_def).adaptive
    scenario = power_cap_flip(app, args.power_cap, args.duration)
    print(
        f"Injecting power-cap violation: Throughput phases exceed the "
        f"{args.power_budget:g} W budget, PowerCap holds {args.power_cap:g} W..."
    )
    records = scenario.run(app)
    print(
        f"{len(records)} invocations, {len(engine.alerts)} alert(s), "
        f"{len(engine.incidents)} incident(s), "
        f"{engine.suppressed} suppressed by cooldown"
    )
    out_dir = Path(args.out_dir)
    for bundle in engine.incidents:
        path = bundle.write(out_dir)
        offender = bundle.attribution.get("span", "?")
        print(f"  {bundle.incident_id}  t={bundle.t:7.3f}s  {bundle.alert['name']}")
        print(f"    attribution: {offender}")
        print(f"    -> {path}")
    if obs.audit is not None and obs.audit.incidents:
        print(
            f"audit log: {len(obs.audit.incidents)} incident trace(s) "
            f"cross-linked into {len(obs.audit)} adaptation entries"
        )
    if not engine.incidents:
        print("no incidents fired (nothing written)")
        return 1
    return 0


def cmd_obs_incidents_list(args: argparse.Namespace) -> int:
    """One line per bundle under ``--dir``."""
    from repro.obs.flight import incident_paths, load_incident

    paths = incident_paths(args.dir)
    if not paths:
        print(f"{args.dir}: no incident bundles")
        return 0
    # load every bundle first: a malformed one exits 2 before any row
    documents = [load_incident(path) for path in paths]
    print(f"{'incident id':18s} {'t':>8s} {'kernel':8s} alert")
    for document in documents:
        alert = document["alert"]
        print(
            f"{document['incident_id']:18s} {document['t']:8.3f} "
            f"{document['kernel']:8s} {alert['name']} [{alert['severity']}]"
        )
    return 0


def cmd_obs_incidents_show(args: argparse.Namespace) -> int:
    """Dump one bundle (JSON, schema-complete)."""
    document = _resolve_incident(args)
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def cmd_obs_incidents_report(args: argparse.Namespace) -> int:
    """Human-readable incident report with root-cause attribution."""
    document = _resolve_incident(args)
    alert = document["alert"]
    attribution = document["attribution"]
    counts = document.get("counts", {})
    print(f"incident {document['incident_id']}")
    print(f"  kernel:    {document['kernel']}")
    print(f"  fired at:  t={document['t']:.3f}s (virtual)")
    print(
        f"  alert:     {alert['name']} "
        f"[{alert['detector']}, {alert['severity']}]"
    )
    print(f"  message:   {alert['message']}")
    print(
        "  window:    "
        + ", ".join(f"{count} {kind}" for kind, count in sorted(counts.items()))
    )
    print("  attribution:")
    print(f"    domain:  {attribution['domain']}")
    print(f"    span:    {attribution['span']}")
    point = attribution.get("operating_point")
    if isinstance(point, dict):
        state = point.get("state") or "?"
        print(f"    state:   {state}")
    if "energy_j" in attribution:
        share = attribution.get("energy_share", 0.0)
        print(
            f"    energy:  {attribution['energy_j']:.2f} J in window "
            f"({share:.0%} of window total)"
        )
    if "diff_top" in attribution:
        print(f"    vs baseline: largest span regression {attribution['diff_top']}")
    return 0


def cmd_obs_top(args: argparse.Namespace) -> int:
    """Live ASCII dashboard over the metrics registry.

    With ``--from FILE.prom`` the dashboard renders a Prometheus text
    export (re-parsed every refresh, so a workload writing the file
    periodically is watchable); without it, a bench scenario runs in a
    background thread and the dashboard tracks it live.  ``--once``
    prints a single frame and exits (CI logs, tests).
    """
    from repro.obs.dashboard import live_dashboard, render_dashboard

    if args.from_file:
        from pathlib import Path

        from repro.obs.export import parse_prometheus_text

        source = Path(args.from_file)

        def frame(number: int) -> str:
            try:
                text = source.read_text()
            except OSError as error:
                raise ValueError(
                    f"{source}: cannot read metrics file ({error})"
                ) from None
            try:
                registry = parse_prometheus_text(text)
            except ValueError as error:
                raise ValueError(f"{source}: {error}") from None
            return render_dashboard(
                registry,
                width=args.width,
                frame=None if args.once else number,
            )

        if args.once:
            print(frame(0))
            return 0
        try:
            live_dashboard(frame, done=lambda: False, refresh_s=args.refresh)
        except KeyboardInterrupt:
            print()
        return 0

    import threading

    from repro.bench.scenarios import get_scenario
    from repro.obs import Observability

    scenario = get_scenario(args.scenario)
    obs = Observability(alerting=args.alerts)
    if args.once:
        scenario.runner(obs)
        print(
            render_dashboard(
                obs.metrics,
                obs.tracer,
                obs.audit,
                width=args.width,
                alerts=obs.alerts,
            )
        )
        return 0
    done = threading.Event()

    def work() -> None:
        try:
            scenario.runner(obs)
        finally:
            done.set()

    def frame(number: int) -> str:
        return render_dashboard(
            obs.metrics,
            obs.tracer,
            obs.audit,
            width=args.width,
            frame=number,
            alerts=obs.alerts,
        )

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    try:
        live_dashboard(frame, done.is_set, refresh_s=args.refresh)
    except KeyboardInterrupt:
        print()
    worker.join(timeout=5.0)
    return 0


# ---------------------------------------------------------------------------
# obs runs / lineage / query / trend: the telemetry warehouse
# ---------------------------------------------------------------------------


def _open_store(path):
    from repro.obs.store import TelemetryStore

    return TelemetryStore(path)


def _slowdown_knob(slowdowns) -> List[str]:
    """Canonical knob encoding of an injected-slowdown map."""
    return [f"{name}:{factor}" for name, factor in sorted((slowdowns or {}).items())]


def _flow_identity(flow, **knobs) -> dict:
    """The ``machine``, ``seed`` and ``knobs`` record fields of a
    toolflow run: :meth:`SocratesToolflow.run_identity` split, with
    ``knobs`` added to its knob part."""
    identity = flow.run_identity()
    machine = str(identity.pop("machine"))
    seed = int(identity.pop("seed"))
    return {"machine": machine, "seed": seed, "knobs": {**identity, **knobs}}


def _record_run(
    store, kind, spans, registry=None, audit=None, *, bench=None, energy=None, **fields
):
    """Record one run in ``store``; returns ``(run_id, created)``.

    The one path from in-memory artifacts to
    :meth:`TelemetryStore.record`.  Every blob is the text the matching
    file flag writes (``bench run``'s baseline, ``--trace-out``,
    ``--metrics-out``, ``--audit-out``, ``--ledger-out``), stored in
    this order: ``bench.json``, ``trace.json``, ``metrics.prom``,
    ``audit.jsonl`` and ``profile.folded`` when non-empty (the events
    validator rejects empty streams), ``energy.json``.  ``fields`` are
    the identity fields and ``metrics``.
    """
    from repro.obs import FlameProfile
    from repro.obs.export import audit_jsonl_text, chrome_trace_text, prometheus_text
    from repro.obs.store import ArtifactBlob

    texts = [("bench.json", bench), ("trace.json", chrome_trace_text(spans))]
    if registry is not None:
        texts.append(("metrics.prom", prometheus_text(registry)))
    optional = [
        ("audit.jsonl", audit_jsonl_text(audit) if audit is not None else ""),
        ("profile.folded", FlameProfile.from_spans(spans).as_folded()),
    ]
    texts += [(name, text) for name, text in optional if text.strip()]
    texts.append(("energy.json", energy))
    return store.record(
        kind,
        artifacts=[
            ArtifactBlob(name, text.encode()) for name, text in texts if text is not None
        ],
        derivations=[
            ("trace.json", "profile.folded", "collapsed"),
            ("trace.json", "energy.json", "derived"),
        ],
        **fields,
    )


def _build_and_record(flow, app, obs, store, label, slowdowns):
    """Build ``app`` under a ``build:<app>`` root span and record it as
    a ``build`` run; returns ``(result, (run_id, created))``."""
    with obs.tracer.span(f"build:{app.name}") as root:
        result = flow.build(app)
    obs.absorb_engine(flow.engine)
    recorded = _record_run(
        store,
        "build",
        obs.tracer.spans,
        obs.metrics,
        obs.audit,
        app=app.name,
        label=label,
        source=app.source_fingerprint(),
        metrics={
            "wall_s": root.duration_s,
            "knowledge_points": len(result.exploration.knowledge),
            "coverage": result.exploration.coverage,
            "points_evaluated": flow.engine.counters.points_evaluated,
        },
        **_flow_identity(flow, slowdowns=_slowdown_knob(slowdowns)),
    )
    return result, recorded


def _record_build_run(args, store, slowdowns, label):
    from repro.obs.store import recording_observability

    obs = recording_observability(slowdowns or None)
    flow = _toolflow(args, obs=obs)
    return _build_and_record(flow, _load_app(args.app), obs, store, label, slowdowns)[1]


def _store_dse_run(store, app, seed, label, knobs, obs, engine, result, front):
    """Record one exploration as a ``dse`` run; its wall time is the
    summed duration of the trace's root spans."""
    roots = [span for span in obs.tracer.spans if span.parent_id is None]
    return _record_run(
        store,
        "dse",
        obs.tracer.spans,
        obs.metrics,
        obs.audit,
        app=app.name,
        machine=engine.machine.name,
        seed=seed,
        label=label,
        source=app.source_fingerprint(),
        knobs=knobs,
        metrics={
            "wall_s": sum(span.duration_s for span in roots),
            "points_evaluated": engine.counters.points_evaluated,
            "front_size": len(front),
            "space_size": result.space_size,
        },
    )


def _record_dse_run(args, store, slowdowns, label):
    from repro.obs.store import recording_observability

    obs = recording_observability(slowdowns or None)
    app = _load_app(args.app)
    seed = 0xD5E if args.seed is None else args.seed
    explored = _explore_front(args, app, obs, None, seed, f"dse:{app.name}")
    obs.absorb_engine(explored[0])
    knobs = {
        "repetitions": args.repetitions,
        "slowdowns": _slowdown_knob(slowdowns),
    }
    return _store_dse_run(store, app, seed, label, knobs, obs, *explored)


def _record_trace_run(args, store, slowdowns, label):
    """Record the fig5-style adaptive scenario plus its energy ledger."""
    from repro.obs.energy import EnergyLedger, build_timeline
    from repro.obs.store import recording_observability

    obs = recording_observability(slowdowns or None)
    result, app, records, flow = _fig5_scenario(args, obs)
    timeline = build_timeline(app, records)
    timeline.record_metrics(obs.metrics)
    ledger = EnergyLedger.from_timeline(
        timeline,
        stage_events=result.stage_events,
        idle_power_w=app.executor.idle_breakdown().totals(),
    )
    return _record_run(
        store,
        "trace",
        obs.tracer.spans,
        obs.metrics,
        obs.audit,
        energy=ledger.as_text(),
        app=args.app,
        label=label,
        source=_load_app(args.app).source_fingerprint(),
        metrics={
            "wall_s": timeline.duration_s,
            "invocations": len(records),
            "package_j": ledger.totals_j().get("package", 0.0),
        },
        **_flow_identity(
            flow, duration=args.duration, slowdowns=_slowdown_knob(slowdowns)
        ),
    )


def _store_bench_result(store, result, label, slowdowns):
    """Record one virtual-clock ScenarioResult as a ``bench`` run.

    The stored ``bench.json`` strips the two real-clock fields
    (peak RSS, ratio gauges) so the same seeded scenario always
    produces byte-identical blobs.
    """
    import dataclasses

    from repro.bench import BenchBaseline, baseline_text, median

    baseline = dataclasses.replace(
        BenchBaseline.from_result(result), peak_rss_kb=0, ratios={}
    )
    metrics = {"wall_s": median(result.wall_s)}
    for key, value in sorted(result.fingerprint.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[key] = value
    return _record_run(
        store,
        "bench",
        result.spans,
        bench=baseline_text(baseline),
        scenario=result.scenario,
        label=label,
        knobs={"repeats": result.repeats, "slowdowns": _slowdown_knob(slowdowns)},
        metrics=metrics,
    )


def _record_bench_run(args, store, slowdowns, label):
    from repro.bench import run_scenario
    from repro.obs.store import recording_observability

    if getattr(args, "machine", None):
        raise ValueError(
            "--machine does not apply to the bench kind: each bench "
            "scenario runs on its own fixed machine"
        )
    result = run_scenario(
        args.target,
        repeats=args.repeats,
        obs_factory=lambda: recording_observability(slowdowns or None),
    )
    return _store_bench_result(store, result, label, slowdowns)


_WAREHOUSE_RECORDERS = {
    "build": _record_build_run,
    "dse": _record_dse_run,
    "trace": _record_trace_run,
    "bench": _record_bench_run,
}


def cmd_obs_runs_record(args: argparse.Namespace) -> int:
    """Run one pipeline invocation under the virtual clock and record it.

    The run executes with a deterministic virtual tracer clock, so the
    run id, every metric and every artifact blob are pure functions of
    (source, machine, seed, knobs) — recording the same invocation
    twice is a no-op.  ``--inject-slowdown SPAN:FACTOR`` stretches the
    named span (CI uses this to prove the trend gate catches drift).
    """
    from repro.obs.store import parse_slowdowns

    store = _open_store(args.store)
    slowdowns = parse_slowdowns(args.inject_slowdown)
    # build/dse/trace address an app; bench addresses a scenario
    args.app = args.target
    recorder = _WAREHOUSE_RECORDERS[args.kind]
    run_id, created = recorder(args, store, slowdowns, args.label)
    if args.json:
        _print_json_line({"run_id": run_id, "created": created, "kind": args.kind})
    elif created:
        print(f"recorded {args.kind} run {run_id} in {store.root}")
    else:
        print(f"{args.kind} run {run_id} already recorded in {store.root}")
    return 0


def _run_summary(record, pinned) -> dict:
    return {
        "run_id": record.get("run_id", ""),
        "kind": record.get("kind", ""),
        "app": record.get("app", ""),
        "scenario": record.get("scenario", ""),
        "machine": record.get("machine", ""),
        "seed": record.get("seed", 0),
        "label": record.get("label", ""),
        "artifacts": len(record.get("artifacts", ())),
        "pinned": record.get("run_id", "") in pinned,
    }


def cmd_obs_runs_list(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    pinned = store.pinned()
    summaries = [_run_summary(record, pinned) for record in store.runs()]
    if args.json:
        _print_json_line(summaries)
        return 0
    print(
        f"{'run_id':16s} {'kind':6s} {'target':14s} {'machine':14s} "
        f"{'seed':>8s} {'arts':>4s} label"
    )
    for row in summaries:
        target = row["app"] or row["scenario"]
        pin_mark = "*" if row["pinned"] else ""
        print(
            f"{row['run_id']:16s} {row['kind']:6s} {target:14s} "
            f"{row['machine']:14s} {row['seed']:>8d} {row['artifacts']:>4d} "
            f"{row['label']}{pin_mark}"
        )
    print(f"{len(summaries)} run(s), {len(pinned)} pinned")
    return 0


def cmd_obs_runs_show(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    record = store.load_run(store.resolve_run(args.run_id))
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_obs_runs_pin(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    run_id = store.resolve_run(args.run_id)
    if args.unpin:
        store.unpin(run_id)
        print(f"unpinned {run_id}")
    else:
        store.pin(run_id)
        print(f"pinned {run_id}")
    return 0


def cmd_obs_runs_gc(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    summary = store.gc(keep=args.keep, dry_run=args.dry_run)
    if args.json:
        _print_json_line(summary)
        return 0
    verb = "would remove" if summary["dry_run"] else "removed"
    kept_blobs = summary["kept_blobs"]
    blobs_note = "" if kept_blobs is None else f" / {kept_blobs} blob(s)"
    print(
        f"gc: {verb} {len(summary['removed_runs'])} run(s) and "
        f"{summary['removed_blobs']} blob(s); kept {summary['kept_runs']} "
        f"run(s){blobs_note}, {len(summary['pinned'])} pinned"
    )
    if summary.get("verified"):
        print("gc: store verified (every kept artifact present and hash-clean)")
    return 0


def cmd_obs_lineage(args: argparse.Namespace) -> int:
    """Walk the provenance DAG around a run, artifact or source node."""
    from repro.obs.provenance import ProvenanceGraph

    store = _open_store(args.store)
    graph = ProvenanceGraph.from_runs(store.runs())
    node = graph.resolve(args.ref)
    if args.json:
        _print_json_line(graph.lineage_dict(node))
    else:
        print(graph.ascii_tree(node))
    return 0


def cmd_obs_query(args: argparse.Namespace) -> int:
    """Filter/aggregate recorded runs with the small expression grammar."""
    from repro.obs.store import aggregate_runs, filter_runs, parse_query

    store = _open_store(args.store)
    clauses = parse_query(args.where or "")
    selected = filter_runs(store.runs(), clauses)
    if args.agg:
        document = aggregate_runs(selected, args.agg)
        if args.json:
            _print_json_line(document)
        else:
            print(f"{document['agg']}: {document['value']}")
        return 0
    pinned = store.pinned()
    summaries = [_run_summary(record, pinned) for record in selected]
    if args.json:
        _print_json_line(summaries)
        return 0
    for row in summaries:
        target = row["app"] or row["scenario"]
        print(
            f"{row['run_id']} {row['kind']} {target} {row['machine']} "
            f"seed={row['seed']} {row['label']}".rstrip()
        )
    print(f"{len(summaries)} run(s) matched")
    return 0


def cmd_obs_trend(args: argparse.Namespace) -> int:
    """History-aware drift gate over the warehouse (exit 3 on drift)."""
    import repro.obs.trend as trend_mod

    store = _open_store(args.store)
    records = store.runs()
    matching = [
        record
        for record in records
        if record.get("scenario") == args.target or record.get("app") == args.target
    ]
    if matching:
        scoped, metric = matching, args.metric
    else:
        # no scenario/app by that name: treat the target as a metric
        # judged across every recorded run
        scoped, metric = records, args.target
    verdict = trend_mod.trend_over_runs(
        store,
        scoped,
        args.target,
        metric=metric,
        window=args.window,
        threshold=args.threshold,
        mad_k=args.mad_k,
    )
    if args.json:
        _print_json_line(verdict.as_dict())
    else:
        print(verdict.format())
    return 3 if verdict.drift else 0


# ---------------------------------------------------------------------------
# energy: the virtual-RAPL energy observatory
# ---------------------------------------------------------------------------


def _energy_scenario(args: argparse.Namespace):
    """Run the fig5-style workload and reconstruct its energy timeline.

    Returns ``(obs, toolflow_result, app, records, timeline)``.
    """
    from repro.obs import Observability
    from repro.obs.energy import build_timeline

    obs = Observability()
    result, app, records, _ = _fig5_scenario(args, obs)
    timeline = build_timeline(app, records)
    timeline.record_metrics(obs.metrics)
    return obs, result, app, records, timeline


def _print_domain_table(title: str, totals, means, duration_s: float) -> None:
    print(title)
    print(f"  {'domain':9s} {'energy':>12s} {'mean power':>12s}")
    # totals is ordered machine-wide domains first, then any per-cluster
    # planes a heterogeneous machine adds
    for domain in totals:
        print(
            f"  {domain:9s} {totals[domain]:10.2f} J {means[domain]:10.2f} W"
        )
    print(f"  over {duration_s:.2f}s of virtual time")


def cmd_energy_report(args: argparse.Namespace) -> int:
    """Per-domain energy report with the attribution ledger."""
    from repro.obs.energy import EnergyLedger

    obs, result, app, records, timeline = _energy_scenario(args)
    idle_power = app.executor.idle_breakdown().totals()
    ledger = EnergyLedger.from_timeline(
        timeline, stage_events=result.stage_events, idle_power_w=idle_power
    )
    ledger.verify(records=records)

    if args.json:
        print(json.dumps(ledger.as_dict(), indent=2, sort_keys=True))
    else:
        print()
        _print_domain_table(
            f"energy report: {app.name} ({len(records)} invocations)",
            timeline.totals_j(),
            timeline.mean_power_w(),
            timeline.duration_s,
        )
        print()
        print("attribution ledger (operating points, most joules first):")
        package_total = ledger.totals_j()["package"]
        for entry in ledger.entries:
            joules = entry.energy_j["package"]
            share = joules / package_total if package_total > 0 else 0.0
            pin = f" @{entry.cluster}" if entry.cluster else ""
            print(
                f"  {entry.compiler:>6s} x{entry.threads:<3d} {entry.binding:7s}"
                f"{pin} {joules:10.2f} J  ({share:6.1%}, "
                f"{entry.invocations} invocations, {entry.time_s:.2f}s)"
            )
        idle_j = ledger.idle.energy_j["package"]
        if idle_j > 0:
            print(f"  {'idle floor':18s} {idle_j:10.2f} J")
        stage_j = ledger.stage_totals_j()["package"]
        if ledger.stages:
            print(
                f"  toolflow stages: {stage_j:.2f} J host-side over "
                f"{sum(s.time_s for s in ledger.stages):.2f}s "
                f"({len(ledger.stages)} stages)"
            )
        print("  conservation: domain sums match package totals (verified)")
    if args.ledger_out:
        path = ledger.write(args.ledger_out)
        print(f"Wrote energy ledger to {path}")
    return 0


def cmd_energy_timeline(args: argparse.Namespace) -> int:
    """Export the reconstructed power(t) timeline."""
    obs, _, app, records, timeline = _energy_scenario(args)
    print(
        f"timeline: {len(timeline)} segments over {timeline.duration_s:.2f}s, "
        f"peak {timeline.peak_power_w():.1f} W package"
    )
    wrote_any = False
    if args.trace_out:
        from repro.obs.export import write_chrome_trace

        counters = timeline.counter_events()
        write_chrome_trace(obs.tracer.spans, args.trace_out, counters=counters)
        print(
            f"Wrote Chrome trace to {args.trace_out} "
            f"({len(obs.tracer.spans)} spans + {len(counters)} power counters; "
            "open in Perfetto to see the power tracks)"
        )
        wrote_any = True
    if args.csv:
        rows = timeline.to_csv(args.csv)
        print(f"Wrote timeline CSV to {args.csv} ({rows} segments)")
        wrote_any = True
    if not wrote_any:
        _print_domain_table(
            f"energy timeline: {app.name}",
            timeline.totals_j(),
            timeline.mean_power_w(),
            timeline.duration_s,
        )
    return 0


def cmd_energy_slo(args: argparse.Namespace) -> int:
    """Check declared power/energy budgets; exit 3 on violation."""
    from repro.obs.energy import EnergyBudget, check_budgets

    domain = getattr(args, "budget_domain", None) or "package"
    suffix = "" if domain == "package" else f"-{domain}"
    budgets = []
    if args.power_budget is not None:
        budgets.append(
            EnergyBudget(
                f"power-{args.power_budget:g}W{suffix}",
                power_w=args.power_budget,
                domain=domain,
            )
        )
    if args.peak_power_budget is not None:
        budgets.append(
            EnergyBudget(
                f"peak-{args.peak_power_budget:g}W{suffix}",
                peak_power_w=args.peak_power_budget,
                domain=domain,
            )
        )
    if args.energy_budget is not None:
        budgets.append(
            EnergyBudget(
                f"energy-{args.energy_budget:g}J{suffix}",
                energy_j=args.energy_budget,
                domain=domain,
            )
        )
    if not budgets:
        raise ValueError(
            "declare at least one budget "
            "(--power-budget / --peak-power-budget / --energy-budget)"
        )
    obs, _, app, records, timeline = _energy_scenario(args)
    verdicts = check_budgets(timeline, budgets, metrics=obs.metrics, audit=obs.audit)
    print()
    for verdict in verdicts:
        print(verdict.message())
    if args.audit_out:
        from repro.obs.export import write_audit_jsonl

        count = write_audit_jsonl(obs.audit, args.audit_out)
        print(f"Wrote adaptation audit to {args.audit_out} ({count} entries)")
    violated = [verdict for verdict in verdicts if not verdict.ok]
    print()
    if violated:
        print(
            f"energy slo: FAIL "
            f"({len(violated)}/{len(verdicts)} budget(s) violated)"
        )
        return 3
    print(f"energy slo: OK ({len(verdicts)} budget(s) met)")
    return 0


# ---------------------------------------------------------------------------
# bench: the performance observatory
# ---------------------------------------------------------------------------


def _bench_scenario_names(args: argparse.Namespace) -> List[str]:
    """--scenario selections, or every quick scenario (--all: everything)."""
    from repro.bench import all_scenarios, get_scenario, quick_scenarios

    if args.scenario:
        # validate up front so typos fail before any scenario runs
        return [get_scenario(name).name for name in args.scenario]
    if getattr(args, "all", False):
        return [scenario.name for scenario in all_scenarios()]
    return [scenario.name for scenario in quick_scenarios()]


def cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.bench import all_scenarios

    print(f"{'scenario':18s} {'tier':6s} description")
    for scenario in all_scenarios():
        tier = "quick" if scenario.quick else "full"
        print(f"{scenario.name:18s} {tier:6s} {scenario.description}")
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Run scenarios and write ``BENCH_<scenario>.json`` baselines."""
    from pathlib import Path

    from repro.bench import (
        BenchBaseline,
        baseline_filename,
        load_baseline,
        run_scenario,
        save_baseline,
    )

    store_dir = getattr(args, "store", None)
    obs_factory = (lambda: _run_obs(args)) if store_dir else None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in _bench_scenario_names(args):
        result = run_scenario(name, repeats=args.repeats, obs_factory=obs_factory)
        if store_dir:
            _note_recorded(
                "bench",
                store_dir,
                _store_bench_result(
                    _open_store(store_dir), result, args.store_label, {}
                ),
            )
        # ratio caps are hand-committed policy, never measured: when
        # regenerating over an existing baseline, carry its caps through
        ratio_limits = None
        target = out_dir / baseline_filename(name)
        if target.exists():
            try:
                ratio_limits = load_baseline(target).ratio_limits
            except ValueError:
                ratio_limits = None
        baseline = BenchBaseline.from_result(result, ratio_limits=ratio_limits)
        path = save_baseline(baseline, target)
        print(
            f"{name}: wall median {baseline.wall_s.median:.4f}s "
            f"(MAD {baseline.wall_s.mad:.4f}s, {result.repeats} repeats, "
            f"{len(result.span_totals)} span names) -> {path}"
        )
        if args.trace_out_dir:
            from repro.obs.export import write_chrome_trace

            trace_dir = Path(args.trace_out_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"TRACE_{name}.json"
            count = write_chrome_trace(result.spans, trace_path)
            print(f"{name}: wrote {trace_path} ({count} spans)")
    return 0


def _bench_compare_reports(args: argparse.Namespace):
    """(GateReport, ScenarioResult, BenchBaseline) per selected scenario."""
    from pathlib import Path

    from repro.bench import (
        baseline_filename,
        compare_result,
        load_baseline,
        run_scenario,
    )

    baseline_dir = Path(args.baseline_dir)
    pairs = []
    for name in _bench_scenario_names(args):
        baseline = load_baseline(baseline_dir / baseline_filename(name))
        result = run_scenario(name, repeats=args.repeats)
        report = compare_result(
            baseline,
            result,
            threshold=args.threshold,
            mad_k=args.mad_k,
            min_delta_s=args.min_delta_s,
            energy_tolerance=args.energy_tolerance,
        )
        pairs.append((report, result, baseline))
    return pairs


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Informational comparison against the baselines (always exit 0)."""
    pairs = _bench_compare_reports(args)
    if args.json:
        _print_json_line([report.as_dict() for report, _, _ in pairs])
        return 0
    for index, (report, _, _) in enumerate(pairs):
        if index:
            print()
        print(report.format(diff_limit=args.limit))
    return 0


def cmd_bench_gate(args: argparse.Namespace) -> int:
    """The regression gate: exit 3 when any scenario regresses."""
    pairs = _bench_compare_reports(args)
    if args.out_dir:
        from pathlib import Path

        from repro.bench import BenchBaseline, baseline_filename, save_baseline
        from repro.obs.profile import format_name_diff

        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for report, result, baseline in pairs:
            save_baseline(
                BenchBaseline.from_result(
                    result, ratio_limits=baseline.ratio_limits
                ),
                out_dir / baseline_filename(result.scenario),
            )
            with open(out_dir / f"GATE_{result.scenario}.json", "w") as handle:
                json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            if report.diff is not None:
                with open(out_dir / f"DIFF_{result.scenario}.txt", "w") as handle:
                    handle.write(
                        format_name_diff(report.diff, limit=0, hide_unchanged=True)
                        + "\n"
                    )
    failed = []
    for index, (report, _, _) in enumerate(pairs):
        if index:
            print()
        print(report.format(diff_limit=args.limit))
        if not report.ok:
            failed.append(report.scenario)
    if getattr(args, "history_store", None):
        # history-aware mode: additionally judge each scenario's newest
        # *recorded* run against the sliding window before it in the
        # telemetry warehouse (virtual-clock runs compare only against
        # virtual-clock runs, never against this process's fresh
        # real-clock measurements)
        import repro.obs.trend as trend_mod

        store = _open_store(args.history_store)
        records = store.runs()
        for name in _bench_scenario_names(args):
            scoped = [
                record
                for record in records
                if record.get("kind") == "bench" and record.get("scenario") == name
            ]
            print()
            try:
                verdict = trend_mod.trend_over_runs(
                    store,
                    scoped,
                    name,
                    window=args.history_window,
                    threshold=args.threshold,
                    mad_k=args.mad_k,
                )
            except trend_mod.InsufficientHistory as error:
                print(f"history {name}: skipped ({error})")
                continue
            print(verdict.format())
            if verdict.drift:
                failed.append(f"{name} (history)")
    print()
    if failed:
        print(f"bench gate: FAIL ({', '.join(failed)} regressed)")
        return 3
    print(f"bench gate: OK ({len(pairs)} scenario(s) within thresholds)")
    return 0


def cmd_margot_header(args: argparse.Namespace) -> int:
    from repro.margot.config import load_config

    config = load_config(args.config)
    flow = _toolflow(args)
    result = flow.build(_load_app(config.kernel))
    header = result.margot_header(config.states)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(header)
        print(f"Wrote {args.out} ({len(header.splitlines())} lines)")
    else:
        print(header)
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """Run the paper's full evaluation (Table I + Figures 3-5) in order."""
    import copy

    banner = lambda title: print("\n" + "=" * 72 + f"\n{title}\n" + "=" * 72)
    banner("Table I -- LARA weaving metrics")
    cmd_table1(args)
    banner("Figure 3 -- Pareto power/throughput distributions")
    fig3_args = copy.copy(args)
    fig3_args.apps = None
    cmd_fig3(fig3_args)
    banner("Figure 4 -- power-budget sweep (2mm)")
    fig4_args = copy.copy(args)
    fig4_args.app = "2mm"
    fig4_args.steps = 20
    cmd_fig4(fig4_args)
    banner("Figure 5 -- 300 s runtime trace (2mm)")
    fig5_args = copy.copy(args)
    fig5_args.app = "2mm"
    fig5_args.duration = 300.0
    cmd_fig5(fig5_args)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.core.paper import table1_reports
    from repro.lara.metrics import strategy_loc

    print(f"Table I (strategy: {strategy_loc()} logical lines)")
    print(f"{'Benchmark':12s} {'Att':>6s} {'Act':>5s} {'O-LOC':>6s} {'W-LOC':>6s} {'D-LOC':>6s} {'Bloat':>6s}")
    for name, report in table1_reports().items():
        print(
            f"{name:12s} {report.attributes:6d} {report.actions:5d} "
            f"{report.original_loc:6d} {report.weaved_loc:6d} "
            f"{report.delta_loc:6d} {report.bloat:6.2f}"
        )
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    from repro.core.paper import pareto_spread
    from repro.polybench.suite import BENCHMARK_NAMES
    from repro.viz.ascii import boxplot

    flow = _toolflow(args)
    names = args.apps.split(",") if args.apps else BENCHMARK_NAMES
    power_rows = []
    throughput_rows = []
    for name in names:
        result = flow.build(_load_app(name))
        powers, throughputs = pareto_spread(result.exploration.knowledge)
        power_rows.append((name, powers))
        throughput_rows.append((name, throughputs))
    print("Figure 3 -- normalized POWER over the Pareto curve")
    print(boxplot(power_rows, bounds=(0.0, 2.5)))
    print("\nFigure 3 -- normalized THROUGHPUT over the Pareto curve")
    print(boxplot(throughput_rows, bounds=(0.0, 2.5)))
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    from repro.core.paper import power_budget_sweep

    result = _toolflow(args).build(_load_app(args.app))
    rows = power_budget_sweep(
        result.exploration.knowledge, np.linspace(45.0, 140.0, args.steps)
    )
    print(f"Figure 4 -- minimize exec time of {args.app} under a power budget")
    print(f"{'Budget[W]':>9s} {'Exec[ms]':>9s} {'Thr':>4s} {'Bind':>6s}  Compiler")
    for row in rows:
        print(
            f"{row['budget']:9.1f} {row['time_ms']:9.1f} "
            f"{row['threads']:4d} {row['binding']:>6s}  {row['compiler']}"
        )
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    from repro.core.scenario import fig5_flip
    from repro.viz.ascii import timeseries

    app = _toolflow(args).build(_load_app(args.app)).adaptive
    records = fig5_flip(app, args.duration).run(app)
    times = [r.timestamp for r in records]
    print(timeseries(times, [r.power_w for r in records], title="Power [W]"))
    print()
    print(timeseries(times, [r.time_s * 1e3 for r in records], title="Exec time [ms]"))
    print()
    print(timeseries(times, [float(r.threads) for r in records], title="OMP threads"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socrates",
        description="SOCRATES reproduction: compiler + runtime autotuning toolchain",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list benchmarks").set_defaults(func=cmd_list)

    p = subparsers.add_parser("features", help="Milepost features of a kernel")
    _add_app_argument(p)
    p.set_defaults(func=cmd_features)

    p = subparsers.add_parser("predict", help="COBAYN flag predictions")
    _add_app_argument(p)
    p.add_argument("-k", type=_count, default=4, help="number of combinations")
    p.set_defaults(func=cmd_predict)

    p = subparsers.add_parser("weave", help="weave and report Table I metrics")
    _add_app_argument(p)
    p.add_argument("--source", action="store_true", help="print the weaved source")
    p.set_defaults(func=cmd_weave)

    p = subparsers.add_parser("build", help="run the full toolflow")
    _add_app_argument(p)
    _add_machine_argument(p)
    _add_dse_arguments(p)
    p.add_argument("--oplist", help="write the knowledge base to this JSON file")
    p.add_argument("--source-out", help="write the adaptive source to this file")
    p.add_argument(
        "--stage-report",
        action="store_true",
        help="print per-stage telemetry (wall time, cache hits) as JSON",
    )
    _add_workers_argument(p)
    p.add_argument(
        "--trace-out",
        help="write the build's span tree as Chrome trace_event JSON",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of prose",
    )
    _add_store_arguments(p)
    p.set_defaults(func=cmd_build)

    p = subparsers.add_parser(
        "stats", help="build an app and print stage/cache telemetry as JSON"
    )
    _add_app_argument(p)
    _add_machine_argument(p)
    _add_dse_arguments(p, workers=True)
    p.add_argument(
        "--json",
        action="store_true",
        help="single-line JSON with stable key order (for scripts)",
    )
    p.set_defaults(func=cmd_stats)

    p = subparsers.add_parser("trace", help="run a scenario from a margot config")
    p.add_argument("config", help="JSON configuration (see repro.margot.config)")
    _add_machine_argument(p)
    p.add_argument("--duration", type=_seconds, default=60.0)
    _add_dse_arguments(p)
    p.add_argument("--csv", help="write the trace to this CSV file")
    p.add_argument(
        "--trace-out",
        help="write the build+scenario span tree as Chrome trace_event JSON",
    )
    p.add_argument(
        "--audit-out",
        help="write the adaptation audit log as JSONL",
    )
    _add_store_arguments(p)
    p.set_defaults(func=cmd_trace)

    p = subparsers.add_parser("profiles", help="workload profiles of all benchmarks")
    p.set_defaults(func=cmd_profiles)

    p = subparsers.add_parser("loocv", help="COBAYN leave-one-out evaluation")
    _add_machine_argument(p)
    p.add_argument("--apps", help="comma-separated subset (default: all twelve)")
    p.add_argument("-k", type=_count, default=4)
    _add_dse_arguments(p, threads_help="unused placeholder for symmetry")
    p.set_defaults(func=cmd_loocv)

    p = subparsers.add_parser(
        "run", help="interpret a benchmark source at a tiny dataset"
    )
    _add_app_argument(p)
    p.add_argument("--size", type=_dataset_size, default=8, help="dimension override")
    p.add_argument("--weaved", action="store_true", help="run the weaved source")
    p.add_argument("--version", type=int, default=0, help="clone to dispatch (with --weaved)")
    p.add_argument(
        "--trace-out",
        help="write parse/weave/interpret spans as Chrome trace_event JSON",
    )
    p.set_defaults(func=cmd_run)

    p = subparsers.add_parser(
        "check",
        help="static analysis: OpenMP race lint + weave verification (exit 0/2/3)",
    )
    p.add_argument(
        "app", nargs="?", help="benchmark name (see `socrates list`)"
    )
    p.add_argument(
        "--all", action="store_true", help="check every benchmark in the suite"
    )
    p.add_argument(
        "--source", metavar="FILE", help="lint an arbitrary C file (race rules only)"
    )
    p.add_argument(
        "--pristine-only",
        action="store_true",
        help="skip the weave + weave-verifier pass",
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_true", help="emit one JSON report document"
    )
    fmt.add_argument(
        "--sarif", action="store_true", help="emit a SARIF 2.1.0 document"
    )
    p.add_argument("--out", help="write the JSON/SARIF document to this file")
    p.add_argument(
        "--prune-plan",
        metavar="FILE",
        help="also build the static lattice prune plan and write it as JSON",
    )
    _add_machine_argument(p)
    p.add_argument(
        "--trace-out",
        help="write analysis spans as Chrome trace_event JSON",
    )
    p.add_argument(
        "--audit-out",
        help="write per-diagnostic check records as JSONL",
    )
    p.add_argument(
        "--metrics-out",
        help="write socrates_check_diagnostics_total counters as Prometheus text",
    )
    p.set_defaults(func=cmd_check)

    p = subparsers.add_parser(
        "dse",
        help="one seeded design-space exploration, optionally statically pruned",
    )
    _add_app_argument(p)
    _add_machine_argument(p)
    p.add_argument(
        "--prune",
        action="store_true",
        help="build the static prune plan and skip masked lattice points",
    )
    p.add_argument(
        "--prune-plan",
        metavar="FILE",
        help="load a prune plan written by `socrates check --prune-plan`",
    )
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0xD5E)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument(
        "--verify-front",
        action="store_true",
        help="also run unpruned and fail unless both Pareto fronts are bit-identical",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.add_argument(
        "--trace-out",
        help="write engine/DSE spans as Chrome trace_event JSON",
    )
    p.add_argument(
        "--audit-out",
        help="write the audit log (one record per pruned point) as JSONL",
    )
    p.add_argument(
        "--metrics-out",
        help="write engine counters as Prometheus text",
    )
    _add_store_arguments(p)
    p.set_defaults(func=cmd_dse)

    p = subparsers.add_parser(
        "obs",
        help="observability: export/validate artifacts, telemetry warehouse "
        "(runs/lineage/query/trend), flame graphs, dashboard",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "export", help="build + fig5-style scenario, export every obs format"
    )
    _add_app_argument(p)
    _add_machine_argument(p)
    p.add_argument("--out-dir", default="obs-out", help="output directory")
    p.add_argument("--duration", type=_seconds, default=60.0)
    _add_dse_arguments(p, workers=True)
    p.set_defaults(func=cmd_obs_export)
    p = obs_sub.add_parser(
        "validate",
        help="validate exported artifacts or whole directories/stores "
        "(.json traces/ledgers/records, .jsonl events, .prom metrics, .folded stacks)",
    )
    p.add_argument(
        "files",
        nargs="+",
        help="artifact files, or directories to walk recursively",
    )
    p.set_defaults(func=cmd_obs_validate)

    p = obs_sub.add_parser(
        "runs",
        help="telemetry warehouse: record, list, inspect, pin and GC run records",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    p = runs_sub.add_parser(
        "record",
        help="run one pipeline invocation under the virtual clock and record it",
    )
    p.add_argument(
        "kind",
        choices=("build", "dse", "trace", "bench"),
        help="which pipeline invocation to run and record",
    )
    p.add_argument(
        "target", help="app name (build/dse/trace) or bench scenario name"
    )
    p.add_argument(
        "--store", required=True, metavar="DIR", help="warehouse directory"
    )
    p.add_argument(
        "--label",
        default="",
        help="label mixed into the run identity (distinguishes otherwise "
        "identical runs, e.g. history points r1..r5)",
    )
    p.add_argument(
        "--seed",
        type=lambda s: int(s, 0),
        default=None,
        help="toolflow/DSE seed override (default: each stage's own seed)",
    )
    _add_machine_argument(p)
    _add_dse_arguments(p)
    p.add_argument(
        "--repeats", type=int, default=1, help="bench scenario repeats"
    )
    p.add_argument(
        "--duration",
        type=_seconds,
        default=10.0,
        help="virtual seconds of the fig5-style scenario (trace kind)",
    )
    p.add_argument(
        "--inject-slowdown",
        action="append",
        metavar="SPAN:FACTOR",
        help="stretch the named span by FACTOR >= 1.0 under the virtual "
        "clock (repeatable; CI uses this to prove the trend gate trips)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit one {run_id, created, kind} line"
    )
    p.set_defaults(func=cmd_obs_runs_record)
    p = runs_sub.add_parser("list", help="list recorded runs in journal order")
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument("--json", action="store_true", help="emit one JSON line")
    p.set_defaults(func=cmd_obs_runs_list)
    p = runs_sub.add_parser("show", help="dump one run record as JSON")
    p.add_argument("run_id", help="run id (unambiguous prefix ok)")
    p.add_argument("--store", required=True, metavar="DIR")
    p.set_defaults(func=cmd_obs_runs_show)
    p = runs_sub.add_parser(
        "pin", help="protect a run (and everything it reaches) from gc"
    )
    p.add_argument("run_id", help="run id (unambiguous prefix ok)")
    p.add_argument("--store", required=True, metavar="DIR")
    p.set_defaults(func=cmd_obs_runs_pin, unpin=False)
    p = runs_sub.add_parser("unpin", help="drop a run's gc protection")
    p.add_argument("run_id", help="run id (unambiguous prefix ok)")
    p.add_argument("--store", required=True, metavar="DIR")
    p.set_defaults(func=cmd_obs_runs_pin, unpin=True)
    p = runs_sub.add_parser(
        "gc",
        help="retention sweep: drop old unpinned runs and orphan blobs, "
        "then verify the store",
    )
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument(
        "--keep",
        type=int,
        help="keep only the N most recent unpinned runs (pinned always kept)",
    )
    p.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    p.add_argument("--json", action="store_true", help="emit one JSON line")
    p.set_defaults(func=cmd_obs_runs_gc)

    p = obs_sub.add_parser(
        "lineage",
        help="walk the provenance DAG around a run/artifact/source node",
    )
    p.add_argument(
        "ref",
        help="node reference: run:<id>, artifact:<sha>, source:<sha>, "
        "or a bare unambiguous hash prefix",
    )
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical one-line lineage document",
    )
    p.set_defaults(func=cmd_obs_lineage)

    p = obs_sub.add_parser(
        "query",
        help="filter/aggregate recorded runs with a small expression grammar",
    )
    p.add_argument(
        "where",
        nargs="?",
        default="",
        help="filter expression, ' and '-joined clauses like "
        "\"kind=bench and machine=xeon_2s and wall_s<2.5\" (empty: all runs)",
    )
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument(
        "--agg",
        metavar="SPEC",
        help="aggregate instead of listing: count, or median:|mean:|min:|"
        "max:|sum:<metric>",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON line")
    p.set_defaults(func=cmd_obs_query)

    p = obs_sub.add_parser(
        "trend",
        help="median+MAD drift gate over recorded history (exit 3 on drift)",
    )
    p.add_argument(
        "target",
        help="scenario or app name (judged on --metric), or a bare metric "
        "name judged across all recorded runs",
    )
    p.add_argument("--store", required=True, metavar="DIR")
    p.add_argument(
        "--metric", default="wall_s", help="metric to judge (default: wall_s)"
    )
    p.add_argument(
        "--window",
        type=int,
        default=5,
        help="sliding window of historical runs the latest is judged against",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative drift threshold (fraction of the history median)",
    )
    p.add_argument(
        "--mad-k",
        type=float,
        default=6.0,
        help="MAD multiplier absorbing the history's own jitter",
    )
    p.add_argument("--json", action="store_true", help="emit one JSON line")
    p.set_defaults(func=cmd_obs_trend)
    p = obs_sub.add_parser(
        "diff", help="span-level diff of two Chrome trace exports"
    )
    p.add_argument("trace_a", help="baseline trace (Chrome trace_event JSON)")
    p.add_argument("trace_b", help="fresh trace to compare against it")
    p.add_argument(
        "--limit", type=int, default=20, help="rows to print (0 = all)"
    )
    p.add_argument(
        "--show-unchanged",
        action="store_true",
        help="also list span names with identical totals",
    )
    p.add_argument("--json", action="store_true", help="emit the diff as JSON")
    p.set_defaults(func=cmd_obs_diff)

    def _add_profile_source_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "app",
            nargs="?",
            help="benchmark name to build + run adaptively (see `socrates list`)",
        )
        _add_machine_argument(p)
        p.add_argument(
            "--duration",
            type=_seconds,
            default=10.0,
            help="virtual seconds of the fig5-style scenario (APP source)",
        )
        _add_dse_arguments(p, workers=True)
        p.add_argument(
            "--trace",
            metavar="FILE",
            help="reconstruct from an exported Chrome trace instead of running",
        )
        p.add_argument(
            "--scenario",
            metavar="NAME",
            help="profile one run of a bench scenario (see `socrates bench list`)",
        )

    p = obs_sub.add_parser(
        "flame",
        help="virtual-time flame graph from the span trace "
        "(table/folded/JSON/SVG, stack diffs)",
    )
    _add_profile_source_arguments(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--folded", action="store_true", help="emit folded-stack text"
    )
    fmt.add_argument(
        "--json",
        action="store_true",
        help="emit the socrates-profile/1 JSON document",
    )
    fmt.add_argument(
        "--svg",
        action="store_true",
        help="emit a self-contained SVG flame graph",
    )
    p.add_argument(
        "--out", metavar="FILE", help="write the selected format to this file"
    )
    p.add_argument(
        "--out-dir",
        metavar="DIR",
        help="write profile.folded + profile.json + flame.svg here",
    )
    p.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="stack diff of two profiles "
        "(.folded, profile JSON, or Chrome trace each)",
    )
    p.add_argument(
        "--against-baseline",
        metavar="BENCH.json",
        help="stack diff of this run against a committed bench baseline",
    )
    p.add_argument(
        "--limit", type=int, default=20, help="table/diff rows to print (0 = all)"
    )
    p.set_defaults(func=cmd_obs_flame)

    p = obs_sub.add_parser(
        "whatif",
        help="causal what-if: replay the trace with virtual speedups, "
        "rank targets by end-to-end payoff",
    )
    _add_profile_source_arguments(p)
    p.add_argument(
        "--speedups",
        metavar="PCT,PCT,...",
        help="hypothetical speedups in percent (default: 10,25,50,75)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the ranked table as JSON"
    )
    p.add_argument(
        "--limit", type=int, default=15, help="targets to print (0 = all)"
    )
    p.set_defaults(func=cmd_obs_whatif)

    p = obs_sub.add_parser(
        "top", help="live ASCII dashboard of the metrics registry"
    )
    p.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE.prom",
        help="render a Prometheus text export instead of running a workload",
    )
    p.add_argument(
        "--scenario",
        default="adaptation_loop",
        help="bench scenario to run live (ignored with --from)",
    )
    p.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    p.add_argument(
        "--refresh", type=float, default=1.0, help="seconds between redraws"
    )
    p.add_argument("--width", type=int, default=72)
    p.add_argument(
        "--alerts",
        action="store_true",
        help="run the scenario with streaming SLO alerting and show the alerts panel",
    )
    p.set_defaults(func=cmd_obs_top)

    p = obs_sub.add_parser(
        "incidents",
        help="flight-recorder incident pipeline: record, list, inspect bundles",
    )
    incidents_sub = p.add_subparsers(dest="incidents_command", required=True)
    p = incidents_sub.add_parser(
        "record",
        help="inject a power-cap violation and write INC_*.json bundles",
    )
    p.add_argument(
        "app",
        nargs="?",
        default="mvt",
        help="benchmark name (default: mvt; see `socrates list`)",
    )
    _add_machine_argument(p)
    p.set_defaults(machine="biglittle_8p8e")
    p.add_argument(
        "--duration",
        type=_seconds,
        default=3.0,
        help="virtual seconds of the 3-phase scenario",
    )
    p.add_argument(
        "--power-budget",
        type=float,
        default=40.0,
        help="package power budget in W the Throughput phases violate",
    )
    p.add_argument(
        "--power-cap",
        type=float,
        default=22.0,
        help="power constraint in W of the compliant PowerCap state",
    )
    p.add_argument(
        "--baseline",
        metavar="BENCH.json",
        help="bench baseline for span-diff attribution inside the bundles",
    )
    _add_dse_arguments(p, repetitions=2)
    p.add_argument("--out-dir", default="incidents", help="bundle output directory")
    p.set_defaults(func=cmd_obs_incidents_record)
    p = incidents_sub.add_parser("list", help="list recorded incident bundles")
    p.add_argument("--dir", default="incidents", help="bundle directory")
    p.set_defaults(func=cmd_obs_incidents_list)
    p = incidents_sub.add_parser("show", help="dump one bundle as JSON")
    p.add_argument("incident_id", help="incident id (unambiguous prefix ok)")
    p.add_argument("--dir", default="incidents", help="bundle directory")
    p.set_defaults(func=cmd_obs_incidents_show)
    p = incidents_sub.add_parser(
        "report", help="human-readable report with root-cause attribution"
    )
    p.add_argument(
        "incident_id",
        nargs="?",
        help="incident id prefix (omit for --latest behavior)",
    )
    p.add_argument(
        "--latest",
        action="store_true",
        help="report the most recent incident (default when no id given)",
    )
    p.add_argument("--dir", default="incidents", help="bundle directory")
    p.set_defaults(func=cmd_obs_incidents_report)

    p = subparsers.add_parser(
        "energy",
        help="virtual-RAPL energy observatory: report, timeline, budget SLOs",
    )
    energy_sub = p.add_subparsers(dest="energy_command", required=True)

    def _add_energy_scenario_args(p: argparse.ArgumentParser) -> None:
        _add_app_argument(p)
        _add_machine_argument(p)
        p.add_argument(
            "--duration",
            type=_seconds,
            default=30.0,
            help="virtual seconds of the fig5-style scenario",
        )
        _add_dse_arguments(p, workers=True)

    p = energy_sub.add_parser(
        "report",
        help="per-domain energy totals and the operating-point attribution ledger",
    )
    _add_energy_scenario_args(p)
    p.add_argument("--json", action="store_true", help="emit the ledger as JSON")
    p.add_argument(
        "--ledger-out",
        metavar="FILE.json",
        help="write the socrates-energy/1 ledger document here",
    )
    p.set_defaults(func=cmd_energy_report)
    p = energy_sub.add_parser(
        "timeline",
        help="reconstructed power(t): Chrome counter tracks and/or CSV",
    )
    _add_energy_scenario_args(p)
    p.add_argument(
        "--trace-out",
        metavar="FILE.json",
        help="Chrome trace with spans + per-domain power counter tracks",
    )
    p.add_argument(
        "--csv", metavar="FILE.csv", help="write the step timeline as CSV"
    )
    p.set_defaults(func=cmd_energy_timeline)
    p = energy_sub.add_parser(
        "slo",
        help="check power/energy budgets over the scenario (exit 3 on violation)",
    )
    _add_energy_scenario_args(p)
    p.add_argument(
        "--power-budget",
        type=float,
        metavar="WATTS",
        help="cap on the time-averaged package power (Fig. 4 sweep values)",
    )
    p.add_argument(
        "--peak-power-budget",
        type=float,
        metavar="WATTS",
        help="cap on the instantaneous package power of any segment",
    )
    p.add_argument(
        "--energy-budget",
        type=float,
        metavar="JOULES",
        help="cap on the total package energy",
    )
    p.add_argument(
        "--budget-domain",
        metavar="DOMAIN",
        help="power plane the budgets apply to (default: package; "
        "per-cluster planes like P:package work on heterogeneous machines)",
    )
    p.add_argument(
        "--audit-out",
        metavar="FILE.jsonl",
        help="write the adaptation audit (with SLO context) here",
    )
    p.set_defaults(func=cmd_energy_slo)

    p = subparsers.add_parser(
        "bench",
        help="performance observatory: scenario baselines and the regression gate",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def _add_bench_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            action="append",
            help="scenario name (repeatable; default: every quick scenario)",
        )
        p.add_argument(
            "--all",
            action="store_true",
            help="select every scenario, including the slow ones",
        )
        p.add_argument(
            "--repeats", type=int, default=3, help="repeats per scenario"
        )

    def _add_gate_knobs(p: argparse.ArgumentParser) -> None:
        from repro.bench.gate import (
            DEFAULT_ENERGY_TOLERANCE,
            DEFAULT_MAD_K,
            DEFAULT_MIN_DELTA_S,
            DEFAULT_THRESHOLD,
        )

        p.add_argument(
            "--baseline-dir",
            default="benchmarks/baselines",
            help="directory holding the committed BENCH_<scenario>.json files",
        )
        p.add_argument(
            "--threshold",
            type=float,
            default=DEFAULT_THRESHOLD,
            help="relative regression threshold (fraction of the baseline median)",
        )
        p.add_argument(
            "--mad-k",
            type=float,
            default=DEFAULT_MAD_K,
            help="MAD multiplier absorbing the scenario's measured jitter",
        )
        p.add_argument(
            "--min-delta-s",
            type=float,
            default=DEFAULT_MIN_DELTA_S,
            help="absolute floor in seconds below which deltas never regress",
        )
        p.add_argument(
            "--energy-tolerance",
            type=float,
            default=DEFAULT_ENERGY_TOLERANCE,
            help="relative tolerance for the baseline's energy columns",
        )
        p.add_argument(
            "--limit", type=int, default=15, help="trace-diff rows to print"
        )

    p = bench_sub.add_parser("list", help="list the registered scenarios")
    p.set_defaults(func=cmd_bench_list)
    p = bench_sub.add_parser(
        "run", help="run scenarios and write BENCH_<scenario>.json baselines"
    )
    _add_bench_selection(p)
    p.add_argument(
        "--out-dir", default=".", help="where to write the baseline files"
    )
    p.add_argument(
        "--trace-out-dir",
        help="also write each scenario's Chrome trace as TRACE_<scenario>.json",
    )
    _add_store_arguments(p)
    p.set_defaults(func=cmd_bench_run)
    p = bench_sub.add_parser(
        "compare",
        help="re-run scenarios and report against the baselines (always exit 0)",
    )
    _add_bench_selection(p)
    _add_gate_knobs(p)
    p.add_argument("--json", action="store_true", help="emit the reports as JSON")
    p.set_defaults(func=cmd_bench_compare)
    p = bench_sub.add_parser(
        "gate",
        help="the regression gate: exit 3 when any scenario regresses",
    )
    _add_bench_selection(p)
    _add_gate_knobs(p)
    p.add_argument(
        "--out-dir",
        help="write fresh BENCH/GATE/DIFF artifacts here (CI uploads)",
    )
    p.add_argument(
        "--history-store",
        metavar="DIR",
        help="history-aware mode: additionally judge each scenario's newest "
        "recorded run in this telemetry warehouse against the window before it",
    )
    p.add_argument(
        "--history-window",
        type=int,
        default=5,
        help="sliding window of recorded runs for --history-store",
    )
    p.set_defaults(func=cmd_bench_gate)

    p = subparsers.add_parser(
        "margot-header", help="generate margot.h from a margot config"
    )
    p.add_argument("config", help="JSON configuration (see repro.margot.config)")
    p.add_argument("--out", help="write the header to this file")
    _add_dse_arguments(p)
    p.set_defaults(func=cmd_margot_header)

    p = subparsers.add_parser("table1", help="regenerate Table I")
    p.set_defaults(func=cmd_table1)

    p = subparsers.add_parser(
        "experiments", help="run the paper's full evaluation (Table I + Figs 3-5)"
    )
    _add_dse_arguments(p)
    p.set_defaults(func=cmd_experiments)

    p = subparsers.add_parser("fig3", help="regenerate Figure 3")
    _add_machine_argument(p)
    p.add_argument("--apps", help="comma-separated subset of benchmarks")
    _add_dse_arguments(p)
    p.set_defaults(func=cmd_fig3)

    p = subparsers.add_parser("fig4", help="regenerate Figure 4")
    _add_machine_argument(p)
    p.add_argument("--app", default="2mm")
    p.add_argument("--steps", type=_count, default=20)
    _add_dse_arguments(p)
    p.set_defaults(func=cmd_fig4)

    p = subparsers.add_parser("fig5", help="regenerate Figure 5")
    _add_machine_argument(p)
    p.add_argument("--app", default="2mm")
    p.add_argument("--duration", type=_seconds, default=300.0)
    _add_dse_arguments(p)
    p.set_defaults(func=cmd_fig5)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit:
        # usage errors (exit 2, named flag on stderr) and --help (exit 0)
        return exit.code
    try:
        return args.func(args)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
