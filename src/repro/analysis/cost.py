"""The static cost oracle and the lattice :class:`PrunePlan`.

Three layers:

* :func:`kernel_cost_report` — kernel work/footprint estimates
  derived *statically* from the interval + interprocedural analyses
  (:mod:`repro.analysis.intervals`, :mod:`repro.analysis.interproc`):
  the kernel's trip-weighted operation counts (its function summary),
  per-array footprints, operational intensity, and each top-level
  loop nest's depth, iterations and footprint.
* :func:`cross_validate` — relative errors of the oracle against the
  workload profiler and the Milepost feature vector.  Pruning only
  activates when the oracle demonstrably understands the kernel
  (``trusted``); an unanalyzable kernel yields an empty plan, never a
  wrong one.
* :func:`build_prune_plan` — the consumer-facing artifact.  A
  :class:`RooflinePredictor` projects every lattice point onto the
  machine model's noise-free roofline, and points that are
  *margin-dominated* — some other point is predicted faster **and**
  lower-power by at least ``margin`` on both axes — are masked.  The
  margin is many standard deviations of the measurement noise
  (σ≈1.2% per repetition), so a masked point cannot sit on the noisy
  Pareto front: the seeded front of a pruned exploration is
  bit-identical to the full one (enforced by tests and the
  ``static-prune`` CI job).

Flag-safety verdicts (:mod:`repro.analysis.flagsafety`) ride along in
the plan for the COBAYN corpus builder, which may exclude unsafe
fast-math configurations from its iterative-compilation sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.flagsafety import (
    FlagSafetyVerdict,
    flag_safety_verdict,
    unsafe_config_labels,
)
from repro.analysis.interproc import summarize_unit
from repro.analysis.intervals import array_footprints
from repro.cir import ast
from repro.cir.analysis import LoopInfo, collect_loops, eval_const
from repro.polybench.workload import (
    _FLOAT_BYTES,
    _INT_BYTES,
    WorkloadProfile,
    _is_floating_type,
    bound_environment,
)

__all__ = [
    "DEFAULT_PRUNE_MARGIN",
    "ORACLE_TOLERANCE",
    "KernelCostReport",
    "LoopNestCost",
    "PrunePlan",
    "PrunedPoint",
    "RooflinePredictor",
    "build_prune_plan",
    "cross_validate",
    "kernel_cost_report",
    "point_key",
]

#: Minimum mutual predicted advantage (on both time and power) before a
#: lattice point is masked.  Noise factors are lognormal with
#: sigma=0.02 (time) / 0.012 (power); a 12% margin is >5 sigma even at
#: a single repetition, so margin-dominated points stay off the noisy
#: Pareto front.
DEFAULT_PRUNE_MARGIN = 0.12

#: Maximum relative error of the oracle vs. the workload profiler for
#: a kernel to count as understood.
ORACLE_TOLERANCE = 0.35


@dataclass(frozen=True)
class LoopNestCost:
    """Shape and footprint of one top-level loop nest."""

    function: str
    induction: Optional[str]
    depth: int
    iterations: float
    footprint_bytes: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "induction": self.induction,
            "depth": self.depth,
            "iterations": self.iterations,
            "footprint_bytes": self.footprint_bytes,
        }


@dataclass(frozen=True)
class KernelCostReport:
    """The oracle's view of one kernel function."""

    kernel: str
    nests: Tuple[LoopNestCost, ...]
    flops: float
    int_ops: float
    loads: float
    stores: float
    footprint_bytes: float
    max_depth: int
    resolved: bool

    @property
    def naive_bytes(self) -> float:
        return (self.loads + self.stores) * _FLOAT_BYTES

    @property
    def operational_intensity(self) -> float:
        if self.naive_bytes == 0:
            return 0.0
        return self.flops / self.naive_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "nests": [nest.as_dict() for nest in self.nests],
            "flops": self.flops,
            "int_ops": self.int_ops,
            "loads": self.loads,
            "stores": self.stores,
            "footprint_bytes": self.footprint_bytes,
            "naive_bytes": self.naive_bytes,
            "operational_intensity": self.operational_intensity,
            "max_depth": self.max_depth,
            "resolved": self.resolved,
        }


def _declared_arrays(
    unit: ast.TranslationUnit, env: Mapping[str, int]
) -> Dict[str, Tuple[Tuple[int, ...], float]]:
    """Global array name -> (dims, element bytes)."""
    arrays: Dict[str, Tuple[Tuple[int, ...], float]] = {}
    for decl in unit.decls:
        if not (isinstance(decl, ast.Decl) and decl.array_dims):
            continue
        dims: List[int] = []
        for dim in decl.array_dims:
            value = eval_const(dim, dict(env))
            if value is None:
                dims = []
                break
            dims.append(value)
        if not dims:
            continue
        element_bytes = (
            _FLOAT_BYTES if _is_floating_type(unit, decl.type.name) else _INT_BYTES
        )
        arrays[decl.name] = (tuple(dims), element_bytes)
    return arrays


def kernel_cost_report(
    unit: ast.TranslationUnit,
    kernel: str,
    env: Optional[Mapping[str, int]] = None,
) -> KernelCostReport:
    """Statically estimate the work and footprint of ``kernel``.

    ``env`` supplies macro/parameter constants (defaults to
    :func:`repro.polybench.workload.bound_environment`).
    """
    if env is None:
        env = bound_environment(unit)
    env = dict(env)
    try:
        func = unit.function(kernel)
    except KeyError:
        raise ValueError(
            f"no function {kernel!r} in unit {unit.name!r}"
        ) from None
    summary = summarize_unit(unit, env)[kernel]
    facts = summary.facts
    declared = _declared_arrays(unit, env)
    declared_dims = {name: dims for name, (dims, _) in declared.items()}
    nests: List[LoopNestCost] = []
    array_bytes: Dict[str, float] = {}
    for info in collect_loops(func.body):
        if info.parent is not None:
            continue
        footprint = 0.0
        for name, fp in array_footprints(
            info.node, facts, env, declared_dims
        ).items():
            nest_bytes = fp.bytes(declared.get(name, ((), _FLOAT_BYTES))[1])
            footprint += nest_bytes
            # the kernel-level working set counts each array once, at
            # its widest extent over all nests
            array_bytes[name] = max(array_bytes.get(name, 0.0), nest_bytes)
        nests.append(
            LoopNestCost(
                function=func.name,
                induction=info.induction_variable,
                depth=1 + child_depth(info),
                iterations=_nest_iterations(info, env, facts),
                footprint_bytes=footprint,
            )
        )
    # the summary's walk covers every nest, so its flag already says
    # whether any nest (or the interval facts) failed to resolve
    return KernelCostReport(
        kernel=kernel,
        nests=tuple(nests),
        flops=summary.flops,
        int_ops=summary.int_ops,
        loads=summary.loads,
        stores=summary.stores,
        footprint_bytes=sum(array_bytes.values()),
        max_depth=summary.max_depth,
        resolved=summary.resolved,
    )


def child_depth(info: LoopInfo) -> int:
    if not info.children:
        return 0
    return 1 + max(child_depth(child) for child in info.children)


def _nest_iterations(
    info: LoopInfo, env: Mapping[str, int], facts
) -> float:
    """Total innermost iterations of a nest (midpoint convention)."""
    constants = facts.constants_at(info.node)
    local_env = dict(env)
    local_env.update(constants)
    trip = info.trip_count(local_env)
    if trip is None:
        return 0.0
    total = float(max(1, trip))
    midpoint = info.midpoint(local_env)
    iv = info.induction_variable
    if iv is not None and midpoint is not None:
        local_env[iv] = midpoint
    best_child = 0.0
    for child in info.children:
        best_child = max(best_child, _nest_iterations(child, local_env, facts))
    return total * best_child if info.children else total


def cross_validate(
    report: KernelCostReport,
    profile: WorkloadProfile,
    features=None,
) -> Dict[str, float]:
    """Relative errors of the oracle vs. profiler (and Milepost)."""

    def relative(oracle: float, reference: float) -> float:
        return abs(oracle - reference) / max(1.0, abs(reference))

    errors = {
        "flops": relative(report.flops, profile.flops),
        "memory_ops": relative(
            report.loads + report.stores, profile.loads + profile.stores
        ),
        "working_set": relative(report.footprint_bytes, profile.working_set_bytes),
        "intensity": relative(
            report.operational_intensity, profile.arithmetic_intensity
        ),
    }
    if features is not None:
        errors["loop_depth"] = relative(
            float(report.max_depth), float(features["ft17_loop_nest_depth"])
        )
    return errors


# ---------------------------------------------------------------------------
# lattice prediction and pruning
# ---------------------------------------------------------------------------


def point_key(point) -> str:
    """Canonical string identity of a design point."""
    cluster = point.cluster if point.cluster is not None else "-"
    return f"{point.compiler.label}|t{point.threads}|{point.binding.value}|{cluster}"


class RooflinePredictor:
    """Noise-free (time, power) prediction for lattice points.

    Runs the same closed-form compiler + machine model the engine's
    truth computation uses — without touching the engine (no counters,
    no caches, no noise stream), so predictions are free of
    measurement side effects.  One compilation per distinct flag
    configuration, one placement per (threads, binding, cluster).
    """

    def __init__(self, executor, omp, compiler=None) -> None:
        from repro.gcc.compiler import Compiler

        self._compiler = compiler or Compiler()
        self._executor = executor
        self._omp = omp
        self._kernels: Dict[str, object] = {}
        self._placements: Dict[Tuple[int, str, Optional[str]], object] = {}

    def predict(self, profile: WorkloadProfile, point) -> Tuple[float, float]:
        from repro.machine.openmp import BindingPolicy

        label = point.compiler.label
        kernel = self._kernels.get(label)
        if kernel is None:
            kernel = self._compiler.compile(profile, point.compiler)
            self._kernels[label] = kernel
        placement_key = (point.threads, point.binding.value, point.cluster)
        placement = self._placements.get(placement_key)
        if placement is None:
            placement = self._omp.place(
                point.threads,
                BindingPolicy(point.binding.value),
                cluster=point.cluster,
            )
            self._placements[placement_key] = placement
        result = self._executor.evaluate(kernel, placement)
        return result.time_s, result.power_w


@dataclass(frozen=True)
class PrunedPoint:
    """One masked lattice point and why it cannot be Pareto-optimal."""

    key: str
    reason: str
    dominated_by: str
    predicted_time_s: float
    predicted_power_w: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "reason": self.reason,
            "dominated_by": self.dominated_by,
            "predicted_time_s": self.predicted_time_s,
            "predicted_power_w": self.predicted_power_w,
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], what: str = "masked point"
    ) -> "PrunedPoint":
        _require_keys(data, ("key", "reason"), what)
        return cls(
            key=str(data["key"]),
            reason=str(data["reason"]),
            dominated_by=str(data.get("dominated_by", "")),
            predicted_time_s=_number(data, "predicted_time_s", float, what, 0.0),
            predicted_power_w=_number(data, "predicted_power_w", float, what, 0.0),
        )


def _require_keys(data: object, keys: Sequence[str], what: str) -> None:
    """Raise a ValueError naming ``what`` unless ``data`` is a JSON
    object holding every one of ``keys``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} is not a JSON object (got {type(data).__name__})")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} lacks required key {key!r}")


def _number(data: Mapping[str, object], key: str, convert, what: str, default=None):
    """``convert(data[key])`` (``default`` when absent), or a ValueError
    naming ``what`` and ``key``."""
    value = data.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} {key!r} is not a number: {value!r}") from None


def _member(data: Mapping[str, object], key: str, kind: type, what: str):
    """``data[key]`` (an empty ``kind`` when absent), or a ValueError
    naming ``what`` and ``key`` unless it is a ``kind``: ``dict`` for a
    JSON object or ``list``."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        noun = "JSON object" if kind is dict else "list"
        raise ValueError(f"{what} {key!r} is not a {noun} (got {type(value).__name__})")
    return value


@dataclass
class PrunePlan:
    """Statically-masked lattice points plus flag-safety verdicts.

    Round-trips through JSON (``as_dict``/``from_dict``) so plans can
    be written by ``socrates check --prune-plan`` and consumed later
    by ``socrates dse --prune-plan``.
    """

    app: str
    kernel: str
    margin: float
    trusted: bool
    space_size: int
    masked: Dict[str, PrunedPoint] = field(default_factory=dict)
    validation: Dict[str, float] = field(default_factory=dict)
    flag_safety: FlagSafetyVerdict = field(
        default_factory=lambda: FlagSafetyVerdict((), (), ())
    )

    def is_masked(self, point) -> bool:
        return point_key(point) in self.masked

    def record(self, pruned: PrunedPoint) -> None:
        self.masked[pruned.key] = pruned

    @property
    def masked_count(self) -> int:
        return len(self.masked)

    def masked_fraction(self) -> float:
        if not self.space_size:
            return 0.0
        return self.masked_count / self.space_size

    def excluded_config_labels(self, configs: Sequence) -> Tuple[str, ...]:
        """Flag configurations the safety verdict rules out entirely."""
        return unsafe_config_labels(self.flag_safety, configs)

    def as_dict(self) -> Dict[str, object]:
        return {
            "format": 1,
            "app": self.app,
            "kernel": self.kernel,
            "margin": self.margin,
            "trusted": self.trusted,
            "space_size": self.space_size,
            "validation": dict(sorted(self.validation.items())),
            "flag_safety": self.flag_safety.as_dict(),
            "masked": [
                self.masked[key].as_dict() for key in sorted(self.masked)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PrunePlan":
        """Rebuild a plan from :meth:`as_dict`; a malformed document is
        a ValueError that names the offending part."""
        what = "prune plan"
        _require_keys(data, (), what)
        if data.get("format") != 1:
            raise ValueError(
                f"unsupported prune-plan format {data.get('format')!r}"
            )
        _require_keys(data, ("app", "kernel", "margin", "trusted", "space_size"), what)
        validation = _member(data, "validation", dict, what)
        flag_safety = _member(data, "flag_safety", dict, what)
        for key in ("unsafe_flags", "pointless_flags", "rules"):
            _member(flag_safety, key, list, f"{what} flag_safety")
        masked = _member(data, "masked", list, what)
        plan = cls(
            app=str(data["app"]),
            kernel=str(data["kernel"]),
            margin=_number(data, "margin", float, what),
            trusted=bool(data["trusted"]),
            space_size=_number(data, "space_size", int, what),
            validation={
                str(name): _number(validation, name, float, f"{what} validation")
                for name in validation
            },
            flag_safety=FlagSafetyVerdict.from_dict(flag_safety),
        )
        for index, entry in enumerate(masked):
            plan.record(PrunedPoint.from_dict(entry, what=f"{what} masked[{index}]"))
        return plan

    @classmethod
    def load(cls, path) -> "PrunePlan":
        """Read a plan file written by ``socrates check --prune-plan``;
        every defect is a ValueError that starts with ``path``."""
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            raise ValueError(f"{path}: cannot read prune plan ({error})") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON ({error})") from None
        try:
            return cls.from_dict(data)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None


def _margin_dominated(
    predictions: List[Tuple[str, float, float]], margin: float
) -> List[Tuple[str, str, float, float]]:
    """(key, dominator, time, power) for every margin-dominated point."""
    dominated: List[Tuple[str, str, float, float]] = []
    # sorted by time: only faster points can margin-dominate on time
    by_time = sorted(predictions, key=lambda item: item[1])
    for key, time_s, power_w in predictions:
        time_limit = time_s * (1.0 - margin)
        power_limit = power_w * (1.0 - margin)
        for other_key, other_time, other_power in by_time:
            if other_time > time_limit:
                break
            if other_key != key and other_power <= power_limit:
                dominated.append((key, other_key, time_s, power_w))
                break
    return dominated


def build_prune_plan(
    app,
    space,
    *,
    kernel: Optional[str] = None,
    unit: Optional[ast.TranslationUnit] = None,
    profile: Optional[WorkloadProfile] = None,
    features=None,
    executor=None,
    omp=None,
    machine=None,
    margin: float = DEFAULT_PRUNE_MARGIN,
    tolerance: float = ORACLE_TOLERANCE,
) -> PrunePlan:
    """Compile the static verdicts for ``app`` over ``space`` into a plan.

    The plan masks a point only when (a) the cost oracle's estimates
    cross-validate against the workload profiler and Milepost features
    within ``tolerance``, and (b) the roofline predictor finds another
    point at least ``margin`` better on *both* time and power.  An
    untrusted oracle yields an empty (but well-formed) plan.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must be in (0, 1), got {margin}")
    from repro.machine.executor import MachineExecutor
    from repro.machine.openmp import OpenMPRuntime
    from repro.machine.registry import resolve_machine
    from repro.milepost.features import extract_features
    from repro.polybench.workload import profile_kernel

    if unit is None:
        unit = app.parse()
    kernel_name = kernel or app.kernels[0]
    if profile is None:
        profile = profile_kernel(app, kernel_name, unit=unit)
    if features is None:
        features = extract_features(unit, kernel_name)
    if executor is None or omp is None:
        resolved = resolve_machine(
            machine if machine is not None else getattr(executor, "machine", None)
        )
        executor = executor or MachineExecutor(resolved)
        omp = omp or OpenMPRuntime(executor.machine)

    env = bound_environment(unit)
    report = kernel_cost_report(unit, kernel_name, env)
    errors = cross_validate(report, profile, features)
    trusted = report.resolved and all(
        value <= tolerance for value in errors.values()
    )
    verdict = flag_safety_verdict(unit, kernel_name)
    plan = PrunePlan(
        app=app.name,
        kernel=kernel_name,
        margin=margin,
        trusted=trusted,
        space_size=space.size,
        validation=errors,
        flag_safety=verdict,
    )
    if not trusted:
        return plan
    predictor = RooflinePredictor(executor, omp)
    predictions = [
        (point_key(point),) + predictor.predict(profile, point)
        for point in space.points()
    ]
    for key, dominator, time_s, power_w in _margin_dominated(predictions, margin):
        plan.record(
            PrunedPoint(
                key=key,
                reason=(
                    f"margin-dominated: {dominator} is predicted >="
                    f"{margin:.0%} faster and lower-power"
                ),
                dominated_by=dominator,
                predicted_time_s=time_s,
                predicted_power_w=power_w,
            )
        )
    return plan
