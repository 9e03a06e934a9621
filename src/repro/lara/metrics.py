"""Table I metrics: Att, Act, O-LOC, W-LOC, D-LOC, Bloat.

``weave_benchmark`` runs both strategies on one benchmark and measures
everything the paper's Table I reports:

* **Att** — attributes checked on the source (join-point reads);
* **Act** — actions performed on the code (weaver mutations);
* **O-LOC / W-LOC / D-LOC** — logical lines of the original and weaved
  translation units and their difference;
* **Bloat** — D-LOC divided by the logical LOC of the strategy
  implementation itself (Lopes & Kiczales' metric: how many lines of C
  are generated per line of aspect code).  The paper's complete LARA
  strategy is 265 logical lines; ours is *measured* from the strategy
  sources with :func:`strategy_loc`.
"""

from __future__ import annotations

import functools
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.cir import logical_lines, to_source
from repro.gcc.flags import FlagConfiguration
from repro.lara.strategies.autotuner import AutotunerStrategy
from repro.lara.strategies.multiversioning import MultiversioningStrategy, VersionSpec
from repro.lara.weaver import WeavePlan, Weaver
from repro.machine.openmp import BindingPolicy
from repro.polybench.apps.base import BenchmarkApp


@dataclass(frozen=True)
class WeavingReport:
    """One row of Table I."""

    benchmark: str
    attributes: int
    actions: int
    original_loc: int
    weaved_loc: int
    strategy_lines: int

    @property
    def delta_loc(self) -> int:
        return self.weaved_loc - self.original_loc

    @property
    def bloat(self) -> float:
        return self.delta_loc / self.strategy_lines if self.strategy_lines else 0.0


def python_logical_lines(source: str) -> int:
    """Logical lines of Python code: statements, excluding comments,
    blank lines and docstrings (measured via the token stream)."""
    lines = set()
    docstring_candidates = set()
    previous_significant = None
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            continue
        if token.type == tokenize.STRING and previous_significant in (None, ":", "NEWLINE"):
            # module/class/function docstring: spans its own lines
            for line in range(token.start[0], token.end[0] + 1):
                docstring_candidates.add(line)
            previous_significant = "NEWLINE"
            continue
        for line in range(token.start[0], token.end[0] + 1):
            lines.add(line)
        previous_significant = token.string if token.type == tokenize.OP else "tok"
    return len(lines - docstring_candidates)


@functools.lru_cache(maxsize=None)
def _module_loc(path: str) -> int:
    """Logical LOC of one source file, read and tokenized once per process."""
    return python_logical_lines(Path(path).read_text())


def strategy_loc(extra_modules: Sequence[str] = ()) -> int:
    """Measured logical LOC of the strategy implementation sources.

    This is the denominator of the Bloat metric — the analogue of the
    paper's "265 logical lines of LARA strategy code".  Each file is
    measured once per process: a source file does not change under a
    running program.
    """
    import repro.lara.strategies.autotuner as autotuner_module
    import repro.lara.strategies.multiversioning as multiversioning_module

    modules = [multiversioning_module.__file__, autotuner_module.__file__]
    return sum(_module_loc(str(path)) for path in [*modules, *extra_modules])


def default_versions(
    compiler_configs: Sequence[FlagConfiguration],
) -> List[VersionSpec]:
    """The paper's version set: every CF crossed with both bindings."""
    return [
        VersionSpec(compiler=config, binding=binding)
        for config in compiler_configs
        for binding in (BindingPolicy.CLOSE, BindingPolicy.SPREAD)
    ]


def weave_benchmark(
    app: BenchmarkApp,
    compiler_configs: Sequence[FlagConfiguration],
    strategy_lines: Optional[int] = None,
) -> "tuple[WeavingReport, Weaver]":
    """Run Multiversioning + Autotuner on ``app`` and measure Table I.

    Returns the report and the weaver (whose unit holds the final
    adaptive source, printable with :func:`repro.cir.to_source`).
    """
    unit = app.parse()
    original_loc = logical_lines(unit)
    weaver = Weaver(unit)

    multiversioning = MultiversioningStrategy(default_versions(compiler_configs))
    mv_results = multiversioning.apply(weaver, list(app.kernels))

    autotuner = AutotunerStrategy()
    autotuner.apply(weaver, [result.wrapper for result in mv_results.values()])
    weaver.plan = WeavePlan(kernels=list(mv_results.values()))

    weaved_loc = logical_lines(weaver.unit)
    lines = strategy_lines if strategy_lines is not None else strategy_loc()
    report = WeavingReport(
        benchmark=app.name,
        attributes=weaver.metrics.attributes_checked,
        actions=weaver.metrics.actions_performed,
        original_loc=original_loc,
        weaved_loc=weaved_loc,
        strategy_lines=lines,
    )
    return report, weaver
