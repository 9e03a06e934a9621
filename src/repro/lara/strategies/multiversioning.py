"""The Multiversioning strategy (paper Section II, Figure 2b).

For every target kernel the strategy:

1. clones the kernel once per (compiler configuration x binding
   policy) version — the two knobs that must be fixed at compile time;
2. prepends ``#pragma GCC optimize("...")`` to each clone and rewrites
   its OpenMP worksharing pragmas to
   ``num_threads(<control var>) proc_bind(<policy>)`` — the thread
   count stays a runtime control variable because it "does not require
   to be known at compile time";
3. generates a *wrapper* that dispatches on the version control
   variable;
4. replaces every call to the kernel with a call to the wrapper.

The whole process is driven through join-point attribute reads and
weaver actions, so the paper's Att/Act metrics fall out of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.cir import (
    Block,
    Call,
    Decl,
    ExprStmt,
    FunctionDef,
    Ident,
    If,
    IntLit,
    BinOp,
    Type,
)
from repro.gcc.flags import FlagConfiguration
from repro.machine.openmp import BindingPolicy
from repro.lara.joinpoint import CallJp, FunctionJp
from repro.lara.weaver import Weaver

#: Names of the weaved control variables (exposed to mARGOt).
VERSION_VARIABLE = "__socrates_version"
THREADS_VARIABLE = "__socrates_num_threads"


@dataclass(frozen=True)
class VersionSpec:
    """One compile-time version: compiler configuration + binding."""

    compiler: FlagConfiguration
    binding: BindingPolicy

    @property
    def suffix(self) -> str:
        return f"{self.compiler.mangled}_{self.binding.value}"

    @property
    def description(self) -> str:
        return f"{self.compiler.label} proc_bind({self.binding.value})"


@dataclass
class MultiversioningResult:
    """What the strategy produced for one kernel."""

    kernel: str
    wrapper: str
    version_names: List[str]
    versions: List[VersionSpec]
    replaced_calls: int


class MultiversioningStrategy:
    """Clone-and-dispatch transformation over target kernels."""

    def __init__(self, versions: Sequence[VersionSpec]) -> None:
        if not versions:
            raise ValueError("at least one version is required")
        self._versions = list(versions)

    @property
    def versions(self) -> List[VersionSpec]:
        return list(self._versions)

    def apply(self, weaver: Weaver, kernels: Sequence[str]) -> Dict[str, MultiversioningResult]:
        """Weave every kernel of ``kernels``; returns per-kernel results."""
        self._insert_control_variables(weaver, kernels)
        results: Dict[str, MultiversioningResult] = {}
        for kernel in kernels:
            results[kernel] = self._weave_kernel(weaver, kernel)
        return results

    # -- steps ------------------------------------------------------------------

    def _insert_control_variables(self, weaver: Weaver, kernels: Sequence[str]) -> None:
        first_kernel = kernels[0] if kernels else None
        weaver.insert_global(
            Decl(type=Type(name="int"), name=VERSION_VARIABLE, init=IntLit(text="0")),
            before_function=first_kernel,
        )
        weaver.insert_global(
            Decl(type=Type(name="int"), name=THREADS_VARIABLE, init=IntLit(text="1")),
            before_function=first_kernel,
        )

    def _weave_kernel(self, weaver: Weaver, kernel: str) -> MultiversioningResult:
        target = weaver.select_function(kernel)
        # inspect the kernel: signature information (Att)
        target.attr("name")
        target.attr("signature")
        target.attr("return_type")
        param_names = target.attr("param_names")
        target.attr("param_types")
        target.attr("param_count")
        target.attr("storage")

        version_names: List[str] = []
        for index, version in enumerate(self._versions):
            version_names.append(self._make_version(weaver, target, index, version))

        wrapper_name = f"{kernel}__wrapper"
        wrapper = self._make_wrapper(weaver, target, wrapper_name, version_names, param_names)
        replaced = self._replace_calls(weaver, kernel, wrapper_name, version_names)
        return MultiversioningResult(
            kernel=kernel,
            wrapper=wrapper_name,
            version_names=version_names,
            versions=list(self._versions),
            replaced_calls=replaced,
        )

    def _make_version(
        self, weaver: Weaver, target: FunctionJp, index: int, version: VersionSpec
    ) -> str:
        name = f"{target.node.name}__v{index}_{version.suffix}"
        clone = weaver.clone_function(target, name)
        weaver.attach_pragma(clone, version.compiler.pragma_text)
        # inspect the loop structure of the clone: the strategy verifies
        # that every parallel loop is an outermost `for` with a known
        # induction variable before touching its pragma.  One index of
        # the clone serves every loop and pragma read: rewriting pragma
        # text leaves the tree's shape as indexed.
        index = weaver.index(clone.node.body)
        for loop_jp in clone.loops(index):
            loop_jp.attr("kind")
            loop_jp.attr("induction_variable")
            loop_jp.attr("is_innermost")
        for pragma_jp in clone.pragmas(index):
            if not pragma_jp.attr("is_omp"):
                continue
            if not pragma_jp.attr("is_parallel_for"):
                continue
            text = pragma_jp.attr("text")
            rewritten = (
                f"{text} num_threads({THREADS_VARIABLE}) "
                f"proc_bind({version.binding.omp_name})"
            )
            weaver.rewrite_pragma(pragma_jp.node, rewritten)
        return name

    def _make_wrapper(
        self,
        weaver: Weaver,
        target: FunctionJp,
        wrapper_name: str,
        version_names: Sequence[str],
        param_names: Sequence[str],
    ) -> FunctionJp:
        original = target.node
        args = [Ident(name=param) for param in param_names]

        def dispatch(index: int) -> "If | ExprStmt":
            call = ExprStmt(
                expr=Call(func=Ident(name=version_names[index]), args=[a.clone() for a in args])
            )
            if index == len(version_names) - 1:
                return call
            return If(
                cond=BinOp(
                    op="==", lhs=Ident(name=VERSION_VARIABLE), rhs=IntLit(text=str(index))
                ),
                then=Block(stmts=[call]),
                other=dispatch(index + 1),
            )

        wrapper = FunctionDef(
            return_type=original.return_type.clone(),
            name=wrapper_name,
            params=[param.clone() for param in original.params],
            body=Block(stmts=[dispatch(0)]),
        )
        return weaver.insert_function(wrapper, after=version_names[-1])

    def _replace_calls(
        self,
        weaver: Weaver,
        kernel: str,
        wrapper_name: str,
        version_names: Sequence[str],
    ) -> int:
        replaced = 0
        skip_functions = set(version_names) | {wrapper_name}
        for func in weaver.unit.functions():
            if func.name in skip_functions:
                continue
            for call_jp in self._calls_in(weaver, func, kernel):
                weaver.rename_call(call_jp, wrapper_name)
                replaced += 1
        return replaced

    @staticmethod
    def _calls_in(weaver: Weaver, func: FunctionDef, callee: str):
        from repro.cir import walk

        result = []
        for node in walk(func.body):
            if isinstance(node, Call):
                jp = CallJp(weaver, node)
                if jp.attr("name") == callee:
                    result.append(jp)
        return result
