"""The Autotuner strategy (paper Section II, Figure 2c).

Integrates mARGOt into the (already multiversioned) application:

1. insert the generated ``margot.h`` header;
2. insert the initialization call at the top of ``main``;
3. expose the control variables to the autotuner and surround every
   wrapper call with the mARGOt API::

       margot_update(&__socrates_version, &__socrates_num_threads);
       margot_start_monitor();
       kernel__wrapper(...);
       margot_stop_monitor();
       margot_log();
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cir import Call, ExprStmt, Ident, NodeIndex, UnaryOp
from repro.lara.strategies.multiversioning import (
    THREADS_VARIABLE,
    VERSION_VARIABLE,
)
from repro.lara.weaver import Weaver

# The weave-point contract lives in repro.margot.weavepoints so the
# weave verifier checks exactly what this strategy inserts; the names
# are re-exported here for backwards compatibility.
from repro.margot.weavepoints import (
    INIT_CALL,
    LOG_CALL,
    MARGOT_HEADER,
    START_MONITOR_CALL,
    STOP_MONITOR_CALL,
    UPDATE_CALL,
)


@dataclass
class AutotunerResult:
    """What the strategy weaved for one kernel wrapper."""

    wrapper: str
    instrumented_calls: int


class AutotunerStrategy:
    """Weaves the mARGOt adaptation layer around kernel wrappers."""

    def apply(
        self, weaver: Weaver, wrappers: Sequence[str], main: str = "main"
    ) -> Dict[str, AutotunerResult]:
        """Instrument every call to each wrapper inside the application."""
        weaver.insert_include(MARGOT_HEADER, system=False)
        self._insert_init(weaver, main)
        results: Dict[str, AutotunerResult] = {}
        for wrapper in wrappers:
            results[wrapper] = self._instrument_wrapper(weaver, wrapper)
        return results

    def _insert_init(self, weaver: Weaver, main: str) -> None:
        main_jp = weaver.select_function(main)
        main_jp.attr("name")
        main_jp.attr("has_body")
        init_stmt = ExprStmt(expr=Call(func=Ident(name=INIT_CALL), args=[]))
        weaver.insert_at_function_entry(main_jp.node, init_stmt)

    def _instrument_wrapper(self, weaver: Weaver, wrapper: str) -> AutotunerResult:
        instrumented = 0
        # indexed per wrapper, so the select also sees the calls woven
        # around earlier wrappers; the insertions below only add
        # statements around existing calls, so each call's owner stays
        # as indexed
        index = weaver.index()
        for call_jp in weaver.select_calls_to(wrapper, index):
            call_jp.attr("arg_count")
            owner = self._owning_function(weaver, call_jp.node, index)
            anchor = weaver.statement_containing_call(owner, call_jp.node)
            update = ExprStmt(
                expr=Call(
                    func=Ident(name=UPDATE_CALL),
                    args=[
                        UnaryOp(op="&", operand=Ident(name=VERSION_VARIABLE)),
                        UnaryOp(op="&", operand=Ident(name=THREADS_VARIABLE)),
                    ],
                )
            )
            start = ExprStmt(expr=Call(func=Ident(name=START_MONITOR_CALL), args=[]))
            stop = ExprStmt(expr=Call(func=Ident(name=STOP_MONITOR_CALL), args=[]))
            log = ExprStmt(expr=Call(func=Ident(name=LOG_CALL), args=[]))
            weaver.insert_statement_before(owner, anchor, update)
            weaver.insert_statement_before(owner, anchor, start)
            weaver.insert_statement_after(owner, anchor, log)
            weaver.insert_statement_after(owner, anchor, stop)
            instrumented += 1
        return AutotunerResult(wrapper=wrapper, instrumented_calls=instrumented)

    @staticmethod
    def _owning_function(weaver: Weaver, call: Call, index: Optional[NodeIndex] = None):
        owner = (index if index is not None else weaver.index()).owner(call)
        if owner is None:
            raise RuntimeError("call does not belong to any function")
        return owner
