"""Per-layer spans recorded from outside the program.

The program carries no tracing of its own.  :class:`Tracer` wraps the public
entry points of each layer's module at the sites that call them: a function
is replaced in every ``repro`` module that imported it by name (and, where a
caller reaches it through its defining module, there too); a method is
replaced on its class.  :meth:`Tracer.uninstall` puts every original back.

Each wrapped call is a span.  A call into a layer that is already on the
calling thread's span stack (recursion, or a re-entry through another layer)
is not a new span, so it counts once.  A layer's self time is the duration
of its spans minus the part covered by the spans they caused.  Every thread
has its own span stack, so the client and worker threads of an in-process
service core are traced side by side; their self times add up, and may then exceed the
wall.  Spans are aggregated in memory per layer as they close; nothing is
written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: ``(layer, defining module, entry points, patch the defining module too)``.
#: Entry points are ``name`` for functions and ``Class.method`` for methods.
#: The last flag is set where a caller reads the function through its
#: defining module at call time (a qualified ``module.name`` call or an
#: import inside a function body); it stays off where the defining module
#: only recurses into the function, which is the same layer anyway.
LAYERS: Sequence[Tuple[str, str, Tuple[str, ...], bool]] = (
    ("algorithm", "repro.core.algorithm",
     ("PreBisimulationChecker.__init__", "PreBisimulationChecker.run"), False),
    ("reachability", "repro.core.reachability",
     ("ReachabilityAnalysis.__init__",), False),
    ("wp", "repro.core.wp",
     ("wp_formula", "wp_set", "symbolic_leap", "exec_ops_symbolic",
      "transition_conditions", "initial_symbolic_store",
      "substitute_configuration"), False),
    ("simplify", "repro.logic.simplify",
     ("simplify_formula", "simplify_expr"), False),
    ("compile", "repro.logic.compile",
     ("lower_formula", "compile_entailment", "compile_validity"), False),
    ("fingerprint", "repro.logic.fingerprint",
     ("folbv_fingerprint", "confrel_fingerprint", "fingerprint",
      "intern_formula", "intern_term"), False),
    ("entailment", "repro.core.entailment",
     ("EntailmentChecker.__init__", "EntailmentChecker.check"), False),
    ("cache", "repro.smt.cache",
     ("CachingBackend.check_sat", "CachingBackend.lookup",
      "CachingBackend.store", "make_backend"), False),
    ("session", "repro.smt.incremental",
     ("IncrementalSession.__init__", "IncrementalSession.activation",
      "IncrementalSession.check", "IncrementalSession.failed_assumptions"),
     False),
    ("aig", "repro.smt.aig",
     ("FolbvToAig.lower_formula", "FolbvToAig.lower_term", "Aig.and_",
      "Aig.or_", "Aig.iff", "Aig.implies"), False),
    ("tseitin", "repro.smt.aig", ("AigToCnf.literal", "AigToCnf.cone"), False),
    ("cdcl", "repro.smt.sat.solver",
     ("CdclSolver.__init__", "CdclSolver.add_clause", "CdclSolver.solve",
      "CdclSolver.solve_values"), False),
    ("cegis", "repro.smt.cegis", ("solve_exists_forall",), False),
    ("model", "repro.logic.folbv", ("eval_formula",), True),
    ("model", "repro.smt.bvsolver", ("complete_model",), True),
    ("counterexample", "repro.core.counterexample",
     ("CounterexampleSearch.__init__", "CounterexampleSearch.search",
      "find_counterexample"), False),
    ("minimize", "repro.oracle.minimize",
     ("confirm_counterexample", "minimize_counterexample",
      "minimize_witness_packet"), True),
    ("synth", "repro.synth.pairs", ("synthesize_pair",), False),
    ("engine", "repro.core.engine", ("EquivalenceEngine.run",), False),
    ("certificate", "repro.core.certificate", ("verify_certificate",), False),
    ("store.get", "repro.service.store", ("VerdictStore.get",), False),
    ("store.put", "repro.service.store", ("VerdictStore.put",), False),
)

#: Span layers, in report order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


class Tracer:
    """Aggregated spans per layer: self time and span count."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.calls: Dict[str, int] = {name: 0 for name in LAYER_NAMES}
        self._threads = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    def _thread_state(self) -> Tuple[Dict[str, int], List[list]]:
        """The calling thread's open layers and span stack, innermost last:
        ``[layer, start, time covered by children]``."""
        try:
            return self._threads.state
        except AttributeError:
            state = ({name: 0 for name in LAYER_NAMES}, [])
            self._threads.state = state
            return state

    def wrap(self, layer: str, function: Callable) -> Callable:
        thread_state = self._thread_state
        lock = self._lock
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            active, stack = thread_state()
            if active[layer]:
                return function(*args, **kwargs)
            active[layer] = 1
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                active[layer] = 0
                with lock:
                    self_s[layer] += duration - frame[2]
                    calls[layer] += 1
                if stack:
                    stack[-1][2] += duration

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` at its call sites."""
        for layer, module_name, entries, patch_defining in LAYERS:
            module = importlib.import_module(module_name)
            for entry in entries:
                if "." in entry:
                    class_name, method = entry.split(".")
                    self._patch_method(layer, getattr(module, class_name), method)
                else:
                    self._patch_function(layer, module, entry, patch_defining)

    def _patch_method(self, layer: str, cls: type, method: str) -> None:
        original = cls.__dict__[method]
        setattr(cls, method, self.wrap(layer, original))
        self._restore.append(lambda: setattr(cls, method, original))

    def _patch_function(self, layer: str, module, name: str,
                        patch_defining: bool) -> None:
        original = getattr(module, name)
        traced = self.wrap(layer, original)
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "")
            if not (other_name == "repro" or other_name.startswith("repro.")):
                continue
            if other is module and not patch_defining:
                continue
            for attribute, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attribute, traced)
                    self._restore.append(
                        lambda o=other, a=attribute: setattr(o, a, original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
