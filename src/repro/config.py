"""The checker configuration: one declarative knob table.

Every :class:`CheckerConfig` field carries a :class:`Knob` in its
``dataclasses.field`` metadata: whether the field is *semantic* (it can
change the reported result, so it is fingerprinted, and with ``wire`` it
travels to the daemon) or *perf-only*, and which ``LEAPFROG_*`` variable
and CLI flag set it.  Everything else derives from that table: the one
flags → environment → default resolver of every checking command
(:func:`resolve_config`), their argparse flags (:func:`add_knob_arguments`),
the verdict-store fingerprint and the service's wire options
(:data:`SEMANTIC_FIELDS`, :data:`WIRE_FIELDS`), the engine overlay
(:meth:`CheckerConfig.with_defaults_from`) and the knob table of
``docs/cli.md`` (:func:`knob_rows`).  :func:`repro.smt.cache.make_backend`
builds the solver stack a config selects.
"""

from __future__ import annotations

import os
from dataclasses import Field, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from . import envconfig
from .envconfig import EnvConfigError
from .smt.backend import check_solver_selection
from .smt.sat.solver import DEFAULT_CLAUSE_DB_MAX

if TYPE_CHECKING:
    import argparse

#: The commands that check equivalence and so build a :class:`CheckerConfig`.
CHECK = "check"
TABLE = "table"
SCENARIOS_RUN = "scenarios run"
SYNTH_RUN = "synth run"
CAMPAIGN_RUN = "campaign run"
CHECKING_COMMANDS = (CHECK, TABLE, SCENARIOS_RUN, SYNTH_RUN, CAMPAIGN_RUN)
#: Prints synthesized pairs; shares ``synth run``'s base seed.
SYNTH_EMIT = "synth emit"

#: The ``LEAPFROG_*`` variables that configure the run rather than the
#: checker, with their meaning (rendered into ``docs/cli.md``).
RUN_VARIABLES = {
    envconfig.JOBS_VAR: "engine worker processes (`serve`: worker threads); default 1",
    envconfig.SHARDS_VAR: "shard count for `campaign run`; default 1",
    envconfig.SERVER_VAR: "address of a `serve` daemon (socket path or "
                          "`http://host:port`) to check on; default in-process",
    envconfig.FULL_VAR: "paper-sized case studies in the benchmarks; default off",
}

_KNOB = "knob"


@dataclass(frozen=True)
class Knob:
    """How one :class:`CheckerConfig` field is classified and set.

    ``parse(raw, source)`` validates a raw flag or environment value (``None``
    when unset).  A flag with a ``const`` takes no value and stores ``const``
    (``--no-leaps`` stores ``False``).  ``unset`` describes a ``None``
    default in help text.  ``wire`` is the coercion a wire option goes
    through on the daemon side; only semantic knobs travel.
    """

    semantic: bool
    wire: Optional[Callable[[object], object]] = None
    env: Optional[str] = None
    parse: Optional[Callable[[Optional[str], str], object]] = None
    flag: Optional[str] = None
    const: object = None
    commands: Tuple[str, ...] = ()
    help: str = ""
    metavar: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    unset: str = ""


def _semantic(default, **spec) -> Field:
    return field(default=default, metadata={_KNOB: Knob(semantic=True, **spec)})


def _perf(default, **spec) -> Field:
    return field(default=default, metadata={_KNOB: Knob(semantic=False, **spec)})


@dataclass
class CheckerConfig:
    """Tunable behaviour of the pre-bisimulation checker.

    ``use_leaps`` and ``use_reachability`` are the two optimizations of
    Section 5, switchable for the ablation benchmarks.  The perf knobs pick
    and tune the solver stack (:func:`repro.smt.cache.make_backend`) when
    the checker builds its own backend; none of them changes a verdict.
    ``use_incremental`` keeps one assumption-based solver session per run;
    ``use_aig`` simplifies in the AIG lowering (off, it only interns);
    ``share_clauses`` trades short learned clauses between workers through
    a channel in ``cache_dir``, which it requires; ``clause_db_max`` caps
    the CDCL learned-clause database (``None`` = the solver default).

    ``oracle_packets`` enables the differential concrete oracle: after a
    language-equivalence verdict that many seeded random packets run through
    both parsers; an ``equivalent`` verdict contradicted by a packet raises
    (a soundness bug) and a contradicted ``unknown`` becomes a refutation
    with a concrete witness.  ``minimize_counterexamples`` shrinks every
    extracted witness before it is reported.
    """

    use_leaps: bool = _semantic(
        True, wire=bool, flag="--no-leaps", const=False, commands=(CHECK,),
        help="disable the leaps optimization",
    )
    use_reachability: bool = _semantic(
        True, wire=bool, flag="--no-reachability", const=False, commands=(CHECK,),
        help="disable reachable-pair pruning",
    )
    entailment_mode: str = _semantic("exact")  # repro.core.entailment.EXACT
    max_iterations: int = _semantic(200_000)
    track_memory: bool = _perf(True)
    frontier_order: str = _semantic("fifo")  # or "lifo"
    use_query_cache: bool = _perf(
        True, flag="--no-cache", const=False, commands=(CHECK,),
        help="disable the solver-query cache entirely (overrides --cache-dir)",
    )
    cache_dir: Optional[str] = _perf(
        None, env=envconfig.CACHE_DIR_VAR, parse=envconfig.parse_text,
        flag="--cache-dir", commands=(CHECK, TABLE), unset="in-memory only",
        help="persist the solver-query cache to this directory, shared by "
             "all workers",
    )
    use_incremental: bool = _perf(
        True, env=envconfig.INCREMENTAL_VAR, parse=envconfig.parse_flag,
        flag="--no-incremental", const=False, commands=(CHECK, TABLE),
        help="disable the incremental solver session, one-shot query per "
             "check",
    )
    use_aig: bool = _perf(
        True, env=envconfig.AIG_VAR, parse=envconfig.parse_flag,
        flag="--no-aig", const=False, commands=(CHECK, TABLE),
        help="disable AIG simplification in the solver's lowering pipeline",
    )
    oracle_packets: int = _semantic(
        0, wire=int, env=envconfig.ORACLE_VAR,
        parse=envconfig.parse_oracle_packets, flag="--oracle-packets",
        commands=CHECKING_COMMANDS, metavar="N",
        help="cross-check every verdict against N seeded random packets run "
             "through both parsers concretely; 0/off disables, on = "
             f"{envconfig.DEFAULT_ORACLE_PACKETS}",
    )
    oracle_seed: Optional[int] = _semantic(
        None, wire=int, env=envconfig.SEED_VAR, parse=envconfig.parse_seed,
        flag="--seed", commands=CHECKING_COMMANDS + (SYNTH_EMIT,), metavar="S",
        unset="0", help="seed for the oracle's packet/store sampler",
    )
    minimize_counterexamples: bool = _semantic(
        True, wire=bool, flag="--no-minimize", const=False, commands=(CHECK,),
        help="report counterexamples as extracted, without greedy "
             "minimization",
    )
    solver: Optional[str] = _perf(
        None, env=envconfig.SOLVER_VAR, parse=envconfig.parse_solver,
        flag="--solver", commands=(CHECK, TABLE),
        choices=envconfig.SOLVER_CHOICES, unset="the internal CDCL solver",
        help="solver backend for entailment queries; external choices "
             "(z3, cvc5, cvc4, boolector) must be on PATH",
    )
    portfolio: bool = _perf(
        False, env=envconfig.PORTFOLIO_VAR, parse=envconfig.parse_flag,
        flag="--portfolio", const=True, commands=(CHECK, TABLE),
        help="race the internal solver against every external solver found "
             "on PATH, first definitive answer wins; excludes an external "
             "--solver",
    )
    share_clauses: bool = _perf(
        False, flag="--share-clauses", const=True, commands=(TABLE,),
        help="let workers exchange short learned clauses through a channel "
             "in --cache-dir; requires --cache-dir or LEAPFROG_CACHE_DIR",
    )
    clause_db_max: Optional[int] = _perf(
        None, env=envconfig.CLAUSE_DB_VAR, parse=envconfig.parse_clause_db,
        flag="--clause-db-max", commands=(CHECK, TABLE), metavar="N",
        unset=str(DEFAULT_CLAUSE_DB_MAX),
        help="cap the internal CDCL solver's learned-clause database at N "
             "clauses, periodically deleting high-LBD inactive clauses; 0 "
             "keeps every learned clause, also accepts on/off",
    )

    def with_defaults_from(self, overlay: Optional["CheckerConfig"]) -> "CheckerConfig":
        """This config, with every field it leaves at its default taken from
        ``overlay``; a field it sets explicitly is never replaced."""
        if overlay is None:
            return self
        return replace(self, **{
            item.name: getattr(overlay, item.name)
            for item in fields(self)
            if getattr(self, item.name) == item.default
        })


def knob_fields() -> Iterator[Tuple[Field, Knob]]:
    """Every :class:`CheckerConfig` field with its knob, in declaration order."""
    for item in fields(CheckerConfig):
        yield item, item.metadata[_KNOB]


#: Fields that can change the reported result: fingerprinted, in this order.
SEMANTIC_FIELDS = tuple(item.name for item, knob in knob_fields() if knob.semantic)
#: Semantic fields a client sends to the daemon as check options.
WIRE_FIELDS = tuple(item.name for item, knob in knob_fields() if knob.wire)


def wire_options(config: Optional[CheckerConfig]) -> Dict[str, object]:
    """``config``'s non-default :data:`WIRE_FIELDS`, as wire check options."""
    if config is None:
        return {}
    defaults = CheckerConfig()
    return {
        name: getattr(config, name) for name in WIRE_FIELDS
        if getattr(config, name) != getattr(defaults, name)
    }


def config_from_wire(options: Mapping[str, object]) -> CheckerConfig:
    """The config wire ``options`` describe (absent options keep defaults)."""
    return CheckerConfig(**{
        item.name: knob.wire(options[item.name])
        for item, knob in knob_fields()
        if knob.wire and options.get(item.name) is not None
    })


def resolve_config(
    args: Optional[argparse.Namespace] = None,
    environ: Optional[Mapping[str, str]] = None,
    base: Optional[CheckerConfig] = None,
) -> CheckerConfig:
    """A command's checker configuration: each knob from its flag in
    ``args``, else its environment variable, else ``base`` (default
    :class:`CheckerConfig`).

    A malformed variable raises :class:`~repro.envconfig.EnvConfigError`
    naming it, and a backend selection that cannot be built raises
    :class:`~repro.smt.backend.BackendError`, before any work starts.
    """
    environ = os.environ if environ is None else environ
    given = vars(args) if args is not None else {}
    changes = {}
    for item, knob in knob_fields():
        value = given.get(item.name)
        if value is None and knob.env is not None:
            value = knob.parse(environ.get(knob.env), knob.env)
        if value is not None:
            changes[item.name] = value
    config = replace(base if base is not None else CheckerConfig(), **changes)
    check_solver_selection(config.solver, config.portfolio)
    if config.share_clauses and config.cache_dir is None:
        raise EnvConfigError(
            "--share-clauses needs a shared directory; pass --cache-dir or "
            f"set {envconfig.CACHE_DIR_VAR}"
        )
    return config


def _describe(knob: Knob, value: object) -> str:
    if value is None:
        return knob.unset
    if isinstance(value, bool) or value == 0:
        return "on" if value else "off"
    return str(value)


def argument_type(
    parse: Callable[[Optional[str], str], object], flag: str
) -> Callable[[str], object]:
    """An argparse ``type`` running an :mod:`~repro.envconfig` parser whose
    errors name ``flag``."""
    import argparse

    def convert(raw: str) -> object:
        try:
            return parse(raw, flag)
        except EnvConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def add_knob_arguments(
    parser: argparse.ArgumentParser, command: str,
    base: Optional[CheckerConfig] = None,
    helps: Optional[Mapping[str, str]] = None,
) -> None:
    """Add the flag of every knob that ``command`` exposes.

    Each flag stores into the field of the same name (``None`` when absent),
    which is where :func:`resolve_config` looks; ``base`` supplies the
    defaults the help text quotes, and ``helps`` rewords a field's help for
    this command.
    """
    base = base if base is not None else CheckerConfig()
    for item, knob in knob_fields():
        if command not in knob.commands:
            continue
        help_text = (helps or {}).get(item.name, knob.help)
        if knob.env is not None or knob.const is None:
            sources = [knob.env] if knob.env else []
            sources.append(_describe(knob, getattr(base, item.name)))
            help_text += f" (default: {' or '.join(sources)})"
        if knob.const is not None:
            how = dict(action="store_const", const=knob.const)
        else:
            how = dict(type=argument_type(knob.parse, knob.flag),
                       metavar=knob.metavar, choices=knob.choices)
        parser.add_argument(knob.flag, dest=item.name, default=None,
                            help=help_text, **how)


def knob_rows() -> List[Tuple[str, str, str, str, str, str]]:
    """(field, flag, commands, env var, default, kind) for every knob."""
    rows = []
    for item, knob in knob_fields():
        kind = "perf" if not knob.semantic else (
            "semantic (wire)" if knob.wire else "semantic")
        rows.append((
            item.name, knob.flag or "", ", ".join(knob.commands),
            knob.env or "", _describe(knob, item.default), kind,
        ))
    return rows
