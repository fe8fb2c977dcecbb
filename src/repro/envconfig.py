"""Validated parsing of the ``LEAPFROG_*`` environment variables.

Every parser here names the variable (or flag) it read in its error, so a
typo like ``LEAPFROG_JOBS=abc`` fails with the accepted values instead of a
bare ``ValueError``, and an out-of-range value never reaches the engine.
The checker's own variables are attached to the
:class:`~repro.config.CheckerConfig` field they set and read by
:func:`repro.config.resolve_config`; the run-level ones are read directly.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Optional

from .smt.backend import EXTERNAL_SOLVER_COMMANDS, INTERNAL_SOLVERS
from .smt.sat.solver import DEFAULT_CLAUSE_DB_MAX


class EnvConfigError(ValueError):
    """Raised when an environment variable (or flag) holds an unusable value."""


#: Run-level variables (described in ``repro.config.RUN_VARIABLES``).
JOBS_VAR = "LEAPFROG_JOBS"
SHARDS_VAR = "LEAPFROG_SHARDS"
SERVER_VAR = "LEAPFROG_SERVER"
FULL_VAR = "LEAPFROG_FULL"

#: The checker knobs' variables (see the ``CheckerConfig`` field of each).
CACHE_DIR_VAR = "LEAPFROG_CACHE_DIR"
INCREMENTAL_VAR = "LEAPFROG_INCREMENTAL"
AIG_VAR = "LEAPFROG_AIG"
ORACLE_VAR = "LEAPFROG_ORACLE"
SEED_VAR = "LEAPFROG_SEED"
SOLVER_VAR = "LEAPFROG_SOLVER"
PORTFOLIO_VAR = "LEAPFROG_PORTFOLIO"
CLAUSE_DB_VAR = "LEAPFROG_CLAUSE_DB"

#: Every value :func:`parse_solver` accepts (the CLI ``--solver`` choices):
#: the internal engines, then the external solvers in preference order.
SOLVER_CHOICES = INTERNAL_SOLVERS + tuple(EXTERNAL_SOLVER_COMMANDS)

#: Packet budget used when ``LEAPFROG_ORACLE`` is a bare "on"/"true".
DEFAULT_ORACLE_PACKETS = 64

_TRUE_VALUES = ("1", "true", "yes", "on")
_FALSE_VALUES = ("0", "false", "no", "off")


def _unset(raw: Optional[str]) -> bool:
    return raw is None or raw.strip() == ""


def parse_text(raw: Optional[str], source: str = "") -> Optional[str]:
    """A free-form value (a path); ``None``/empty means "not set"."""
    return None if _unset(raw) else raw


def parse_jobs(raw: Optional[str], source: str = JOBS_VAR) -> int:
    """Parse a worker count: a positive integer, with ``None``/empty = 1."""
    if _unset(raw):
        return 1
    try:
        jobs = int(raw.strip())
    except ValueError:
        raise EnvConfigError(
            f"{source} must be a positive integer, got {raw!r}"
        ) from None
    if jobs < 1:
        raise EnvConfigError(f"{source} must be >= 1, got {jobs}")
    return jobs


def parse_flag(raw: Optional[str], source: str) -> Optional[bool]:
    """Parse a boolean toggle; ``None``/empty means "not set"."""
    if _unset(raw):
        return None
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return True
    if value in _FALSE_VALUES:
        return False
    raise EnvConfigError(
        f"{source} must be one of {_TRUE_VALUES + _FALSE_VALUES}, got {raw!r}"
    )


def _parse_count(raw: Optional[str], source: str, on: int) -> Optional[int]:
    """A non-negative integer, or a boolean word (``on`` = ``on``, ``off`` = 0)."""
    if _unset(raw):
        return None
    value = raw.strip().lower()
    if value in _TRUE_VALUES + _FALSE_VALUES:
        return on if value in _TRUE_VALUES else 0
    try:
        count = int(value)
    except ValueError:
        raise EnvConfigError(
            f"{source} must be a non-negative integer or one of "
            f"{_TRUE_VALUES + _FALSE_VALUES}, got {raw!r}"
        ) from None
    if count < 0:
        raise EnvConfigError(f"{source} must be >= 0, got {count}")
    return count


def parse_oracle_packets(raw: Optional[str], source: str = ORACLE_VAR) -> Optional[int]:
    """An oracle packet budget (0 = off, ``on`` = ``DEFAULT_ORACLE_PACKETS``)."""
    return _parse_count(raw, source, DEFAULT_ORACLE_PACKETS)


def parse_clause_db(raw: Optional[str], source: str = CLAUSE_DB_VAR) -> Optional[int]:
    """A learned-clause cap (0 = keep every clause, ``on`` = the solver default)."""
    return _parse_count(raw, source, DEFAULT_CLAUSE_DB_MAX)


def parse_seed(raw: Optional[str], source: str = SEED_VAR) -> Optional[int]:
    """Parse a sampler seed (any integer); ``None``/empty means "not set"."""
    if _unset(raw):
        return None
    try:
        return int(raw.strip())
    except ValueError:
        raise EnvConfigError(f"{source} must be an integer, got {raw!r}") from None


def parse_solver(raw: Optional[str], source: str = SOLVER_VAR) -> Optional[str]:
    """Parse a solver selection; ``None``/empty means "not set".

    Returns the lower-cased name.  An unknown name (a typo like ``z33``) is
    an error, never a silent fallback to the internal solver; whether a known
    solver is installed is checked when the backend is selected.
    """
    if _unset(raw):
        return None
    value = raw.strip().lower()
    if value in SOLVER_CHOICES:
        return value
    raise EnvConfigError(f"{source} must be one of {SOLVER_CHOICES}, got {raw!r}")


def env_value(
    var: str,
    parse: Callable[[Optional[str], str], object],
    environ: Optional[Mapping[str, str]] = None,
):
    """``parse`` applied to variable ``var`` (``os.environ`` by default)."""
    environ = os.environ if environ is None else environ
    return parse(environ.get(var), var)


def jobs_from_env(environ: Optional[Mapping[str, str]] = None) -> int:
    """The engine worker count requested via ``LEAPFROG_JOBS`` (default 1)."""
    return env_value(JOBS_VAR, parse_jobs, environ)
