"""Documentation generator: CLI reference and scenario catalog.

``python -m repro.docsgen`` regenerates the pages derived from code:

* ``docs/cli.md`` — the command-line reference, rendered from the live
  argparse tree of :mod:`repro.cli` (every subcommand, option and help
  string), so the page cannot drift from ``--help``, plus the
  configuration-knob table rendered from :mod:`repro.config`;
* the **scenario catalog** table in ``README.md`` — rendered from the tagged
  scenario registry (:mod:`repro.scenarios`) between the ``BEGIN/END
  GENERATED: scenario-catalog`` markers;
* the **service endpoint reference** and **statistics field tables** in
  ``docs/service.md`` — rendered from the live request-handler registry
  (:data:`repro.service.protocol.ENDPOINTS`) and the documented statistic
  fields of the store and server, between their ``BEGIN/END GENERATED``
  markers, so the operations page cannot drift from the daemon's actual
  surface;
* ``docs/benchmarks.md`` — the normalized benchmark trend, rendered from the
  committed history entries under ``benchmarks/history/`` (the same data the
  ``bench report`` CLI command and its CI regression gate read).

``--check`` compares the generated text against the files on disk and fails
on drift (the CI ``docs`` job runs this), and ``--check-links`` verifies that
every relative Markdown link in ``README.md`` and ``docs/`` resolves.  The
renderer is deliberately terminal-width independent: it walks the parser
objects instead of calling ``format_help()``, so output is identical on every
machine.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Markers delimiting the generated catalog section in the README.
CATALOG_BEGIN = "<!-- BEGIN GENERATED: scenario-catalog -->"
CATALOG_END = "<!-- END GENERATED: scenario-catalog -->"

#: Markers delimiting the generated sections of ``docs/service.md``.
ENDPOINTS_BEGIN = "<!-- BEGIN GENERATED: service-endpoints -->"
ENDPOINTS_END = "<!-- END GENERATED: service-endpoints -->"
STATISTICS_BEGIN = "<!-- BEGIN GENERATED: service-statistics -->"
STATISTICS_END = "<!-- END GENERATED: service-statistics -->"

_GENERATED_BANNER = (
    "<!-- Generated by `python -m repro.docsgen`; do not edit by hand. -->"
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def repo_root() -> Path:
    """The repository root (this file lives at ``src/repro/docsgen.py``)."""
    return Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# CLI reference
# ---------------------------------------------------------------------------


def _subparsers_action(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _option_invocation(action: argparse.Action) -> str:
    invocation = ", ".join(action.option_strings)
    if action.nargs != 0:  # flags (store_true/help/version) take no value
        if action.metavar:
            metavar = action.metavar
        elif action.choices is not None:
            metavar = "{" + ",".join(str(choice) for choice in action.choices) + "}"
        else:
            metavar = action.dest.upper()
        invocation = f"{invocation} {metavar}"
    return invocation


def _escape_cell(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def _parser_section(parser: argparse.ArgumentParser, title: str,
                    summary: Optional[str], level: int) -> List[str]:
    lines: List[str] = [f"{'#' * level} `{title}`", ""]
    if summary:
        lines += [summary.rstrip(".") + ".", ""]
    positionals = [
        action for action in parser._actions
        if not action.option_strings
        and not isinstance(action, argparse._SubParsersAction)
    ]
    options = [action for action in parser._actions if action.option_strings]
    subparsers = _subparsers_action(parser)
    synopsis = title
    if options:
        synopsis += " [options]"
    for action in positionals:
        synopsis += f" {(action.metavar or action.dest).upper()}"
    if subparsers is not None:
        synopsis += " <command>"
    lines += ["```", synopsis, "```", ""]
    if positionals:
        lines += ["| Argument | Description |", "| --- | --- |"]
        for action in positionals:
            name = (action.metavar or action.dest).upper()
            lines.append(f"| `{name}` | {_escape_cell(action.help or '')} |")
        lines.append("")
    if options:
        lines += ["| Option | Description |", "| --- | --- |"]
        for action in options:
            lines.append(
                f"| `{_escape_cell(_option_invocation(action))}` "
                f"| {_escape_cell(action.help or '')} |"
            )
        lines.append("")
    if subparsers is not None:
        help_by_name = {
            pseudo.dest: pseudo.help for pseudo in subparsers._choices_actions
        }
        for name, subparser in subparsers.choices.items():
            lines += _parser_section(
                subparser, f"{title} {name}", help_by_name.get(name), level + 1
            )
    return lines


def render_cli_markdown() -> str:
    """The full CLI reference page, rendered from the live argparse tree."""
    from .cli import _build_parser

    parser = _build_parser()
    lines = [
        "# Command-line reference",
        "",
        _GENERATED_BANNER,
        "",
        f"{parser.description}.",
        "",
        "The CLI is installed as `leapfrog-repro` and is equally available as",
        "`python -m repro`; the two forms accept identical arguments.",
        "",
    ]
    subparsers = _subparsers_action(parser)
    help_by_name = {
        pseudo.dest: pseudo.help for pseudo in subparsers._choices_actions
    }
    lines += ["| Command | Purpose |", "| --- | --- |"]
    for name in subparsers.choices:
        anchor = f"leapfrog-repro-{name}".replace(" ", "-")
        lines.append(
            f"| [`{name}`](#{anchor}) | {_escape_cell(help_by_name.get(name) or '')} |"
        )
    lines.append("")
    lines += _knob_section()
    for name, subparser in subparsers.choices.items():
        lines += _parser_section(
            subparser, f"leapfrog-repro {name}", help_by_name.get(name), 2
        )
    return "\n".join(lines).rstrip() + "\n"


def _knob_section() -> List[str]:
    """The configuration-knob and environment tables of the CLI reference."""
    from .config import RUN_VARIABLES, knob_rows

    lines = [
        "## Configuration knobs",
        "",
        "Every checking command takes each `CheckerConfig` knob from its flag,",
        "else its variable (a malformed one exits 2), else the default.",
        "*Semantic* knobs are part of the verdict-store fingerprint (*wire*",
        "ones also travel to a `serve` daemon); *perf* knobs only change speed.",
        "",
        "| Field | Flag | Commands | Environment | Default | Kind |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, flag, commands, env, default, kind in knob_rows():
        cells = [f"`{name}`", f"`{flag}`" if flag else "",
                 commands, f"`{env}`" if env else "", default, kind]
        lines.append("| " + " | ".join(_escape_cell(cell) for cell in cells) + " |")
    lines += [
        "",
        "Run-level environment variables:",
        "",
        "| Environment | Meaning |",
        "| --- | --- |",
    ]
    for env, meaning in RUN_VARIABLES.items():
        lines.append(f"| `{env}` | {_escape_cell(meaning)} |")
    lines.append("")
    return lines


# ---------------------------------------------------------------------------
# Scenario catalog
# ---------------------------------------------------------------------------


def render_catalog_markdown() -> str:
    """The scenario-catalog table, rendered from the tagged registry."""
    from .scenarios import scenarios

    lines = [
        "| Scenario | Family | Size | Kind | States | Header bits | Expected verdict |",
        "| --- | --- | --- | --- | ---: | ---: | --- |",
    ]
    for info in scenarios():
        states, header_bits, _ = info.structure()
        lines.append(
            f"| `{info.name}` | {info.family} | {info.size} | {info.kind} "
            f"| {states} | {header_bits} | {info.verdict} |"
        )
    return "\n".join(lines) + "\n"


def _inject_section(text: str, begin_marker: str, end_marker: str,
                    content: str, origin: str) -> str:
    """``text`` with ``content`` spliced between the given markers."""
    begin = text.find(begin_marker)
    end = text.find(end_marker)
    if begin < 0 or end < 0 or end < begin:
        raise ValueError(
            f"{origin} is missing the {begin_marker} / {end_marker} markers"
        )
    head = text[: begin + len(begin_marker)]
    tail = text[end:]
    return f"{head}\n{content}{tail}"


def inject_catalog(readme_text: str) -> str:
    """README text with the generated catalog spliced between the markers."""
    return _inject_section(
        readme_text, CATALOG_BEGIN, CATALOG_END,
        render_catalog_markdown(), "README",
    )


# ---------------------------------------------------------------------------
# Service reference (docs/service.md)
# ---------------------------------------------------------------------------


def render_endpoints_markdown() -> str:
    """The endpoint table, rendered from the live handler registry."""
    from .service.protocol import ENDPOINTS

    lines = [
        "| Endpoint | Purpose | Parameters | Result |",
        "| --- | --- | --- | --- |",
    ]
    for endpoint in ENDPOINTS.values():
        params = "<br>".join(
            f"`{name}` — {_escape_cell(description)}"
            for name, description in endpoint.params
        ) or "—"
        lines.append(
            f"| `{endpoint.name}` | {_escape_cell(endpoint.summary)} "
            f"| {params} | {_escape_cell(endpoint.result)} |"
        )
    return "\n".join(lines) + "\n"


def render_service_statistics_markdown() -> str:
    """Field tables for the server and store statistics sections."""
    from .service.core import SERVER_STATISTIC_FIELDS
    from .service.store import STORE_STATISTIC_FIELDS

    lines = ["**`server` fields**", "", "| Field | Meaning |", "| --- | --- |"]
    for name, meaning in SERVER_STATISTIC_FIELDS.items():
        lines.append(f"| `{name}` | {_escape_cell(meaning)} |")
    lines += ["", "**`store` fields**", "", "| Field | Meaning |", "| --- | --- |"]
    for name, meaning in STORE_STATISTIC_FIELDS.items():
        lines.append(f"| `{name}` | {_escape_cell(meaning)} |")
    return "\n".join(lines) + "\n"


def inject_service_sections(service_text: str) -> str:
    """``docs/service.md`` text with both generated sections spliced in."""
    text = _inject_section(
        service_text, ENDPOINTS_BEGIN, ENDPOINTS_END,
        render_endpoints_markdown(), "docs/service.md",
    )
    return _inject_section(
        text, STATISTICS_BEGIN, STATISTICS_END,
        render_service_statistics_markdown(), "docs/service.md",
    )


# ---------------------------------------------------------------------------
# Benchmark trend (docs/benchmarks.md)
# ---------------------------------------------------------------------------


def render_benchmarks_markdown(root: Path) -> str:
    """The benchmark-trend page, rendered from ``benchmarks/history/``."""
    from .reporting.history import history_dir, load_history
    from .reporting.trend import (
        DEFAULT_THRESHOLD,
        DEFAULT_WINDOW,
        render_trend_markdown,
    )

    entries = load_history(history_dir(root))
    lines = [
        "# Benchmark history",
        "",
        _GENERATED_BANNER,
        "",
        "The committed entries under `benchmarks/history/` track the solver",
        "stack's performance across PRs.  Each cell is the benchmark's wall",
        "clock normalized by a same-machine calibration microbenchmark, so",
        "entries recorded on machines of different speeds stay comparable",
        "(smaller is faster; see `src/repro/reporting/history.py`).",
        "",
        render_trend_markdown(entries).rstrip("\n"),
        "",
        "Record a new entry with `python benchmarks/record_history.py",
        "<label>`; render this trend from the command line with",
        "`leapfrog-repro bench report`.  CI gates on `bench report --check`:",
        f"the newest entry must not be more than {DEFAULT_THRESHOLD:.0%}",
        f"slower than the rolling baseline (the mean of up to",
        f"{DEFAULT_WINDOW} preceding entries) on any benchmark.",
    ]
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# Drift check / regeneration
# ---------------------------------------------------------------------------


def generated_targets(root: Path) -> Dict[Path, Optional[str]]:
    """Every generated file, mapped to its up-to-date content.

    Fully generated pages always carry content.  Pages that host generated
    sections inside handwritten text (README.md, docs/service.md) map to
    ``None`` when the host file is missing: they are reported as stale but
    cannot be regenerated from nothing.
    """
    readme = root / "README.md"
    service = root / "docs" / "service.md"
    return {
        root / "docs" / "cli.md": render_cli_markdown(),
        root / "docs" / "benchmarks.md": render_benchmarks_markdown(root),
        readme: inject_catalog(readme.read_text()) if readme.exists() else None,
        service: (inject_service_sections(service.read_text())
                  if service.exists() else None),
    }


def check_drift(root: Path) -> List[Path]:
    """Paths whose on-disk content differs from the generated text."""
    stale: List[Path] = []
    for path, content in generated_targets(root).items():
        if content is None or not path.exists() or path.read_text() != content:
            stale.append(path)
    return stale


def regenerate(root: Path) -> List[Path]:
    """Write every generated file; returns the paths that changed."""
    changed: List[Path] = []
    for path, content in generated_targets(root).items():
        if content is None:
            continue  # a missing handwritten host cannot be regenerated
        if not path.exists() or path.read_text() != content:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            changed.append(path)
    return changed


# ---------------------------------------------------------------------------
# Markdown link check
# ---------------------------------------------------------------------------


def _documentation_files(root: Path) -> List[Path]:
    files = [root / "README.md"]
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return [path for path in files if path.exists()]


def check_links(root: Path) -> List[Tuple[Path, str]]:
    """``(file, target)`` pairs for relative links that do not resolve."""
    broken: List[Tuple[Path, str]] = []
    for path in _documentation_files(root):
        for match in _LINK_RE.finditer(path.read_text()):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (path.parent / relative).exists():
                broken.append((path, target))
    return broken


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.docsgen",
        description="Regenerate (or verify) the docs derived from code: "
                    "docs/cli.md and the README scenario catalog",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail instead of writing when a generated page is stale",
    )
    parser.add_argument(
        "--check-links", action="store_true",
        help="verify every relative Markdown link under README.md and docs/",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root (default: derived from this file's location)",
    )
    args = parser.parse_args(argv)
    root = args.root if args.root is not None else repo_root()
    status = 0
    if args.check:
        stale = check_drift(root)
        for path in stale:
            print(f"stale: {path} (regenerate with `python -m repro.docsgen`)")
        if stale:
            status = 1
        else:
            print("generated docs are up to date")
    else:
        changed = regenerate(root)
        for path in changed:
            print(f"wrote {path}")
        if not changed:
            print("generated docs already up to date")
    if args.check_links:
        broken = check_links(root)
        for path, target in broken:
            print(f"broken link in {path}: {target}")
        if broken:
            status = 1
        else:
            print("all relative links resolve")
    return status


if __name__ == "__main__":
    sys.exit(main())
