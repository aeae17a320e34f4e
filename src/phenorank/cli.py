"""Command line interface: one subcommand per pipeline step.

Successful commands print a one-line JSON summary to stdout. Failures print a
machine-readable error object to stderr and exit 2 (configuration), 3 (data),
or 4 (remote backend).
"""

from __future__ import annotations

import json
import logging
import sys

import click

from . import pipeline
from .config import load_config
from .errors import BackendError, ConfigError, DataError, PhenorankError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4


def _exit_code(err: PhenorankError) -> int:
    if isinstance(err, ConfigError):
        return EXIT_CONFIG
    if isinstance(err, BackendError):
        return EXIT_BACKEND
    if isinstance(err, DataError):
        return EXIT_DATA
    return 1


@click.group()
@click.option(
    "--config",
    "-c",
    "config_path",
    default="phenorank.yaml",
    show_default=True,
    help="Pipeline configuration file.",
)
@click.option("--seed", type=int, default=None, help="Override the configured seed.")
@click.option("--verbose", "-v", is_flag=True, help="Log progress to stderr.")
@click.pass_context
def main(ctx: click.Context, config_path: str, seed: int | None, verbose: bool) -> None:
    """Phenotype extraction, standardization, and prioritization pipeline."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    ctx.ensure_object(dict)
    ctx.obj["config_path"] = config_path
    ctx.obj["seed"] = seed


# Options beyond the group's, by step; each reaches its step function as the
# keyword argument of the same name.
STEP_OPTIONS = {
    "extract": [
        click.option(
            "--concurrency",
            type=int,
            default=None,
            help="Parallel chunk requests (recorded in no artifact).",
        )
    ],
    "rank": [
        click.option(
            "--out",
            type=click.Path(dir_okay=False),
            default=None,
            help="Also export the rankings as plain JSONL (no meta line).",
        )
    ],
    "evaluate": [
        click.option(
            "--external",
            type=click.Path(exists=False, dir_okay=False),
            default=None,
            help="Evaluate an external rankings JSONL instead of the pipeline artifact.",
        )
    ],
}


def _add_command(name: str, step) -> None:
    @click.pass_context
    def command(ctx: click.Context, **options) -> None:
        try:
            cfg = load_config(ctx.obj["config_path"], ctx.obj["seed"])
            summary = step(cfg, **options)
        except PhenorankError as e:
            error = {"type": type(e).__name__, "message": str(e)}
            click.echo(json.dumps({"error": error}, sort_keys=True), err=True)
            sys.exit(_exit_code(e))
        click.echo(json.dumps(summary, sort_keys=True))

    for option in reversed(STEP_OPTIONS.get(name, [])):
        command = option(command)
    main.command(name, help=step.__doc__)(command)


for _step in pipeline.STEPS:
    _add_command(_step.name, _step.run)


if __name__ == "__main__":
    main()
