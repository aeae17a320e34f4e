"""Command line interface: one subcommand per pipeline step.

Successful commands print a one-line JSON summary to stdout. Failures print a
machine-readable error object to stderr and exit 2 (configuration), 3 (data),
or 4 (remote backend).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
from pathlib import Path

import click

from . import evaluation, pipeline
from .config import PipelineConfig, load_config
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


def _emit_error(err: PhenorankError) -> None:
    payload = {"error": {"type": type(err).__name__, "message": str(err)}}
    click.echo(json.dumps(payload, sort_keys=True), err=True)


def _run(step) -> None:
    try:
        summary = step()
    except PhenorankError as e:
        _emit_error(e)
        sys.exit(_exit_code(e))
    click.echo(json.dumps(summary, sort_keys=True))


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


def _load(ctx: click.Context) -> PipelineConfig:
    try:
        cfg = load_config(ctx.obj["config_path"])
        if ctx.obj["seed"] is not None:
            cfg = dataclasses.replace(cfg, seed=ctx.obj["seed"])
        return cfg
    except PhenorankError as e:
        _emit_error(e)
        sys.exit(_exit_code(e))


_force_option = click.option(
    "--force",
    is_flag=True,
    help="Use artifacts even if their configuration hash mismatches.",
)


@main.command()
@click.pass_context
def ingest(ctx: click.Context) -> None:
    """Parse the ontology and annotations; write the feature table."""
    cfg = _load(ctx)
    _run(lambda: pipeline.step_ingest(cfg))


@main.command()
@click.pass_context
def synth(ctx: click.Context) -> None:
    """Generate the synthetic cohort and narrative notes."""
    cfg = _load(ctx)
    _run(lambda: pipeline.step_synth(cfg))


@main.command()
@click.pass_context
def chunk(ctx: click.Context) -> None:
    """Split notes into sentence-preserving chunks."""
    cfg = _load(ctx)
    _run(lambda: pipeline.step_chunk(cfg))


@main.command()
@click.option(
    "--concurrency",
    type=int,
    default=None,
    help="Parallel chunk requests (not part of the configuration hash).",
)
@click.pass_context
def extract(ctx: click.Context, concurrency: int | None) -> None:
    """Extract phenotype mentions from every chunk."""
    cfg = _load(ctx)
    if concurrency is not None:
        cfg = dataclasses.replace(
            cfg, extraction=dataclasses.replace(cfg.extraction, concurrency=concurrency)
        )
    _run(lambda: pipeline.step_extract(cfg))


@main.command()
@click.pass_context
def standardize(ctx: click.Context) -> None:
    """Resolve mentions to ontology terms."""
    cfg = _load(ctx)
    _run(lambda: pipeline.step_standardize(cfg))


@main.command()
@click.pass_context
def train(ctx: click.Context) -> None:
    """Fit the ranking model on the synthetic cohort."""
    cfg = _load(ctx)
    _run(lambda: pipeline.step_train(cfg))


@main.command()
@click.option(
    "--out",
    type=click.Path(dir_okay=False),
    default=None,
    help="Also export the rankings as plain JSONL (no meta line).",
)
@click.pass_context
def rank(ctx: click.Context, out: str | None) -> None:
    """Order each patient's standardized terms by model score."""
    cfg = _load(ctx)

    def step():
        summary = pipeline.step_rank(cfg)
        if out is not None:
            rankings = pipeline._load_term_lists(cfg, pipeline.RANKINGS_FILE)
            Path(out).write_text(
                evaluation.export_ranking(rankings), encoding="utf-8"
            )
            summary["exported"] = out
        return summary

    _run(step)


@main.command()
@_force_option
@click.option(
    "--external",
    type=click.Path(exists=False, dir_okay=False),
    default=None,
    help="Evaluate an external rankings JSONL instead of the pipeline artifact.",
)
@click.pass_context
def evaluate(ctx: click.Context, force: bool, external: str | None) -> None:
    """Score rankings against the cohort gold standard."""
    cfg = _load(ctx)
    _run(lambda: pipeline.step_evaluate(cfg, force=force, external=external))


@main.command()
@_force_option
@click.pass_context
def ablate(ctx: click.Context, force: bool) -> None:
    """Evaluate the pipeline cut after each module."""
    cfg = _load(ctx)
    _run(lambda: pipeline.step_ablate(cfg, force=force))


@main.command()
@_force_option
@click.pass_context
def permtest(ctx: click.Context, force: bool) -> None:
    """Compare rankings against random permutations of themselves."""
    cfg = _load(ctx)
    _run(lambda: pipeline.step_permtest(cfg, force=force))


if __name__ == "__main__":
    main()
