#!/usr/bin/env python3
"""Run the full verification battery over the scenario catalog.

Writes one structured report per scenario into --outdir and prints a summary
table.  Exit status: 0 when no check failed, 1 when a check failed on a
scenario that satisfies the hypotheses of the formula being checked, and 2
when a run could not execute.  The arguments are checked before any
scenario is built: an unknown scenario in --names, a --samples count that a
run refuses, or an --outdir that is not a directory and cannot be created
exits 2 with one ``error:`` line.
"""

import argparse
import sys
from pathlib import Path

from folsub import cli, scenarios, verify
from folsub.errors import ConfigError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="reports", help="directory for per-scenario reports")
    parser.add_argument("--samples", default="50")
    parser.add_argument("--names", help="comma-separated subset of scenario names")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    known = scenarios.catalog_names()
    names = args.names.split(",") if args.names else known
    try:
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ConfigError(f"unknown scenario {unknown[0]!r}; known: {', '.join(known)}")
        samples = cli.RunConfig(samples=cli.parsed(args.samples, int)).samples  # the sample-count rule of every run
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    worst_status = 0
    for name in names:
        scenario = scenarios.build(name)
        config = cli.RunConfig(
            scenario=name,
            checks=verify.battery(scenario),
            output=str(outdir / f"{name}.json"),
            samples=samples,
        )
        status, reports = cli.run(config, scenario=scenario)
        print(cli.emit_table(config, name, reports))
        worst_status = max(worst_status, status)
    return worst_status


if __name__ == "__main__":
    sys.exit(main())
