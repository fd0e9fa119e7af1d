#!/usr/bin/env python3
"""Run the full verification battery over the scenario catalog.

Writes one structured report per scenario into --outdir and prints a summary
table.  Exit status is nonzero only if a check failed on a scenario that
satisfies the hypotheses of the formula being checked.
"""

import argparse
import sys
from pathlib import Path

from folsub import cli, scenarios


def checks_for(scenario) -> list[str]:
    out = ["divergence-selftest", "reeb", "pointwise", "codazzi", "trace-identities", "sigma2-image"]
    for r in range(scenario.n):
        out.append(f"main:{r}")
    if scenario.leaves:
        for r in range(scenario.n):
            out.append(f"leaf:{r}")
    if scenario.flags.satisfies_pcurv_c:
        out.append("closed-form-c")
    out.append("closed-form-einstein")
    if scenario.n >= 2:
        out.append("umbilical")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="reports", help="directory for per-scenario reports")
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--names", help="comma-separated subset of scenario names")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = args.names.split(",") if args.names else scenarios.catalog_names()

    worst_status = 0
    for name in names:
        scenario = scenarios.build(name)
        config = cli.RunConfig(
            scenario=name,
            checks=checks_for(scenario),
            output=str(outdir / f"{name}.json"),
            samples=args.samples,
        )
        status, reports = cli.run(config, scenario=scenario)
        print(cli.emit_table(config, name, reports))
        worst_status = max(worst_status, status)
    return worst_status


if __name__ == "__main__":
    sys.exit(main())
