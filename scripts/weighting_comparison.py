"""Compare weighting schemes on matched worlds across seeds.

Runs beta, hard-filter, unweighted, and two-stage variants of the same
configuration with identical world seeds, then prints final mean pass
rate and anchor retention per scheme, plus directional win counts for
the beta-vs-unweighted comparison when multiple seeds are requested.
"""

import argparse
import dataclasses
from pathlib import Path

from zpdistill.distill_sim import build_world, train
from zpdistill.fileio import fmt, load_sim_config

_REPO = Path(__file__).resolve().parents[1]

_VARIANTS = (
    ("beta", {"scheme": "beta"}),
    ("hard", {"scheme": "hard"}),
    ("unweighted", {"scheme": "unweighted"}),
    ("two_stage", {"scheme": "beta", "loss_direction": "two_stage"}),
)


def _run(config):
    world = build_world(config)
    metrics = train(world)
    final = metrics.rows[-1]
    return final.mean_p, final.retention_kl


def main():
    parser = argparse.ArgumentParser(
        description="Weighting-scheme comparison on matched simulator seeds."
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=_REPO / "configs" / "golden.cfg",
        help="INI simulation config (default: the committed golden config)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="*",
        default=None,
        help="world seeds to sweep (default: the config's own seed)",
    )
    args = parser.parse_args()

    base = load_sim_config(args.config.read_text(encoding="utf-8"))
    seeds = args.seeds if args.seeds else [base.seed]

    wins_retention = 0
    wins_mean_p = 0
    for seed in seeds:
        print(f"seed {seed}")
        results = {}
        for name, fields in _VARIANTS:
            config = dataclasses.replace(base, seed=seed, **fields)
            mean_p, retention = _run(config)
            results[name] = (mean_p, retention)
            print(
                f"  {name:<10} final mean_p {fmt(mean_p)}  "
                f"retention_kl {fmt(retention)}"
            )
        if results["beta"][1] <= results["unweighted"][1]:
            wins_retention += 1
        if results["beta"][0] >= results["unweighted"][0]:
            wins_mean_p += 1

    if len(seeds) > 1:
        print(
            f"beta vs unweighted over {len(seeds)} seeds: retention wins "
            f"{wins_retention}/{len(seeds)}, mean_p wins {wins_mean_p}/{len(seeds)}"
        )


if __name__ == "__main__":
    main()
