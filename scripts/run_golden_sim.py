"""Run the committed golden simulation and write its artifacts.

Produces metrics.csv plus per-problem gradient dumps at steps 0 and 20
under --out-dir, then prints the headline numbers (bell ratios, final
mean pass rate, anchor retention). Re-running writes byte-identical files.
"""

import argparse
from pathlib import Path

from zpdistill.distill_sim import build_world, train
from zpdistill.fileio import (
    fmt,
    load_sim_config,
    write_gradient_records,
    write_metrics,
)
from zpdistill.snr_profile import bell_shape_score, compute_snr_bins

_REPO = Path(__file__).resolve().parents[1]


def main():
    parser = argparse.ArgumentParser(
        description="Run the golden distillation config and dump artifacts."
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=_REPO / "configs" / "golden.cfg",
        help="INI simulation config (default: the committed golden config)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=_REPO / "out" / "golden",
        help="directory for metrics.csv and gradient dumps",
    )
    parser.add_argument(
        "--dump-steps",
        type=int,
        nargs="*",
        default=[0, 20],
        help="training steps at which to dump per-problem gradients",
    )
    args = parser.parse_args()

    config = load_sim_config(args.config.read_text(encoding="utf-8"))
    world = build_world(config)
    metrics = train(world, snr_dump_steps=args.dump_steps)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = args.out_dir / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8") as f:
        write_metrics(f, metrics)
    print(f"wrote {metrics_path}")

    for step in sorted(metrics.gradient_dumps):
        path = args.out_dir / f"gradients_step{step}.csv"
        with open(path, "w", encoding="utf-8") as f:
            write_gradient_records(f, metrics.gradient_dumps[step])
        is_bell, ratio = bell_shape_score(
            compute_snr_bins(metrics.gradient_dumps[step], num_bins=10)
        )
        print(f"wrote {path} (bell={is_bell}, mid/edge ratio {fmt(ratio)})")

    final = metrics.rows[-1]
    print(
        f"final step {final.step}: mean_p {fmt(final.mean_p)}, "
        f"retention_kl {fmt(final.retention_kl)}, loss {fmt(final.loss)}"
    )


if __name__ == "__main__":
    main()
