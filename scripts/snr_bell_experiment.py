"""Trace the gradient-SNR profile over training and fit its power law.

For each requested step the script dumps per-problem gradients, bins them
into pass-rate bins, writes the normalized profile CSV, and reports the
bell score. The step-0 profile is then fit with the log-linear SNR^2 model
to get (a', b'), the misspecification radius delta, and the worst-case
efficiency guarantee sech^2(delta) of the matching minimax kernel.
"""

import argparse
from pathlib import Path

from zpdistill.distill_sim import build_world, train
from zpdistill.errors import FitError, InsufficientDataError
from zpdistill.fileio import fmt, load_sim_config, write_profile
from zpdistill.numerics import sech, sech2
from zpdistill.robustness import fit_snr_model
from zpdistill.snr_profile import bell_shape_score, compute_snr_bins, normalize_profile

_REPO = Path(__file__).resolve().parents[1]


def main():
    parser = argparse.ArgumentParser(
        description="SNR bell-shape and power-law fit on a simulated run."
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=_REPO / "configs" / "golden.cfg",
        help="INI simulation config (default: the committed golden config)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        nargs="*",
        default=[0, 20, 40],
        help="training steps at which to profile the gradients",
    )
    parser.add_argument("--bins", type=int, default=10, help="pass-rate bins")
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=_REPO / "out" / "snr_bell",
        help="directory for the profile CSVs",
    )
    args = parser.parse_args()

    config = load_sim_config(args.config.read_text(encoding="utf-8"))
    world = build_world(config)
    metrics = train(world, snr_dump_steps=args.steps)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    first_points = None
    for step in sorted(metrics.gradient_dumps):
        profile = normalize_profile(
            compute_snr_bins(metrics.gradient_dumps[step], num_bins=args.bins)
        )
        path = args.out_dir / f"profile_step{step}.csv"
        with open(path, "w", encoding="utf-8") as f:
            write_profile(f, profile)
        is_bell, ratio = bell_shape_score(profile)
        print(f"step {step}: bell={is_bell} mid/edge ratio {fmt(ratio)} -> {path}")
        if first_points is None:
            first_points = [
                (b.mean_p, b.snr)
                for b in profile.bins
                if b.snr is not None and b.mean_p is not None and 0.0 < b.mean_p < 1.0
            ]

    try:
        fit = fit_snr_model([(p, s * s) for p, s in first_points])
    except (FitError, InsufficientDataError) as exc:
        print(f"power-law fit unavailable: {exc}")
        return
    print(
        f"fit on first profiled step: a'={fmt(fit.a_prime)} b'={fmt(fit.b_prime)} "
        f"delta={fmt(fit.delta)}"
    )
    print(
        f"matching minimax kernel: scale sech(delta)={fmt(sech(fit.delta))}, "
        f"worst-case efficiency sech^2(delta)={fmt(sech2(fit.delta))}"
    )


if __name__ == "__main__":
    main()
