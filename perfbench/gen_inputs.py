"""Seeded input generator for the `analysis_io` workload.

Writes two files that a user who brings their own rollouts would hand to
the toolkit:

- rollouts.jsonl: N problems with K boolean outcomes each. Each problem has
  a latent solve rate q ~ Beta(2, 2.5); its outcomes are K Bernoulli(q)
  draws, so the observed pass rate p = successes / K takes K + 1 values.
- gradients.csv: one row per problem with the same id and pass rate p and
  a D-dimensional gradient g = sqrt(C * p^A (1-p)^B) * u + z / sqrt(D), with
  u a fixed unit direction and z ~ N(0, I). Every row has noise energy ~1,
  so the cross-problem SNR^2 of a pass-rate bin is C * p^A (1-p)^B and
  `zpdistill fit-snr` should recover the exponents A and B.

The generator depends only on numpy, not on the program under test, and it
runs before the timed region. The same --seed gives byte-identical files.

    python3 perfbench/gen_inputs.py --seed 7 --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

NUM_PROBLEMS = 20_000
ROLLOUTS = 8
GRAD_DIM = 256
SNR_A = 1.0  # SNR^2 exponent on p
SNR_B = 1.5  # SNR^2 exponent on 1 - p
SNR_SCALE = 4.0
LATENT_BETA = (2.0, 2.5)


def generate(seed: int, out_dir: Path) -> None:
    rng = np.random.default_rng(seed)
    q = rng.beta(*LATENT_BETA, size=NUM_PROBLEMS)
    outcomes = rng.random((NUM_PROBLEMS, ROLLOUTS)) < q[:, None]
    p = outcomes.sum(axis=1) / ROLLOUTS
    ids = [f"q{i:05d}" for i in range(NUM_PROBLEMS)]

    with open(out_dir / "rollouts.jsonl", "w", encoding="utf-8") as f:
        for pid, row in zip(ids, outcomes.tolist()):
            f.write(json.dumps({"problem_id": pid, "outcomes": row}) + "\n")

    direction = rng.standard_normal(GRAD_DIM)
    direction /= np.linalg.norm(direction)
    signal = np.sqrt(SNR_SCALE * p**SNR_A * (1.0 - p) ** SNR_B)
    grads = signal[:, None] * direction + rng.standard_normal(
        (NUM_PROBLEMS, GRAD_DIM)
    ) / np.sqrt(GRAD_DIM)

    row_fmt = "%s,%.10g" + ",%.10g" * GRAD_DIM + "\n"
    with open(out_dir / "gradients.csv", "w", encoding="utf-8") as f:
        f.write(
            ",".join(["problem_id", "pass_rate"] + [f"g{j}" for j in range(GRAD_DIM)])
            + "\n"
        )
        for pid, pi, g in zip(ids, p.tolist(), grads.tolist()):
            f.write(row_fmt % (pid, pi, *g))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    generate(args.seed, args.out_dir)


if __name__ == "__main__":
    main()
