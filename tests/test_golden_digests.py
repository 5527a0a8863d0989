"""Byte-level pins of `zpdistill simulate` outputs at seed 7, and of the
`weight` and `select-exponents` outputs on one seeded rollouts file.

The simulate digests are those of the committed golden run (README), of a
two-stage run that takes the sampled reverse-KL path, of a run on the
exact reverse-KL path and of a run sampling rollouts at temperature 0.7;
the golden run exercises none of the last three. Any change to sampling,
weighting or training arithmetic that moves a single bit of an output file
fails here. Each analysis command also runs twice and must write identical
bytes both times.
"""

import configparser
import hashlib
import json
import random
from pathlib import Path

import pytest

from zpdistill.cli import main

_GOLDEN_CFG = Path(__file__).resolve().parent.parent / "configs" / "golden.cfg"

_GOLDEN_METRICS = "08831676715d9df8bf8c1d8593133c330912d9608ee8b9a7557da3ab448e8cda"
_GOLDEN_GRADIENTS = {
    0: "f7355d1b226a44083912cf2eade62716b1e005370478b14df4cd1bc8f9d25986",
    20: "74d740b57ad2fa1c2d2229a0d77df08fe373682ba178331ad868322a46f4894e",
}
_REVKL_OVERRIDES = {
    "weighting": {"scheme": "hard", "recompute_interval": "15"},
    "training": {
        "loss_direction": "two_stage",
        "reverse_kl_samples": "16",
        "batch_size": "100",
    },
}
_REVKL_METRICS = "a899fa3d876c53033f2609274f13f8c79352d4ee7681b5242dc650041f9fc60a"
_REVKL_GRADIENTS_STEP45 = "ee8a9dcf5166e6609e3436b578519a6202352a433899779c8af08d34e032949d"
# (overrides, metrics.csv digest, gradients_step20.csv digest)
_VARIANTS = {
    "exact_reverse": (
        {"training": {"loss_direction": "reverse", "reverse_kl_samples": "0"}},
        "ecf264cf09c066dec0806ec147154be979b2a4a27dce1501ecee92160534de28",
        "ff8e410e1303e48be0f794f23b528b459bc8c0955e1e5f1e878ada7c99d0dc99",
    ),
    "temperature_0.7": (
        {"rollouts": {"temperature": "0.7"}},
        "c992d5cdd42a5ffc143883f097f7f4f60c6c840a4325fcaed5191a51120b66ac",
        "b77343adeea5758e288f99818d66b5f8b32e7776b0d52fd0a483a3e874d03981",
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(config: Path, out: Path, dump_step: int) -> tuple[str, str]:
    """Digests of metrics.csv and the gradient dump of one seed-7 run."""
    prefix = out / "gradients_step"
    code = main(
        ["simulate", "--config", str(config), "--seed", "7",
         "--out", str(out / "metrics.csv"),
         "--dump-gradients", str(prefix), "--dump-step", str(dump_step)]
    )
    assert code == 0
    return _sha256(out / "metrics.csv"), _sha256(Path(f"{prefix}{dump_step}.csv"))


@pytest.mark.parametrize("step", sorted(_GOLDEN_GRADIENTS))
def test_golden_run_bytes(tmp_path, step):
    metrics, gradients = _simulate(_GOLDEN_CFG, tmp_path, step)
    assert metrics == _GOLDEN_METRICS
    assert gradients == _GOLDEN_GRADIENTS[step]


def _golden_with(overrides: dict[str, dict[str, str]], out: Path) -> Path:
    """The golden config with some keys overridden, written under out."""
    parser = configparser.ConfigParser()
    parser.read_string(_GOLDEN_CFG.read_text(encoding="utf-8"))
    for section, values in overrides.items():
        parser[section].update(values)
    config = out / "variant.cfg"
    with open(config, "w", encoding="utf-8") as f:
        parser.write(f)
    return config


def test_sampled_reverse_kl_run_bytes(tmp_path):
    metrics, gradients = _simulate(_golden_with(_REVKL_OVERRIDES, tmp_path), tmp_path, 45)
    assert metrics == _REVKL_METRICS
    assert gradients == _REVKL_GRADIENTS_STEP45


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_variant_run_bytes(tmp_path, variant):
    overrides, want_metrics, want_gradients = _VARIANTS[variant]
    metrics, gradients = _simulate(_golden_with(overrides, tmp_path), tmp_path, 20)
    assert metrics == want_metrics
    assert gradients == want_gradients


# Analysis commands on one seeded rollouts file (mixed K, p = 0 and p = 1
# rows included): (argv after the file, output digest).
_ANALYSIS_RUNS = {
    "weight_beta": (
        ["weight"],
        "f20b29e5d9e32b0115ec2b90ea2b54f832be49594101e9708ea0b78e9d2ab536",
    ),
    "weight_hard": (
        ["weight", "--hard-filter", "0.2", "0.8"],
        "269e6c06f433471ee883f49bca676a2505a75891668d0b4e8c85d242e550a905",
    ),
    "weight_floor": (
        ["weight", "--floor", "0.1"],
        "20a1754d131c4aa63796780444c6f803078e2b0978b179a547805db6ee747bb7",
    ),
    "select_exponents": (
        ["select-exponents"],
        "93f180990fbcd4a869536538a0e8508be67f7e52af8c5562c1b0bcd99d4f3c6d",
    ),
}


def _seeded_rollouts(path: Path, seed: int = 2026, n: int = 300) -> Path:
    """n problems; every third has K = 4, the rest K = 8. Python's
    random.random() is reproducible across versions, so the file is too."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        k = 4 if i % 3 == 0 else 8
        if i < 4:  # p = 0 and p = 1 at both K
            outcomes = [i % 2 == 1] * k
        else:
            q = (rng.random() + rng.random()) / 2.0
            outcomes = [rng.random() < q for _ in range(k)]
        lines.append(json.dumps({"problem_id": f"q{i:04d}", "outcomes": outcomes}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("run", sorted(_ANALYSIS_RUNS))
def test_analysis_command_bytes(tmp_path, run):
    argv, want = _ANALYSIS_RUNS[run]
    rollouts = _seeded_rollouts(tmp_path / "rollouts.jsonl")
    outs = [tmp_path / "first.out", tmp_path / "second.out"]
    for out in outs:
        assert main([argv[0], str(rollouts), *argv[1:], "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert _sha256(outs[0]) == want
