"""Byte-level pins of `zpdistill simulate` outputs at seed 7.

The sha256 digests are those of the committed golden run (README) and of a
two-stage run that takes the sampled reverse-KL path, which the golden run
never exercises. Any change to sampling, weighting or training arithmetic
that moves a single bit of an output file fails here.
"""

import configparser
import hashlib
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


def test_sampled_reverse_kl_run_bytes(tmp_path):
    parser = configparser.ConfigParser()
    parser.read_string(_GOLDEN_CFG.read_text(encoding="utf-8"))
    for section, values in _REVKL_OVERRIDES.items():
        parser[section].update(values)
    config = tmp_path / "revkl.cfg"
    with open(config, "w", encoding="utf-8") as f:
        parser.write(f)
    metrics, gradients = _simulate(config, tmp_path, 45)
    assert metrics == _REVKL_METRICS
    assert gradients == _REVKL_GRADIENTS_STEP45
