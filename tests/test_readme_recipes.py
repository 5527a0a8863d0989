"""The README's shell recipes, run in process through `zpdistill.cli.main`.

Every command run here must appear, word for word, among the `zpdistill`
lines of the README's sh blocks; its loop variables are then substituted
and it runs in a scratch directory holding a copy of `configs/`. The
values pinned here are the ones the README's Recipes section quotes, so
neither a renamed flag nor a drifted number can leave a recipe stale. The
report commands also run on the inputs pinned in test_golden_digests.py,
and the keys they print must be the ones the README's Reports bullet
lists, in its order.
"""

import hashlib
import re
import shlex
import shutil
import string
from pathlib import Path

import pytest

from zpdistill.cli import _build_parser, main

from test_golden_digests import _REPORT_RUNS, _report_bytes

_ROOT = Path(__file__).resolve().parent.parent

_GOLDEN_SIMULATE = (
    "zpdistill simulate --config configs/golden.cfg --out out/golden/metrics.csv "
    "--dump-gradients out/golden/gradients_step --dump-step 0 --dump-step 20"
)
_GOLDEN_PROFILE = (
    "zpdistill snr-profile out/golden/gradients_step$step.csv "
    "--out out/golden/profile_step$step.csv"
)
_BELL_SIMULATE = (
    "zpdistill simulate --config configs/golden.cfg --out out/snr_bell/metrics.csv "
    "--dump-gradients out/snr_bell/gradients_step --dump-step 0 --dump-step 20 --dump-step 40"
)
_BELL_PROFILE = (
    "zpdistill snr-profile out/snr_bell/gradients_step$step.csv "
    "--out out/snr_bell/profile_step$step.csv"
)
_BELL_FIT = "zpdistill fit-snr out/snr_bell/profile_step0.csv"
_COMPARE_SCHEME = (
    'zpdistill simulate --config configs/golden.cfg --seed "$seed" --scheme "$scheme"'
)
_COMPARE_TWO_STAGE = (
    'zpdistill simulate --config configs/golden.cfg --seed "$seed" --schedule two_stage'
)

_SHA256 = {
    "metrics.csv": "08831676715d9df8bf8c1d8593133c330912d9608ee8b9a7557da3ab448e8cda",
    "gradients_step0.csv": "f7355d1b226a44083912cf2eade62716b1e005370478b14df4cd1bc8f9d25986",
    "gradients_step20.csv": "74d740b57ad2fa1c2d2229a0d77df08fe373682ba178331ad868322a46f4894e",
    "gradients_step40.csv": "3a7b38bb6572d4c53819af4e35ab005e445710aa04658ee7c55890b98a1622ca",
    "profile_step0.csv": "2e142da032d9b03a2ec67f80f0cc307d009f2418c4a5e8f44a9e3dab1b10dadc",
    "profile_step20.csv": "d40f7105be362825f3d172741fdf67505db13025029e3ff3125527f07a4103cd",
    "profile_step40.csv": "54f08f56cdc1bb54f29a1b04386b42f4bc42ed4e4b1d4a8660c52f414e131b7d",
}
_BELL_RATIOS = {0: "1.368043869", 20: "1.565791527", 40: "1.15067591"}
_GOLDEN_FINAL = "final step 60: loss 0.5403765203 mean_p 0.418125 retention_kl 0.09821830535"
_FIT = {"a_prime": "1.053646518", "b_prime": "0.7880116433", "delta": "0.3819939393"}
_SEEDS = (1, 2, 3, 4, 5)
_FINAL_RE = re.compile(r"^final step \d+: loss \S+ mean_p (\S+) retention_kl (\S+)$", re.M)


def _readme_commands() -> list[list[str]]:
    """The words of every `zpdistill` line in the README's sh blocks, with
    backslash continuations joined and each line cut at its first shell
    operator (a pipe or a redirection)."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in readme.split("```sh\n")[1:]:
        for line in block.split("```", 1)[0].replace("\\\n", " ").splitlines():
            if line.split()[:1] != ["zpdistill"]:
                continue
            words = shlex.split(line, comments=True)
            cut = next(
                (i for i, w in enumerate(words) if w[0] in "|>;&" or w.startswith("2>")),
                len(words),
            )
            commands.append(words[:cut])
    return commands


_README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("words", _README_COMMANDS, ids=" ".join)
def test_readme_command_parses(words):
    try:
        _build_parser(words[1]).parse_args(words[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {' '.join(words)}")


def test_readme_names_every_subcommand():
    assert {words[1] for words in _README_COMMANDS} == {
        "weight", "select-exponents", "robustness", "variance-ratio",
        "snr-profile", "fit-snr", "simulate",
    }


@pytest.fixture
def recipe_dir(tmp_path, monkeypatch):
    """A working directory laid out like the repository root."""
    shutil.copytree(_ROOT / "configs", tmp_path / "configs")
    (tmp_path / "out" / "golden").mkdir(parents=True)
    (tmp_path / "out" / "snr_bell").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(capsys, recipe: str, **values) -> tuple[str, str]:
    """Run one README command with its shell variables set; (stdout, stderr)."""
    words = shlex.split(recipe)
    assert words in _README_COMMANDS, f"not a README command: {recipe}"
    capsys.readouterr()
    assert main([string.Template(w).substitute(values) for w in words[1:]]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bell_ratio(err: str) -> str:
    (ratio,) = re.findall(r"^bell: true ratio: (\S+)$", err, re.M)
    return ratio


def test_golden_recipe(recipe_dir, capsys):
    _, err = _run(capsys, _GOLDEN_SIMULATE)
    assert _GOLDEN_FINAL in err.splitlines()
    out = recipe_dir / "out" / "golden"
    for step in (0, 20):
        _, err = _run(capsys, _GOLDEN_PROFILE, step=step)
        assert _bell_ratio(err) == _BELL_RATIOS[step]
    names = ["metrics.csv", "gradients_step0.csv", "gradients_step20.csv",
             "profile_step0.csv", "profile_step20.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert {name: _sha256(out / name) for name in names} == {n: _SHA256[n] for n in names}


def test_snr_bell_recipe(recipe_dir, capsys):
    _run(capsys, _BELL_SIMULATE)
    out = recipe_dir / "out" / "snr_bell"
    for step in (0, 20, 40):
        _, err = _run(capsys, _BELL_PROFILE, step=step)
        assert _bell_ratio(err) == _BELL_RATIOS[step]
        for name in (f"gradients_step{step}.csv", f"profile_step{step}.csv"):
            assert _sha256(out / name) == _SHA256[name]
    stdout, _ = _run(capsys, _BELL_FIT)
    fit = dict(line.split(" = ", 1) for line in stdout.splitlines())
    assert {key: fit[key] for key in _FIT} == _FIT


def test_fit_snr_rejects_the_step40_profile(recipe_dir, capsys):
    # By step 40 the bell has flattened: both fitted exponents are negative.
    _run(capsys, _BELL_SIMULATE)
    _run(capsys, _BELL_PROFILE, step=40)
    assert main(["fit-snr", "out/snr_bell/profile_step40.csv"]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    (a_prime, b_prime) = re.fullmatch(
        r"error: fitted exponents must be positive, got \((\S+), (\S+)\)", err).groups()
    assert (float(a_prime), float(b_prime)) == pytest.approx((-0.121, -0.173), abs=5e-4)


def _final(err: str) -> tuple[float, float]:
    (match,) = _FINAL_RE.finditer(err)
    return float(match[1]), float(match[2])


def test_weighting_comparison_recipe(recipe_dir, capsys):
    for seed in _SEEDS:
        final = {
            scheme: _final(_run(capsys, _COMPARE_SCHEME, seed=seed, scheme=scheme)[1])
            for scheme in ("beta", "hard", "unweighted")
        }
        _final(_run(capsys, _COMPARE_TWO_STAGE, seed=seed)[1])
        (beta_p, beta_kl), (flat_p, flat_kl) = final["beta"], final["unweighted"]
        assert beta_p >= flat_p and beta_kl <= flat_kl, seed


def test_readme_quotes_the_pinned_values():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Recipes", 1)[1].split("\n## ", 1)[0]
    pinned = [*_BELL_RATIOS.values(), *_FIT.values(), *_GOLDEN_FINAL.split()[-3::2]]
    for value in pinned:
        assert f"{float(value):.3f}" in section, value


def _reports_bullet() -> dict[str, str]:
    """Each command's part of the Reports bullet under File formats."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    bullet = section.split("- **Reports**", 1)[1].split("\n- **", 1)[0]
    parts = re.split(r"^  - `([a-z-]+)`", bullet, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _documented_keys(part: str) -> list[str]:
    """The keys of a part in order of first mention: each backticked `key`
    or `key = value`."""
    spans = (re.fullmatch(r"([a-z][a-z0-9_]*)(?: = .*)?", span, re.S)
             for span in re.findall(r"`([^`]+)`", part))
    return list(dict.fromkeys(m[1] for m in spans if m))


@pytest.mark.parametrize("command", ["select-exponents", "variance-ratio", "fit-snr"])
def test_reports_bullet_lists_the_printed_keys_in_order(tmp_path, command):
    documented = _documented_keys(_reports_bullet()[command])
    printed_by_some_run = set()
    for argv, lines, _ in _REPORT_RUNS.values():
        if argv[0] != command:
            continue
        text = _report_bytes(tmp_path, argv, lines).decode("utf-8")
        printed = [line.split(" = ", 1)[0] for line in text.splitlines()]
        assert set(printed) <= set(documented), argv
        assert printed == sorted(printed, key=documented.index), argv
        printed_by_some_run.update(printed)
    assert set(documented) == printed_by_some_run


def test_reports_bullet_gives_the_robustness_header(tmp_path):
    argv, lines, _ = _REPORT_RUNS["robustness"]
    header = _report_bytes(tmp_path, argv, lines).decode("utf-8").splitlines()[0]
    assert f"`{header}`" in _reports_bullet()["robustness"]
