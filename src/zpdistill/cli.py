"""Command-line front end.

Every subcommand is a thin adapter: parse flags, read input files, call the
library, write output. Data tables go to stdout (or --out), and so do the
reports of select-exponents, variance-ratio and fit-snr: one ``key = value``
line per key, a float at 10 significant digits, an int or a word as written.
Progress notes, warnings and the bell report go to stderr so piped output
stays machine-readable. Any failure, running out of memory and an input file
that is not UTF-8 included, prints a single ``error: ...`` line to stderr and
exits nonzero. main builds only the invoked subcommand's parser, and every
subcommand's parser when its first argument names none of them.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import asdict
from typing import IO, Iterator

from .distill_sim import DIRECTIONS, build_world, measure_snr, train
from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    FileFormatError,
    InsufficientDataError,
    ZpdistillError,
)
from .fileio import (
    fmt,
    load_gradient_records,
    load_profile_points,
    load_rollouts,
    load_sim_config,
    parse_config_value,
    write_gradient_records,
    write_metrics,
    write_profile,
    write_weight_table,
)
from .kernel import (
    SCHEMES,
    at_flat_boundary,
    raw_weights,
    select_exponents,
    unit_mean,
    zpd_moments,
)
from .numerics import beta_fn, sech2
from .passrate import RolloutTable, equal_edges
from .robustness import fit_snr_model, minimax_scale, robustness_rows
from .snr_profile import GradientTable, bell_shape_score, compute_snr_bins, normalize_profile
from .variance import VarianceSpec, gamma_from_signal, smoothness_constant, variance_ratio_beta

__all__ = ["main"]

_DEFAULT_DELTAS = (0.1, 0.3, 0.5, math.log(2.0))


def _log(message: str) -> None:
    print(message, file=sys.stderr)


@contextmanager
def _out_stream(path: str | None) -> Iterator[IO[str]]:
    """stdout, or a buffer written to path once the body returns, so a body
    that raises leaves no new file and an existing one as it was."""
    f = sys.stdout if path is None or path == "-" else io.StringIO()
    yield f
    if f is not sys.stdout:
        with open(path, "w", encoding="utf-8") as out:
            out.write(f.getvalue())


@contextmanager
def _in_stream(path: str, error: type[ZpdistillError] = FileFormatError) -> Iterator[IO[str]]:
    """The input file at path, open as UTF-8 text; bytes that do not decode
    raise error naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text ({exc.reason})") from exc


def _write_lines(path: str | None, lines: list[str]) -> None:
    with _out_stream(path) as f:
        for line in lines:
            f.write(line + "\n")


def _report(path: str | None, report: dict[str, float | int | str]) -> None:
    """Write report in the module docstring's ``key = value`` lines."""
    _write_lines(path, [f"{key} = {fmt(v) if isinstance(v, float) else v}"
                        for key, v in report.items()])


def _load_rollout_table(path: str) -> RolloutTable:
    with _in_stream(path) as f:
        table = load_rollouts(f)
    if not table.problem_ids:
        raise FileFormatError(f"no rollout records in {path}")
    return table


def _cmd_weight(args: argparse.Namespace) -> None:
    kernel = [f"--{name}" for name in ("alpha", "beta") if getattr(args, name) is not None]
    if args.band is not None and kernel:
        raise ConfigError(f"--hard-filter cannot be combined with {', '.join(kernel)}")
    table = _load_rollout_table(args.rollouts)
    p = table.p
    if args.band is not None:
        lo, hi = args.band
        raw = raw_weights(p, "hard", lo=lo, hi=hi, floor=args.floor)
    else:  # Beta(1, 1) by default
        alpha, beta = (1.0 if x is None else x for x in (args.alpha, args.beta))
        raw = raw_weights(p, "beta", alpha=alpha, beta=beta, floor=args.floor)
    normalized = unit_mean(raw)
    with _out_stream(args.out) as f:
        write_weight_table(f, table.problem_ids, p, raw, normalized)
    # After the write, so a refused table prints its error line alone.
    if not normalized.any():
        _log("warning: every weight is zero; normalized column left at zero")


def _cmd_select_exponents(args: argparse.Namespace) -> None:
    m = zpd_moments(_load_rollout_table(args.rollouts).p, args.epsilon)
    report = {"epsilon": m.epsilon, "count": m.count, "mean_p": m.mean_p, "var_p": m.var_p,
              "var_bound": m.var_bound}
    flat = "use the flat kernel (alpha = 0, beta = 0)"
    try:
        alpha, beta = select_exponents(m)
    except DomainError:
        report["validity"] = "invalid"
        report["recommendation"] = f"variance exceeds the matchable range; {flat}"
    else:
        report.update(alpha_star=alpha, beta_star=beta,
                      validity="flat_boundary" if at_flat_boundary(m) else "ok")
        if alpha < 0.0 or beta < 0.0:
            report["recommendation"] = f"a matched exponent is negative; {flat}"
        elif not alpha == beta == 0.0:
            report["peak"] = alpha / (alpha + beta)
    _report(args.out, report)


def _cmd_robustness(args: argparse.Namespace) -> None:
    deltas = list(_DEFAULT_DELTAS) + list(args.delta or [])
    lines = ["delta,ratio_lo,ratio_hi,sech,worst_case_efficiency"]
    lines += [f"{fmt(d)},{fmt(lo)},{fmt(hi)},{fmt(s)},{fmt(eff)}"
              for d, lo, hi, s, eff in robustness_rows(deltas)]
    _write_lines(args.out, lines)


def _cmd_variance_ratio(args: argparse.Namespace) -> None:
    flags = {f"--{name}": getattr(args, name) for name in ("alpha", "beta", "gamma1", "gamma2")}
    given = [flag for flag, value in flags.items() if value is not None]
    if args.signal is not None:
        if given:
            raise ConfigError(f"--signal cannot be combined with {', '.join(given)}")
        a_s, b_s, a_prime, b_prime = args.signal
        gamma1, gamma2 = gamma_from_signal(a_s, b_s, a_prime, b_prime)
        alpha, beta = a_prime, b_prime
    elif len(given) < 4:
        raise ConfigError(
            "variance-ratio needs either --signal or all of --alpha --beta --gamma1 --gamma2 "
            f"(missing: {', '.join(flag for flag in flags if flag not in given)})"
        )
    else:
        alpha, beta, gamma1, gamma2 = flags.values()
    spec = VarianceSpec(alpha=alpha, beta=beta, gamma1=gamma1, gamma2=gamma2)
    r = variance_ratio_beta(spec, epsilon=args.epsilon)
    report = asdict(spec)
    if args.epsilon is None:
        report.update((f"b_{name}", beta_fn(e1 + 1, e2 + 1))
                      for name, (e1, e2) in zip(("numerator", "kernel", "signal"), spec.moments()))
    else:
        report["epsilon"] = f"{fmt(args.epsilon)} (truncated moments)"
    report.update(variance_ratio=r, reduces_variance="yes" if r < 1.0 else "no",
                  variance_factor_vs_unweighted=1.0 / r)
    _report(args.out, report)


def _cmd_snr_profile(args: argparse.Namespace) -> None:
    equal_edges(args.bins)  # checks --bins before the file is read
    with _in_stream(args.gradients) as f:
        table = load_gradient_records(f)
    profile = compute_snr_bins(table, args.bins)
    try:
        profile = normalize_profile(profile)
    except DegenerateInputError as exc:
        _log(f"normalization unavailable ({exc})")
    with _out_stream(args.out) as f:
        write_profile(f, profile)
    try:
        is_bell, ratio = bell_shape_score(profile)
    except (InsufficientDataError, DegenerateInputError) as exc:
        _log(f"bell: unavailable ({exc})")
    else:
        _log(f"bell: {'true' if is_bell else 'false'} ratio: {fmt(ratio)}")


def _cmd_fit_snr(args: argparse.Namespace) -> None:
    with _in_stream(args.profile) as f:
        fit = fit_snr_model(*load_profile_points(f))
    _report(args.out, {**asdict(fit), "minimax_scale": minimax_scale(fit.delta),
                        "worst_case_efficiency": sech2(fit.delta)})


# simulate's override flags: (flag, SimConfig field, help). Values are
# parsed and checked like the same keys in a config file.
_OVERRIDES = (
    ("--seed", "seed", "the world seed"),
    ("--k", "rollout_count", "rollouts per pass-rate estimate"),
    ("--alpha", "alpha", "the kernel exponent on p"),
    ("--beta", "beta", "the kernel exponent on 1-p"),
    ("--scheme", "scheme", f"the weighting scheme ({', '.join(SCHEMES)})"),
    ("--schedule", "loss_direction",
     f"the loss direction schedule ({', '.join(DIRECTIONS)})"),
    ("--stage1-fraction", "stage1_fraction", "the two-stage switch fraction"),
    ("--recompute-interval", "recompute_interval",
     "the weight recompute interval (integer or 'none')"),
    ("--steps", "steps", "the number of training steps"),
    ("--eta", "learning_rate", "the learning rate"),
)


def _cmd_simulate(args: argparse.Namespace) -> None:
    if args.dump_step is not None and not args.dump_gradients:
        raise ConfigError("--dump-step has no effect without --dump-gradients")
    text = ""
    if args.config:
        with _in_stream(args.config, ConfigError) as f:
            text = f.read()
    overrides = {
        field: parse_config_value(field, raw, flag)
        for flag, field, _ in _OVERRIDES
        if (raw := getattr(args, field)) is not None
    }

    config = load_sim_config(text, overrides)
    # A flag the resolved mode ignores is an error; the same key in a config
    # file is not, as a file may spell out every key.
    ignored = []
    for fields, setting, value, mode in (
        (("alpha", "beta"), "scheme", config.scheme, "beta"),
        (("stage1_fraction",), "schedule", config.loss_direction, "two_stage"),
    ):
        flags = [flag for flag, field, _ in _OVERRIDES if field in fields and field in overrides]
        if flags and value != mode:
            ignored.append(f"{setting} {value!r} ignores {' and '.join(flags)}")
    if ignored:
        raise ConfigError("; ".join(ignored))
    dump_steps = (args.dump_step or [20]) if args.dump_gradients else ()
    for step in dump_steps:
        if not 0 <= step <= config.steps:
            raise ConfigError(f"--dump-step {step} outside [0, {config.steps}] (default 20)")
    world = build_world(config)
    # The SNR dump at each dump step, once however often it is named, and the
    # first warning of each kind, decided at the recompute that computes the
    # forward-KL smoothness constant L of its weights.
    dumps, warnings = {}, {}

    def observe(world, direction, weights, counts):
        if counts is not None:
            eta_l = config.learning_rate * smoothness_constant(world.features, weights)
            if eta_l >= 2.0:
                scope = "" if config.loss_direction == "forward" else (
                    "; the bound covers forward KL only")
                warnings.setdefault("eta*L", (
                    f"warning: eta*L = {fmt(eta_l)} >= 2 at step {world.step}, so gradient "
                    f"descent is no longer guaranteed to decrease the loss{scope}"))
            if not weights.any():
                warnings.setdefault("zero", (
                    f"warning: every weight is zero at step {world.step}, "
                    "so the updates until the next recompute change nothing"))
        if world.step in dump_steps:
            dumps[world.step] = GradientTable(world.problem_ids, *measure_snr(world, direction))

    metrics = train(world, observe=observe)

    # Every dump is opened before any is written and the metrics are written
    # last, so a dump path that cannot be opened leaves no metrics behind.
    # The dumps stream to their files; the observer filled them in step order.
    with ExitStack() as stack:
        files = [
            stack.enter_context(open(f"{args.dump_gradients}{step}.csv", "w", encoding="utf-8"))
            for step in dumps
        ]
        for table, f in zip(dumps.values(), files):
            write_gradient_records(f, table)
            _log(f"wrote gradient dump {f.name}")
    with _out_stream(args.out) as out:
        write_metrics(out, metrics)

    _log(
        "recomputed weights at steps: "
        + ", ".join(str(s) for s in metrics.recompute_steps)
    )
    for kind in ("eta*L", "zero"):
        if kind in warnings:
            _log(warnings[kind])
    if metrics.stage_switch_step is not None:
        _log(f"stage switch at step {metrics.stage_switch_step}")
    _log(
        f"final step {metrics.step[-1]}: loss {fmt(metrics.loss[-1])} "
        f"mean_p {fmt(metrics.mean_p[-1])} retention_kl {fmt(metrics.retention_kl[-1])}"
    )


# Every subcommand in help order: its name, one-line help and handler.
_COMMANDS = {
    "weight": ("weight rollout records with a pass-rate kernel", _cmd_weight),
    "select-exponents": (
        "moment-matched kernel exponents from observed pass rates", _cmd_select_exponents),
    "robustness": ("worst-case efficiency table for misspecification radii", _cmd_robustness),
    "variance-ratio": (
        "closed-form weighted/unweighted gradient variance ratio", _cmd_variance_ratio),
    "snr-profile": ("binned gradient SNR profile with bell-shape report", _cmd_snr_profile),
    "fit-snr": ("fit the power-law SNR model to a profile and report its radius", _cmd_fit_snr),
    "simulate": ("run the synthetic distillation world", _cmd_simulate),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with a command name of that one alone."""
    parser = argparse.ArgumentParser(
        prog="zpdistill",
        description="Pass-rate weighted distillation: kernels, diagnostics, simulator.",
    )
    # A one-command parser still names every command in its usage line.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output path (default stdout)")
        match name:
            case "weight":
                p.add_argument("rollouts", help="JSONL rollout file")
                p.add_argument("--alpha", type=float, help="kernel exponent on p (default 1)")
                p.add_argument("--beta", type=float, help="kernel exponent on 1-p (default 1)")
                p.add_argument(
                    "--hard-filter",
                    dest="band",
                    nargs=2,
                    type=float,
                    metavar=("LO", "HI"),
                    help="use a keep-band indicator instead of the smooth kernel",
                )
                p.add_argument("--floor", type=float, default=0.0, help="minimum raw weight")
            case "select-exponents":
                p.add_argument("rollouts", help="JSONL rollout file")
                p.add_argument(
                    "--epsilon",
                    type=float,
                    default=0.125,
                    help="band margin: only pass rates in [eps, 1-eps] enter the moments",
                )
            case "robustness":
                p.add_argument(
                    "--delta",
                    type=float,
                    action="append",
                    help="extra log-misspecification radius (repeatable)",
                )
            case "variance-ratio":
                p.add_argument("--alpha", type=float, help="kernel exponent on p")
                p.add_argument("--beta", type=float, help="kernel exponent on 1-p")
                p.add_argument("--gamma1", type=float, help="second-moment exponent on p")
                p.add_argument("--gamma2", type=float, help="second-moment exponent on 1-p")
                p.add_argument(
                    "--signal",
                    nargs=4,
                    type=float,
                    metavar=("A_S", "B_S", "A_PRIME", "B_PRIME"),
                    help="derive exponents from signal and snr power laws instead",
                )
                p.add_argument(
                    "--epsilon",
                    type=float,
                    help="truncate moment integrals to [eps, 1-eps] (diagnostic)",
                )
            case "snr-profile":
                p.add_argument("gradients", help="gradient CSV file")
                p.add_argument(
                    "--bins", type=int, default=10, help="number of equal-width bins")
            case "fit-snr":
                p.add_argument("profile", help="profile CSV file")
            case "simulate":
                p.add_argument("--config", help="INI config file (defaults used when omitted)")
                for flag, field, override_help in _OVERRIDES:
                    p.add_argument(flag, dest=field, help=f"override {override_help}")
                p.add_argument(
                    "--dump-gradients",
                    metavar="PREFIX",
                    help="write per-problem gradient CSVs named PREFIX<step>.csv",
                )
                p.add_argument(
                    "--dump-step",
                    type=int,
                    action="append",
                    help="training step at which to dump gradients (repeatable; default 20)",
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        args.func(args)
    except (ZpdistillError, OSError, MemoryError) as exc:
        # A MemoryError raised by the interpreter itself carries no message; a
        # message that quotes input text over several lines is joined into one.
        message = " ".join((str(exc) or type(exc).__name__).splitlines())
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0
