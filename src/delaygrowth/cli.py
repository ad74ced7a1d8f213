"""Config-driven command line front end.

A run is described by a flat ``key = value`` file (``#`` starts a comment)::

    command = verify
    f       = zero
    g       = power(1, 0.5)
    tau     = 1
    psi     = const(1)
    N       = 10
    horizon = 2000

Invoke as ``delaygrowth CONFIG [KEY=VALUE ...]`` or, without a file, as
``delaygrowth COMMAND [KEY=VALUE ...]``; later ``KEY=VALUE`` pairs override
earlier settings.  Exit codes: 0 success, 1 failed verification or envelope,
2 configuration or domain problem (including a refused prediction, a config
file that is not ASCII and an ``out`` path that cannot be written), 3 numeric
failure before a usable estimate, 141 (128 + SIGPIPE) when stdout is closed
before the output is written.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import IO, Callable

from .analysis import (
    PredictionRefused, default_functional, envelope_check, envelope_margins,
    format_prediction, format_verification, predict, solve_char_eq, sweep_h,
    verify_scenario,
)
from .coefficients import parse_coefficient
from .errors import DomainError, HorizonExceeded, NumericError
from .simulator import (
    Scenario, parse_history, simulate_euler, write_trajectory_csv,
)

# every key a config file or override may set
KNOWN_KEYS = ("command", "f", "g", "tau", "psi", "N", "horizon", "out", "tol",
              "eps", "C")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    values: dict[str, str] = field(default_factory=dict)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"command '{self.command}' needs the key '{key}'")
        return self.values[key]

    def get_float(self, key: str, default: float | None = None) -> float:
        if default is not None and key not in self.values:
            return default
        raw = self.require(key)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': not a number: {raw!r}") from None

    def get_int(self, key: str) -> int:
        raw = self.require(key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': not an integer: {raw!r}") from None


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="ascii") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {path}: not ASCII text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        values[key] = value
    return values


def parse_overrides(args: list[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    for arg in args:
        key, sep, value = arg.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"override {arg!r}: expected KEY=VALUE")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"override {arg!r}: unknown key '{key}'")
        values[key] = value
    return values


def load_config(argv: list[str]) -> RunConfig:
    if not argv:
        raise ConfigError(USAGE.rstrip())
    head, rest = argv[0], argv[1:]
    if head in COMMANDS:
        values = {"command": head}
        values.update(parse_overrides(rest))
    elif os.path.exists(head):
        values = parse_config_file(head)
        values.update(parse_overrides(rest))
    else:
        raise ConfigError(f"no such config file or command: {head!r}")
    command = values.pop("command", None)
    if command is None:
        raise ConfigError("no command given (set 'command = ...' in the config)")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    return RunConfig(command=command, values=values)


def build_scenario(config: RunConfig) -> Scenario:
    f = parse_coefficient(config.values.get("f", "zero"))
    g = parse_coefficient(config.require("g"))
    history = parse_history(config.require("psi"))
    return Scenario(f=f, g=g, tau=config.get_float("tau"),
                    steps_per_delay=config.get_int("N"), history=history,
                    horizon=config.get_float("horizon"))


def _write_out(path: str, write: Callable[[IO[str]], object]) -> None:
    """Hand ``write`` the ASCII text file at ``path``.

    A path that cannot be written is a configuration problem (exit 2), not a
    failed run (exit 1).
    """
    try:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            write(handle)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _csv(header: str, rows: list[str]) -> str:
    return header + "\n" + "".join(row + "\n" for row in rows)


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def cmd_simulate(config: RunConfig) -> int:
    scenario = build_scenario(config)
    trajectory = simulate_euler(scenario)
    functional = default_functional(scenario.g)
    out = config.values.get("out")
    if out is None:
        write_trajectory_csv(trajectory, sys.stdout, functional)
    else:
        _write_out(out, lambda handle: write_trajectory_csv(trajectory, handle, functional))
        note = " (truncated at the overflow cap)" if trajectory.truncated else ""
        print(f"wrote {len(trajectory.log_states)} rows to {out}{note}")
    return 0


def cmd_predict(config: RunConfig) -> int:
    scenario = build_scenario(config)
    prediction = predict(scenario)
    print(format_prediction(prediction, h=scenario.h))
    return 0


def cmd_verify(config: RunConfig) -> int:
    scenario = build_scenario(config)
    result = verify_scenario(scenario, tolerance=config.get_float("tol", 0.05))
    print(format_verification(result))
    out = config.values.get("out")
    if out is not None:
        _write_out(out, lambda handle: write_trajectory_csv(
            result.trajectory, handle, result.prediction.functional))
        print(f"wrote trajectory to {out}")
    return 0 if result.passed else 1


def cmd_sweep(config: RunConfig) -> int:
    f = parse_coefficient(config.values.get("f", "zero"))
    g = parse_coefficient(config.require("g"))
    history = parse_history(config.require("psi"))
    raw = config.require("N")
    try:
        grids = [int(part) for part in raw.split(",")]
    except ValueError:
        raise ConfigError(f"key 'N': expected a comma-separated list, got {raw!r}") from None
    tol = config.get_float("tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"key 'tol': must be finite and nonnegative "
                          f"(0 means relative 5%), got {config.values['tol']!r}")
    result = sweep_h(f, g, config.get_float("tau"), history,
                     config.get_float("horizon"), grids,
                     tolerance=tol if tol > 0 else None)
    rows = [f"{p.steps_per_delay},{repr(p.h)},{_cell(p.predicted)},"
            f"{_cell(p.estimated)},{p.status.value}"
            for p in result.points]
    # the h -> 0 limit goes in a final row with the grid sentinel 0
    rows.append(f"0,0.0,{_cell(result.continuous_rate)},"
                f"{_cell(result.extrapolated)},extrapolated")
    text = _csv("N,h,predicted,estimated,status", rows)
    out = config.values.get("out")
    if out is None:
        sys.stdout.write(text)
    else:
        _write_out(out, lambda handle: handle.write(text))
        print(f"regime: {result.regime.kind.value}")
        print(f"extrapolated rate at h=0: {result.extrapolated!r} "
              f"(predicted {result.continuous_rate!r})")
    return 0


def cmd_chareq(config: RunConfig) -> int:
    rate = solve_char_eq(config.get_float("C"), config.get_float("tau"))
    print(f"{rate:.12f}")
    return 0


def cmd_envelope(config: RunConfig) -> int:
    scenario = build_scenario(config)
    eps = config.get_float("eps", 0.5)
    check = envelope_check(scenario, eps)
    params = check.params
    print(f"eps: {eps!r}")
    print(f"rate: {params.rate!r}")
    print(f"offset: {params.offset!r}")
    print(f"floor (log): {params.floor_log!r}")
    print(f"steps checked: {check.checked}"
          + (" (trajectory truncated at the overflow cap)" if check.trajectory.truncated else ""))
    print(f"violations: {len(check.violations)}")
    print(f"holds: {'yes' if check.holds else 'no'}")
    out = config.values.get("out")
    if out is not None:
        trajectory = check.trajectory
        rows = [f"{n},{repr(trajectory.time(n))},{repr(state)},{repr(env)}"
                for n, state, env in envelope_margins(trajectory, params)]
        text = _csv("n,t,log_x,envelope", rows)
        _write_out(out, lambda handle: handle.write(text))
        print(f"wrote margins to {out}")
    return 0 if check.holds else 1


DISPATCH = {
    "simulate": cmd_simulate,
    "predict": cmd_predict,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "chareq": cmd_chareq,
    "envelope": cmd_envelope,
}
COMMANDS = tuple(DISPATCH)

USAGE = ("usage: delaygrowth CONFIG [KEY=VALUE ...]\n"
         "       delaygrowth COMMAND [KEY=VALUE ...]\n\n"
         f"commands: {' | '.join(COMMANDS)}\n"
         f"keys: {', '.join(KNOWN_KEYS[1:])}\n")


def _run(args: list[str]) -> int:
    try:
        config = load_config(args)
        return DISPATCH[config.command](config)
    except (ConfigError, DomainError, PredictionRefused) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NumericError, HorizonExceeded) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader closed stdout early: send what is left to devnull, so
        # the flush at exit cannot raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
