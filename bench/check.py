"""Compare one CLI run with the reference recorded for it.

A run fails when its exit code, its verdict (the ``verdict:`` or ``holds:``
line), or the fingerprints of the trajectories it simulated differ from the
reference, or when a numeric CSV field differs by more than a relative
``CSV_RTOL``.  Changed stdout or CSV bytes whose numbers still agree are
output drift: reported, not failed, because rewriting a computation (a
closed-form inverse in place of bisection, say) may move last bits.
"""

from __future__ import annotations

import hashlib
import json
import lzma
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_RTOL = 1e-9
# CSV references store numbers to 12 significant digits (rounding error
# below 5e-13 relative, far inside CSV_RTOL) to keep the files small
CSV_DIGITS = 12


def fingerprint(trajectory) -> str:
    """``Trajectory.fingerprint`` as defined when the reference was recorded,
    hashed in chunks so that long trajectories add no memory peak."""
    digest = hashlib.sha256()
    states = trajectory.log_states
    for start in range(0, len(states), 4096):
        chunk = ",".join(repr(float(v)) for v in states[start:start + 4096])
        digest.update(((',' if start else '') + chunk).encode())
    digest.update(f";truncated={bool(trajectory.truncated)}".encode())
    return digest.hexdigest()[:16]


def distinct(items: list[str]) -> list[str]:
    """Items in first-seen order without repeats: a run that simulates the
    same trajectory twice delivers it once."""
    return list(dict.fromkeys(items))


def verdict_line(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(("verdict:", "holds:")):
            return line
    return None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def round_field(field: str) -> str:
    try:
        value = float(field)
    except ValueError:
        return field
    return format(value, f".{CSV_DIGITS}g") if value == value and abs(value) != float("inf") else field


def rounded_csv(text: str) -> str:
    return "".join(",".join(round_field(f) for f in line.split(",")) + "\n"
                   for line in text.splitlines())


def csv_disagreement(actual: str, reference: str) -> str | None:
    """None when every field agrees: text exactly, numbers within CSV_RTOL."""
    got, want = actual.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return f"{len(got)} CSV lines, reference has {len(want)}"
    for lineno, (a_line, r_line) in enumerate(zip(got, want), start=1):
        a_fields, r_fields = a_line.split(","), r_line.split(",")
        if len(a_fields) != len(r_fields):
            return f"line {lineno}: {len(a_fields)} fields, reference has {len(r_fields)}"
        for a, r in zip(a_fields, r_fields):
            if a == r:
                continue
            try:
                av, rv = float(a), float(r)
            except ValueError:
                return f"line {lineno}: {a!r} where the reference has {r!r}"
            if av != rv and not abs(av - rv) <= CSV_RTOL * max(abs(av), abs(rv)):
                return f"line {lineno}: {a!r} differs from {r!r} by more than {CSV_RTOL:g}"
    return None


@dataclass
class Outcome:
    failed: bool
    drift: bool
    reason: str = ""


class Reference:
    def __init__(self, directory: Path = REFERENCE_DIR):
        self.directory = directory
        with open(directory / "reference.json", encoding="ascii") as fh:
            data = json.load(fh)
        self.runs: dict[str, dict] = data["runs"]
        self.workload_steps: dict[str, int] = data["workload_steps"]

    def _csv(self, name: str) -> str:
        return lzma.decompress((self.directory / name).read_bytes()).decode("ascii")

    def check(self, run_id: str, exit_code: int | None, stdout: str,
              out_bytes: bytes | None, fingerprints: list[str]) -> Outcome:
        ref = self.runs[run_id]
        if exit_code != ref["exit"]:
            return Outcome(True, False, f"exit code {exit_code}, reference {ref['exit']}")
        verdict = verdict_line(stdout)
        if verdict != ref["verdict"]:
            return Outcome(True, False, f"verdict {verdict!r}, reference {ref['verdict']!r}")
        if distinct(fingerprints) != ref["fingerprints"]:
            return Outcome(True, False, f"trajectories {distinct(fingerprints)}, "
                                        f"reference {ref['fingerprints']}")
        if (out_bytes is None) != (ref["out_sha256"] is None):
            return Outcome(True, False, "out= file missing" if out_bytes is None
                           else "unexpected out= file")
        drift = False
        streams = (("stdout", stdout.encode()), ("out", out_bytes))
        for stream, data in streams:
            if data is None or sha256(data) == ref[f"{stream}_sha256"]:
                continue
            drift = True
            csv_name = ref["csv"].get(stream)
            if csv_name is not None:
                problem = csv_disagreement(data.decode("ascii", "replace"), self._csv(csv_name))
                if problem is not None:
                    return Outcome(True, False, f"{stream} CSV: {problem}")
        return Outcome(False, drift, "output bytes changed, numbers agree" if drift else "")
