"""Correctness check of one CLI command's stdout against the recorded reference.

Every output line is one checked record (an item).  JSON lines are compared
field by field: integers, booleans and strings exactly, floats within
FLOAT_RTOL, and the timing field ``elapsed_ms`` is ignored.  Other lines
(CSV) are compared exactly.  A large all-integer output (``coeffs``) is
recorded as a SHA-256 digest and counts as one item.  On top of the
reference, the invariants the paper's results rest on are asserted per
record.  The proof details of a certificate (the primes used and the
surviving degree set) are checked by invariants only, not against the
reference: a certifier that proves the same verdicts with other primes is
correct.  A verdict is one certificate, one located root, one theorem report
or one summatory identity; it is unproved when it is an ``Unresolved``
certificate or an ``undetermined`` root.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

FLOAT_RTOL = 1e-9
IGNORED_FIELDS = ("elapsed_ms",)
# per command: fields that record how a verdict was proved, checked in _judge
PROOF_FIELDS = {"irreducible": ("primes_used", "surviving_degree_set")}
# the CLI's certification schedule: primes from 101 up, at most --max-primes 12
PRIME_START, MAX_PRIMES = 101, 12


@dataclass
class Outcome:
    items: int = 0
    failed: int = 0
    verdicts: int = 0
    unproved: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.items += other.items
        self.failed += other.failed
        self.verdicts += other.verdicts
        self.unproved += other.unproved
        self.problems.extend(other.problems)


def record_reference(argv: list[str], stdout: str, hashed: bool) -> dict:
    if hashed:
        return {"argv": argv, "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                "bytes": len(stdout.encode())}
    return {"argv": argv, "lines": stdout.splitlines()}


def _parse(line: str, drop: tuple[str, ...] = ()):
    if line.startswith("{"):
        rec = json.loads(line)
        for key in IGNORED_FIELDS + drop:
            rec.pop(key, None)
        return rec
    return line


def _scheduled_primes(primes) -> bool:
    """Distinct ascending primes of the certification schedule."""
    return (isinstance(primes, list) and 0 < len(primes) <= MAX_PRIMES
            and all(type(p) is int and p >= PRIME_START
                    and all(p % d for d in range(2, math.isqrt(p) + 1))
                    for p in primes)
            and all(a < b for a, b in zip(primes, primes[1:])))


def same(ref, out) -> bool:
    if isinstance(ref, bool) or isinstance(out, bool):
        return type(ref) is type(out) and ref == out
    if isinstance(ref, float) and isinstance(out, float):
        return math.isclose(ref, out, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    if isinstance(ref, dict) and isinstance(out, dict):
        return ref.keys() == out.keys() and all(same(ref[k], out[k]) for k in ref)
    if isinstance(ref, list) and isinstance(out, list):
        return len(ref) == len(out) and all(map(same, ref, out))
    return type(ref) is type(out) and ref == out


def _table1_row(rec):
    if not isinstance(rec, str) or rec.startswith("N,"):
        return None
    N, two_phi, inside, on, outside, undet = (int(v) for v in rec.split(","))
    return two_phi, inside, on, outside, undet


def _judge(command: str, rec, out: Outcome) -> str | None:
    """Count the record's verdicts; return a broken invariant, if any."""
    if command == "irreducible":
        out.verdicts += 1
        out.unproved += rec["verdict"] == "Unresolved"
        if rec["verdict"] != "Irreducible":
            return f"N={rec.get('N')} verdict {rec['verdict']}"
        if rec["surviving_degree_set"] != []:
            return f"N={rec['N']} Irreducible with surviving degrees"
        if not _scheduled_primes(rec["primes_used"]):
            return f"N={rec['N']} primes_used {rec['primes_used']} off the schedule"
    elif command == "table1":
        row = _table1_row(rec)
        if row is not None:
            two_phi, inside, on, outside, undet = row
            out.verdicts += inside + on + outside + undet
            out.unproved += undet
            if on != two_phi or undet:
                return f"row {rec!r}: on != two_phi_N or undetermined > 0"
    elif command == "verify":
        out.verdicts += 1
        if rec["holds"] is not True:
            return f"N={rec['N']} {rec['theorem_id']} does not hold"
    elif command == "summatory":
        out.verdicts += 1
        if rec["identity_ok"] is not True:
            return "summatory identity_ok is false"
    return None


def check(ref: dict, rc, stdout: str, error: str | None) -> Outcome:
    """Outcome of one command run; every mismatch is a failed item."""
    command = ref["argv"][0]
    out = Outcome()
    if "sha256" in ref:
        out.items = 1
        if rc != 0 or hashlib.sha256(stdout.encode()).hexdigest() != ref["sha256"]:
            out.failed = 1
            out.problems.append(f"{command}: exit {rc}, output digest differs"
                                + (f"\n{error}" if error else ""))
        return out
    ref_lines = ref["lines"]
    out.items = len(ref_lines)
    if rc != 0:
        out.failed = out.items
        out.problems.append(f"{command}: exit {rc}" + (f"\n{error}" if error else ""))
        return out
    lines = stdout.splitlines()
    for i, ref_line in enumerate(ref_lines):
        if i >= len(lines):
            out.failed += 1
            out.problems.append(f"{command}: line {i + 1}: missing")
            continue
        try:
            broken = _judge(command, _parse(lines[i]), out)
            proof = PROOF_FIELDS.get(command, ())
            if not same(_parse(ref_line, proof), _parse(lines[i], proof)):
                broken = broken or "differs from reference"
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            broken = f"unreadable ({exc!r})"
        if broken:
            out.failed += 1
            out.problems.append(f"{command}: line {i + 1}: {broken}")
    if len(lines) > len(ref_lines):
        extra = len(lines) - len(ref_lines)
        out.items += extra
        out.failed += extra
        out.problems.append(f"{command}: {extra} unexpected extra lines")
    return out
