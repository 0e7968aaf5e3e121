"""Batch driver and machine-readable emitters for the goldpoly library.

Commands print JSON lines or CSV.  The ``coeffs`` table, a row per m up
to millions of rows, is written in blocks whose text comes from one numpy
decimal kernel (``_decimal_rows``), not from a string per value.  The
per-N sweeps ``verify``, ``table1`` and ``irreducible`` print each N's
records once it and every N before it are done (``_sweep``).

Exit codes: 0 all good, 1 a theorem or conjecture check failed (worth
looking at!), or an exact computation contradicted a theorem
(``goldbach.TheoremViolation``), 2 usage error, 3 computational failure
(an Unresolved certificate or an undetermined root under --strict, or any
other exception, such as a MemoryError or a broken worker pool).  A root solve
that does not converge raises nothing: it leaves roots undetermined.  A
raised error is reported as one stderr line, ``error: <Type>: <message>``,
never a traceback, with ``N=<N>: `` before the type for a sweep item.

Every command accepts --seed (below 0 it is a usage error), and no output
depends on it: stdout is a function of the other arguments alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import __version__, arith, factor, goldbach, roots
from .arith import PrimeTable, SieveRangeError
from .goldbach import IndicatorSet
from .poly import cyclotomic, divrem_exact, to_text

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3

# rows per write of the ``coeffs`` table, CSV or JSON
CSV_BLOCK_ROWS = 2 ** 14
# the decimal kernel's digit group: one 4-byte unit of text
_GROUP = 10_000


class UsageError(Exception):
    pass


def _sweep(args: argparse.Namespace, first: int, default: int,
           long_default: int, fn, *extra, header: str | None = None) -> int:
    """Print fn's records for N = first..n_max and return the exit code;
    n_max is --n-max, else ``default`` or under --long ``long_default``.

    fn maps (N, table, *extra), all N sharing one PrimeTable, to (lines,
    violated, unproved).  The header comes once n_max is checked, then each
    N's lines, flushed, once that N and every N before it are done: by the
    ordered ``map`` of a pool of at most one worker per item and per core
    above --jobs 1.  An item that raises ends the sweep with one stderr
    line naming its N.  Exit 1 if any N violated its check, else 3 under
    --strict if any N is unproved, else 0.
    """
    n_max = args.n_max if args.n_max is not None else (
        long_default if args.long_mode else default)
    if n_max < first:
        raise UsageError(f"--n-max must be >= {first}")
    table = PrimeTable(max(16, n_max))
    if header is not None:
        print(header, flush=True)
    items = [(N, table, *extra) for N in range(first, n_max + 1)]
    violated = unproved = False
    with contextlib.ExitStack() as stack:
        results = map(fn, items)
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            workers = min(args.jobs, len(items), os.cpu_count() or 1)
            results = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers)).map(fn, items)
        N = first
        try:
            for lines, bad, open_ in results:
                print("".join(f"{line}\n" for line in lines), end="",
                      flush=True)
                violated |= bad
                unproved |= open_
                N += 1
        except Exception as exc:
            return _error_exit(exc, f"N={N}: ")
    if violated:
        return EXIT_VIOLATION
    # verify has no --strict, and none of its N is ever unproved
    return EXIT_COMPUTE if unproved and args.strict else EXIT_OK


def _error_exit(exc: Exception, where: str = "") -> int:
    """Print exc as one stderr line; exit 1 for a TheoremViolation, else 3."""
    print(f"error: {where}{type(exc).__name__}: {exc}", file=sys.stderr)
    return (EXIT_VIOLATION if isinstance(exc, goldbach.TheoremViolation)
            else EXIT_COMPUTE)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args: argparse.Namespace) -> int:
    N = args.N
    if N is None or N < 2:
        raise UsageError("construct requires N >= 2")
    table = PrimeTable(max(16, N))
    source = table
    if args.indicator == "liouville":
        source = IndicatorSet.liouville_negative(table.limit, table)
    F = goldbach.goldbach_polynomial(N, source)
    if F.is_zero:
        print(f"warning: F_{N} is the zero polynomial "
              f"(indicator support below {N} is empty)", file=sys.stderr)
    obj_name = f"F_{N}"
    out = F
    if args.quotient:
        if args.indicator != "odd_primes":
            raise UsageError("--quotient applies to the odd-prime indicator only")
        # theorem (a): Phi_2N | F_N for every N
        out, rem = divrem_exact(F, cyclotomic(2 * N))
        obj_name = f"F_{N}/Phi_{2 * N}"
        if not rem.is_zero:
            raise goldbach.TheoremViolation(f"Phi_{2 * N} does not divide F_{N}")
        if args.quotient == "N,2N":
            # theorem (b): Phi_N | F_N exactly when N has no odd-prime pair
            out, rem = divrem_exact(out, cyclotomic(N))
            if not rem.is_zero:
                raise UsageError(
                    f"Phi_{N} does not divide F_{N}: {N} is a sum of two odd "
                    f"primes (R({N}) > 0); use --quotient 2N")
            obj_name = f"F_{N}/(Phi_{N}*Phi_{2 * N})"
    if args.output_format == "json":
        print(json.dumps({"object": obj_name, "N": N,
                          "indicator": args.indicator, "coefficients": to_text(out)}))
    else:
        print(to_text(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_one(item: tuple) -> tuple[list[str], bool, bool]:
    N, table, csv = item
    reps = [r.to_json_dict() for r in goldbach.theorem_reports(N, table)]
    lines = [f"{r['N']},{r['theorem_id']},{r['holds']}" if csv
             else json.dumps(r) for r in reps]
    return lines, not all(r["holds"] for r in reps), False


def cmd_verify(args: argparse.Namespace) -> int:
    csv = args.output_format == "csv"
    return _sweep(args, 2, 50, 120, _verify_one, csv,
                  header="N,theorem_id,holds" if csv else None)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def _classify_one(item: tuple) -> tuple[list[str], bool, bool]:
    """The table1 row for N.  An undetermined root leaves the 2 phi(N)
    count unproved, not contradicted; --strict reports that case."""
    N, table = item
    rc = roots.classify_roots(N, table)
    report = roots.unit_circle_count_report(rc)
    row = (rc.N, report.witness["expected_on_circle"], rc.inside,
           rc.on_circle, rc.outside, rc.undetermined)
    return ([",".join(map(str, row))],
            not report.holds and not rc.undetermined, rc.undetermined > 0)


def cmd_table1(args: argparse.Namespace) -> int:
    return _sweep(args, 6, 20, 50, _classify_one,
                  header="N,two_phi_N,inside,on,outside,undetermined")


# ---------------------------------------------------------------------------
# coeffs / summatory / hl
# ---------------------------------------------------------------------------

@functools.cache
def _digit_units() -> np.ndarray:
    """Every 4-digit group g < G as a 4-byte unit of ASCII, in three tables.

    [0, G): zero-padded, 42 as "0042", for every group but a value's
    leading one; [G, 2G): leading zeros as NUL, 42 as NUL NUL "42" and 0
    as four NULs, for the leading group or one left of it; [2G, 3G): the
    same but 0 as NUL NUL NUL "0", for the last group of a value below G.
    """
    g = np.arange(_GROUP)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    padded = g // place % 10 + ord("0")
    lead = np.where(g < place, 0, padded)
    alone = lead.copy()
    alone[0, -1] = ord("0")
    units = np.concatenate([padded, lead, alone]).astype(np.uint8)
    units = units.view(np.uint32).ravel()
    units.flags.writeable = False  # one cached array serves every call
    return units


def _decimal_rows(columns: list[np.ndarray], seps: list[str]) -> str:
    """Rows of text whose k-th field is the decimal of ``columns[k][i]``
    followed by ``seps[k]``: the CSV rows of the columns for (",", "\\n").

    The columns are equal-length arrays of non-negative int64 (a negative
    value raises ValueError); a separator is 1 to 4 ASCII characters.
    Each value is split into as many 4-digit groups as the column's largest
    value needs, one ``// G`` per group; each group is one lookup in
    ``_digit_units``, written into one uint32 array of rows with the
    separators as units of their own.  The bytes of that array less their
    NULs are the text.
    """
    units = _digit_units()
    widths = []
    for col in columns:
        if col.min(initial=0) < 0:
            raise ValueError("decimal rows take non-negative values only")
        widths.append(-(-len(str(int(col.max(initial=0)))) // 4))
    rows = np.empty((len(columns[0]), sum(widths) + len(seps)),
                    dtype=np.uint32)
    end = 0
    for col, width, sep in zip(columns, widths, seps):
        # least significant group first; ``above`` is the value left of it
        h, offset = col, 2 * _GROUP
        for j in range(end + width - 1, end - 1, -1):
            above = h // _GROUP
            rows[:, j] = units[np.where(above == 0, h + offset,
                                        h - above * _GROUP)]
            h, offset = above, _GROUP
        end += width
        rows[:, end] = np.frombuffer(sep.encode("ascii").ljust(4, b"\0"),
                                     dtype=np.uint32)[0]
        end += 1
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def cmd_coeffs(args: argparse.Namespace) -> int:
    m_max = args.m_max
    if m_max < 1:
        raise UsageError("--m-max must be >= 1")
    table = PrimeTable(max(16, m_max))
    coeff = goldbach.stable_coefficient_table(
        m_max, arith.goldbach_count_table(m_max, table))
    # Both formats stream blocks of rows through the decimal kernel, so no
    # list of a million Python ints or strings is ever built.  The JSON text
    # is what json.dumps gives for {"m_max": m_max, "a": coeff[1:]}: values
    # joined by ", ", the last block's trailing separator dropped.
    as_json = args.output_format == "json"
    out = sys.stdout
    out.write(f'{{"m_max": {m_max}, "a": [' if as_json else "m,a\n")
    for lo in range(1, m_max + 1, CSV_BLOCK_ROWS):
        hi = min(lo + CSV_BLOCK_ROWS, m_max + 1)
        if as_json:
            text = _decimal_rows([coeff[lo:hi]], [", "])
            out.write(text if hi <= m_max else text[:-2])
        else:
            out.write(_decimal_rows([np.arange(lo, hi), coeff[lo:hi]],
                                    [",", "\n"]))
    if as_json:
        out.write("]}\n")
    return EXIT_OK


def cmd_summatory(args: argparse.Namespace) -> int:
    M = args.M
    if M < 16:
        raise UsageError("--M must be >= 16")
    table = PrimeTable(max(16, 2 * M))
    report = goldbach.summatory_report(M, table)
    print(json.dumps(report))
    return EXIT_OK if report["identity_ok"] else EXIT_VIOLATION


def cmd_hl(args: argparse.Namespace) -> int:
    m_max = args.m_max
    m_min = args.m_min if args.m_min is not None else max(3, m_max // 10)
    try:
        goldbach.check_hl_range(m_min, m_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # the sieve limit also sets how far the twin-prime product runs
    implied = max(16, 2 * m_max)
    limit = implied if args.sieve_limit is None else args.sieve_limit
    if limit < implied:
        raise UsageError(f"--sieve-limit {limit} is below the bound {implied} "
                         f"implied by the command")
    table = PrimeTable(limit)
    summary = goldbach.hl_summary(m_min, m_max, table)
    print(json.dumps(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# irreducible
# ---------------------------------------------------------------------------

def _certify_one(item: tuple) -> tuple[list[str], bool, bool]:
    N, table, max_primes = item
    cert = factor.certify_goldbach_quotient(N, table, max_primes=max_primes)
    return ([json.dumps(cert.to_json_dict())], cert.verdict == "Reducible",
            cert.verdict == "Unresolved")


def cmd_irreducible(args: argparse.Namespace) -> int:
    if args.max_primes < 1:
        raise UsageError("--max-primes must be >= 1")
    return _sweep(args, 6, 30, 50, _certify_one, args.max_primes)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldpoly",
        description="Construct and verify the Goldbach polynomial family")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the optional flags it reads
    optional = {
        "--format": dict(dest="output_format", choices=["json", "csv"],
                         default=None),
        "--long": dict(dest="long_mode", action="store_true"),
        "--strict": dict(action="store_true"),
        "--indicator": dict(choices=["odd_primes", "liouville"],
                            default="odd_primes"),
    }

    def common(sp, *flags):
        sp.add_argument("--jobs", type=int, default=1)
        # kept for callers that pass it; no command's output depends on it
        sp.add_argument("--seed", type=int, default=0)
        for flag in flags:
            sp.add_argument(flag, **optional[flag])

    sp = sub.add_parser("construct", help="emit F_N (or a named quotient)")
    sp.add_argument("N", type=int)
    sp.add_argument("--quotient", choices=["2N", "N,2N"], default=None)
    common(sp, "--indicator", "--format")
    sp.set_defaults(run=cmd_construct)

    sp = sub.add_parser("verify", help="divisibility/symmetry/bound theorems")
    sp.add_argument("--n-max", type=int, default=None)
    common(sp, "--format", "--long")
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("table1", help="root-location table as CSV")
    sp.add_argument("--n-max", type=int, default=None)
    common(sp, "--long", "--strict")
    sp.set_defaults(run=cmd_table1)

    sp = sub.add_parser("coeffs", help="stabilized coefficients a(m)")
    sp.add_argument("--m-max", type=int, default=10_000)
    common(sp, "--format")
    sp.set_defaults(run=cmd_coeffs)

    sp = sub.add_parser("summatory", help="A(M) identity and main-term ratio")
    sp.add_argument("--M", type=int, default=1000)
    common(sp)
    sp.set_defaults(run=cmd_summatory)

    sp = sub.add_parser("hl", help="Hardy-Littlewood ratio summary for a(2m)")
    sp.add_argument("--m-min", type=int, default=None)
    sp.add_argument("--m-max", type=int, default=100_000)
    sp.add_argument("--sieve-limit", type=int, default=None)
    common(sp)
    sp.set_defaults(run=cmd_hl)

    sp = sub.add_parser("irreducible", help="quotient irreducibility certificates")
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--max-primes", type=int, default=12)
    common(sp, "--long", "--strict")
    sp.set_defaults(run=cmd_irreducible)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        if args.seed < 0:
            raise UsageError("--seed must be >= 0")
        return args.run(args)
    except (UsageError, SieveRangeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
