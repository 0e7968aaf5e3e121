"""Batch driver and machine-readable emitters for the goldpoly library.

Exit codes: 0 all good, 1 a theorem or conjecture check failed (worth
looking at!), 2 usage error, 3 computational failure (solver
non-convergence, or an Unresolved certificate under --strict).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, factor, goldbach, roots
from .arith import PrimeTable, SieveRangeError
from .goldbach import IndicatorSet
from .poly import to_text
from .roots import SolverError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3

# rows per write of the ``coeffs`` CSV
CSV_BLOCK_ROWS = 2 ** 14


class UsageError(Exception):
    pass


def _per_n_seed(seed: int, N: int) -> int:
    return seed * 1_000_003 + N


def _sweep(args: argparse.Namespace, first: int, default: int,
           long_default: int, fn, *extra) -> list:
    """fn over (N, table, *extra) for N = first..n_max in order, with
    n_max from --n-max, else ``default`` or under --long ``long_default``.

    All N share one PrimeTable.  Above --jobs 1 the items go to a pool of
    at most one worker per item and per core, imported only then.
    """
    n_max = args.n_max if args.n_max is not None else (
        long_default if args.long_mode else default)
    if n_max < first:
        raise UsageError(f"--n-max must be >= {first}")
    table = PrimeTable(max(16, n_max))
    items = [(N, table, *extra) for N in range(first, n_max + 1)]
    if args.jobs == 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor
    workers = min(args.jobs, len(items), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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
        from .poly import cyclotomic, divrem_exact
        # theorem (a): Phi_2N | F_N for every N
        out, rem = divrem_exact(F, cyclotomic(2 * N))
        obj_name = f"F_{N}/Phi_{2 * N}"
        if not rem.is_zero:
            print(f"error: {obj_name} is not an exact quotient", file=sys.stderr)
            return EXIT_VIOLATION
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

def _verify_one(item: tuple) -> list[dict]:
    N, table = item
    return [r.to_json_dict() for r in goldbach.theorem_reports(N, table)]


def cmd_verify(args: argparse.Namespace) -> int:
    all_reports = _sweep(args, 2, 50, 120, _verify_one)
    failures = 0
    lines = []
    for reports in all_reports:
        for rep in reports:
            if not rep["holds"]:
                failures += 1
            if args.output_format == "csv":
                lines.append(f"{rep['N']},{rep['theorem_id']},{rep['holds']}")
            else:
                lines.append(json.dumps(rep))
    if args.output_format == "csv":
        lines.insert(0, "N,theorem_id,holds")
    print("\n".join(lines))
    return EXIT_VIOLATION if failures else EXIT_OK


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def _classify_one(item: tuple) -> tuple[tuple, bool]:
    """The table1 row for N, and whether it contradicts the 2 phi(N) count.

    An undetermined root leaves the count unproved, not contradicted;
    --strict reports that case.
    """
    N, table, seed = item
    rc = roots.classify_roots(N, table, seed=_per_n_seed(seed, N))
    report = roots.unit_circle_count_report(rc)
    row = (rc.N, report.witness["expected_on_circle"], rc.inside,
           rc.on_circle, rc.outside, rc.undetermined)
    return row, not report.holds and rc.undetermined == 0


def cmd_table1(args: argparse.Namespace) -> int:
    results = _sweep(args, 6, 20, 50, _classify_one, args.seed)
    lines = ["N,two_phi_N,inside,on,outside,undetermined"]
    undetermined = 0
    violations = 0
    for row, violated in results:
        undetermined += row[5]
        violations += violated
        lines.append(",".join(str(v) for v in row))
    print("\n".join(lines))
    if violations:
        return EXIT_VIOLATION
    if args.strict and undetermined:
        return EXIT_COMPUTE
    return EXIT_OK


# ---------------------------------------------------------------------------
# coeffs / summatory / hl
# ---------------------------------------------------------------------------

def cmd_coeffs(args: argparse.Namespace) -> int:
    m_max = args.m_max
    if m_max < 1:
        raise UsageError("--m-max must be >= 1")
    table = PrimeTable(max(16, m_max))
    coeff = goldbach.stable_coefficient_table(m_max, table)
    if args.output_format == "json":
        print(json.dumps({"m_max": m_max, "a": coeff[1:].tolist()}))
    else:
        # rows in fixed blocks: a whole-table tolist() would raise peak memory
        out = sys.stdout
        out.write("m,a\n")
        for lo in range(1, m_max + 1, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, m_max + 1)
            out.write("".join(f"{m},{a}\n" for m, a in
                              zip(range(lo, hi), coeff[lo:hi].tolist())))
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

def _certify_one(item: tuple) -> dict:
    N, table, max_primes = item
    return factor.certify_goldbach_quotient(
        N, table, max_primes=max_primes).to_json_dict()


def cmd_irreducible(args: argparse.Namespace) -> int:
    if args.max_primes < 1:
        raise UsageError("--max-primes must be >= 1")
    certs = _sweep(args, 6, 30, 50, _certify_one, args.max_primes)
    reducible = sum(1 for c in certs if c["verdict"] == "Reducible")
    unresolved = sum(1 for c in certs if c["verdict"] == "Unresolved")
    print("\n".join(json.dumps(c) for c in certs))
    if reducible:
        return EXIT_VIOLATION
    if args.strict and unresolved:
        return EXIT_COMPUTE
    return EXIT_OK


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
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
