"""Batch driver and machine-readable emitters for the goldpoly library.

Exit codes: 0 all good, 1 a theorem or conjecture check failed (worth
looking at!), 2 usage error, 3 computational failure (solver
non-convergence, or an Unresolved certificate under --strict).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__, arith, factor, goldbach, roots
from .arith import PrimeTable, SieveRangeError
from .goldbach import IndicatorSet
from .poly import to_text
from .roots import SolverError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3


def _resolve_sieve_limit(args: argparse.Namespace, implied: int) -> int:
    if args.sieve_limit is None:
        return implied
    if args.sieve_limit < implied:
        raise UsageError(
            f"--sieve-limit {args.sieve_limit} is below the bound {implied} "
            f"implied by the command")
    return args.sieve_limit


class UsageError(Exception):
    pass


def _per_n_seed(seed: int, N: int) -> int:
    return seed * 1_000_003 + N


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args: argparse.Namespace) -> int:
    N = args.N
    if N is None or N < 2:
        raise UsageError("construct requires N >= 2")
    table = PrimeTable(_resolve_sieve_limit(args, max(16, N)))
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
        from .poly import cyclotomic, divrem_exact, multiply
        if args.quotient == "2N":
            divisor = cyclotomic(2 * N)
            obj_name = f"F_{N}/Phi_{2 * N}"
        elif args.quotient == "N,2N":
            divisor = multiply(cyclotomic(N), cyclotomic(2 * N))
            obj_name = f"F_{N}/(Phi_{N}*Phi_{2 * N})"
        else:
            raise UsageError("--quotient must be '2N' or 'N,2N'")
        out, rem = divrem_exact(F, divisor)
        if not rem.is_zero:
            print(f"error: {obj_name} is not an exact quotient", file=sys.stderr)
            return EXIT_VIOLATION
    if args.output_format == "json":
        print(json.dumps({"object": obj_name, "N": N,
                          "indicator": args.indicator, "coefficients": to_text(out)}))
    else:
        print(to_text(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_one(args: tuple) -> list[dict]:
    N, limit = args
    return [r.to_json_dict()
            for r in goldbach.theorem_reports(N, _worker_table(limit))]


_WORKER_TABLES: dict[int, PrimeTable] = {}


def _worker_table(limit: int) -> PrimeTable:
    table = _WORKER_TABLES.get(limit)
    if table is None:
        table = PrimeTable(limit)
        _WORKER_TABLES[limit] = table
    return table


def _map_jobs(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def cmd_verify(args: argparse.Namespace) -> int:
    n_max = args.n_max if args.n_max is not None else (120 if args.long_mode else 50)
    if n_max < 2:
        raise UsageError("--n-max must be >= 2")
    limit = _resolve_sieve_limit(args, max(16, n_max))
    items = [(N, limit) for N in range(2, n_max + 1)]
    all_reports = _map_jobs(_verify_one, items, args.jobs)
    failures = 0
    lines = []
    for reports in all_reports:
        for rep in reports:
            if not rep["holds"]:
                failures += 1
            if args.output_format == "csv":
                lines.append(f"{rep['N']},{rep['theorem_id']},{rep['holds']}")
            else:
                lines.append(json.dumps(rep, default=str))
    if args.output_format == "csv":
        lines.insert(0, "N,theorem_id,holds")
    print("\n".join(lines))
    return EXIT_VIOLATION if failures else EXIT_OK


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def _classify_one(args: tuple) -> tuple:
    N, limit, seed = args
    table = _worker_table(limit)
    rc = roots.classify_roots(N, table, seed=_per_n_seed(seed, N))
    return (rc.N, 2 * arith.euler_phi(N, table), rc.inside, rc.on_circle,
            rc.outside, rc.undetermined)


def cmd_table1(args: argparse.Namespace) -> int:
    n_max = args.n_max if args.n_max is not None else (50 if args.long_mode else 20)
    if n_max < 6:
        raise UsageError("--n-max must be >= 6 (classification needs N > 5)")
    limit = _resolve_sieve_limit(args, max(16, n_max))
    items = [(N, limit, args.seed) for N in range(6, n_max + 1)]
    rows = _map_jobs(_classify_one, items, args.jobs)
    lines = ["N,two_phi_N,inside,on,outside,undetermined"]
    undetermined = 0
    for row in rows:
        undetermined += row[5]
        lines.append(",".join(str(v) for v in row))
    print("\n".join(lines))
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
    limit = _resolve_sieve_limit(args, max(16, m_max))
    table = PrimeTable(limit)
    coeff = goldbach.stable_coefficient_table(m_max, table)
    if args.output_format == "json":
        print(json.dumps({"m_max": m_max, "a": coeff[1:].tolist()}))
    else:
        lines = ["m,a"]
        lines.extend(f"{m},{coeff[m]}" for m in range(1, m_max + 1))
        print("\n".join(lines))
    return EXIT_OK


def cmd_summatory(args: argparse.Namespace) -> int:
    M = args.M
    if M < 16:
        raise UsageError("--M must be >= 16")
    limit = _resolve_sieve_limit(args, max(16, 2 * M))
    table = PrimeTable(limit)
    report = goldbach.summatory_report(M, table)
    print(json.dumps(report))
    return EXIT_OK if report["identity_ok"] else EXIT_VIOLATION


def cmd_hl(args: argparse.Namespace) -> int:
    m_max = args.m_max
    m_min = args.m_min if args.m_min is not None else max(3, m_max // 10)
    if not 3 <= m_min <= m_max:
        raise UsageError("need 3 <= m-min <= m-max")
    limit = _resolve_sieve_limit(args, max(16, 2 * m_max))
    table = PrimeTable(limit)
    summary = goldbach.hl_summary(m_min, m_max, table)
    print(json.dumps(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# irreducible
# ---------------------------------------------------------------------------

def _certify_one(args: tuple) -> dict:
    N, limit, max_primes = args
    table = _worker_table(limit)
    start = time.perf_counter()
    cert = factor.certify_goldbach_quotient(N, table, max_primes=max_primes)
    out = cert.to_json_dict()
    out["elapsed_ms"] = round(1000 * (time.perf_counter() - start), 3)
    return out


def cmd_irreducible(args: argparse.Namespace) -> int:
    n_max = args.n_max if args.n_max is not None else (50 if args.long_mode else 30)
    if n_max < 6:
        raise UsageError("--n-max must be >= 6 (certification needs N > 5)")
    limit = _resolve_sieve_limit(args, max(16, n_max))
    items = [(N, limit, args.max_primes) for N in range(6, n_max + 1)]
    certs = _map_jobs(_certify_one, items, args.jobs)
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
        sp.add_argument("--sieve-limit", type=int, default=None)
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
        return args.run(args)
    except (UsageError, SieveRangeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
