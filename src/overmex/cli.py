"""Command-line front door: sigma-mex tables, the verification suite, and
deterministic overpartition listings.

Exit codes: 0 success, 1 verification/mismatch failure, 2 usage error,
141 (128 + SIGPIPE) when the reader of stdout goes away, say `| head`;
that exit is silent, as for a tool the closed pipe killed.  Every
refusal of a value is a ValueError raised before --out is opened, and
main alone reports it: one stderr line and exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from . import combinat, qfactory, verify
from .qfactory import MexVariant

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

#: The largest series order a command accepts: one series at order 10^5
#: holds about 12 MB of integers (about 4.5 sqrt(n) bits at q^n).  Larger
#: orders are usage errors, refused before any series is built.
MAX_ORDER = 100_000

#: The default of --oracle-limit: a larger --max-n is a usage error for
#: every command that runs the oracle.  Class counting (table, verify)
#: walks the ordinary partitions of every n <= 45 once, 540,635 of them,
#: for all three variants: 0.12 s, and 1.3-1.5 s for n <= 60, while
#: `verify --only gf_vs_oracle:V --max-n 45` takes about 0.2 s in all
#: (Python 3.11 on a shared 2-core machine).  enum --by-class lists the
#: p(n) classes of one n, 89,134 at n=45; enum lists all p-bar(n)
#: overpartitions, 3,759,240 at n=45.  All grow like e^(c sqrt(n)).
DEFAULT_ORACLE_LIMIT = 45


def _output(out_path: str | None):
    """The --out file opened for writing, or stdout; opened before any
    work, so that an unopenable path is refused at once."""
    if out_path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out_path, "w")


def _emit_rows(rows, header, fmt: str, out) -> None:
    """Same numeric content in both formats: CSV uses the header order,
    JSON emits one object per row with the header fields as keys.  Each
    row is written as the iterable yields it; the JSON text is that of
    json.dumps(objects, indent=2) + "\n"."""
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
        return
    sep = "[\n  "
    for row in rows:
        obj = json.dumps(dict(zip(header, row)), indent=2)
        out.write(sep + obj.replace("\n", "\n  "))
        sep = ",\n  "
    out.write("[]\n" if sep == "[\n  " else "\n]\n")


def _check_oracle_limit(args) -> None:
    """Refuse a --max-n above --oracle-limit."""
    if args.max_n > args.oracle_limit:
        raise ValueError(
            f"--max-n {args.max_n} exceeds the oracle limit {args.oracle_limit}; "
            "raise --oracle-limit to override"
        )


def _check_max_order(order: int, flag: str) -> None:
    """Refuse an order above MAX_ORDER."""
    if order > MAX_ORDER:
        raise ValueError(f"{flag} {order} exceeds the largest order {MAX_ORDER}")


def cmd_table(args) -> int:
    variant = MexVariant(args.variant)
    n_max = args.max_n
    _check_max_order(n_max, "--max-n")
    use_series = args.method in ("series", "both")
    use_oracle = args.method in ("oracle", "both")
    if use_oracle:
        _check_oracle_limit(args)
    with _output(args.out) as out:
        values = {}  # method -> its sigma-mex value for each n <= n_max
        if use_series:
            values["series"] = list(qfactory.sigma_mex_gf(variant, n_max).coeffs)
        if use_oracle:
            hists = combinat.mex_histograms(n_max)
            values["oracle"] = [combinat.mex_sum(h[variant]) for h in hists]
        mismatch = len(values) == 2 and values["series"] != values["oracle"]
        if args.method == "both":
            header = ("n", "series", "oracle", "match")
            rows = [
                (n, str(s), str(o), "match" if s == o else "MISMATCH")
                for n, (s, o) in enumerate(zip(values["series"], values["oracle"]))
            ]
        else:
            header = ("n", "value", "method")
            rows = [(n, str(v), args.method) for n, v in enumerate(values[args.method])]
        _emit_rows(rows, header, args.format, out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def cmd_verify(args) -> int:
    if args.only is None or args.only.startswith("gf_vs_oracle:"):
        _check_oracle_limit(args)  # only the gf_vs_oracle checks run the oracle
    _check_max_order(args.order, "--order")
    if args.order < 1:
        raise ValueError(f"--order {args.order} is below the smallest order 1")
    if args.only is not None and args.only not in verify.CHECKS:
        raise ValueError(f"unknown check {args.only!r}; choose from {sorted(verify.CHECKS)}")
    checks = verify.CHECKS.values() if args.only is None else [verify.CHECKS[args.only]]
    passed = True
    with _output(args.out) as out:
        if args.only is None:
            # The Z sigma-mex family at the largest order any check reads
            # it, asym_ratio's and ingham_scaling's: every later read of
            # P-bar, Phi_1, Phi_2 or a sigma-mex series is a prefix of it.
            qfactory.sigma_family(max(args.order, verify.DEFAULT_ASYM_POINTS[-1]))
        # Each report is written, with its progress line, as its check finishes.
        for check in checks:
            r = check(args.order, args.max_n)
            out.write(json.dumps(r.to_dict()) + "\n")
            out.flush()
            print(f"[{r.status}] {r.check_name} ({r.range_checked})", file=sys.stderr)
            passed = passed and r.passed
    return EXIT_OK if passed else EXIT_MISMATCH


def _enum_row(row, fmt: str) -> tuple:
    """An overpartition and its three mex values.  JSON spells the overline
    out as a boolean per group; CSV marks it with a trailing ~ on the first
    copy of the value, e.g. 3~+1, and shows n = 0 as (empty)."""
    groups, *mexes = row
    if fmt == "json":
        shown = [{"part": p, "count": c, "overlined": o} for p, c, o in groups]
    else:
        shown = "+".join(
            f"{p}~" if o and k == 0 else str(p) for p, c, o in groups for k in range(c)
        ) or "(empty)"
    return (shown, *mexes)


def cmd_enum(args) -> int:
    n = args.max_n
    _check_oracle_limit(args)
    with _output(args.out) as out:
        if args.by_class:
            rows = (
                ("+".join(map(str, partition)) or "(empty)", size, mex)
                for partition, size, mex in combinat.class_decomposition(n)
            )
            header = ("underlying", "class_size", "mex_all")
        else:
            # Each row is written as its overpartition is enumerated.
            rows = (_enum_row(row, args.format) for row in combinat.overpartitions(n))
            shown = "groups" if args.format == "json" else "overpartition"
            header = (shown, "mex_nonoverlined", "mex_overlined", "mex_all")
        _emit_rows(rows, header, args.format, out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overmex",
        description="sigma-mex statistics of overpartitions: tables, "
        "verification suite, and exhaustive listings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT,
            help="largest n the enumeration oracle will accept",
        )

    p_table = sub.add_parser("table", help="sigma-mex values per n")
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument(
        "--method", choices=("series", "oracle", "both"), default="series"
    )
    p_table.add_argument(
        "--variant", choices=sorted(v.value for v in MexVariant), default="overlined"
    )
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the theorem checks")
    p_verify.add_argument(
        "--order", type=int, default=2000,
        help="series order of euler, identities and arithmetic, and the least "
        "order of the three parity checks, asym_ratio and ingham_scaling; "
        "count_series and sigma_taylor run at fixed orders, and the "
        "gf_vs_oracle checks read --max-n",
    )
    p_verify.add_argument(
        "--max-n", type=int, default=20,
        help="oracle cross-check range for the gf-vs-oracle checks",
    )
    p_verify.add_argument("--only", default=None, help="run a single named check")
    common(p_verify)  # always JSON lines
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enum", help="list all overpartitions of n")
    p_enum.add_argument("--max-n", type=int, required=True, help="the n to enumerate")
    p_enum.add_argument(
        "--by-class", action="store_true",
        help="group by overline erasure instead of listing members",
    )
    p_enum.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p_enum)
    p_enum.set_defaults(func=cmd_enum)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_n < 0:
            raise ValueError("--max-n must be non-negative")
        return args.func(args)
    except BrokenPipeError:
        # stdout now points at devnull, so the interpreter's final flush of
        # what is still buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:  # OSError: an unopenable --out
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
