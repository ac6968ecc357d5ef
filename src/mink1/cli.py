"""Command-line front end.

Subcommands: catalog | orbit | classify | properness | verify.
Exit codes: 0 success / all checks pass, 1 a check or verdict failed,
2 unknown id or bad input (a non-finite --point or --params value, a
negative or non-finite --grid, one of over 10^6 samples (N^dim) or one
whose samples overflow, a basis file that is not UTF-8, an unwritable
--csv, a negative seed), 3 orbit expectation mismatch.  MINK_SEED
overrides the default seed (42); an explicit --seed flag wins over both.
JSON has no inf or nan, so an orbit invariant that overflows is null.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, catalog
from .classify import Classification, classify
from .orbits import orbit_report, sample_orbit
from .properness import WitnessError, make_witness, verdict
from .reportio import (
    BasisParseError,
    element_payload,
    fmt17,
    motion_payload,
    parse_basis_file,
    to_json,
    write_orbit_csv,
)
from .verify import format_line, run_all

SCHEMA = 1
_MAX_GRID_SAMPLES = 10**6  # N^dim, checked before anything is allocated


def _default_seed() -> int:
    try:
        return int(os.environ.get("MINK_SEED", "42"))
    except ValueError:
        return 42


def _report(command, seed, payload, checks):
    return {
        "schema": SCHEMA,
        "version": f"mink1 {__version__}",
        "command": command,
        "seed": seed,
        "payload": payload,
        "checks": [
            {"id": c[0], "label": c[1], "pass": c[2], "residual": c[3]} for c in checks
        ],
    }


def _finite_or_none(x):
    return x if math.isfinite(x) else None


def _parse_params(text):
    params = {}
    if not text:
        return params
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        if "=" not in chunk:
            raise ValueError(f"parameter {chunk!r} is not of the form key=value")
        key, val = chunk.split("=", 1)
        key = key.strip()
        val = val.strip()
        if key == "plane":
            params[key] = val
        else:
            params[key] = float(val)
    return params


def _entry_from_args(args):
    """The catalog entry that --id and --params name, or None after the
    error is printed (exit 2)."""
    try:
        return catalog.build(args.id, **_parse_params(args.params))
    except ValueError as exc:  # catalog.CatalogError included
        print(f"error: {exc}", file=sys.stderr)
        return None


def _entry_payload(entry):
    return {
        "id": entry.id,
        "params": entry.params,
        "family": entry.family,
        "param_domain": entry.param_domain,
        "proper": entry.proper,
        "orbit_space": entry.orbit_space,
        "dim": entry.basis.dim,
        "generators": [element_payload(el) for el in entry.basis.basis],
        "invariant": entry.invariant_name,
    }


def cmd_catalog(args) -> int:
    if args.id:
        entry = _entry_from_args(args)
        if entry is None:
            return 2
        entries = [entry]
    else:
        entries = [catalog.build(i) for i in catalog.CATALOG_IDS]
    payload = {"families": [_entry_payload(e) for e in entries]}
    if args.json:
        print(to_json(_report(["catalog"], args.seed, payload, [])))
        return 0
    print(f"{'id':6} {'proper':7} {'dim':3} {'orbit space':28} family")
    for e in entries:
        print(f"{e.id:6} {str(e.proper).lower():7} {e.basis.dim:<3} {e.orbit_space:28} {e.family}")
        if e.param_domain != "none":
            print(f"{'':6} parameters: {e.param_domain}; current {e.params}")
    return 0


def cmd_orbit(args) -> int:
    entry = _entry_from_args(args)
    if entry is None:
        return 2
    try:
        point = np.array([float(c) for c in args.point.split(",")])
        if point.shape != (3,) or not np.all(np.isfinite(point)):
            raise ValueError
    except ValueError:
        print("error: --point must be three comma-separated finite reals", file=sys.stderr)
        return 2
    rep = orbit_report(entry, point)
    payload = {
        "id": entry.id,
        "params": entry.params,
        "point": [float(x) for x in point],
        "orbit_dim": rep.orbit_dim,
        "causal": rep.causal,
        "stabilizer_dim": rep.stabilizer_dim,
        "stabilizer_class": rep.stabilizer_class,
        "orbit_class": rep.orbit_class,
        "stratum": rep.expected.name,
        "matched_expectation": rep.matched_expectation,
        "invariant": None
        if rep.invariant_value is None
        else {"name": entry.invariant_name, "value": _finite_or_none(rep.invariant_value)},
        "evidence": rep.evidence,
    }
    if args.grid or args.csv:
        n, lo, hi = 5, -2.0, 2.0
        if args.grid:
            parts = args.grid.split(":")
            try:
                n = int(parts[0])
                if len(parts) == 3:
                    lo, hi = float(parts[1]), float(parts[2])
                elif len(parts) != 1:
                    raise ValueError
                if n < 0 or not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError
            except ValueError:
                print("error: --grid must be N or N:lo:hi with N >= 0 and finite lo, hi",
                      file=sys.stderr)
                return 2
        if n ** entry.basis.dim > _MAX_GRID_SAMPLES:
            print(f"error: --grid {n} asks for {n}^{entry.basis.dim} orbit samples, "
                  f"more than {_MAX_GRID_SAMPLES}", file=sys.stderr)
            return 2
        axes = [np.linspace(lo, hi, n)] * entry.basis.dim
        grid = np.stack(np.meshgrid(*axes), -1).reshape(-1, entry.basis.dim)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                samples = sample_orbit(entry, point, grid)
        except (ValueError, OverflowError):
            print("error: --grid bounds too large: the orbit samples overflow",
                  file=sys.stderr)
            return 2
        if entry.invariant is not None:
            # inf - inf is nan and np.max propagates it: one non-finite sample voids the drift
            with np.errstate(invalid="ignore"):
                dev = float(np.max(abs(entry.invariant(samples) - entry.invariant(point))))
            payload["invariant_drift"] = _finite_or_none(dev)
        if args.csv:
            try:
                with open(args.csv, "w", encoding="utf-8") as fh:
                    write_orbit_csv(fh, [f"t{i+1}" for i in range(entry.basis.dim)], grid, samples)
            except OSError as exc:
                print(f"error: cannot write --csv: {exc}", file=sys.stderr)
                return 2
            payload["csv"] = args.csv
    checks = [("orbit-expectation", "per-point analysis matches the catalog table",
               rep.matched_expectation, 0.0)]
    if args.json:
        print(to_json(_report(["orbit"], args.seed, payload, checks)))
    else:
        print(f"{entry.id} at {args.point}: stratum {rep.expected.name}")
        print(f"  orbit dim {rep.orbit_dim}, causal {rep.causal}, class {rep.orbit_class}")
        print(f"  stabilizer dim {rep.stabilizer_dim} ({rep.stabilizer_class})")
        if rep.invariant_value is not None:
            inv = _finite_or_none(rep.invariant_value)
            shown = "not representable" if inv is None else fmt17(inv)
            print(f"  invariant {entry.invariant_name} = {shown}")
        print(f"  matched expectation: {rep.matched_expectation}")
        if args.csv:
            print(f"  samples written to {args.csv}")
    return 0 if rep.matched_expectation else 3


def cmd_classify(args) -> int:
    try:
        spec = parse_basis_file(args.basis)
    except (OSError, UnicodeDecodeError, BasisParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = classify(spec)
    if isinstance(res, Classification):
        payload = {
            "status": "classified",
            "id": res.id,
            "params": res.params,
            "conjugator": motion_payload(res.conjugator),
            "residual": res.residual,
            "signature": res.signature.as_dict(),
        }
        ok = True
    else:
        payload = {
            "status": "rejected",
            "reason": res.reason,
            "detail": res.detail,
            "signature": None if res.signature is None else res.signature.as_dict(),
        }
        ok = False
    checks = [("classification", "input basis identified in the catalog", ok,
               payload.get("residual", 0.0) or 0.0)]
    if args.json:
        print(to_json(_report(["classify"], args.seed, payload, checks)))
    elif ok:
        print(f"classified: {res.id} params {res.params} (span residual {res.residual:.3e})")
    else:
        print(f"rejected: {res.reason} ({res.detail})")
    return 0 if ok else 1


def cmd_properness(args) -> int:
    entry = _entry_from_args(args)
    if entry is None:
        return 2
    v = verdict(entry)
    payload = {"id": entry.id, "params": entry.params, "verdict": v}
    ok = True
    if not entry.proper:
        try:
            w = make_witness(entry)
            payload["witness"] = {
                "point": [float(x) for x in w.point],
                "generator": element_payload(w.generator),
                "certificate": [[n, float(norm)] for n, norm in w.certificate],
            }
        except WitnessError as exc:
            ok = False
            payload["witness_error"] = str(exc)
    checks = [("properness", "verdict with validated witness where nonproper", ok, 0.0)]
    if args.json:
        print(to_json(_report(["properness"], args.seed, payload, checks)))
    else:
        print(f"{entry.id}: {v}")
        if "witness" in payload:
            w = payload["witness"]
            print(f"  witness point {w['point']}")
            print("  n   linear-part norm")
            for n, norm in w["certificate"]:
                print(f"  {n:<3} {fmt17(norm)}")
        if not ok:
            print(f"  witness failed: {payload['witness_error']}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    timed = run_all(args.seed)
    results = [r for r, _ in timed]
    payload = {"suite": args.suite}
    checks = [(r.check_id, r.label, r.passed, r.residual) for r in results]
    all_pass = all(r.passed for r in results)
    if args.json:
        payload["all_pass"] = all_pass
        payload["details"] = [r.detail for r in results]
        print(to_json(_report(["verify"], args.seed, payload, checks)))
    else:
        for r, seconds in timed:  # elapsed time in the text only: the JSON stays byte-identical
            print(f"{format_line(r)} {seconds:.3f} s")
            if not r.passed:
                print(f"       {r.detail}")
        print(f"{'all checks passed' if all_pass else 'FAILURES present'}")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mink1",
        description="Cohomogeneity-one symmetry families of 3-dimensional "
                    "Minkowski space: catalog, orbits, properness, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=_default_seed(),
                       help="seed for all sampling (default 42; env MINK_SEED)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("catalog", help="list the sixteen families")
    p.add_argument("--id", help="restrict to one family")
    p.add_argument("--params", help="family parameters, e.g. beta=1.5,sign=-1")
    common(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("orbit", help="analyze the orbit through a point")
    p.add_argument("--id", required=True)
    p.add_argument("--params", help="family parameters")
    p.add_argument("--point", required=True, help="base point x1,x2,x3")
    p.add_argument("--grid", help="sample grid: N or N:lo:hi per parameter axis")
    p.add_argument("--csv", help="write orbit samples to this CSV file")
    common(p)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("classify", help="identify the family of a subalgebra basis")
    p.add_argument("--basis", required=True,
                   help="basis file: 12 reals per line (linear part row-major, then translation)")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("properness", help="verdict and nonproperness witness")
    p.add_argument("--id", required=True)
    p.add_argument("--params", help="family parameters")
    common(p)
    p.set_defaults(fn=cmd_properness)

    p = sub.add_parser("verify", help="run the full acceptance checklist")
    p.add_argument("--suite", default="all", choices=["all"])
    common(p)
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    if args.seed < 0:
        print("error: --seed and MINK_SEED must be non-negative integers", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
