"""Command-line driver: verification suites, operator computations, twisting.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on parse errors, load-time verification failures, or inapplicable
requests, with the failed checks or the first difference on stderr.
Reports are deterministic for a fixed (input, seed): timing goes to
stderr, never into the report payload.

Import rule: each process compiles only the layers its command runs.
This module imports nothing of the package at its top but the errors and
the suite names, so ``--help`` loads no kernel.  Each ``cmd_*`` imports
what it runs: ``verify`` the suites, ``compute`` the one layer its
``what`` names, ``twist`` the file format and the twists.
:mod:`qhakit.suites` and :mod:`qhakit.serial` import a layer where they
first use it.  Every job is a cold start that compiles its modules from
source when no bytecode cache is written, so a module that a command
never runs is pure start-up cost.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import DEFAULT_TRIALS, SUITE_NAMES
from .errors import ConsistencyError, QhaError, SchemaError, StructureError

PROG = "qhakit"


def _trial_count(text: str) -> int:
    """The value of --trials: an integer of at least 1, so no randomized check is dropped."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact verification and computation for finite-dimensional "
                    "quasi-Hopf algebra structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="builtin name (trivial, group_z<n>, z2_triangular, "
                                      "sweedler_h4, semion) or a structure file path")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks (default: $QHAKIT_SEED or 0)")
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="report format (structured = canonical JSON)")
    common.add_argument("--output", default=None, help="write the report to a file")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=SUITE_NAMES + ("all",),
                          help="which suite to run (default: all)")
    p_verify.add_argument("--trials", type=_trial_count, default=DEFAULT_TRIALS,
                          help="random trials per seeded check")

    p_compute = sub.add_parser("compute", parents=[common],
                               help="compute a derived operator")
    p_compute.add_argument("what", choices=(
        "drinfeld", "second-drinfeld", "u", "v", "gamma", "gammabar",
        "invariants", "ac-operator"))
    p_compute.add_argument("m", nargs="?", type=int, default=None,
                           help="power for 'invariants'")

    p_twist = sub.add_parser("twist", parents=[common],
                             help="twist a structure and write the result")
    group = p_twist.add_mutually_exclusive_group(required=True)
    group.add_argument("--twist", dest="twist_file", default=None,
                       help="twist file (JSON with a sparse 'twist' table)")
    group.add_argument("--generate-seed", type=int, default=None,
                       help="generate a seeded random twist instead")
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QHAKIT_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise QhaError(f"QHAKIT_SEED must be an integer, got {env!r}") from None


def _read_text(path: str) -> str:
    """The file at ``path`` as UTF-8 text; a file that is not is a SchemaError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_input(spec: str):
    if os.path.exists(spec):
        from .serial import parse_structure
        return parse_structure(_read_text(spec))
    from .catalog import builtin
    return builtin(spec)


def _emit(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _encode(field, x) -> list:
    """An element as its coefficient list, a tensor as its sorted sparse entries."""
    from .tensor import AlgElement
    if isinstance(x, AlgElement):
        return [field.format_scalar(v) for v in x.coeffs]
    return [{"key": list(k), "scalar": field.format_scalar(v)}
            for k, v in sorted(x.entries.items())]


def cmd_verify(args) -> int:
    from .suites import run_suites
    entry = _load_input(args.input)
    seed = _resolve_seed(args)
    reports = run_suites(entry, args.suite, seed=seed, trials=args.trials)
    ok = all(r.ok for r in reports)
    if args.format == "structured":
        import json
        payload = {
            "command": "verify",
            "input": entry.name,
            "seed": seed,
            "suite": args.suite,
            "ok": ok,
            "suites": [r.to_dict() for r in reports],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"input: {entry.name}   suite: {args.suite}   seed: {seed}"]
        for r in reports:
            lines.append(r.format_text())
        n = sum(len(r.checks) for r in reports)
        nf = sum(len(r.failures()) for r in reports)
        lines.append(f"{'OK' if ok else 'FAILED'}: {n - nf}/{n} checks passed")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if ok else 1


def _compute(s, what, m, w) -> dict:
    """The values ``what`` names, computed on the bundle ``s``; ``w`` is v's generator."""
    if what in ("drinfeld", "second-drinfeld", "gamma", "gammabar"):
        from .drinfeld import compute_drinfeld_data
        data = compute_drinfeld_data(s)
        key, value = {"drinfeld": ("f_delta", data.f_delta.f),
                      "second-drinfeld": ("f_zero", data.f_zero.f),
                      "gamma": ("gamma", data.gamma),
                      "gammabar": ("gamma_bar", data.gamma_bar)}[what]
        return {key: value}
    if what == "u":
        from .qtriangular import compute_u
        ops = compute_u(s)
        return {"u": ops.u, "u_tilde": ops.u_tilde}
    if what == "v":
        from .antipode import antipode_from_v
        antipode_from_v(s, w)  # verifies the triple and the round trip
        return {"v": w}
    if what == "invariants":
        from .twists import quadratic_invariants
        return {f"z_{m}": quadratic_invariants(s, m)}
    from .qtriangular import altschuler_coste_operator
    return {"a": altschuler_coste_operator(s)}


def cmd_compute(args) -> int:
    import json

    from .suites import setting
    entry = _load_input(args.input)
    seed = _resolve_seed(args)
    s = entry.structure
    field = s.algebra.field
    what = args.what
    needs_r = what in ("u", "invariants", "ac-operator")
    if needs_r and s.r is None:
        print(f"error: '{what}' needs an R-matrix and {entry.name} has none",
              file=sys.stderr)
        return 2
    if what == "invariants" and args.m is None:
        print("error: 'invariants' needs the power m", file=sys.stderr)
        return 2
    if what != "invariants" and args.m is not None:
        print("error: only 'invariants' takes the power m", file=sys.stderr)
        return 2

    # one run, in the basis the suites on this entry run in; values are mapped back
    chosen, draw = setting(entry)
    w = None
    if what == "v":
        import random
        w = draw.element(random.Random(f"{seed}:compute-v:{entry.name}"))
    values = {key: _encode(field, draw.back(x))
              for key, x in _compute(chosen.structure, what, args.m, w).items()}
    post = ("antipode round trip recovered the generator exactly" if what == "v"
            else "all postconditions verified")

    if args.format == "structured":
        payload = {"command": "compute", "input": entry.name, "what": what,
                   "seed": seed, "values": values, "postconditions": post}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"input: {entry.name}   compute: {what}"]
        for key, val in values.items():
            lines.append(f"{key} = {json.dumps(val)}")
        lines.append(post)
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def cmd_twist(args) -> int:
    from .serial import parse_twist, serialize_structure
    from .twists import twist_structure
    entry = _load_input(args.input)
    s = entry.structure
    if args.twist_file:
        tw = parse_twist(_read_text(args.twist_file), s)
    else:
        import random

        from .randgen import random_twist
        rng = random.Random(f"{args.generate_seed}:twist:{entry.name}")
        tw = random_twist(rng, s)
    twisted = twist_structure(s, tw)
    text = serialize_structure(twisted, name=f"{entry.name}-twisted")
    _emit(text, args.output)
    if not args.output:
        sys.stderr.write(f"twisted structure verified ({entry.name})\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        if args.command == "verify":
            code = cmd_verify(args)
        elif args.command == "compute":
            code = cmd_compute(args)
        else:
            code = cmd_twist(args)
    except (OSError, QhaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, StructureError) and exc.report is not None:
            for c in exc.report.failures():
                print(f"  failed check: {c.check_id}"
                      + (f" [{c.witness}]" if c.witness else ""), file=sys.stderr)
        if isinstance(exc, ConsistencyError) and exc.witness is not None:
            print(f"  first difference: {exc.witness}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
