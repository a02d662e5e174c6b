"""Command-line surface.

Subcommands: ``run`` a configured simulation, ``verify`` a stored energy
ledger (a ``ledger.csv``; any other file exits 1), ``converge`` a temporal
self-convergence ladder, ``poiseuille`` the rigid-wall regression.  Exit
codes are stable: 0 success, 1 configuration or verification error, 2 wall
contact, 3 solver failure.  Tolerances are package constants, not settings:
a configuration that sets one exits 1 as an unknown key.
"""

import argparse
import math
import sys

from . import driver
from .config import load_config
from .energy import load_ledger, verify_run
from .errors import ConfigError, SolverError, ValidationError, WallflowError
from .exporters import write_outputs


def _cmd_run(args):
    result = driver.run(load_config(args.config))
    written = write_outputs(result)
    print(f"status: {result.status}")
    if result.contact is not None:
        t, z = result.contact
        print(f"wall contact at t = {t:.6g}, z = {z:.6g}")
    if result.failure is not None:
        print(f"failure: {result.failure}")
    print(f"steps completed: {result.steps}")
    print(result.solver.summary())
    if result.ledger:
        print(f"final energy: {result.ledger.rows[-1]['e_full']:.6e}")
    for path in written:
        print(f"wrote {path}")
    return result.exit_code


def _cmd_verify(args):
    ledger = load_ledger(args.ledger)
    report = verify_run(ledger)
    print(report)
    return 0 if report.ok else 1


def _cmd_converge(args):
    if args.ladder < 2 or args.reference_refinement < 2:
        raise ConfigError("--ladder and --reference-refinement must be at "
                          "least 2")
    cfg = load_config(args.config)
    rungs = [cfg["time"]["n_steps"] * 2**i for i in range(args.ladder)]
    print(driver.self_convergence_study(
        cfg, rungs, rungs[-1] * args.reference_refinement))
    return 0


def _cmd_poiseuille(args):
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigError("--tolerance must be a finite number >= 0, got "
                          f"{args.tolerance}")
    err, info = driver.poiseuille_profile_error(load_config(args.config))
    print(f"{'' if info['steady'] else 'not '}steady after {info['steps']} "
          f"steps (relative increment {info['increment']:.3e})")
    print(f"mid-channel profile L2 relative error: {err:.4%}")
    if not err <= args.tolerance:
        print(f"profile error {err:.6g} exceeds --tolerance {args.tolerance:g}")
    return 0 if info["steady"] and err <= args.tolerance else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wallflow",
        description="Channel flow with a moving viscoelastic wall: "
                    "kinematically coupled split-step solver and energy "
                    "ledger verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a configured simulation")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="verify a stored energy ledger")
    p.add_argument("ledger")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("converge", help="temporal self-convergence ladder")
    p.add_argument("config")
    p.add_argument("--ladder", type=int, default=4,
                   help="number of dt halvings starting from the config")
    p.add_argument("--reference-refinement", type=int, default=8,
                   help="extra refinement of the reference past the finest rung")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("poiseuille", help="rigid-wall steady-profile check")
    p.add_argument("config")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.set_defaults(func=_cmd_poiseuille)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except WallflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
