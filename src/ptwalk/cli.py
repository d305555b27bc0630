"""Command-line entry points.

    ptwalk run [--config FILE] [--out DIR] [--seed N] [--study NAME] [--threads N]
    ptwalk report --in DIR
    ptwalk gamma-pt --theta1 V --theta2 V

Exit codes: 0 on success, 2 on configuration/usage errors (a result bundle
that is missing or incomplete included), 3 on numerical failures. The
output directory resolves as --out, then $PTWALK_OUTPUT_DIR, then the
config's output_dir.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

from .errors import ConfigInvalid, MissingArtifacts, NoBreaking, PTWalkError
from .experiments import OUTPUT_DIR_ENV, ExperimentConfig, load_config, report, run
from .walk import gamma_pt


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ptwalk")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured studies")
    p_run.add_argument("--config", help="JSON config file (defaults to the built-in study grid)")
    p_run.add_argument("--out", help="output directory (overrides config and env)")
    p_run.add_argument("--seed", type=int, help="override master_seed")
    p_run.add_argument("--study", choices=["blp", "rhp", "entanglement", "toy", "all"])
    p_run.add_argument(
        "--threads", type=int, default=1,
        help="split the gammas, each with all its metrics, into N groups, run in "
        "parallel worker processes (default 1)",
    )

    p_rep = sub.add_parser("report", help="summarize a result bundle")
    p_rep.add_argument("--in", dest="in_dir", required=True, help="result directory")

    p_gpt = sub.add_parser("gamma-pt", help="print e^{gamma_pt} for the coin angles")
    p_gpt.add_argument("--theta1", type=float, required=True)
    p_gpt.add_argument("--theta2", type=float, required=True)
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {"master_seed": args.seed, "study": args.study}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir
    if args.threads < 1:
        raise ConfigInvalid([("threads", f"must be >= 1, got {args.threads}")])
    manifest = run(cfg, out_dir=out_dir, threads=args.threads)
    n_ok = sum(1 for c in manifest["cells"] if c.get("status") == "ok")
    print(f"wrote {len(manifest['artifacts'])} artifacts to {out_dir} ({n_ok} cells ok, "
          f"{len(manifest['skipped'])} skipped)")
    return 0


def _cmd_report(args) -> int:
    text, results = report(args.in_dir)
    print(text)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


def _cmd_gamma_pt(args) -> int:
    value = gamma_pt(args.theta1, args.theta2)
    print(repr(math.exp(value)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_gamma_pt(args)
    except (ConfigInvalid, MissingArtifacts) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoBreaking as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PTWalkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
