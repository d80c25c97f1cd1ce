"""Command line: train / sweep / gradcheck / params.

Precedence for train and sweep settings: built-in defaults, then the
--config file, then explicit flags. Flags always win.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cells import VARIANTS
from .harness import (CHOICES, FIELD_TYPES, SWEEP_AXES, ExperimentConfig,
                      SweepSpec, cmd_gradcheck, cmd_params, cmd_sweep,
                      cmd_train, load_config_file)

# Help per ExperimentConfig field; the flag is the field name with - for _.
_FLAG_HELP = {
    "variant": "cell variant",
    "activation": "candidate/output squash (gates stay sigmoid)",
    "hidden": "hidden state width n",
    "embed": "embedding width m",
    "seq_len": "sequence length T after pre-pad/pre-truncate",
    "vocab": "vocabulary size including pad/oov rows",
    "eta": "learning rate",
    "forget": "constant forget value for lstm6/lstm_c6, -1 < f < 1",
    "epochs": "training epochs",
    "batch": "mini-batch size",
    "optimizer": "update rule",
    "loss": "bce (sigmoid) or cce (softmax)",
    "seed": "master seed for data, init, and shuffling",
    "bidirectional": "train a forward/backward cell pair, concatenated readout",
    "data": "synth:<kind> or tsv:<path>",
    "samples": "synthetic sample count (train+test)",
    "out": "output directory",
}

_AXIS_HELP = {
    "variants": "comma-separated variant list",
    "hiddens": "comma-separated hidden widths",
    "etas": "comma-separated learning rates",
    "forgets": "comma-separated forget constants",
}


def _add_config_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="config file, one key = value per line")
    for name, kind in FIELD_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            sub.add_argument(flag, action="store_true", default=None,
                             help=_FLAG_HELP[name])
        else:
            sub.add_argument(flag, type=kind, choices=CHOICES.get(name),
                             default=None, help=_FLAG_HELP[name])


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = load_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in FIELD_TYPES
                  if getattr(args, key) is not None)
    return ExperimentConfig(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimrnn",
        description="Reduced-gate recurrent text classification engine")
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="train one model, write metrics + checkpoint")
    _add_config_flags(p_train)

    p_sweep = subs.add_parser("sweep", help="grid of training runs, one summary CSV")
    _add_config_flags(p_sweep)
    for axis in SWEEP_AXES:
        p_sweep.add_argument(f"--{axis}", default=None, help=_AXIS_HELP[axis])
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel cell processes (>= 1, at most one per cell)")

    p_grad = subs.add_parser("gradcheck",
                             help="certify analytic gradients against the complex-step oracle")
    p_grad.add_argument("--embed", type=int, default=4, help="input width cap (<= 8)")
    p_grad.add_argument("--hidden", type=int, default=4, help="hidden width cap (<= 8)")
    p_grad.add_argument("--seq-len", type=int, default=3, help="sequence cap (<= 5)")
    p_grad.add_argument("--batch", type=int, default=2, help="batch cap (<= 8)")
    p_grad.add_argument("--seeds", type=int, default=3, help="random nets per cell")

    p_params = subs.add_parser("params", help="parameter and per-step MAC counts")
    p_params.add_argument("variant", choices=VARIANTS)
    p_params.add_argument("m", type=int, help="input width")
    p_params.add_argument("n", type=int, help="hidden width")
    p_params.add_argument("--bidirectional", action="store_true")
    p_params.add_argument("--json-lines", action="store_true",
                          help="emit one JSON object per line")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Bad input anywhere (a config, its data, an argument, an unusable --out)
    # exits 2 with its reason. A diverging run's FloatingPointError propagates.
    try:
        if args.command == "train":
            result = cmd_train(build_config(args), log=print)
        elif args.command == "sweep":
            axes = {axis: getattr(args, axis).split(",")
                    for axis in SWEEP_AXES if getattr(args, axis)}
            result = cmd_sweep(SweepSpec(base=build_config(args), workers=args.workers,
                                         **axes))
        elif args.command == "gradcheck":
            report, ok = cmd_gradcheck(m=args.embed, n=args.hidden,
                                       seq_len=args.seq_len, seeds=args.seeds,
                                       batch=args.batch)
        else:
            info = cmd_params(args.variant, args.m, args.n, args.bidirectional)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    if args.command == "train":
        print(f"metrics: {result['csv']}")
        print(f"checkpoint: {result['checkpoint']}")
        return 0

    if args.command == "sweep":
        print(f"summary: {result['summary']}")
        return 0

    if args.command == "gradcheck":
        for row in report:
            print(f"{row['variant']:8s} {row['activation']:8s} "
                  f"{row['group']:6s} {row['max_rel_err']:.3e} {row['status']}")
        print("gradcheck: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1

    if args.json_lines:
        print(json.dumps(info))
    else:
        print(f"{info['variant']} m={info['m']} n={info['n']}"
              + (" bidirectional" if info["bidirectional"] else "")
              + f": params={info['params']} macs={info['macs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
