"""Command-line harness: run experiments, compare policies, fit rates."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    METHOD_TABLE,
    SUCCESS_STATUSES,
    X0_KINDS,
    ExperimentConfig,
    check_comparable,
    compare,
    fit_rate,
    prepare,
    read_trace_csv,
    render_comparison,
    run_experiment,
)


# exit status of a run that finished with a status outside SUCCESS_STATUSES;
# argparse's usage errors exit 2
EXIT_RUN_FAILED = 3


def parse_problem(spec: str) -> dict:
    """Parse ``name:key=val,key=val`` into a problem stanza."""
    name, _, rest = spec.partition(":")
    out = {"name": name}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise ValueError(f"bad problem parameter {item!r}")
            out[key] = val
    return out


def number_or_auto(text: str):
    """``auto``, or a number."""
    return text if text == "auto" else float(text)


def k_range(text: str) -> tuple[float, float]:
    """``lo:hi``, a window of iteration counters."""
    lo, hi = map(float, text.split(":"))
    return lo, hi


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.problem:
        cfg.problem = parse_problem(args.problem)
    for name in ("method", "p", "H", "policy", "subsolver", "stop",
                 "max_iters", "target_gap", "seed", "out", "composite",
                 "x0", "zeta_policy", "inner_policy", "measure_time"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    return cfg


def _add_run_flags(sp):
    sp.add_argument("--config", help="JSON config file; flags override its fields")
    sp.add_argument("--problem", help="problem spec, e.g. logsumexp:n=100,m=600,mu=1")
    sp.add_argument("--method", choices=list(METHOD_TABLE))
    sp.add_argument("--p", type=int, choices=[1, 2])
    sp.add_argument("--H", help="fixed:<v> | lipschitz | linesearch[:<v>]")
    sp.add_argument("--policy", help="constant:C | power:C:ALPHA | adaptive:C:ALPHA[:D1] "
                    "(read by every driver but accelerated)")
    sp.add_argument("--zeta-policy", dest="zeta_policy", help="outer schedule (accelerated only)")
    sp.add_argument("--inner-policy", dest="inner_policy", help="inner schedule (accelerated only)")
    sp.add_argument("--composite", help="power:MU:Q | quadratic:MU | none")
    sp.add_argument("--x0", choices=X0_KINDS)
    sp.add_argument("--subsolver", choices=["exact", "fgm"],
                    help="read by every driver; accelerated refuses exact at --p 2")
    sp.add_argument("--stop", choices=["bound", "exact"],
                    help="fgm's certificate; exact is refused with --subsolver exact or accelerated")
    sp.add_argument("--max-iters", dest="max_iters", type=int)
    sp.add_argument("--target-gap", dest="target_gap", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--measure-time", dest="measure_time", action="store_true", default=None,
                    help="record per-row wall time (makes traces nondeterministic)")
    sp.add_argument("--out", help="output directory for config/trace/summary")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tensoropt",
                                     description="Inexact tensor-method experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sp_run = sub.add_parser("run", help="execute one experiment")
    _add_run_flags(sp_run)

    sp_cmp = sub.add_parser("compare", help="run several configs on one instance")
    sp_cmp.add_argument("--configs", nargs="+", required=True, help="JSON config files")
    sp_cmp.add_argument("--out", help="output root; one subdirectory per run")

    sp_fit = sub.add_parser("fit", help="fit a rate slope to a trace")
    sp_fit.add_argument("--trace", required=True)
    sp_fit.add_argument("--fstar", required=True, type=number_or_auto,
                        help="numeric optimum value, or 'auto' (best trace value)")
    sp_fit.add_argument("--window", type=k_range, help="k range lo:hi")
    sp_fit.add_argument("--exponent", type=float, default=1.5,
                        help="tail-ratio exponent (default (p+1)/2 for p=2)")

    args = parser.parse_args(argv)

    # a spec or input error is a usage error; errors of the solve itself are not caught
    if args.command == "run":
        if not (args.config or args.problem):
            sp_run.error("run needs --config or --problem")
        try:
            cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig({})
            cfg = _apply_overrides(cfg, args)
            solve = prepare(cfg)
        except ValueError as exc:
            sp_run.error(str(exc))
        run, summary = run_experiment(cfg, solve=solve)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if run.status in SUCCESS_STATUSES else EXIT_RUN_FAILED

    if args.command == "compare":
        try:
            configs = [ExperimentConfig.load(p) for p in args.configs]
            solves = check_comparable(configs)
        except ValueError as exc:
            sp_cmp.error(str(exc))
        report = compare(configs, out_root=args.out, solves=solves)
        print(render_comparison(report))
        return 0

    if args.command == "fit":
        try:
            cols = read_trace_csv(args.trace)
            ks, Fs = cols.get("k"), cols.get("F")
            if not ks or not Fs or None in ks + Fs:
                raise ValueError(f"trace file {args.trace} needs rows with a number as k and as F")
            if args.fstar == "auto":
                fstar, source = min(Fs), "trace-minimum"
            else:
                fstar, source = args.fstar, "given"
            fit = fit_rate(ks, Fs, fstar, window=args.window, exponent=args.exponent,
                           fstar_source=source)
        except ValueError as exc:
            sp_fit.error(str(exc))
        print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
