"""Command-line interface.

Installed as the ``repro`` console script::

    repro list                                  # experiments & adversaries
    repro experiment E3 --scale smoke           # run one experiment
    repro run --n 512 --alpha 0.7 --adversary split-vote
    repro gauntlet --n 256 --alpha 0.4          # all adversaries at once

Every command prints the same ASCII tables the benches archive, so the
CLI is the quickest way to poke at the reproduction without writing
code.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # type-only: keep fault imports lazy in the CLI
    from repro.faults.plan import FaultPlan

import numpy as np

from repro.adversaries.registry import available_adversaries, make_adversary
from repro.analysis.bounds import thm4_expected_rounds
from repro.core.distill import DistillStrategy
from repro.core.distill_hp import DistillHPStrategy
from repro.core.alpha_doubling import AlphaDoublingStrategy
from repro.baselines.async_ec04 import AsyncEC04Strategy
from repro.baselines.trivial import TrivialStrategy
from repro.errors import ReproError
from repro.experiments import (
    available_experiments,
    generate_report,
    run_experiment,
)
from repro.experiments.config import default_n_jobs, set_default_n_jobs
from repro.experiments.tables import Table
from repro.serve.config import ServeConfig
from repro.sim.engine import EngineConfig
from repro.sim.runner import TrialResults, run_trials
from repro.world.generators import planted_instance

STRATEGIES = {
    "distill": DistillStrategy,
    "distill-hp": DistillHPStrategy,
    "alpha-doubling": AlphaDoublingStrategy,
    "async-ec04": AsyncEC04Strategy,
    "trivial": TrivialStrategy,
}


def _add_jobs_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "Monte-Carlo worker processes (-1 = all cores; default: "
            "REPRO_BENCH_JOBS or serial). Never changes results."
        ),
    )


def _add_obs_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--obs-out",
        default=None,
        metavar="PATH",
        help=(
            "write an observation JSONL (run manifest + counters/timers) "
            "here; inspect it with 'repro obs summary'. Never changes "
            "results."
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Adaptive Collaboration in Peer-to-Peer "
            "Systems' (ICDCS 2005)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, strategies, adversaries")

    exp = sub.add_parser("experiment", help="run one experiment (E1..A4)")
    exp.add_argument("experiment_id")
    exp.add_argument("--scale", choices=["smoke", "full"], default="smoke")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out", help="also write the table to this file")
    _add_jobs_flag(exp)
    _add_obs_flag(exp)

    run = sub.add_parser("run", help="one Monte-Carlo cell")
    run.add_argument("--n", type=int, default=256)
    run.add_argument("--m", type=int, default=None, help="default: n")
    run.add_argument("--alpha", type=float, default=0.7)
    run.add_argument("--beta", type=float, default=1 / 16)
    run.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="distill"
    )
    run.add_argument(
        "--adversary",
        choices=available_adversaries() + ["none"],
        default="split-vote",
    )
    run.add_argument("--trials", type=int, default=16)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--post-loss",
        type=float,
        default=0.0,
        help="probability each honest billboard post is dropped",
    )
    run.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="per-round crash probability of each active honest player",
    )
    run.add_argument(
        "--churn-restart",
        type=int,
        default=4,
        help=(
            "rounds a crashed player stays down before restarting with "
            "no local memory (only with --churn)"
        ),
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-trial wall-clock cap in seconds",
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL checkpoint path (resume an interrupted sweep)",
    )
    _add_jobs_flag(run)
    _add_obs_flag(run)

    bounds = sub.add_parser(
        "bounds", help="print the paper's bound curves at one point"
    )
    bounds.add_argument("--n", type=int, default=1024)
    bounds.add_argument("--m", type=int, default=None, help="default: n")
    bounds.add_argument("--alpha", type=float, default=0.7)
    bounds.add_argument("--beta", type=float, default=1 / 16)
    bounds.add_argument("--q0", type=float, default=1.0)

    show = sub.add_parser(
        "show", help="run one world and render the dashboard"
    )
    show.add_argument("--n", type=int, default=256)
    show.add_argument("--alpha", type=float, default=0.6)
    show.add_argument("--beta", type=float, default=1 / 16)
    show.add_argument(
        "--adversary",
        choices=available_adversaries() + ["none"],
        default="flood",
    )
    show.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser(
        "report", help="run experiments and emit one markdown report"
    )
    rep.add_argument(
        "--ids", nargs="*", default=None,
        help="experiment ids (default: all)",
    )
    rep.add_argument("--scale", choices=["smoke", "full"], default="smoke")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--out", help="write the report here (default stdout)")
    _add_jobs_flag(rep)
    _add_obs_flag(rep)

    g = sub.add_parser("gauntlet", help="every adversary vs one strategy")
    g.add_argument("--n", type=int, default=256)
    g.add_argument("--alpha", type=float, default=0.4)
    g.add_argument("--beta", type=float, default=1 / 16)
    g.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="distill"
    )
    g.add_argument("--trials", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    _add_jobs_flag(g)
    _add_obs_flag(g)

    serve = sub.add_parser(
        "serve",
        help="serve a live billboard over TCP (see docs/serving.md)",
    )
    serve.add_argument(
        "--n", type=int, default=256, help="players the board admits"
    )
    serve.add_argument(
        "--m", type=int, default=128, help="objects the board scores"
    )
    serve.add_argument(
        "--host",
        default=ServeConfig.host,
        help=(
            "listening address; keep it loopback unless the network is "
            "trusted (frames decode to builtins only, but the service "
            "has no authentication)"
        ),
    )
    serve.add_argument(
        "--port",
        type=int,
        default=ServeConfig.port,
        help=(
            "listening port (default: %(default)s — an ephemeral port, "
            "printed on startup)"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        dest="max_inflight",
        type=int,
        default=ServeConfig.max_inflight,
        help=(
            "shed requests beyond this many in processing at once "
            "(default: %(default)s). Never changes what an admitted "
            "request computes."
        ),
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=ServeConfig.rate,
        help=(
            "per-client admission rate in requests/second; 0 disables "
            "rate limiting (default: %(default)s). Never changes what "
            "an admitted request computes."
        ),
    )

    o = sub.add_parser(
        "obs",
        help="inspect observation files (see docs/observability.md)",
    )
    osub = o.add_subparsers(dest="obs_command", required=True)
    summary = osub.add_parser(
        "summary", help="per-phase counter/timer breakdown of one file"
    )
    summary.add_argument("path", help="observation JSONL (from --obs-out)")
    summary.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the text table",
    )
    export = osub.add_parser(
        "export",
        help="re-emit a file's records as normalized JSONL on stdout",
    )
    export.add_argument("path", help="observation JSONL (from --obs-out)")
    diff = osub.add_parser(
        "diff",
        help=(
            "compare two observation files (manifest fields and event "
            "counters); exit 1 when they differ"
        ),
    )
    diff.add_argument("path_a", help="first observation JSONL")
    diff.add_argument("path_b", help="second observation JSONL")
    return parser


def cmd_list() -> int:
    print("experiments (repro experiment <id>):")
    for eid in available_experiments():
        print(f"  {eid}")
    print("strategies (--strategy):")
    for name in sorted(STRATEGIES):
        print(f"  {name}")
    print("adversaries (--adversary):")
    for name in available_adversaries():
        print(f"  {name}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        set_default_n_jobs(args.jobs)
    result = run_experiment(args.experiment_id, args.scale, args.seed)
    rendered = result.render()
    print(rendered)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
    return 0 if result.all_checks_pass else 1


def _fault_plan_from(args: argparse.Namespace) -> Optional["FaultPlan"]:
    """Build the ``run`` subcommand's fault plan (None when faultless).

    Uses ``getattr`` defaults because ``gauntlet`` shares
    :func:`_measure_cell` without growing the fault flags.
    """
    post_loss = getattr(args, "post_loss", 0.0)
    churn = getattr(args, "churn", 0.0)
    if post_loss == 0.0 and churn == 0.0:
        return None
    from repro.faults.plan import FaultPlan

    return FaultPlan(
        post_loss_rate=post_loss,
        crash_rate=churn,
        restart_after=(
            getattr(args, "churn_restart", 4) if churn > 0.0 else None
        ),
    )


def _measure_cell(args: argparse.Namespace, adversary_name: str) -> TrialResults:
    m = args.m if getattr(args, "m", None) else args.n
    return run_trials(
        make_instance=lambda rng: planted_instance(
            n=args.n, m=m, beta=args.beta, alpha=args.alpha, rng=rng
        ),
        make_strategy=STRATEGIES[args.strategy],
        make_adversary=(
            (lambda: None)
            if adversary_name == "none"
            else (lambda: make_adversary(adversary_name))
        ),
        n_trials=args.trials,
        seed=(args.seed, len(adversary_name)),
        config=EngineConfig(max_rounds=1_000_000),
        n_jobs=default_n_jobs() if args.jobs is None else args.jobs,
        fault_plan=_fault_plan_from(args),
        timeout=getattr(args, "timeout", None),
        checkpoint_path=getattr(args, "checkpoint", None),
    )


def cmd_run(args: argparse.Namespace) -> int:
    res = _measure_cell(args, args.adversary)
    bound = thm4_expected_rounds(args.n, args.alpha, args.beta)
    faults = ""
    if args.post_loss or args.churn:
        faults = (
            f", post-loss={args.post_loss:g}, churn={args.churn:g}"
            f"/restart={args.churn_restart}"
        )
    print(
        f"{args.strategy} vs {args.adversary} "
        f"(n={args.n}, alpha={args.alpha}, beta={args.beta:g}, "
        f"{args.trials} trials{faults})"
    )
    print(f"  mean individual rounds : {res.describe('mean_individual_rounds')}")
    print(f"  mean individual probes : {res.describe('mean_individual_probes')}")
    print(f"  last-player rounds     : {res.describe('max_individual_rounds')}")
    print(f"  success rate           : {res.success_rate():.3f}")
    print(f"  Theorem 4 curve        : {bound:.2f} (constant-free)")
    return 0 if res.success_rate() == 1.0 else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis.card import theory_card

    m = args.m if args.m else args.n
    print(theory_card(args.n, m, args.alpha, args.beta, args.q0))
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    from repro.sim.engine import SynchronousEngine
    from repro.viz import render_run
    from repro.world.generators import planted_instance

    # Three *independent* streams from one seed. Arithmetic derivation
    # (seed, seed+1, seed+2) builds correlated PCG64 states; spawning is
    # the repo-wide stream-derivation discipline (reprolint RPL004).
    world_seq, honest_seq, adversary_seq = np.random.SeedSequence(
        args.seed
    ).spawn(3)
    instance = planted_instance(
        n=args.n, m=args.n, beta=args.beta, alpha=args.alpha,
        rng=np.random.default_rng(world_seq),
    )
    engine = SynchronousEngine(
        instance,
        DistillStrategy(),
        adversary=(
            None
            if args.adversary == "none"
            else make_adversary(args.adversary)
        ),
        rng=np.random.default_rng(honest_seq),
        adversary_rng=np.random.default_rng(adversary_seq),
    )
    metrics = engine.run()
    print(render_run(engine, metrics))
    return 0 if metrics.all_honest_satisfied else 1


def cmd_report(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        set_default_n_jobs(args.jobs)
    report = generate_report(
        experiment_ids=args.ids, scale=args.scale, seed=args.seed
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def cmd_gauntlet(args: argparse.Namespace) -> int:
    table = Table(
        ["adversary", "rounds", "probes", "tail", "success"],
        formats={
            "rounds": ".2f",
            "probes": ".2f",
            "tail": ".1f",
            "success": ".2f",
        },
    )
    ok = True
    for name in available_adversaries():
        res = _measure_cell(args, name)
        ok &= res.success_rate() == 1.0
        table.add_row(
            adversary=name,
            rounds=res.mean("mean_individual_rounds"),
            probes=res.mean("mean_individual_probes"),
            tail=res.mean("max_individual_rounds"),
            success=res.success_rate(),
        )
    print(
        f"{args.strategy} gauntlet "
        f"(n={args.n}, alpha={args.alpha}, beta={args.beta:g})"
    )
    print(table.render())
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import BillboardService

    config = ServeConfig(
        n_players=args.n,
        n_objects=args.m,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        rate=args.rate,
    )
    try:
        BillboardService(config).run()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    if args.obs_command == "summary":
        data = obs.load_observations(args.path)
        if args.json:
            print(json.dumps(obs.summarize(data), indent=2, sort_keys=True))
        else:
            print(obs.render_summary(data))
        return 0
    if args.obs_command == "export":
        data = obs.load_observations(args.path)
        registry = obs.Registry()
        for name, value in data.counters.items():
            registry.counter(name).add(value)
        for name, (count, total) in data.timers.items():
            registry.timer(name).add(total, count=count)
        for line in obs.observation_lines(
            manifest=data.manifest, registry=registry
        ):
            print(line)
        for record in data.traces:
            print(json.dumps({"type": "trace", **record}, sort_keys=True))
        return 0
    if args.obs_command == "diff":
        from repro.obs.export import (
            diff_observations,
            informational_differences,
        )

        data_a = obs.load_observations(args.path_a)
        data_b = obs.load_observations(args.path_b)
        differences = diff_observations(data_a, data_b)
        for line in informational_differences(data_a, data_b):
            print(f"note: {line}")
        if not differences:
            print("observations match (manifest fields and counters)")
            return 0
        for line in differences:
            print(line)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


def _write_cli_observations(path: str, registry: Any) -> None:
    """Persist a command's registry; environmental failures surface as
    :class:`~repro.errors.ConfigurationError` (caught in :func:`main`)."""
    from repro.errors import ConfigurationError
    from repro.obs.export import write_observations

    try:
        write_observations(
            path, manifest=registry.manifest, registry=registry
        )
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write observations to {path!r}: {exc}; check that "
            "the directory exists and is writable"
        ) from None
    print(f"observations written to {path}", file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return cmd_list()
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "bounds":
        return cmd_bounds(args)
    if args.command == "show":
        return cmd_show(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "gauntlet":
        return cmd_gauntlet(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "obs":
        return cmd_obs(args)
    raise AssertionError("unreachable")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    obs_out = getattr(args, "obs_out", None)
    try:
        if obs_out is None:
            return _dispatch(args)
        from repro.obs.registry import observe

        with observe() as registry:
            code = _dispatch(args)
        _write_cli_observations(obs_out, registry)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
