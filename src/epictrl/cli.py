"""Command-line entry point: simulate, calibrate, train, evaluate, compare.

Every command resolves its full configuration (defaults, optional config
file, repeatable --set overrides), validates all inputs, and only then
creates the output directory and writes a manifest (manifest.json) before
any other output. simulate, evaluate and compare run their episodes before
that, so an input the environment rejects mid-run leaves no directory.
Outputs contain no timestamps, so rerunning a command with the manifest's
recorded configuration and seeds reproduces them byte for byte. A manifest
file can itself be passed to --config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .agents.training import load_checkpoint, load_resume_checkpoint, train
from .analysis import compare_strategies, estimate_rt, report_to_csv, report_to_text, rt_to_csv, summarize
from .baselines import null_policy, real_world_schedule, seven_work_seven_lockdown, uk_approximation_schedule
from .calibration import CalibrationSpec, fit_comparison_to_csv, observed_from_csv, search, trial_log_to_csv
from .config import FullConfig, apply_overrides, load_config
from .env import EpidemicEnv, evaluate, write_trace
from .errors import EpictrlError
from .simulator import counts_to_csv

CONFIG_ENV_VAR = "EPICTRL_CONFIG"
USAGE_EXIT = 2


class UsageError(EpictrlError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # evaluate and compare take --seeds instead
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except EpictrlError as exc:  # UsageError is one
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epictrl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"epictrl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--config", help=f"YAML config or manifest.json (default: ${CONFIG_ENV_VAR})")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override, repeatable")

    p = sub.add_parser("simulate", help="run the simulator under a fixed policy")
    common(p)
    p.add_argument("--policy", default="none",
                   help="none | schedule:7w7l | schedule:uk-approx | schedule:<file> | checkpoint:<file>")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit pop_infected and beta_initial to observed data")
    common(p)
    p.add_argument("--data", required=True, help="observed CSV: date,cum_confirmed,cum_deaths")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--replications", type=int, default=3)
    p.add_argument("--schedule", default="schedule:uk-approx",
                   help="fixed policy during calibration runs")
    p.add_argument("--pop-infected-range", default="1000,50000", help="lo,hi")
    p.add_argument("--beta-range", default="0.002,0.02", help="lo,hi")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="train an agent in the environment")
    common(p)
    p.add_argument("--agent", choices=("ppo", "dqn"), required=True)
    p.add_argument("--space", choices=("continuous", "discrete"), required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--checkpoint-every", type=int, default=0, help="episodes between checkpoints")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    # No abbreviations where there is --seeds: --seed must not be read as it.
    p = sub.add_parser("evaluate", help="evaluate one policy over a seed set", allow_abbrev=False)
    common(p, seeded=False)
    p.add_argument("--policy", required=True)
    p.add_argument("--seeds", default="0-9", help="e.g. 1,2,3 or 0-9")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compare several policies on identical seeds", allow_abbrev=False)
    common(p, seeded=False)
    p.add_argument("--policy", dest="policies", action="append", required=True,
                   help="policy spec, repeat at least twice")
    p.add_argument("--seeds", default="0-9")
    p.set_defaults(func=cmd_compare)
    return parser


# -- shared plumbing --------------------------------------------------------


def resolve_config(args) -> tuple[FullConfig, str | None]:
    """The validated config, and the file it was read from (--config, else $EPICTRL_CONFIG, else None)."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path is not None and not Path(path).is_file():
        raise UsageError(f"config file not found: {path}")
    cfg = load_config(path)
    apply_overrides(cfg, args.overrides)
    cfg.validate()
    return cfg, path


def parse_seeds(text: str) -> list[int]:
    """Seeds from comma-separated non-negative integers and ranges lo-hi (lo <= hi)."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            first = last = -1
        if first < 0 or last < first:
            raise UsageError(f"bad seed {part!r} in {text!r}: want integers >= 0 or ranges lo-hi with lo <= hi")
        seeds.extend(range(first, last + 1))
    if not seeds:
        raise UsageError(f"no seeds in {text!r}")
    return seeds


def load_policy(spec: str, cfg: FullConfig) -> tuple[object, list[str]]:
    """Parse a policy spec; returns the evaluation policy and the files it reads."""
    if spec == "none":
        return null_policy(), []
    if spec == "schedule:7w7l":
        return seven_work_seven_lockdown(horizon_days=cfg.env.episode_days + 14), []
    if spec == "schedule:uk-approx":
        return uk_approximation_schedule(), []
    kind, colon, target = spec.partition(":")
    if not colon or kind not in ("schedule", "checkpoint"):
        raise UsageError(f"bad policy spec {spec!r}")
    if not Path(target).is_file():
        raise UsageError(f"{kind} file not found: {target}")
    if kind == "schedule":
        return real_world_schedule(target, name=Path(target).stem), [target]
    return load_checkpoint(target)[0], [target]  # the trained agent; its select_action is greedy


def policy_label(spec: str) -> str:
    return spec.replace("schedule:", "").replace("checkpoint:", "").replace("/", "_").replace(":", "_") or "none"


def write_manifest(args, cfg: FullConfig, seeds, inputs: list[str | None], extra: dict | None = None) -> Path:
    """Create the out dir and write manifest.json before any other output.

    inputs are the files the run read; each is recorded with its SHA-256, and None entries are skipped.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "resolved_config": cfg.to_dict(),
        "seeds": seeds if isinstance(seeds, list) else [seeds],
        "inputs": {p: _sha256(p) for p in inputs if p},
        "out_dir": str(out),
        **(extra or {}),
    }
    write_json(out / "manifest.json", manifest)
    return out


def write_json(path: Path, value: dict) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# -- commands ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg, config_file = resolve_config(args)
    spec = args.policy
    policy, policy_files = load_policy(spec, cfg)

    episode = evaluate(policy, EpidemicEnv(cfg), [args.seed])[0]
    out = write_manifest(args, cfg, args.seed, [config_file, *policy_files], {"policy": spec})
    counts_to_csv(episode.series, str(out / "daily_counts.csv"))
    summary = {
        "manifest": "manifest.json",
        "policy": spec,
        "seed": args.seed,
        "days": cfg.env.episode_days,
        "cumulative_infections": episode.cumulative_infections,
        "total_deaths": episode.total_deaths,
        "mean_economic_loss_pct": 100.0 * episode.mean_economic_loss,
    }
    write_json(out / "summary.json", summary)
    print(f"wrote {out / 'daily_counts.csv'}")
    return 0


def cmd_calibrate(args) -> int:
    cfg, config_file = resolve_config(args)
    if not Path(args.data).is_file():
        raise UsageError(f"observed data file not found: {args.data}")
    observed = observed_from_csv(args.data)
    policy, policy_files = load_policy(args.schedule, cfg)
    try:
        pi_lo, pi_hi = (float(x) for x in args.pop_infected_range.split(","))
        b_lo, b_hi = (float(x) for x in args.beta_range.split(","))
    except ValueError as exc:
        raise UsageError(f"bad range: {exc}") from exc
    spec = CalibrationSpec(
        pop_infected_range=(pi_lo, pi_hi),
        beta_range=(b_lo, b_hi),
        trials=args.trials,
        replications=args.replications,
        seed=args.seed,
    )
    spec.validate()
    out = write_manifest(args, cfg, args.seed, [config_file, args.data, *policy_files], {
        "data": args.data, "trials": args.trials, "replications": args.replications,
        "schedule": args.schedule,
        "pop_infected_range": [pi_lo, pi_hi], "beta_range": [b_lo, b_hi],
    })

    n_days = min(len(observed), cfg.env.episode_days)
    result = search(spec, observed, cfg, policy=policy, n_days=n_days)
    trial_log_to_csv(result.trials, str(out / "trial_log.csv"))

    best = result.best
    with open(out / "best_params.yaml", "w", encoding="utf-8") as fh:
        fh.write("# Calibrated overlay; pass to `epictrl simulate --config`.\n")
        fh.write("population:\n")
        fh.write(f"  pop_infected: {best.pop_infected:.8g}\n")
        fh.write(f"  beta_initial: {best.beta_initial:.8g}\n")

    fit_comparison_to_csv(result, observed, str(out / "fit_comparison.csv"))
    print(f"best loss {best.loss:.6g} at pop_infected={best.pop_infected:.6g}, "
          f"beta_initial={best.beta_initial:.6g}")
    return 0


def cmd_train(args) -> int:
    cfg, config_file = resolve_config(args)
    if args.agent == "dqn" and args.space != "discrete":
        raise UsageError("dqn requires --space discrete")
    if args.episodes < 0:
        raise UsageError("--episodes must be >= 0")
    if args.checkpoint_every < 0:
        raise UsageError("--checkpoint-every must be >= 0")
    if args.resume:
        if not Path(args.resume).is_file():
            raise UsageError(f"resume checkpoint not found: {args.resume}")
        load_resume_checkpoint(args.resume, args.agent, args.space)  # a bad one fails before the out dir exists
    cfg.env.action_space_kind = args.space
    out = write_manifest(args, cfg, args.seed, [config_file, args.resume], {
        "agent": args.agent, "space": args.space, "episodes": args.episodes,
        "resume": args.resume,
    })

    result = train(
        env_factory=lambda: EpidemicEnv(cfg),
        agent_kind=args.agent,
        space_kind=args.space,
        config=cfg,
        total_episodes=args.episodes,
        seed=args.seed,
        checkpoint_dir=str(out),
        checkpoint_every=args.checkpoint_every or None,
        resume_from=args.resume,
    )
    with open(out / "learning_curve.csv", "w", encoding="utf-8") as fh:
        fh.write("episode,return\n")
        for i, ret in enumerate(result.curve):
            fh.write(f"{i},{ret:.10g}\n")
    print(f"trained {args.agent}/{args.space} for {len(result.curve)} episodes; "
          f"checkpoint {out / 'checkpoint_final.json'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, config_file = resolve_config(args)
    seeds = parse_seeds(args.seeds)
    policy, policy_files = load_policy(args.policy, cfg)

    episodes = evaluate(policy, EpidemicEnv(cfg), seeds, keep_traces=True)
    out = write_manifest(args, cfg, seeds, [config_file, *policy_files], {"policy": args.policy})
    with open(out / "metrics.csv", "w", encoding="utf-8") as fh:
        fh.write("seed,return,cumulative_infections,deaths,mean_economic_loss_pct\n")
        for ep in episodes:
            fh.write(f"{ep.seed},{ep.total_return:.10g},{ep.cumulative_infections},"
                     f"{ep.total_deaths},{100.0 * ep.mean_economic_loss:.10g}\n")
    for ep in episodes:
        write_trace(str(out / f"trace_seed{ep.seed}.jsonl"), ep.step_records)
    write_json(out / "summary.json", {"manifest": "manifest.json", "policy": args.policy, **summarize(episodes)})
    print(f"evaluated {args.policy} on {len(seeds)} seeds")
    return 0


def cmd_compare(args) -> int:
    cfg, config_file = resolve_config(args)
    if len(args.policies) < 2:
        raise UsageError("compare needs at least two --policy specs")
    seeds = parse_seeds(args.seeds)
    loaded = [load_policy(s, cfg) for s in args.policies]
    labels = [policy_label(s) for s in args.policies]
    if len(set(labels)) != len(labels):
        labels = [f"{label}#{i}" for i, label in enumerate(labels)]
    inputs = [config_file, *(f for _, files in loaded for f in files)]

    env = EpidemicEnv(cfg)
    runs = [(label, evaluate(policy, env, seeds)) for label, (policy, _) in zip(labels, loaded)]
    out = write_manifest(args, cfg, seeds, inputs, {"policies": args.policies})

    duration = cfg.disease.infectious_mean
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for label, episodes in runs:
        for ep in episodes:
            rt_to_csv(estimate_rt(ep.series, duration), str(out / f"rt_{label}_seed{ep.seed}.csv"))
            counts_to_csv(ep.series, str(trace_dir / f"{label}_seed{ep.seed}.csv"))

    rows = compare_strategies(runs, duration)
    report_to_csv(rows, str(out / "report.csv"))
    text = report_to_text(rows)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
