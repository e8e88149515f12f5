"""Command line: dataset synthesis, training, evaluation, ablation, sweeps.

Configuration precedence is defaults, then the INI config file, then
``--set key=value`` pairs, then named flags.  Every command writes its
effective configuration into a JSON run manifest before doing real
work, and no output embeds a timestamp, so identical inputs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from .data import (
    DataFormatError,
    SyntheticSpec,
    dataset_fingerprint,
    generate_synthetic,
    load_dataset,
    normalize_views,
    save_dataset,
)
from .trainer import (
    MODES,
    TrainConfig,
    evaluate,
    load_model,
    run_ablation,
    save_checkpoint,
    train,
)

_TYPE_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "tuple[int, ...]": lambda s: tuple(int(x) for x in s.replace(" ", "").split(",") if x),
    "int | None": lambda s: None if s.strip().lower() in ("", "none") else int(s),
}
_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(TrainConfig)}

# short grid/override aliases for the most commonly swept fields
_ALIASES = {
    "d": "seq_dim",
    "alpha": "expand_factor",
    "l": "seq_len",
    "n": "state_size",
    "lambda": "ascl_weight",
    "tau": "temperature",
}


class CliError(Exception):
    """Domain error surfaced as exit code 1."""


def _canonical_field(name: str) -> str:
    field = _ALIASES.get(name, name)
    if field not in _FIELD_PARSERS:
        raise CliError(f"unknown config field {name!r}; valid fields: "
                       f"{', '.join(sorted(_FIELD_PARSERS))}")
    return field


def _parse_field(name: str, raw: str):
    field = _canonical_field(name)
    try:
        return field, _FIELD_PARSERS[field](raw)
    except ValueError:
        raise CliError(f"cannot parse {raw!r} as a value for {field}") from None


def _load_config(path: str | None, sets: list[str], mode: str | None,
                 seed: int | None) -> TrainConfig:
    values: dict = {}
    if path:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise CliError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                field, value = _parse_field(key, raw)
                values[field] = value
    for pair in sets or []:
        if "=" not in pair:
            raise CliError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        field, value = _parse_field(key.strip(), raw.strip())
        values[field] = value
    if mode is not None:
        values["mode"] = mode
    if seed is not None:
        values["seed"] = seed
    try:
        return TrainConfig(**values)
    except (TypeError, ValueError) as e:
        raise CliError(f"invalid configuration: {e}") from None


def _config_dict(config: TrainConfig) -> dict:
    out = asdict(config)
    out["hidden_dims"] = list(config.hidden_dims)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepare_dataset(manifest: str, normalize: bool):
    dataset = load_dataset(manifest)
    fingerprint = dataset_fingerprint(manifest)
    if normalize:
        dataset = normalize_views(dataset)
    return dataset, fingerprint


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n_samples=args.samples, n_clusters=args.clusters,
        view_dims=[int(d) for d in args.views.split(",") if d],
        separation=args.separation, noise_std=args.noise,
        seed=args.seed, name=args.name)
    dataset = generate_synthetic(spec)
    manifest = save_dataset(dataset, args.out)
    print(manifest)
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config, args.set, args.mode, args.seed)
    dataset, fingerprint = _prepare_dataset(args.dataset, not args.no_normalize)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": __version__,
        "command": "train",
        "config": _config_dict(config),
        "dataset": {"manifest": str(args.dataset), "fingerprint": fingerprint},
        "normalize": not args.no_normalize,
        "outputs": {"checkpoint": "checkpoint.tmcn", "history": "history.csv"},
    }
    _write_json(out / "run.json", manifest)
    model, history = train(config, dataset)
    history.write_csv(out / "history.csv")
    save_checkpoint(model, out / "checkpoint.tmcn",
                    extra={"normalized": 0.0 if args.no_normalize else 1.0})
    last = history.records[-1] if history.records else None
    if last is not None:
        print(f"trained mode={config.mode} epochs={last.epoch} "
              f"final_total_loss={_fmt(last.total_loss)}")
    print(out / "checkpoint.tmcn")
    return 0


def cmd_eval(args) -> int:
    model, extra = load_model(args.checkpoint)
    dataset = load_dataset(args.dataset)
    if extra.get("normalized", 0.0):
        dataset = normalize_views(dataset)
    k = args.k if args.k is not None else dataset.n_clusters
    if k is None:
        raise CliError("dataset has no cluster count; pass --k")
    result = evaluate(model, dataset, k=k, seed=args.seed)
    payload = {"k": k, "seed": args.seed, "nmi_variant": "sqrt"}
    if result.metrics is not None:
        payload.update(acc=result.metrics.acc, nmi=result.metrics.nmi,
                       pur=result.metrics.pur)
    assignments_path = args.assignments
    if assignments_path is None and result.metrics is None:
        assignments_path = str(Path(args.checkpoint).parent / "assignments.csv")
    if assignments_path:
        with open(assignments_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["index", "cluster"])
            for i, c in enumerate(result.clustering.assignments):
                w.writerow([i, int(c)])
        payload["assignments"] = str(assignments_path)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    config = _load_config(args.config, args.set, None, args.seed)
    dataset, fingerprint = _prepare_dataset(args.dataset, not args.no_normalize)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "run.json", {
        "tool_version": __version__,
        "command": "ablate",
        "config": _config_dict(config),
        "dataset": {"manifest": str(args.dataset), "fingerprint": fingerprint},
        "normalize": not args.no_normalize,
        "outputs": {"table": "ablation.csv"},
    })
    result = run_ablation(config, dataset)
    with open(out / "ablation.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "acc", "nmi", "pur"])
        for mode, acc, nmi_, pur_ in result.table():
            w.writerow([mode, _fmt(acc), _fmt(nmi_), _fmt(pur_)])
    for mode, acc, nmi_, pur_ in result.table():
        print(f"{mode}: acc={acc:.4f} nmi={nmi_:.4f} pur={pur_:.4f}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args.config, args.set, None, args.seed)
    dataset, fingerprint = _prepare_dataset(args.dataset, not args.no_normalize)
    grids: list[tuple[str, list]] = []
    for spec in args.grid:
        if "=" not in spec:
            raise CliError(f"--grid expects name=v1,v2,..., got {spec!r}")
        name, raw = spec.split("=", 1)
        field = _canonical_field(name.strip())
        values = [_parse_field(field, v)[1] for v in raw.split(",") if v]
        if not values:
            raise CliError(f"--grid {name}: no values given")
        grids.append((name.strip(), values))
    if not grids:
        raise CliError("sweep needs at least one --grid")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "run.json", {
        "tool_version": __version__,
        "command": "sweep",
        "config": _config_dict(config),
        "dataset": {"manifest": str(args.dataset), "fingerprint": fingerprint},
        "grid": {name: values for name, values in grids},
        "normalize": not args.no_normalize,
        "outputs": {"table": "sweep.csv"},
    })
    names = [name for name, _ in grids]
    fields = [_canonical_field(name) for name in names]
    with open(out / "sweep.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(names + ["acc", "nmi", "pur"])
        for combo in itertools.product(*(values for _, values in grids)):
            cfg = replace(config, **dict(zip(fields, combo)))
            model, _history = train(cfg, dataset)
            result = evaluate(model, dataset, k=cfg.n_clusters or dataset.n_clusters,
                              seed=config.seed)
            if result.metrics is None:
                raise CliError("sweep needs a labeled dataset")
            w.writerow(list(combo) + [_fmt(result.metrics.acc),
                                      _fmt(result.metrics.nmi),
                                      _fmt(result.metrics.pur)])
    print(out / "sweep.csv")
    return 0


def cmd_export_embeddings(args) -> int:
    model, extra = load_model(args.checkpoint)
    dataset = load_dataset(args.dataset)
    if extra.get("normalized", 0.0):
        dataset = normalize_views(dataset)
    embedding = model.fused_embedding(dataset.views)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        header = [f"h{i}" for i in range(embedding.shape[1])]
        if dataset.labels is not None:
            header.append("label")
        w.writerow(header)
        for i in range(embedding.shape[0]):
            row = [_fmt(x) for x in embedding[i]]
            if dataset.labels is not None:
                row.append(int(dataset.labels[i]))
            w.writerow(row)
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _positive_int(s: str) -> int:
    v = int(s)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s!r}")
    return v


def _add_config_flags(p: argparse.ArgumentParser, with_mode: bool = False) -> None:
    p.add_argument("--config", help="INI config file mirroring TrainConfig fields")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config field (repeatable)")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip per-column min-max scaling of the input views")
    if with_mode:
        p.add_argument("--mode", choices=MODES, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmcn", description="multi-view clustering engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--clusters", type=_positive_int, required=True)
    p.add_argument("--views", default="20,30,25",
                   help="comma-separated feature widths, one per view")
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synthetic")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset manifest")
    p.add_argument("--dataset", required=True, help="dataset manifest path")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, with_mode=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cluster a dataset with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assignments", default=None,
                   help="write cluster assignments to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare full, no-tmfn and no-ascl")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="grid sweep over config fields")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", action="append", default=[], metavar="NAME=V1,V2,...",
                   help="values for one swept field (repeatable)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-embeddings", help="write fused coordinates to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DataFormatError, ValueError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
