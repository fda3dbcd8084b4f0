"""Command-line entry point.

Three subcommands:

* ``validate``: parse trace CSVs (files or directories) and print per-link
  diagnostics; every bad file is reported, not just the first.
* ``synth``: generate a synthetic full-mesh topology for one endpoint/user
  pair plus N relays, write its trace CSVs, a topology manifest, and a ready
  to run experiment manifest.
* ``run``: execute the session x method matrix described by an experiment
  manifest and write per-cell JSON reports, CDF CSVs, and a summary CSV.

Experiment manifest (JSON, schema_version 1)::

    {
      "schema_version": 1,
      "topology": "topology.json",        # path relative to the manifest, OR
      "synthetic": {                      # generate on the fly instead
        "relays": 4, "duration_ms": 700000.0, "step_ms": 10.0, "seed": 0,
        "mean_range": [100.0, 200.0], "std_choices": [10.0, 20.0, 30.0],
        "regime": "stationary-gaussian"
      },
      "pairs": [["e0", "u0"]],            # directed endpoint -> user streams
      "methods": ["drt-bf", "drt-wm", "via-bf", "via-wm", "vcr-wm"],  # or router+jitter
      "defaults": {                       # all keys optional
        "packets": 60000, "interval_ms": 10.0, "warmup_ms": 60000.0,
        "seed": 0, "loss_threshold": null,
        "router": {"c": 1.0, "confidence": 0.95, "prune": true},
        "jitter": {"window_ms": 2000.0, "bin_ms": 1.0, "percentile": 0.95,
                   "loss_cost_ms": 100.0, "initial_lag_ms": 0.0,
                   "max_lag_ms": 10000.0, "update_on_drop": true}
      },
      "output_dir": "results"             # optional
    }

Exactly one of "topology"/"synthetic" must be present. Flags override
manifest fields. Output directory precedence: --out flag, then the manifest
field, then $RELAYSIM_OUT_DIR. Results are written only after the whole
matrix has completed, so a failed run leaves no partial output.

Exit codes: 0 ok, 2 usage, 3 validation, 4 runtime.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

from .engine import (
    METHODS,
    RouterConfig,
    SessionConfig,
    cell_config,
    check_method_labels,
    run_session,
    summarize_cells,
)
from .errors import ConfigurationError, TraceParseError, ValidationError
from .jitter import JitterConfig
from .paths import path_count, required_links
from .reports import MetricsReport, write_summary_csv
from .traces import (
    REGIMES,
    SyntheticTraceSpec,
    Topology,
    generate_synthetic,
    ingest_trace,
    load_topology,
    save_topology,
    trace_summary,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

OUT_DIR_ENV = "RELAYSIM_OUT_DIR"
EXPERIMENT_SCHEMA_VERSION = 1

_DEFAULT_KEYS = {"packets", "interval_ms", "warmup_ms", "seed",
                 "loss_threshold", "router", "jitter"}

RUN_PACKETS = 60_000  # the run default; SessionConfig.packet_count is 600_000

SYNTH_RELAYS = 4
SYNTH_DURATION_MS = 700_000.0
SYNTH_STEP_MS = 10.0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _resolve_out_dir(flag_value: str | None, manifest_value: str | None,
                     manifest_dir: Path | None) -> Path:
    if flag_value:
        return Path(flag_value)
    if manifest_value:
        base = manifest_dir if manifest_dir is not None else Path.cwd()
        return base / manifest_value
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    raise ValidationError(
        f"no output directory: pass --out, set the manifest's output_dir, "
        f"or set ${OUT_DIR_ENV}"
    )


# ---------------------------------------------------------------- validate

def cmd_validate(args: argparse.Namespace) -> int:
    files: list[Path] = []
    for raw in args.paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.csv")))
        else:
            files.append(p)
    if not files:
        print("error: no traces found", file=sys.stderr)
        return EXIT_VALIDATION
    failures = 0
    for f in files:
        try:
            trace = ingest_trace(f, unit=args.unit)
        except FileNotFoundError:
            print(f"{f}: ERROR file not found", file=sys.stderr)
            failures += 1
            continue
        except (TraceParseError, ValidationError, OSError) as exc:
            # a bad row or value, undecodable bytes, or an unreadable file
            print(f"{f}: ERROR {exc}", file=sys.stderr)
            failures += 1
            continue
        s = trace_summary(trace)
        print(
            f"{f}: {s['src']}->{s['dst']} samples={s['samples']} "
            f"duration_ms={s['duration_ms']:.0f} mean_ms={s['mean_ms']:.2f} "
            f"std_ms={s['std_ms']:.2f} min_ms={s['min_ms']:.2f} max_ms={s['max_ms']:.2f}"
        )
    if failures:
        print(f"{failures} of {len(files)} files failed validation", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ------------------------------------------------------------------- synth

def _synthetic_topology(relays: int, duration_ms: float, step_ms: float,
                        spec: SyntheticTraceSpec) -> Topology:
    relay_names = [f"r{i}" for i in range(relays)]
    links = required_links("e0", "u0", relay_names, include_reverse=True)
    roles = {"e0": "endpoint", "u0": "user"}
    return generate_synthetic(spec, links, duration_ms, step_ms, roles=roles)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.duration_ms <= 0:
        return _usage_error("--duration-ms must be positive")
    if args.step_ms <= 0:
        return _usage_error("--step-ms must be positive")
    if args.relays < 0:
        return _usage_error("--relays cannot be negative")
    try:
        spec = SyntheticTraceSpec(
            mean_range=tuple(args.mean_range),
            std_choices=tuple(args.std_choices),
            regime=args.regime,
            seed=args.seed,
        )
    except ValidationError as exc:
        return _usage_error(str(exc))
    try:
        out_dir = _resolve_out_dir(args.out, None, None)
    except ValidationError as exc:
        return _usage_error(str(exc))
    topology = _synthetic_topology(args.relays, args.duration_ms, args.step_ms, spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = save_topology(topology, out_dir / "topology.json")
    experiment = {
        "schema_version": EXPERIMENT_SCHEMA_VERSION,
        "topology": "topology.json",
        "pairs": [["e0", "u0"]],
        "methods": list(METHODS),
        "defaults": {"seed": args.seed},
    }
    exp_path = out_dir / "experiment.json"
    exp_path.write_text(json.dumps(experiment, indent=2, sort_keys=True) + "\n")
    n_paths = path_count(args.relays)
    print(f"wrote {manifest_path} ({len(topology.traces)} links, "
          f"{args.relays} relays, {n_paths} candidate paths)")
    print(f"wrote {exp_path}")
    return EXIT_OK


# --------------------------------------------------------------------- run

def _load_experiment(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path.name}: {exc}") from None
    _object("the manifest", doc)
    if doc.get("schema_version") != EXPERIMENT_SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported experiment schema_version {doc.get('schema_version')!r}"
        )
    if ("topology" in doc) == ("synthetic" in doc):
        raise ValidationError("exactly one of 'topology'/'synthetic' is required")
    pairs = doc.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ValidationError(f"pairs must be a non-empty list, not {json.dumps(pairs)}")
    for entry in pairs:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(node, str) for node in entry) and entry[0] != entry[1]):
            raise ValidationError(f"bad pair {json.dumps(entry)}: want two different node names")
    return doc


def _experiment_topology(doc: dict, manifest_dir: Path) -> Topology:
    if "topology" in doc:
        return load_topology(manifest_dir / doc["topology"])
    syn = dict(_object("synthetic", doc["synthetic"]))
    relays, duration_ms, step_ms = (
        _typed("synthetic", key, syn.pop(key, default), default)
        for key, default in (("relays", SYNTH_RELAYS), ("duration_ms", SYNTH_DURATION_MS),
                             ("step_ms", SYNTH_STEP_MS)))
    spec = _section(SyntheticTraceSpec, "synthetic", syn, {})
    return _synthetic_topology(relays, duration_ms, step_ms, spec)


def _pick(section: str, key: str, flag, given: dict, default):
    """The flag if set, else the manifest section's value, else the default."""
    value = _typed(section, key, given[key], default) if key in given else default
    return value if flag is None else flag


# a field default's type -> (the JSON types its manifest value may take, their
# name); values are tested by type(), since a bool is also an int
_JSON_TYPES = {
    bool: ({bool}, "true or false"),
    int: ({int}, "an integer"),
    float: ({int, float}, "a number"),
    str: ({str}, "a string"),
    tuple: ({list}, "a list of numbers"),
}


def _typed(section: str, key: str, value, default):
    """A manifest value of the JSON type of the field's default, cast to it
    (an integer to a float, a list to a tuple); any other type is a
    validation error that names the section and key."""
    types, kind = _JSON_TYPES[type(default)]
    if type(value) not in types or (
            type(value) is list and not {type(v) for v in value} <= _JSON_TYPES[float][0]):
        raise ValidationError(f"{section} key {key!r} must be {kind}, not {json.dumps(value)}")
    return type(default)(value)


def _object(section: str, value) -> dict:
    """A manifest section, which must be a JSON object."""
    if type(value) is not dict:
        raise ValidationError(f"{section} must be an object, not {json.dumps(value)}")
    return value


def _section(cls, name: str, given: dict, flags: dict):
    """Build a RouterConfig/JitterConfig/SyntheticTraceSpec from a manifest section.

    Its keys, defaults and types are the dataclass fields, all but ``kind``.
    """
    defaults = {f.name: f.default for f in fields(cls) if f.name != "kind"}
    unknown = set(given) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown {name} keys {sorted(unknown)}")
    return cls(**{key: _pick(name, key, flags.get(key), given, default)
                  for key, default in defaults.items()})


def _template_config(doc: dict, args: argparse.Namespace, endpoint: str, user: str) -> SessionConfig:
    d = _object("defaults", doc.get("defaults", {}))
    unknown = set(d) - _DEFAULT_KEYS
    if unknown:
        raise ValidationError(f"unknown defaults keys {sorted(unknown)}")
    router = _section(RouterConfig, "router", _object("router", d.get("router", {})),
                      {"confidence": args.confidence})
    jitter = _section(JitterConfig, "jitter", _object("jitter", d.get("jitter", {})),
                      {"window_ms": args.window_ms, "percentile": args.percentile})
    threshold = d.get("loss_threshold")  # a number, or null for none
    if threshold is not None:
        threshold = _typed("defaults", "loss_threshold", threshold, 0.0)
    return SessionConfig(
        endpoint=endpoint,
        user=user,
        packet_count=_pick("defaults", "packets", args.packets, d, RUN_PACKETS),
        interval_ms=_pick("defaults", "interval_ms", args.interval_ms, d, SessionConfig.interval_ms),
        warmup_ms=_pick("defaults", "warmup_ms", None, d, SessionConfig.warmup_ms),
        seed=_pick("defaults", "seed", args.seed, d, SessionConfig.seed),
        router=router,
        jitter=jitter,
        loss_threshold=threshold,
    )


def _resolve_methods(doc: dict, args: argparse.Namespace) -> list[str]:
    """Method labels to run, checked by ``engine.check_method_labels``."""
    if args.methods:
        labels = [m.strip() for m in args.methods.split(",") if m.strip()]
    else:
        labels = doc.get("methods", list(METHODS))
        if type(labels) is not list or any(type(label) is not str for label in labels):
            raise ValidationError(f"methods must be a list of strings, not {json.dumps(labels)}")
    if not labels:
        raise ValidationError("method list is empty")
    check_method_labels(labels)
    return labels


_cell_topology: Topology | None = None  # the topology cells run on, per process


def _set_cell_topology(topology: Topology | None) -> None:
    global _cell_topology
    _cell_topology = topology


def _run_cell(job: tuple[int, int, str, SessionConfig]) -> tuple[tuple[int, str], MetricsReport]:
    s_idx, m_idx, label, cfg = job
    cell_cfg = cell_config(cfg, s_idx, m_idx, label)
    return (s_idx, label), run_session(_cell_topology, cell_cfg, method=label).report


def _print_matrix(labels: list[str], method_mean: dict, method_loss: dict,
                  reductions: dict) -> None:
    width = max(len(m) for m in labels) + 2
    print("\nmethod means over sessions:")
    for m in labels:
        print(f"  {m:<{width}} mean={method_mean[m]:9.3f} ms  loss={method_loss[m]:.4%}")
    if len(labels) > 1:
        print("\nmean latency reduction, row vs column baseline ((base-ours)/base):")
        header = " " * (width + 2) + "".join(f"{m:>{width}}" for m in labels)
        print(header)
        for ours in labels:
            row = [f"  {ours:<{width}}"]
            for base in labels:
                if base == ours:
                    row.append(f"{'-':>{width}}")
                else:
                    r = reductions.get((base, ours))
                    row.append(f"{'n/a':>{width}}" if r is None else f"{r:>{width - 1}.1%} ")
            print("".join(row))


def cmd_run(args: argparse.Namespace) -> int:
    manifest_path = Path(args.manifest)
    doc = _load_experiment(manifest_path)
    manifest_dir = manifest_path.parent
    out_dir = _resolve_out_dir(args.out, doc.get("output_dir"), manifest_dir)
    topology = _experiment_topology(doc, manifest_dir)
    pairs = doc["pairs"]
    labels = _resolve_methods(doc, args)
    sessions = [_template_config(doc, args, e, u) for e, u in pairs]
    work = [
        (s_idx, m_idx, label, cfg)
        for s_idx, cfg in enumerate(sessions)
        for m_idx, label in enumerate(labels)
    ]

    jobs = args.jobs
    if jobs is None:
        jobs = max(1, min(len(work), os.cpu_count() or 1))
    if jobs < 1:
        return _usage_error("--jobs must be >= 1")

    if jobs == 1:
        _set_cell_topology(topology)
        try:
            cells = dict(map(_run_cell, work))
        finally:
            _set_cell_topology(None)
    else:
        # each worker gets the topology once, not with every cell
        with ProcessPoolExecutor(max_workers=jobs, initializer=_set_cell_topology,
                                 initargs=(topology,)) as pool:
            cells = dict(pool.map(_run_cell, work))

    matrix = summarize_cells(cells, len(sessions), labels)

    # simulation done; only now touch the filesystem
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(manifest_path, out_dir / "manifest.json")
    effective = {
        "schema_version": EXPERIMENT_SCHEMA_VERSION,
        "manifest": str(manifest_path.resolve()),
        "methods": labels,
        "pairs": pairs,
        "sessions": [
            {"endpoint": c.endpoint, "user": c.user, "packets": c.packet_count,
             "interval_ms": c.interval_ms, "warmup_ms": c.warmup_ms, "seed": c.seed}
            for c in sessions
        ],
    }
    (out_dir / "effective_manifest.json").write_text(
        json.dumps(effective, indent=2, sort_keys=True) + "\n"
    )
    ordered = []
    warnings = []
    for s_idx in range(len(sessions)):
        for label in labels:
            report = cells[(s_idx, label)]
            stem = f"s{s_idx}_{label.replace('+', '_')}"
            report.write_json(out_dir / f"{stem}.json")
            report.write_cdf_csv(out_dir / f"{stem}_cdf.csv")
            ordered.append(report)
            if report.loss_threshold_exceeded:
                warnings.append(
                    f"warning: s{s_idx} {report.method} loss rate "
                    f"{report.loss_rate:.4f} exceeds threshold {report.loss_threshold}")
    write_summary_csv(ordered, out_dir / "summary.csv")

    for warning in warnings:
        print(warning, file=sys.stderr)
    _print_matrix(labels, matrix.method_mean_ms, matrix.method_loss, matrix.reductions)
    print(f"\nwrote {len(ordered)} report cells to {out_dir}")
    return EXIT_OK


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Trace-driven relay routing and jitter management simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check trace CSV files")
    p_val.add_argument("paths", nargs="+", help="trace files or directories")
    p_val.add_argument("--unit", choices=("one-way", "rtt"), default="one-way")
    p_val.set_defaults(func=cmd_validate)

    p_syn = sub.add_parser("synth", help="generate a synthetic topology")
    p_syn.add_argument("--relays", type=int, default=SYNTH_RELAYS)
    p_syn.add_argument("--duration-ms", type=float, default=SYNTH_DURATION_MS)
    p_syn.add_argument("--step-ms", type=float, default=SYNTH_STEP_MS)
    p_syn.add_argument("--seed", type=int, default=SyntheticTraceSpec.seed)
    p_syn.add_argument("--regime", choices=REGIMES, default=SyntheticTraceSpec.regime)
    p_syn.add_argument("--mean-range", type=float, nargs=2,
                       default=SyntheticTraceSpec.mean_range, metavar=("LO", "HI"))
    p_syn.add_argument("--std-choices", type=float, nargs="+",
                       default=SyntheticTraceSpec.std_choices)
    p_syn.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV})")
    p_syn.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run an experiment manifest")
    p_run.add_argument("manifest", help="experiment manifest JSON")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--packets", type=int)
    p_run.add_argument("--interval-ms", type=float)
    p_run.add_argument("--methods",
                       help="comma-separated method names or router+jitter labels")
    p_run.add_argument("--percentile", type=float)
    p_run.add_argument("--window-ms", type=float)
    p_run.add_argument("--confidence", type=float)
    p_run.add_argument("--jobs", type=int,
                       help="parallel worker processes (default: min(cells, CPUs))")
    p_run.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV})")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceParseError, ValidationError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001  keep the CLI from tracebacking
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
