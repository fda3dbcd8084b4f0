"""Latency traces, topologies, and synthetic trace generation.

A trace is a time-ordered series of one-way latency samples for one directed
link. Lookups use zero-order hold: the value at time t is the latest sample at
or before t, the first sample before the trace starts, and the last sample
after it ends.

Trace CSV format (one directed link per file)::

    timestamp_ms,src_node,dst_node,latency_ms
    0,A,B,100.0
    1000,A,B,104.5

The accepted grammar, read with the ``csv`` module's default dialect:

* lines end in LF or CRLF;
* blank lines, and lines whose first field starts with ``#`` (after leading
  whitespace), are skipped anywhere in the file;
* the first other line is a header when its first field is ``timestamp_ms``
  (case and surrounding whitespace ignored), and data otherwise;
* every data line has four fields; fields may be quoted, csv style;
* the two numbers are read by Python's ``float`` (so ``1_000``, ``inf`` and
  surrounding whitespace are accepted), and node names are stripped of
  surrounding whitespace;
* every data line names the same link.

A file of the regular shape (four plain fields per line, a header and
comments only before the first data line, identical node fields) is read as
columns in a few C-level passes; any other file goes through the row loop,
which also raises every parse error. Both give the same arrays bit for bit.

A topology manifest (JSON) lists the nodes with their roles and maps each
directed link to its trace file; see ``load_topology`` / ``save_topology``.
"""

from __future__ import annotations

import csv
import io
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import TraceParseError, ValidationError

ROLES = ("endpoint", "relay", "user")

MANIFEST_SCHEMA_VERSION = 1

# Spike regime constants: per-sample burst start probability, multiplicative
# factor range, and geometric burst duration (mean, in samples).
SPIKE_PROB = 0.01
SPIKE_FACTOR_RANGE = (2.0, 10.0)
SPIKE_MEAN_DURATION = 20

REGIMES = ("stationary-gaussian", "regime-switching-spikes")


@dataclass(frozen=True)
class Node:
    name: str
    role: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValidationError(f"unknown role {self.role!r} for node {self.name!r}")


class LatencyTrace:
    """One-way latency samples for a single directed link."""

    __slots__ = ("src", "dst", "timestamps_ms", "latencies_ms")

    def __init__(self, src: str, dst: str, timestamps_ms, latencies_ms) -> None:
        ts = np.asarray(timestamps_ms, dtype=np.float64)
        lat = np.asarray(latencies_ms, dtype=np.float64)
        if ts.ndim != 1 or lat.ndim != 1 or ts.shape != lat.shape:
            raise ValidationError("timestamps and latencies must be 1-d and equal length")
        if ts.size == 0:
            raise ValidationError(f"trace {src}->{dst} has no samples")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValidationError(f"trace {src}->{dst} timestamps must be strictly increasing")
        if not np.all(np.isfinite(lat)) or not np.all(lat > 0):
            raise ValidationError(f"trace {src}->{dst} latencies must be positive and finite")
        self.src = src
        self.dst = dst
        self.timestamps_ms = ts
        self.latencies_ms = lat

    @property
    def link(self) -> tuple[str, str]:
        return (self.src, self.dst)

    def __len__(self) -> int:
        return int(self.timestamps_ms.size)

    def __repr__(self) -> str:
        return f"LatencyTrace({self.src}->{self.dst}, n={len(self)})"

    def sample(self, t_ms: float) -> float:
        """Zero-order-hold lookup at time t_ms."""
        # the array method: np.searchsorted's dispatch costs more than the
        # search on this per-feedback path
        idx = int(self.timestamps_ms.searchsorted(t_ms, "right")) - 1
        if idx < 0:
            idx = 0
        return float(self.latencies_ms[idx])

    def at(self, times_ms: np.ndarray) -> np.ndarray:
        """Zero-order-hold lookup at every time in an array."""
        idx = np.searchsorted(self.timestamps_ms, times_ms, side="right") - 1
        return self.latencies_ms[np.maximum(idx, 0)]


def ingest_trace(path: str | Path, unit: str = "one-way") -> LatencyTrace:
    """Parse a trace CSV for one directed link (grammar in the module docstring).

    Args:
        path: CSV file with header timestamp_ms,src_node,dst_node,latency_ms.
        unit: "one-way" keeps values as-is; "rtt" halves them (symmetric links).

    Raises:
        TraceParseError: malformed row, with the offending line number.
        ValidationError: empty trace, non-monotonic timestamps, mixed links,
            or nonpositive latencies.
    """
    if unit not in ("one-way", "rtt"):
        raise ValidationError(f"unknown unit {unit!r}")
    path = Path(path)
    link, timestamps, latencies = _read_columns(path) or _read_rows(path)
    if unit == "rtt":
        latencies = latencies / 2.0
    return LatencyTrace(link[0], link[1], timestamps, latencies)


# characters of the data block a fast read cannot handle: csv quoting, NUL,
# and a mid-file comment
_IRREGULAR = ('"', "\x00", "#")
_BLOCK_CHARS = 1 << 17  # csv's default field limit: most blocks skip the field-length scan


def _read_columns(path: Path) -> tuple[tuple[str, str], np.ndarray, np.ndarray] | None:
    """Read a file of the regular shape as columns; None for the row loop.

    The data block is read in blocks of whole lines. Each block becomes one
    flat field list whose line breaks are tokens of their own, so a single
    slice check proves that every line has four fields. The link columns are
    checked with ``list.count`` and the numbers parsed with ``float``, as the
    row loop parses them.
    """
    limit = csv.field_size_limit()
    link = None
    ts_blocks, lat_blocks = [], []
    try:
        with path.open(newline="") as fh:
            # leading comments and the optional header, split into lines as
            # csv.reader sees them
            while True:
                line = fh.readline()
                if not line or '"' in line or "\x00" in line or len(line) > limit:
                    return None
                first = line.split(",", 1)[0]
                if not first.lstrip().startswith("#"):
                    break
            carry = "" if first.strip().lower() == "timestamp_ms" else line
            while True:
                chunk = fh.read(_BLOCK_CHARS)
                block = carry + chunk
                if chunk:
                    cut = block.rfind("\n") + 1
                    if not cut:
                        carry = block
                        continue
                    block, carry = block[:cut], block[cut:]
                elif not block:
                    break
                if any(c in block for c in _IRREGULAR):
                    return None
                if "\r" in block:
                    if block.count("\r") != block.count("\r\n"):
                        return None
                    block = block.replace("\r\n", "\n")
                if block.endswith("\n"):
                    block = block[:-1]
                n = block.count("\n") + 1
                fields = block.replace("\n", ",\n,").split(",")
                if len(fields) != 5 * n - 1 or fields[4::5].count("\n") != n - 1:
                    return None
                # no field can outgrow csv's field limit in a block that fits it
                if len(block) > limit and max(map(len, fields)) > limit:
                    return None
                if link is None:
                    link = (fields[1], fields[2])
                if fields[1::5].count(link[0]) != n or fields[2::5].count(link[1]) != n:
                    return None
                try:
                    ts_blocks.append(np.fromiter(map(float, fields[0::5]), np.float64, n))
                    lat_blocks.append(np.fromiter(map(float, fields[3::5]), np.float64, n))
                except ValueError:
                    return None
                if not chunk:
                    break
    except UnicodeDecodeError:
        return None
    if link is None:
        return None
    return (link[0].strip(), link[1].strip()), np.concatenate(ts_blocks), np.concatenate(lat_blocks)


def _read_rows(path: Path) -> tuple[tuple[str, str], np.ndarray, np.ndarray]:
    """The row loop: any file the columnar read refuses, and every parse error.
    Undecodable bytes and csv's own errors become ``TraceParseError``s."""
    timestamps: list[float] = []
    latencies: list[float] = []
    link: tuple[str, str] | None = None
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header_seen = False
            for lineno, row in enumerate(reader, start=1):
                if not row or (row[0].lstrip().startswith("#")):
                    continue
                if not header_seen:
                    header_seen = True
                    if row[0].strip().lower() == "timestamp_ms":
                        continue
                    # no header row: fall through and parse it as data
                if len(row) != 4:
                    raise TraceParseError(
                        f"{path.name} line {lineno}: expected 4 columns, got {len(row)}")
                try:
                    t = float(row[0])
                    lat = float(row[3])
                except ValueError as exc:
                    raise TraceParseError(f"{path.name} line {lineno}: {exc}") from None
                src, dst = row[1].strip(), row[2].strip()
                if link is None:
                    link = (src, dst)
                elif (src, dst) != link:
                    raise ValidationError(
                        f"{path.name} line {lineno}: mixed links in one file "
                        f"({link[0]}->{link[1]} then {src}->{dst})"
                    )
                timestamps.append(t)
                latencies.append(lat)
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path.name}: {exc}") from None
    except csv.Error as exc:
        raise TraceParseError(f"{path.name} line {reader.line_num}: {exc}") from None
    if link is None:
        raise ValidationError(f"{path.name}: no samples")
    return link, np.asarray(timestamps, dtype=np.float64), np.asarray(latencies, dtype=np.float64)


def write_trace_csv(trace: LatencyTrace, path: str | Path) -> None:
    """Write the trace as ``csv.writer`` rows with ``repr`` numbers, CRLF line ends.

    The node fields are quoted once through ``csv``; the lines are formatted
    in bulk from the samples as Python floats.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    quoted = io.StringIO()
    csv.writer(quoted).writerow([trace.src, trace.dst])  # csv quotes by its "\r\n" terminator
    link = quoted.getvalue()[:-2]
    with path.open("w", newline="") as fh:
        fh.write("timestamp_ms,src_node,dst_node,latency_ms\r\n")
        fh.writelines(f"{t!r},{link},{lat!r}\r\n" for t, lat in
                      zip(trace.timestamps_ms.tolist(), trace.latencies_ms.tolist()))


@dataclass
class Topology:
    """A node set plus one latency trace per directed link."""

    nodes: list[Node]
    traces: dict[tuple[str, str], LatencyTrace] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate node names")
        self._by_name = {n.name: n for n in self.nodes}
        for link, trace in self.traces.items():
            if trace.link != link:
                raise ValidationError(f"trace keyed {link} carries link {trace.link}")
            for name in link:
                if name not in self._by_name:
                    raise ValidationError(f"trace references unknown node {name!r}")

    def node(self, name: str) -> Node:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown node {name!r}") from None

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self.traces

    def trace(self, src: str, dst: str) -> LatencyTrace:
        try:
            return self.traces[(src, dst)]
        except KeyError:
            raise ValidationError(f"no trace for link {src}->{dst}") from None


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Parameters for synthetic link traces.

    Per-link means are drawn uniformly from mean_range and stds uniformly from
    std_choices, using a substream keyed on (seed, link name) so the result
    does not depend on link enumeration order.
    """

    mean_range: tuple[float, float] = (100.0, 200.0)
    std_choices: tuple[float, ...] = (10.0, 20.0, 30.0)
    regime: str = "stationary-gaussian"
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.mean_range) != 2 or not 0 < self.mean_range[0] < self.mean_range[1]:
            raise ValidationError("mean_range must be [low, high] with 0 < low < high")
        if not self.std_choices or any(s <= 0 for s in self.std_choices):
            raise ValidationError("std_choices must be positive")
        if self.regime not in REGIMES:
            raise ValidationError(f"unknown regime {self.regime!r}")


def _link_rng(seed: int, src: str, dst: str) -> np.random.Generator:
    key = zlib.crc32(f"{src}->{dst}".encode())
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def synth_link_samples(
    rng: np.random.Generator,
    mean: float,
    std: float,
    n: int,
    regime: str = "stationary-gaussian",
) -> np.ndarray:
    """Draw n positive latency samples for one link.

    The spike regime starts a burst with probability SPIKE_PROB per sample,
    multiplies the base latency by a factor uniform in SPIKE_FACTOR_RANGE, and
    holds it for a geometric duration with mean SPIKE_MEAN_DURATION samples.
    """
    base = rng.normal(mean, std, size=n)
    if regime == "regime-switching-spikes":
        starts = rng.random(n)
        values = np.empty(n)
        remaining = 0
        factor = 1.0
        lo, hi = SPIKE_FACTOR_RANGE
        for i in range(n):
            if remaining == 0 and starts[i] < SPIKE_PROB:
                factor = lo + (hi - lo) * rng.random()
                remaining = int(rng.geometric(1.0 / SPIKE_MEAN_DURATION))
            if remaining > 0:
                values[i] = base[i] * factor
                remaining -= 1
            else:
                values[i] = base[i]
        base = values
    return np.maximum(base, 0.1)


def generate_synthetic(
    spec: SyntheticTraceSpec,
    links: Sequence[tuple[str, str]],
    duration_ms: float,
    step_ms: float,
    roles: Mapping[str, str] | None = None,
) -> Topology:
    """Build a synthetic topology: one trace per listed directed link.

    Deterministic in (spec, links, duration_ms, step_ms); link order does not
    matter. Nodes are inferred from the links; roles defaults to "relay" for
    any node not named in the mapping.
    """
    if not links:
        raise ValidationError("links must be non-empty")
    if duration_ms <= 0 or step_ms <= 0:
        raise ValidationError("duration_ms and step_ms must be positive")
    seen = set()
    for link in links:
        if link in seen:
            raise ValidationError(f"duplicate link {link}")
        seen.add(link)
    roles = dict(roles or {})
    names: list[str] = []
    for src, dst in links:
        for name in (src, dst):
            if name not in names:
                names.append(name)
    nodes = [Node(name, roles.get(name, "relay")) for name in sorted(names)]
    timestamps = np.arange(0.0, duration_ms, step_ms)
    traces = {}
    lo, hi = spec.mean_range
    for src, dst in links:
        rng = _link_rng(spec.seed, src, dst)
        mean = lo + (hi - lo) * rng.random()
        std = float(spec.std_choices[int(rng.integers(len(spec.std_choices)))])
        samples = synth_link_samples(rng, mean, std, timestamps.size, spec.regime)
        traces[(src, dst)] = LatencyTrace(src, dst, timestamps.copy(), samples)
    return Topology(nodes, traces)


def save_topology(topology: Topology, manifest_path: str | Path, trace_dir: str | None = "traces") -> Path:
    """Write every trace to CSV plus a manifest JSON referencing them."""
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    for (src, dst), trace in sorted(topology.traces.items()):
        rel = f"{src}__{dst}.csv" if not trace_dir else f"{trace_dir}/{src}__{dst}.csv"
        write_trace_csv(trace, manifest_path.parent / rel)
        entries.append({"src": src, "dst": dst, "file": rel, "unit": "one-way"})
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "nodes": [{"name": n.name, "role": n.role} for n in topology.nodes],
        "traces": entries,
    }
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_topology(manifest_path: str | Path) -> Topology:
    """Load a topology manifest and every trace file it references."""
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"manifest not found: {manifest_path}") from None
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"{manifest_path.name}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{manifest_path.name}: manifest must be a JSON object")
    version = doc.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValidationError(f"unsupported manifest schema_version {version!r}")
    nodes = [Node(*_manifest_entry(manifest_path, "node", i, entry, ("name", "role")))
             for i, entry in enumerate(doc.get("nodes", []))]
    traces = {}
    for i, entry in enumerate(doc.get("traces", [])):
        src, dst, file = _manifest_entry(manifest_path, "trace", i, entry, ("src", "dst", "file"),
                                         optional=("unit",))
        if (src, dst) in traces:
            raise ValidationError(f"{manifest_path.name}: duplicate link {src}->{dst}")
        file_path = manifest_path.parent / file
        if not file_path.exists():
            raise ValidationError(f"trace file missing: {file_path}")
        trace = ingest_trace(file_path, unit=entry.get("unit", "one-way"))
        if trace.link != (src, dst):
            raise ValidationError(
                f"{file_path.name}: manifest says {src}->{dst}, "
                f"file contains {trace.src}->{trace.dst}"
            )
        traces[trace.link] = trace
    return Topology(nodes, traces)


def _manifest_entry(manifest_path: Path, kind: str, index: int, entry, keys: tuple[str, ...],
                    optional: tuple[str, ...] = ()) -> tuple:
    """The values of an entry's required keys; ValidationError names a missing
    one, or a required or optional key whose value is not a string."""
    where = f"{manifest_path.name}: {kind} entry {index}"
    if not isinstance(entry, dict):
        raise ValidationError(f"{where} is not an object")
    for key in keys:
        if key not in entry:
            raise ValidationError(f"{where} has no {key!r}")
    for key in keys + optional:
        if key in entry and not isinstance(entry[key], str):
            raise ValidationError(f"{where}: {key!r} must be a string, not {entry[key]!r}")
    return tuple(entry[key] for key in keys)


def trace_summary(trace: LatencyTrace) -> dict:
    """Per-link stats used by the validate command."""
    lat = trace.latencies_ms
    ts = trace.timestamps_ms
    return {
        "src": trace.src,
        "dst": trace.dst,
        "samples": int(lat.size),
        "duration_ms": float(ts[-1] - ts[0]),
        "mean_ms": float(np.mean(lat)),
        "std_ms": float(np.std(lat)),
        "min_ms": float(np.min(lat)),
        "max_ms": float(np.max(lat)),
    }
