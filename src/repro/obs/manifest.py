"""Signed run manifests: what ran, with what configuration, and how long.

A manifest is written next to every experiment artifact (``catt profile``
output, ``BENCH_sim.json``, ``--trace`` dumps) so a result can always be
tied back to the exact configuration that produced it:

* ``config`` — the resolved :class:`~repro.options.SimOptions` view (engine,
  jobs, scale, spec, …) plus any command-specific inputs;
* ``versions`` — repro / python / numpy;
* ``phases`` — wall-clock seconds per top-level trace phase;
* ``metrics`` — an optional registry snapshot;
* ``signature`` — sha256 over the *deterministic* fields only (schema,
  command, config, versions).  Wall-clock and metrics are excluded, so two
  runs of the same configuration — sequential or ``--jobs 8`` — produce the
  same signature; CI and the tests rely on that.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1

#: Fields covered by the signature — everything that identifies *what* ran,
#: nothing that measures *how fast* it ran.
SIGNED_FIELDS = ("schema", "command", "config", "versions")


@dataclass
class RunManifest:
    command: str
    config: dict
    versions: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    metrics: dict | None = None
    schema: int = SCHEMA_VERSION
    signature: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def collect_versions() -> dict:
    try:
        from repro import __version__ as repro_version
    except Exception:  # pragma: no cover - circular-import fallback
        repro_version = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover
        numpy_version = "unavailable"
    return {
        "repro": repro_version,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "implementation": sys.implementation.name,
    }


def build_manifest(
    command: str,
    config: dict,
    spans=None,
    metrics: dict | None = None,
) -> RunManifest:
    """Assemble (and sign) a manifest for one run.

    ``spans`` may be Span objects or their dict form; their top-level
    durations become the ``phases`` section.
    """
    from .exporters import phase_totals

    manifest = RunManifest(
        command=command,
        config=_jsonable(config),
        versions=collect_versions(),
        phases=phase_totals(spans) if spans else {},
        metrics=metrics,
    )
    manifest.signature = sign(manifest)
    return manifest


def _jsonable(value):
    """Coerce config values into deterministic JSON-serializable forms."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(),
                                                        key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def canonical_payload(manifest: RunManifest) -> bytes:
    """The byte string the signature covers: signed fields, canonical JSON."""
    d = manifest.to_dict()
    signed = {k: d[k] for k in SIGNED_FIELDS}
    return json.dumps(signed, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def sign(manifest: RunManifest) -> str:
    return "sha256:" + hashlib.sha256(canonical_payload(manifest)).hexdigest()


def verify_manifest(manifest: "RunManifest | str | Path") -> bool:
    """True when the stored signature matches the signed fields."""
    if not isinstance(manifest, RunManifest):
        manifest = load_manifest(manifest)
    return bool(manifest.signature) and manifest.signature == sign(manifest)


def manifest_path_for(artifact: str | Path) -> Path:
    artifact = Path(artifact)
    return artifact.with_name(artifact.name + ".manifest.json")


def write_manifest(manifest: RunManifest, path: str | Path) -> Path:
    if not manifest.signature:
        manifest.signature = sign(manifest)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True)
                    + "\n")
    return path


def load_manifest(path: str | Path) -> RunManifest:
    raw = json.loads(Path(path).read_text())
    return RunManifest(
        command=raw["command"],
        config=raw.get("config", {}),
        versions=raw.get("versions", {}),
        phases=raw.get("phases", {}),
        metrics=raw.get("metrics"),
        schema=raw.get("schema", SCHEMA_VERSION),
        signature=raw.get("signature", ""),
    )
