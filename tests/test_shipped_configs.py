"""Every shipped config's report files, byte for byte.

``configs/golden.json`` maps each config in ``configs/`` to the SHA-256 of
each file that ``emit`` writes for it: the JSON report and both CSV files,
at the config's own seed.  It was recorded at one worker; the test runs
every config at two and compares, so it checks the worker count and the
bytes at once.  A change that moves a digest names it in CHANGES.md.
Re-record with

    PYTHONPATH=src python3 tests/test_shipped_configs.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from envwalk.experiments import emit, parse_config, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MANIFEST = CONFIGS / "golden.json"


def digests(workers: int, out_dir: Path) -> dict:
    """{config file: {report file: SHA-256}} for every shipped config."""
    found = {}
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        report = run(parse_config(cfg.read_text()), workers=workers)
        out = out_dir / cfg.stem
        paths = emit(report, "json", out) + emit(report, "csv", out)
        found[cfg.name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    return found


def test_shipped_configs_match_the_manifest_at_two_workers(tmp_path):
    assert digests(2, tmp_path) == json.loads(MANIFEST.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(json.dumps(digests(1, Path(tmp)), indent=2, sort_keys=True) + "\n")
