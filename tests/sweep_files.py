"""The file digests of a CLI sweep, for the tests that pin every artifact
a sweep writes byte for byte."""

import hashlib
from pathlib import Path

from tvprox.cli import main


def sweep_digests(argv, out_dir):
    """Run tvprox.cli.main(argv) with --out out_dir and return
    {file name: sha256 hex digest} for every file the sweep wrote there."""
    assert main([*argv, "--out", str(out_dir)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}
