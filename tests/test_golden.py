"""The golden gate: every output file of the matrix in `golden.py` hashes as `golden/manifest.json` says."""

import json

import pytest

import golden


def test_outputs_match_the_manifest(tmp_path):
    with open(golden.MANIFEST) as fh:
        manifest = json.load(fh)
    here = golden.environment()
    differ = [f"{key} {manifest[key]!r} in the manifest, {value!r} here"
              for key, value in here.items() if manifest[key] != value]
    if differ:
        pytest.skip("output bytes may differ with another " + "; ".join(differ))
    hashes = golden.generate(str(tmp_path))
    expected = manifest["files"]
    changed = sorted(name for name in expected.keys() | hashes.keys() if expected.get(name) != hashes.get(name))
    assert not changed, f"output files that differ from {golden.MANIFEST} (or are missing from one side): {changed}"
