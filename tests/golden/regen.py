"""Regenerate the golden-result fixtures: ``python -m tests.golden.regen``.

Runs the canonical grid through the ``serial`` executor (the reference
backend) and rewrites every ``<workload>-<mode>-seed<N>.json`` fixture
plus the ``specs.json`` manifest (spec dict + digest + fixture file per
grid point).  Only run this after an intentional change to simulation
semantics, and commit the resulting diff together with the change that
caused it.
"""

import json
import sys

from repro.sim import SerialExecutor

from . import (
    CFD_ORACLE_FIXTURE,
    GOLDEN_DIR,
    MANIFEST_PATH,
    cfd_oracle_json,
    fixture_name,
    golden_specs,
    normalized_json,
)


def main() -> int:
    specs = golden_specs()
    results = SerialExecutor().map(specs)
    manifest = []
    for spec, result in zip(specs, results):
        name = fixture_name(spec)
        (GOLDEN_DIR / name).write_text(normalized_json(result))
        manifest.append({
            "fixture": name,
            "digest": spec.digest(),
            "spec": spec.to_dict(),
        })
        print(f"wrote {name} (digest {spec.digest()[:12]}...)", file=sys.stderr)
    MANIFEST_PATH.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote specs.json ({len(manifest)} fixtures)", file=sys.stderr)
    (GOLDEN_DIR / CFD_ORACLE_FIXTURE).write_text(cfd_oracle_json())
    print(f"wrote {CFD_ORACLE_FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
