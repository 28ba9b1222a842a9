"""Golden-manifest regression gate: the committed 8x8 stable manifest.

``tests/perf/golden/run_8x8_quick.json`` is the stable run manifest
(``--stable-manifest`` semantics: no wall clock, pinned ``created``) of the
seeded 8-rank x 8-taskgroup quick-workload run.  The test regenerates the
manifest from scratch and compares it against the committed fixture with a
float tolerance of 1e-9 — any drift in the simulator, the cost model, the
executors or the manifest schema fails with the human-readable
``perf diff`` triage report instead of a wall of JSON.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -c \
      "from tests.perf.test_golden_manifest import write_fixture; write_fixture()"

and commit the updated fixture together with the change that moved it.
"""

import json
import math
import pathlib

import pytest

from repro.analysis.render import render_triage_text
from repro.analysis.triage import triage_pair
from repro.core import RunConfig, run_fft_phase
from repro.telemetry.manifest import build_manifest

FIXTURE = pathlib.Path(__file__).parent / "golden" / "run_8x8_quick.json"

#: Relative tolerance for float leaves (absorbs libm differences across
#: platforms; anything beyond this is a real behaviour change).
RTOL = 1e-9


def golden_config() -> RunConfig:
    return RunConfig(
        ranks=8,
        taskgroups=8,
        version="original",
        ecutwfc=30.0,
        alat=10.0,
        nbnd=32,
        telemetry=True,
    )


def generate_manifest() -> dict:
    """The manifest the fixture pins, rebuilt from scratch."""
    result = run_fft_phase(golden_config())
    manifest = build_manifest(result, wall_time_s=None, created="(stable)")
    # Round-trip through JSON so float repr and container types match the
    # committed file exactly.
    return json.loads(json.dumps(manifest))


def write_fixture() -> pathlib.Path:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(generate_manifest(), indent=2) + "\n")
    return FIXTURE


def _leaf_mismatches(golden, fresh, path="", out=None):
    """Recursive float-tolerant comparison; returns mismatched paths."""
    if out is None:
        out = []
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            if key not in golden or key not in fresh:
                out.append(f"{path}.{key} (missing on one side)")
            else:
                _leaf_mismatches(golden[key], fresh[key], f"{path}.{key}", out)
    elif isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            out.append(f"{path} (length {len(golden)} vs {len(fresh)})")
        else:
            for i, (g, f) in enumerate(zip(golden, fresh)):
                _leaf_mismatches(g, f, f"{path}[{i}]", out)
    elif isinstance(golden, float) or isinstance(fresh, float):
        ok = (
            isinstance(golden, (int, float))
            and isinstance(fresh, (int, float))
            and not isinstance(golden, bool)
            and not isinstance(fresh, bool)
            and math.isclose(golden, fresh, rel_tol=RTOL, abs_tol=1e-300)
        )
        if not ok:
            out.append(f"{path} ({golden!r} vs {fresh!r})")
    elif golden != fresh:
        out.append(f"{path} ({golden!r} vs {fresh!r})")
    return out


class TestGoldenManifest:
    def test_fixture_exists_and_is_valid(self):
        from repro.telemetry.manifest import validate_manifest

        assert FIXTURE.exists(), (
            f"golden fixture missing: {FIXTURE}; regenerate with write_fixture()"
        )
        assert validate_manifest(json.loads(FIXTURE.read_text())) == []

    def test_regenerated_manifest_matches_fixture(self):
        golden = json.loads(FIXTURE.read_text())
        fresh = generate_manifest()
        mismatches = _leaf_mismatches(golden, fresh)
        if mismatches:
            triage = triage_pair(golden, fresh)
            report = render_triage_text(triage.to_dict(), top=len(triage.findings))
            shown = "\n".join(f"  {m}" for m in mismatches[:20])
            more = len(mismatches) - 20
            if more > 0:
                shown += f"\n  ... and {more} more"
            pytest.fail(
                "regenerated run manifest drifted from the golden fixture "
                f"({len(mismatches)} leaf difference(s)).\n"
                f"Changed leaves:\n{shown}\n\n"
                f"perf diff (golden -> regenerated):\n{report}\n\n"
                "If this change is intentional, regenerate the fixture "
                "(see module docstring) and commit it with your change."
            )

    def test_fixture_is_stable(self):
        """The committed file must carry no wall-clock or timestamp noise."""
        golden = json.loads(FIXTURE.read_text())
        assert golden["created"] == "(stable)"
        assert golden["timing"]["wall_time_s"] is None
