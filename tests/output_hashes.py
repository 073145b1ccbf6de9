"""Print a SHA-256 of every CLI output over a fixed corpus: a behaviour oracle.

Runs, through ``cli.run`` in a temporary directory:

- ``fit`` of each of the 22 survey devices and ``batch`` over them, at
  -80, -40 and -20 dB (noise seed 100 + survey index, as criterion 2)
- ``fit`` of each survey device on its zoom grid (``conftest.zoom_grid``,
  0.97 fs to 1.03 fp in 801 points) at -80 dB, with the same seeds
- ``synth --fmt DB`` then ``fit`` for the four round-trip families (A, E, L, P)
- ``fit`` and ``fit --branches 2`` of criterion 3's pair (-80 dB, seed 11)
- ``modes`` for lvr and dlvr at N = 5, 8, 20 and 40, each with the default
  flags, ``--n-max 400``, ``--delta-electrodes`` and ``--q inf``

and prints one ``<sha256>  <path>`` line per output file (manifests, which
record the temporary paths, are left out) and one ``exit <code>  <command>``
line per command.  Two trees behave alike on this corpus when their
listings are equal:

    PYTHONPATH=src python tests/output_hashes.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from resokit import cli
from resokit.mbvd import model_to_dict
from resokit.refdata import SURVEY, roundtrip_model, synthesis_grid

from conftest import PAIR_GRID, golden_text, pair_model, zoom_grid

NOISE_DB = (-80.0, -40.0, -20.0)
ROUNDTRIP_LABELS = ("A", "E", "L", "P")
MODES_COUNTS = (5, 8, 20, 40)
MODES_VARIANTS = {"default": [], "nmax400": ["--n-max", "400"],
                  "delta": ["--delta-electrodes"], "qinf": ["--q", "inf"]}


def _grid_spec(grid) -> str:
    return f"{float(grid[0])!r}:{float(grid[-1])!r}:{grid.size}"


def commands(inp: Path, out: Path) -> list[list[str]]:
    """Write the inputs under inp; the CLI argument lists that use them and write
    under out, in order."""
    cmds = []
    for noise_db in NOISE_DB:
        tag = f"{-noise_db:g}dB"
        data = inp / "survey" / tag
        data.mkdir(parents=True)
        for i, row in enumerate(SURVEY):
            path = data / f"{row.label}.s2p"
            path.write_text(golden_text(roundtrip_model(row.label), synthesis_grid(row.label),
                                        noise_db=noise_db, seed=100 + i))
            cmds.append(["fit", str(path), "--emit-candidates", "--outdir", str(out / "fit" / tag)])
        cmds.append(["batch", str(data), "--outdir", str(out / "batch" / tag)])
    data = inp / "survey" / "zoom"
    data.mkdir()
    for i, row in enumerate(SURVEY):
        model = roundtrip_model(row.label)
        path = data / f"{row.label}.s2p"
        path.write_text(golden_text(model, zoom_grid(model), noise_db=-80.0, seed=100 + i))
        cmds.append(["fit", str(path), "--emit-candidates", "--outdir", str(out / "fit" / "zoom")])
    for label in ROUNDTRIP_LABELS:
        model = inp / "models" / f"{label}.json"
        model.parent.mkdir(exist_ok=True)
        model.write_text(json.dumps(model_to_dict(roundtrip_model(label))))
        cmds.append(["synth", str(model), "--grid", _grid_spec(synthesis_grid(label)),
                     "--fmt", "DB", "--outdir", str(out / "roundtrip"), "--prefix", label])
        cmds.append(["fit", str(out / "roundtrip" / f"{label}.s2p"), "--emit-candidates",
                     "--outdir", str(out / "roundtrip"), "--prefix", f"{label}_fit"])
    pair = inp / "pair.s2p"
    pair.write_text(golden_text(pair_model(), PAIR_GRID, noise_db=-80.0, seed=11))
    cmds.append(["fit", str(pair), "--emit-candidates", "--outdir", str(out / "pair" / "auto")])
    cmds.append(["fit", str(pair), "--branches", "2", "--outdir", str(out / "pair" / "two")])
    for topology in ("lvr", "dlvr"):
        for n in MODES_COUNTS:
            for variant, flags in MODES_VARIANTS.items():
                cmds.append(["modes", "--topology", topology, "--n", str(n), "--lambda", "1.8e-6",
                             "--vp", "3426", *flags, "--outdir", str(out / "modes" / variant)])
    return cmds


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "out"
        for argv in commands(root / "in", out):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            print(f"exit {code}  {' '.join(argv).replace(str(root), '<tmp>')}")
        for path in sorted(out.rglob("*")):
            if path.is_file() and not path.name.endswith("_manifest.json"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
