"""Regenerate detect_resonances.json, the frozen detector contract.

Runs the full ingestion path (Touchstone text -> S -> Y -> device
admittance) on the 22 survey devices at -80, -40 and -20 dB noise with
criterion 2's seeds (100 + survey index) and records every candidate
detect_resonances returns.  Usage, from the repository root:

    PYTHONPATH=src python tests/data/make_detect_resonances.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import survey_trace  # noqa: E402

from resokit.extract import detect_resonances  # noqa: E402
from resokit.refdata import SURVEY  # noqa: E402

NOISE_DB = (-80.0, -40.0, -20.0)


def main() -> None:
    lines = []
    for noise_db in NOISE_DB:
        for i, row in enumerate(SURVEY):
            cands = detect_resonances(survey_trace(row.label, i, noise_db))
            entry = {"noise_db": noise_db, "label": row.label,
                     "candidates": [[c.fs_est, c.fp_est, c.prominence_db, list(c.span)]
                                    for c in cands]}
            lines.append(json.dumps(entry))
    (HERE / "detect_resonances.json").write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    main()
