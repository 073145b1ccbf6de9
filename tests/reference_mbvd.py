"""Reference implementation of the MBVD forward pass.

``admittance_arrays`` here forms each arm's impedance with numpy's complex
arithmetic, 1/(r0 + 1/(j w c0)) and rm + 1j (lm w - 1/(cm w)), as the
forward pass in ``resokit.mbvd`` did before it assembled the impedances
from their real and imaginary parts.  Tests compare the library against it
bit for bit, so keep it unchanged when the library changes.
"""

from __future__ import annotations

import numpy as np

from resokit.mbvd import TWO_PI, Admittance


def admittance_arrays(freqs, c0, r0, rs, rm, lm, cm) -> Admittance:
    w = TWO_PI * np.asarray(freqs, dtype=float)
    jw = 1j * w
    yb = None
    with np.errstate(divide="ignore", invalid="ignore"):
        yst = 1.0 / (r0 + 1.0 / (jw * c0))
        g = yst
        if rm.size:
            zb = rm[:, None] + 1j * (lm[:, None] * w - 1.0 / (cm[:, None] * w))
            yb = 1.0 / zb
            total = 0.0
            for row in yb:
                total = total + row
            g = yst + total
        y = 1.0 / (rs + 1.0 / g) if rs != 0.0 else g
    return Admittance(w, yst, yb, g, y)
