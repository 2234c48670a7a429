"""§4.3.2 microbenchmark — D4: preemptive state-access-order enforcement.

C1 violations with D4 (always zero), without D4 (paper: 14-26% of
packets), and on the re-circulating current-generation design (paper:
18-31%). We report the inversion-density reading of "fraction violating
C1" as the headline and keep the strict displaced-packet reading
alongside (see EXPERIMENTS.md for the metric discussion).
"""

import numpy as np

from repro.harness import MicrobenchSettings, run_d4

from conftest import micro_params


def test_d4_order_enforcement(show):
    settings = MicrobenchSettings(**micro_params())
    result = run_d4(settings)

    show(
        "D4: C1 violation fraction (inversion / displaced metric)\n"
        f"  MP5 (D4)      : {float(np.mean(result.with_d4)):.3f} / "
        f"{float(np.mean(result.with_d4_displaced)):.3f}\n"
        f"  no D4         : {float(np.mean(result.without_d4)):.3f} / "
        f"{float(np.mean(result.without_d4_displaced)):.3f}\n"
        f"  recirculation : {float(np.mean(result.recirculation)):.3f} / "
        f"{float(np.mean(result.recirculation_displaced)):.3f}"
    )

    # With D4: zero violations under either metric, on every stream.
    assert all(v == 0.0 for v in result.with_d4)
    assert all(v == 0.0 for v in result.with_d4_displaced)
    # Without D4: double-digit-percent violations appear.
    assert all(v > 0.0 for v in result.without_d4)
    assert float(np.mean(result.without_d4)) > 0.03
    # Re-circulation is worse still (paper: 18-31% vs 14-26%).
    assert float(np.mean(result.recirculation)) > float(
        np.mean(result.without_d4)
    )
