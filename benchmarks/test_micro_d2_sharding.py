"""§4.3.2 microbenchmark — D2: dynamically sharded shared memory.

Dynamic vs static (compile-time random) sharding over independent input
streams. Paper: 1.1-3.3x higher throughput on the skewed pattern and
1-1.5x even on uniform (short-timescale skew still arises from arrival
order).
"""

import numpy as np

from repro.harness import MicrobenchSettings, run_d2

from conftest import micro_params


def test_d2_dynamic_vs_static_sharding(show):
    settings = MicrobenchSettings(**micro_params())
    results = run_d2(settings)
    by_pattern = {r.pattern: r for r in results}

    lines = ["D2: dynamic/static throughput ratio per stream"]
    for pattern, result in by_pattern.items():
        lines.append(
            f"  {pattern:8s} min={result.min_ratio:.2f} "
            f"max={result.max_ratio:.2f} "
            f"mean={float(np.mean(result.ratios)):.2f}"
        )
    show("\n".join(lines))

    skewed = by_pattern["skewed"]
    uniform = by_pattern["uniform"]
    # Dynamic sharding wins on skewed access (paper band: 1.1-3.3x).
    assert skewed.max_ratio > 1.1
    assert float(np.mean(skewed.ratios)) > 1.05
    # It never loses badly anywhere, and helps a little even on uniform
    # (paper band: 1-1.5x).
    assert uniform.min_ratio > 0.95
    assert uniform.max_ratio < 1.6
    # The skewed advantage exceeds the uniform one on average.
    assert float(np.mean(skewed.ratios)) >= float(np.mean(uniform.ratios)) - 0.02
