"""The `estimate` document, pinned bit for bit by its SHA-256 digest.

A refactor of the read, grouping or estimator paths that claims identical
outputs must keep these digests.  The inputs are built from PCG64 integers
with + - * / only, which round the same under every SIMD dispatch, and are
written with Python's repr, so the CSV text is the same wherever numpy runs.
The document itself reads numpy's sqrt, power and log kernels, so each digest
is keyed like test_simulation's golden digest, by montecarlo.digest_key(),
and the test skips where none has been recorded.
"""

import hashlib
import json

import numpy as np
import pytest

from montecarlo import digest_key
from tailspec import cli


def integer_rows(seed, N, d):
    """N x d rows: a radius 2^31 / k with k uniform on [1, 2^31), so that
    P(radius > x) is near 1/x, times a direction of signed integers in
    [1, 1000] divided by 1000 (no entry is zero)."""
    g = np.random.Generator(np.random.PCG64(seed))
    radius = 2.0**31 / g.integers(1, 2**31, size=(N, 1))
    direction = g.integers(1, 1001, size=(N, d)) * (2 * g.integers(0, 2, size=(N, d)) - 1)
    return radius * direction / 1000.0


CASES = {
    # perfbench's estimate_csv flags, on a smaller input
    "bench_flags": (2, ["--r", "0.9", "--alpha", "0.75",
                        "--region", "arc:0:1.5707963267948966",
                        "--region", "halfspace:1,0:0"]),
    "auto_r": (2, ["--r", "auto", "--alpha", "1.5"]),
    "plug_in_1d": (1, ["--r", "0.5"]),  # alpha_hat plugged into the mass
}

# SHA-256 of the estimate document's JSON text without input.path.  The two
# x86 digests happen to agree: the sample reaches no AVX-512 kernel whose
# rounding differs from its fallback's.
_GOLDEN_ESTIMATE = {
    ("2.4.6", "x86_64", True): {
        "bench_flags":
            "346471e08c21c1eb07a17633ddeb75882fc020216058a3f994b71e9df2eefdb5",
        "auto_r":
            "e04b9100d6637b30871a5b99146a795900b1646165e7f094b872bec645f98f0b",
        "plug_in_1d":
            "ef9e96e075b22c568e102aca12e2b476c69cd6bac07a14142514d94af4728013",
    },
    ("2.4.6", "x86_64", False): {
        "bench_flags":
            "346471e08c21c1eb07a17633ddeb75882fc020216058a3f994b71e9df2eefdb5",
        "auto_r":
            "e04b9100d6637b30871a5b99146a795900b1646165e7f094b872bec645f98f0b",
        "plug_in_1d":
            "ef9e96e075b22c568e102aca12e2b476c69cd6bac07a14142514d94af4728013",
    },
}


def estimate_digest(tmp_path, d, flags):
    values = integer_rows(20240 + d, 20000, d)
    csv = tmp_path / "in.csv"
    csv.write_text("".join(",".join(map(repr, row)) + "\n" for row in values.tolist()),
                   encoding="utf-8")
    out = tmp_path / "out.json"
    assert cli.main(["estimate", "--input", str(csv), "--out", str(out), *flags]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    del doc["input"]["path"]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_estimate_document_digest(tmp_path, case):
    env = digest_key()
    if env not in _GOLDEN_ESTIMATE:
        pytest.skip(f"no digest recorded for numpy {env[0]} on {env[1]} "
                    f"(AVX-512 dispatch: {env[2]})")
    assert estimate_digest(tmp_path, *CASES[case]) == _GOLDEN_ESTIMATE[env][case]
