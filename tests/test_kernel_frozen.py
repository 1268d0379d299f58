"""Frozen outputs of the kernel operators on a fixed corpus.

The corpus is the `_mixed` kernels of tests/test_kernels.py for seeds
0-24, raw and symmetrized, plus every kernel that acceptance criterion
10 draws at its seed 5.  The SHA-1 of the text dumps of `symmetrize`,
`localization_operator` and `renormalization_operator` on each part
pins the outputs bit for bit; the interpolation-bound margins on the
raw seeds are pinned to within 4 ulps (tests/data/kernel_margins.json).
"""

import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from isingcyl import kernels, verify

DIGESTS = {
    "mixed_raw/symmetrize": "3c0f705716ad3a35ed08162f70df404783c47230",
    "mixed_raw/localization_operator": "3c7fa5374339be20e068804d909d6c89e6b85903",
    "mixed_raw/renormalization_operator": "78df207dee0b3bb4a7577fab2a0bd3fbff1a6768",
    "mixed_sym/symmetrize": "3c0f705716ad3a35ed08162f70df404783c47230",
    "mixed_sym/localization_operator": "9b99497f79e33122e792cf2c00749d488175ff7f",
    "mixed_sym/renormalization_operator": "bbe2ed0315ba7d6393fd7e914b01ea715dd3a68b",
    "criterion10/symmetrize": "9514770550432ca3f8d51d209518ff237ac1a04a",
    "criterion10/localization_operator": "3b31fca73e5dcbf83e7ac20f538a5e68eb014475",
    "criterion10/renormalization_operator": "c0ed9fde2f833faac8b5e378f91c094ea06b58b1",
}

MARGINS = Path(__file__).parent / "data" / "kernel_margins.json"


def _mixed(seed):
    rng = np.random.default_rng(seed)
    out = kernels.Kernel(translation_invariant=True)
    for n, p in ((2, 0), (2, 1), (2, 2), (4, 0), (4, 1)):
        out = out.plus(kernels.random_sparse_kernel(rng, n, p, entries=4))
    return out


@functools.cache
def _corpus(name):
    if name == "mixed_raw":
        return [_mixed(seed) for seed in range(25)]
    if name == "mixed_sym":
        return [kernels.symmetrize(k) for k in _corpus("mixed_raw")]
    # the draw sequence of verify.check_kernel_calculus(seed=5)
    rng = np.random.default_rng(5)
    drawn = [kernels.random_sparse_kernel(rng, 4, 0, entries=6, box=3) for _ in range(10)]
    drawn += [verify._mixed_kernel(rng, entries=5) for _ in range(10)]
    return drawn + [verify._mixed_kernel(rng, entries=4) for _ in range(100)]


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_operator_outputs_are_frozen(key):
    name, op = key.split("/")
    digest = hashlib.sha1()
    for k in _corpus(name):
        digest.update(kernels.kernel_to_text(getattr(kernels, op)(k)).encode())
    assert digest.hexdigest() == DIGESTS[key]


def test_bound_report_margins_are_frozen():
    frozen = json.loads(MARGINS.read_text())
    combos = [tuple(c) for c in frozen["combos"]]
    rows = iter(frozen["margins"])
    for k in _corpus("mixed_raw"):
        for report in kernels.interpolation_bound_reports(k, combos):
            assert sorted(report) == frozen["names"]
            for name, want in zip(frozen["names"], next(rows)):
                want = float.fromhex(want)
                got = report[name][2]
                assert abs(got - want) <= 4 * math.ulp(want), (name, got, want)
    assert next(rows, None) is None
