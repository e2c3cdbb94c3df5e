"""A fixed reference kernel that measures how fast the host is running right now.

The benchmark times this kernel right before every repetition and divides the
repetition's times by it, so a slow phase of a shared host, which slows both,
cancels out. The kernel is a frozen copy of the kind of work ftgemm does: a
Python k-loop of small float32 outer products accumulated into an output,
with Philox-drawn bit flips xor-ed into some products. It calls nothing in
ftgemm, so a change to ftgemm does not change it.
"""

from __future__ import annotations

import numpy as np

# Reported times are in seconds of a host on which the kernel takes this long.
# A 2-vCPU Xeon VM at 2.1 GHz runs it in about 0.09 s.
NOMINAL_S = 0.1

_ROUNDS = 100
_M, _K, _N = 16, 32, 128
_BER = 2e-4


def reference_kernel() -> float:
    gen = np.random.Generator(np.random.Philox(20230221))
    A = gen.standard_normal((_M, _K), dtype=np.float32)
    B = gen.standard_normal((_K, _N), dtype=np.float32)
    nbits = 32 * _M * _N
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_ROUNDS):
            C = np.zeros((_M, _N), dtype=np.float32)
            counts = gen.binomial(nbits, _BER, size=_K)
            for kk in range(_K):
                prod = np.ascontiguousarray(A[:, kk, None] * B[kk, None, :])
                c = int(counts[kk])
                if c:
                    pos = gen.choice(nbits, size=c, replace=False)
                    bits = np.left_shift(np.uint32(1), (pos & 31).astype(np.uint32))
                    np.bitwise_xor.at(prod.view(np.uint32).reshape(-1), pos >> 5, bits)
                C += prod
            total += float(np.nansum(C))
    return total
