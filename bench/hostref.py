"""A fixed host-speed reference kernel, independent of specdrive.

The sandbox this benchmark was tuned on is a shared 2-CPU machine whose
speed drifts by 20-50 % between processes and by 10-30 % within seconds,
and CPU time drifts as much as wall time, so the drift is the host's, not
the scheduler's.  Every timed piece of work is therefore bracketed by two
runs of a fixed kernel, and its time is reported as raw seconds scaled by
``mix.nominal_s`` over the mean of the two bracketing kernel times: seconds
on a host where the kernel takes ``nominal_s``.

A kernel tracks the host only as far as it is slowed by the same things as
the work it brackets, so each workload gets a kernel of its own mix
(``KernelMix``): a Python-level loop over small complex blocks shaped like
the workload's step solves (an FFT kinetic term for grids, a matrix for
level systems), which is interpreter- and dispatch-bound, and a cosine
matrix shaped like the workload's field-evaluation blocks, which is bound
by libm and memory.  The kernel never calls specdrive, so no change to the
program can move it.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.fft


@dataclass(frozen=True)
class KernelMix:
    """The work of one kernel run.

    block is the (rows, dim) complex block the loop iterates on, fft
    whether its kinetic term goes through an FFT, iterations the loop
    length, cos the (times, bins) shape of the cosine matrix (0 for none),
    nominal_s about the kernel's median on the machine the bounds were set
    on.
    """

    block: tuple
    fft: bool
    iterations: int
    cos: tuple
    nominal_s: float


class HostReference:
    """Holds one kernel's inputs so each call does the same work."""

    def __init__(self, mix):
        self.mix = mix
        rng = np.random.default_rng(12345)
        rows, dim = mix.block
        self.block = (rng.standard_normal((rows, dim))
                      + 1j * rng.standard_normal((rows, dim))) / 8.0
        self.diag = rng.uniform(0.0, 0.3, dim)
        self.coupling = rng.standard_normal((dim, dim)) * 1e-2
        self.qmat = rng.standard_normal((rows, rows)) * 1e-3
        n_times, n_bins = mix.cos
        self.times = np.linspace(0.0, 100.0, n_times)
        self.omega = np.linspace(0.0, 30.0, n_bins)
        self.coef = rng.standard_normal(n_bins)

    def _work(self):
        u = self.block
        acc = 0.0
        for _ in range(self.mix.iterations):
            if self.mix.fft:
                k = scipy.fft.ifft(scipy.fft.fft(u, axis=-1) * self.diag,
                                   axis=-1)
            else:
                k = u @ self.coupling.T
            rhs = -1j * (k + u * self.diag)
            u = self.block + self.qmat @ rhs
            acc += float(np.linalg.norm(u[-1]))
        if self.coef.size:
            vals = np.cos(np.multiply.outer(self.times, self.omega)) @ self.coef
            acc += float(vals.sum())
        return acc

    def measure(self):
        """Run the kernel once and return its wall seconds."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def scaled(self, seconds, before, after):
        """seconds on the nominal host, given the kernel times measured
        just before and just after the timed work."""
        return seconds * self.mix.nominal_s / (0.5 * (before + after))
