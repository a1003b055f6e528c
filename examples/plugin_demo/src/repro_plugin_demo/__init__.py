"""repro-plugin-demo: an out-of-tree plugin distribution for repro.

Installing this package (``pip install examples/plugin_demo``) adds three
components to every repro front end -- the CLI, the exploration service
and the engine -- without touching a single core module:

* backend ``coarse``: set-sampled miss measurement with a wide stride
  (cheap, approximate; inherits the engine's sampling machinery);
* backend ``faulty``: fails every measurement on purpose -- the chaos
  monkey CI uses to prove a broken third-party backend trips the
  service's per-spec circuit breaker without hurting other tenants;
* kernel ``fir16``: a 16-tap FIR filter loop nest, the kind of DSP
  workload the paper's benchmark set does not cover;
* SRAM part ``demo-1Mbit``: a fictional low-energy off-chip part.

Try::

    memexplore plugins
    memexplore explore fir16 --backend coarse --max-size 128
    memexplore submit fir16 --backend coarse --server http://...

The only integration point is the ``repro.plugins`` entry point in
``pyproject.toml``, which names :func:`register` below.
"""

from repro.engine.backends import Backend, SampledBackend
from repro.energy.params import SRAMPart
from repro.kernels.base import Kernel
from repro.loops.ir import ArrayDecl, ArrayRef, Loop, LoopNest, var

__all__ = [
    "make_coarse_backend",
    "make_demo_sram",
    "make_faulty_backend",
    "make_fir16",
    "register",
]

_FIR_SOURCE = """\
int x[n + 16], y[n], h[16];
for i = 0, n - 1:
    for k = 0, 15:
        y[i] += h[k] * x[i + k];
"""


def make_fir16(n: int = 64, element_size: int = 1) -> Kernel:
    """A 16-tap FIR filter over an ``n``-sample window."""
    if n < 1:
        raise ValueError("FIR needs a positive sample count")
    i, k = var("i"), var("k")
    nest = LoopNest(
        name="fir16",
        loops=(Loop("i", 0, n - 1), Loop("k", 0, 15)),
        refs=(
            ArrayRef("h", (k,)),
            ArrayRef("x", (i + k,)),
            ArrayRef("y", (i,), is_write=True),
        ),
        arrays=(
            ArrayDecl("h", (16,), element_size),
            ArrayDecl("x", (n + 16,), element_size),
            ArrayDecl("y", (n,), element_size),
        ),
        description="16-tap FIR filter (plugin demo kernel)",
    )
    return Kernel(nest=nest, source=_FIR_SOURCE)


class CoarseBackend(SampledBackend):
    """Set sampling with a deliberately wide stride: fast, approximate."""

    name = "coarse"

    def __init__(self, sample_every: int = 8, offset: int = 0) -> None:
        super().__init__(sample_every=sample_every, offset=offset)


def make_coarse_backend(**kwargs) -> CoarseBackend:
    """Factory the registry calls for ``--backend coarse``."""
    return CoarseBackend(**kwargs)


class FaultyBackend(Backend):
    """Every measurement raises: a stand-in for a broken plugin.

    Jobs routed through it exhaust the engine's chunk retries and fail;
    after a few consecutive failures the service's circuit breaker for
    that spec opens and later submissions fail fast instead of burning
    worker time -- which is exactly what the ``tenant-smoke`` CI job
    asserts, alongside a healthy tenant finishing undisturbed.
    """

    name = "faulty"

    def measure(self, trace, config):
        raise RuntimeError(
            "faulty backend: injected measurement failure (plugin demo)"
        )


def make_faulty_backend() -> FaultyBackend:
    """Factory the registry calls for ``--backend faulty``."""
    return FaultyBackend()


def make_demo_sram() -> SRAMPart:
    """A fictional 1 Mbit low-energy off-chip part."""
    return SRAMPart(
        name="demo-1Mbit",
        size_bits=1 * 1024 * 1024,
        energy_per_access_nj=4.2,
        access_time_ns=12.0,
    )


def register(hook) -> None:
    """The ``repro.plugins`` entry point: add every component to repro."""
    hook.backend("coarse", make_coarse_backend)
    hook.backend("faulty", make_faulty_backend)
    hook.kernel("fir16", make_fir16)
    hook.sram("demo-1Mbit", make_demo_sram)
