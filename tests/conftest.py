import ctypes
import multiprocessing
import threading
from pathlib import Path

import numpy as np
import pytest

import vprkit as vk


def pytest_report_header(config):
    """The NumPy version and the BLAS kernel it loaded: the digest tests pin
    one NumPy/OpenBLAS build on one kernel, so a digest failure on another
    host names the kernel it ran on."""
    return f"numpy {np.__version__}, OpenBLAS kernel {openblas_corename()}"


def openblas_corename() -> str:
    """The kernel name NumPy's bundled OpenBLAS reports in this process,
    read through ctypes; "unknown" where the library or symbol is missing."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def kernel_digest(digests: dict):
    """The digest recorded for the BLAS kernel this process loaded.  The
    float64 results of BLAS products differ in their last bits between
    kernels, so a bit digest holds for one kernel; on a kernel with none
    recorded the test fails naming it, for its digest to be recorded under
    ``OPENBLAS_CORETYPE=<kernel>``."""
    kernel = openblas_corename()
    if kernel not in digests:
        pytest.fail(f"no digest recorded for the OpenBLAS kernel {kernel!r}")
    return digests[kernel]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process or a thread running, and end
    the process.  RSF forks no worker beside another thread, so a thread
    left over would make every later RSF call single-process."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
    assert not left, f"child processes left running: {left}"
    assert not threads, f"threads left running: {threads}"


@pytest.fixture(scope="session")
def tiny_world():
    """Small world with a mild query shift; cheap enough for most tests."""
    return vk.generate_synthetic(
        vk.SynthWorldSpec(
            place_count=6,
            spacing=30.0,
            reference_style=vk.StyleParams(palette_id=0, texture_family="blocks"),
            query_style=vk.StyleParams(
                palette_id=0,
                texture_family="blocks",
                brightness_offset=-0.1,
                noise_sigma=0.02,
            ),
            queries_per_place=1,
            image_size=32,
            seed=3,
        )
    )


@pytest.fixture(scope="session")
def small_model():
    return vk.init_model(hidden_dims=[32], output_dim=16, seed=5)


def random_image(rng: np.random.Generator, size: int = 24) -> vk.ImageRecord:
    return vk.ImageRecord(
        id=f"img{rng.integers(1 << 30)}",
        pixels=rng.random((size, size, 3)),
        pose=vk.Pose(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50))),
    )
