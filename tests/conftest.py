import multiprocessing

import numpy as np
import pytest

import vprkit as vk


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running; end the process."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"


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
