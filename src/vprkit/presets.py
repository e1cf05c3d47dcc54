"""Canned synthetic-world pairs used by the demos and regression tests.

The pair models the usual situation: a training environment (world A,
block textures, mild query shift) and a test environment (world B,
stripe textures) whose queries differ from its references by a strong
appearance shift. A model pretrained on A degrades on B; finetuning on
B's references recovers most of the loss.
"""

from __future__ import annotations

from .dataset import Dataset
from .synth import StyleParams, SynthWorldSpec, generate_synthetic


def domain_gap_pair(seed_a: int = 11, seed_b: int = 22) -> tuple[Dataset, Dataset]:
    """(world A, world B), 30 places with 2 queries each, with a strong
    appearance-only query shift in B."""
    world_a = generate_synthetic(
        SynthWorldSpec(
            place_count=30,
            spacing=30.0,
            reference_style=StyleParams(palette_id=0, texture_family="blocks"),
            query_style=StyleParams(
                palette_id=0,
                texture_family="blocks",
                brightness_offset=-0.05,
                noise_sigma=0.01,
            ),
            queries_per_place=2,
            image_size=64,
            seed=seed_a,
        )
    )
    world_b = generate_synthetic(
        SynthWorldSpec(
            place_count=30,
            spacing=30.0,
            reference_style=StyleParams(palette_id=1, texture_family="stripes"),
            query_style=StyleParams(
                palette_id=1,
                texture_family="stripes",
                hue_shift=35.0,
                brightness_offset=-0.2,
                contrast_gain=0.7,
                noise_sigma=0.04,
            ),
            queries_per_place=2,
            image_size=64,
            seed=seed_b,
        )
    )
    return world_a, world_b
