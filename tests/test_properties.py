"""Property suites shared with the acceptance gate (see helpers.py)."""

import random

from helpers import (
    check_box_oracle,
    check_characterization,
    check_component_lemmas,
    check_euler_hilbert,
    check_gcd_free_characterization,
    check_gcd_support_homology,
    check_indispensable_generation,
    check_theta_squared,
)


def test_gcd_vs_support_homology(suite):
    check_gcd_support_homology(suite, random.Random(101))


def test_theta_squared_everywhere(suite):
    check_theta_squared(suite, random.Random(101))


def test_gcd_free_characterization(suite):
    check_gcd_free_characterization(suite)


def test_component_lemmas(suite):
    check_component_lemmas(suite)


def test_membership_characterization(suite):
    check_characterization(suite, random.Random(105))


def test_fiber_box_oracle():
    check_box_oracle(random.Random(106))


def test_indispensable_generation_theorem():
    check_indispensable_generation(random.Random(107))


def test_euler_hilbert_identity(suite):
    check_euler_hilbert(suite, random.Random(101))
