"""Hypothesis settings and fixtures shared by the test modules.

Under CI (the ``CI`` environment variable is set, as on GitHub Actions) the
``ci`` profile is loaded, so a failing property test prints the blob that
reproduces it with ``@reproduce_failure``. Per-test ``@settings`` override
only the fields they name and keep this one.
"""
import os

import numpy as np
import pytest
from hypothesis import settings

from periodic_bandits.harness import run_episode

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def run_recording_rewards():
    """``run(instance, policy, seed)`` -> (result, rewards): one episode, with
    the rewards the policy observed, recorded by wrapping its ``observe``.

    Session-scoped so that property tests may take it too.
    """

    def run(instance, policy, seed):
        rewards = []
        observe = policy.observe

        def recording(t, arm, reward):
            rewards.append(reward)
            observe(t, arm, reward)

        policy.observe = recording
        return run_episode(instance, policy, seed), np.array(rewards)

    return run
