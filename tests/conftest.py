"""Hypothesis settings shared by the test modules.

Under CI (the ``CI`` environment variable is set, as on GitHub Actions) the
``ci`` profile is loaded, so a failing property test prints the blob that
reproduces it with ``@reproduce_failure``. Per-test ``@settings`` override
only the fields they name and keep this one.
"""
import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
