"""Hypothesis profiles for tier-1 and the nightly CI soak.

Tier-1 loads ``tier1``: every property test draws the same examples on
every run, so a failure it finds reproduces on a rerun.  The state
machines (test_tcp_machine.py and test_mac_machine.py) also run
derandomized, on a fixed example budget.  The nightly soak widens both:
``pytest --hypothesis-profile=fresh-seed tests`` draws every property
test's examples from a fresh seed, and ``machine-deep`` gives the
machines 20x their examples from a fresh seed.  A profile must be
registered before pytest configures the hypothesis plugin, hence here
and not in a test module; ``--hypothesis-profile`` overrides ``tier1``.
"""

from hypothesis import HealthCheck, settings

#: tier-1 examples per TCP profile, and for the MAC machine's three
#: pollers together; the deep profile runs 20x this per machine class
MACHINE_EXAMPLES = 40

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fresh-seed", derandomize=False)
settings.register_profile(
    "machine-deep",
    max_examples=20 * MACHINE_EXAMPLES,
    derandomize=False,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
if settings.get_current_profile_name() == "default":
    settings.load_profile("tier1")
