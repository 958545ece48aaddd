"""Hypothesis profiles for the state machines (test_tcp_machine.py and
test_mac_machine.py).

Tier-1 runs each machine derandomized on a fixed example budget.  The
nightly CI soak loads ``machine-deep`` with ``pytest
--hypothesis-profile=machine-deep``: 20x the examples, from a fresh
seed every night.  A profile must be registered before pytest
configures the hypothesis plugin, hence here and not in a test module.
"""

from hypothesis import HealthCheck, settings

#: tier-1 examples per TCP profile, and for the MAC machine's three
#: pollers together; the deep profile runs 20x this per machine class
MACHINE_EXAMPLES = 40

settings.register_profile(
    "machine-deep",
    max_examples=20 * MACHINE_EXAMPLES,
    derandomize=False,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
