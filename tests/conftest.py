"""Hypothesis profiles for the TCP state machine (test_tcp_machine.py).

Tier-1 runs the machine derandomized on a fixed example budget.  The
nightly CI soak loads ``tcp-machine-deep`` with ``pytest
--hypothesis-profile=tcp-machine-deep``: 20x the examples, from a fresh
seed every night.  A profile must be registered before pytest
configures the hypothesis plugin, hence here and not in the test module.
"""

from hypothesis import HealthCheck, settings

#: examples per TCP profile in tier-1; the deep profile runs 20x this
TCP_MACHINE_EXAMPLES = 40

settings.register_profile(
    "tcp-machine-deep",
    max_examples=20 * TCP_MACHINE_EXAMPLES,
    derandomize=False,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
