"""The workload seed fixes the inputs: same seed, same reports; new seed, new reports.

    python3 -m pytest perfbench/test_inputs.py
"""

import pytest

from workloads import WORKLOADS, input_hash


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs(workload: str) -> None:
    first = input_hash(workload, 1)
    assert input_hash(workload, 1) == first
    assert input_hash(workload, 2) != first
