"""Table II — the evaluation's protocol parameters.

Verifies that the registry instantiates every policy with exactly the
parameter values printed in the paper, and that those values actually land
on the policy objects the experiments run.
"""

from repro.dtn import get_policy
from repro.experiments.report import render_table_2
from repro.experiments.tables import TABLE_II, TABLE_II_PAPER_VALUES


def test_table_2_parameters(check_results):
    assert TABLE_II == TABLE_II_PAPER_VALUES
    assert get_policy("epidemic").initial_ttl == 10
    assert get_policy("spray").initial_copies == 8
    prophet = get_policy("prophet")
    assert (prophet.p_init, prophet.beta, prophet.gamma) == (0.75, 0.25, 0.98)
    assert get_policy("maxprop").hop_threshold == 3
    check_results("table2", render_table_2())
