"""One place that reads the family's layout of a variational scale.

A state's scale S is a lower-triangular factor L (full family) or a vector of
scales, S = diag(scales) (ffg).  `VariationalState` owns the two products with
S that the terms need: x S (`_times_scale`) and the part of a^T b that S reads
(`_scale_part`), all of it or its diagonal.  The ELL's trace term, the marginal
KL and the SSGE gradient are written once for both families through them.
Outside the state only `exact_kl`, whose gradient is packed directly, and the
full-batch ELL's choice of Phi^T Phi or its diagonal read the family.
"""

import pytest

from conftest import readers_of


def test_only_the_state_exact_kl_and_the_ell_statistic_read_the_family():
    """The ELL's two scale branches, the marginal KL's two and the SSGE
    gradient once each read `is_full` themselves."""
    state = "variational.VariationalState"
    outside = {scope for scope in readers_of("is_full") if not scope.startswith(state)}
    assert outside == {"variational.exact_kl", "variational.expected_log_likelihood"}


@pytest.mark.parametrize("name", ["is_full", "family", "Family", "scale"])
def test_ssge_reads_no_family(name):
    assert {scope for scope in readers_of(name) if scope.split(".")[0] == "ssge"} == set()
