"""Property tests: the ``REPRO_FAULTS`` and ``REPRO_RETRY`` spec parsers.

Both specs arrive from outside the program (the environment, ``--faults``,
``--retry``) and travel to workers as text, so any input must either be
refused with :class:`ValueError` or parse into a value whose ``spec()``
parses back to the same value.  The strategies mix arbitrary text with text
shaped like the grammar, so that valid sites, kinds, option names and
awkward numbers (NaN, infinities, many significant digits) are reached.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.resilience.faults import FAULT_KINDS, FAULT_SITES, parse_fault_spec
from repro.resilience.policy import parse_retry_spec

NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=10**12).map(str),
    st.floats().map(repr),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.text(alphabet="0123456789.eE+-_ ainfo", max_size=8),
)


def _names(known):
    return st.one_of(st.sampled_from(known), st.text(max_size=6))


FAULT_CLAUSES = st.one_of(
    st.tuples(_names(("seed", "hang", "HANG")), NUMBERS).map("=".join),
    st.tuples(
        _names(FAULT_SITES),
        _names(FAULT_KINDS),
        st.lists(NUMBERS, max_size=3),
    ).map(lambda t: ":".join([t[0], t[1], *t[2]])),
)

RETRY_CLAUSES = st.tuples(
    _names(
        ("attempts", "backoff", "multiplier", "max_backoff", "jitter",
         "timeout", "breaker", "respawns")
    ),
    st.one_of(NUMBERS, st.sampled_from(("none", "off", "0"))),
).map("=".join)


def _specs(clauses):
    return st.one_of(st.text(), st.lists(clauses, max_size=5).map(",".join))


@given(_specs(FAULT_CLAUSES))
@example("seed=0,hang=1000001.0")  # more digits than ``:g``'s six
@example("store.put:torn:0.123456789")
@settings(max_examples=400, deadline=None)
def test_fault_spec_round_trips_or_raises_value_error(text):
    try:
        plan = parse_fault_spec(text)
    except ValueError:
        return
    assert parse_fault_spec(plan.spec()) == plan


@given(_specs(RETRY_CLAUSES))
@example("backoff=1000001.0")
@example("timeout=nan")
@settings(max_examples=400, deadline=None)
def test_retry_spec_round_trips_or_raises_value_error(text):
    try:
        policy = parse_retry_spec(text)
    except ValueError:
        return
    assert parse_retry_spec(policy.spec()) == policy
