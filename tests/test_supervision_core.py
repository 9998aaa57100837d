"""The retry machinery both supervisors share (``repro.supervision``)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.supervision import BACKOFF_CAP_SECONDS, RetryQueue, backoff_delay


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    unit=st.one_of(st.integers(min_value=0, max_value=4096), st.text(max_size=16)),
    attempt=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=300, deadline=None)
def test_backoff_is_deterministic_jittered_and_capped(seed, unit, attempt):
    delay = backoff_delay(seed, unit, attempt)
    assert backoff_delay(seed, unit, attempt) == delay
    base = min(BACKOFF_CAP_SECONDS, 0.01 * 2 ** (attempt - 1))
    assert base / 2 <= delay <= base
    assert delay <= 0.25


@given(
    dues=st.lists(st.integers(min_value=0, max_value=5), max_size=30),
    now=st.integers(min_value=-1, max_value=6),
)
@settings(max_examples=200, deadline=None)
def test_retry_queue_pops_due_items_in_order_then_flushes(dues, now):
    queue = RetryQueue()
    for item, due in enumerate(dues):
        queue.schedule(float(due), item)
    assert len(queue) == len(dues)

    def in_due_order(items):
        # sorted() is stable: equal due times keep scheduling order
        return sorted(items, key=lambda item: dues[item])

    due_now = [item for item, due in enumerate(dues) if due <= now]
    later = [item for item, due in enumerate(dues) if due > now]
    assert queue.pop_due(float(now)) == in_due_order(due_now)
    assert queue.next_due() == (min(dues[i] for i in later) if later else None)
    assert queue.pop_due(float(now)) == []
    assert queue.pop_due(float(now), flush=True) == in_due_order(later)
    assert len(queue) == 0
    assert queue.next_due() is None
