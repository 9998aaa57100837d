"""Scalasca-style wait-state classification over merged traces.

Three wait patterns (Scalasca's classic taxonomy, paper §I's "automatic
analysis" tool family):

* **imbalance-at-collective** — a rank reached a synchronizing
  collective early and blocked for the latest arriver ("Wait at
  Barrier / NxN").  Detected from the alignment sync points.
* **late-sender** — a receive was posted before the matching send:
  the receiver blocks from its recv until the send appears.
* **late-receiver** — the matching receive was posted *after* a
  (synchronous) send: the sender blocks from its send until the
  receive appears.

Point-to-point matching uses the message ids stamped by
:class:`repro.simmpi.messages.MessageMatcher` (SPMD ring pairing:
send ``k`` on rank ``r`` ↔ recv ``k`` on rank ``(r+1) % world``), all
in aligned logical time so cross-rank comparisons are meaningful.
Works over any :class:`~repro.multirank.tracing.MergedTimeline`, in
memory or on disk, reading the MPI markers of its per-rank walks
(:attr:`~repro.multirank.tracing.MergedTimeline.walks`).
"""

from __future__ import annotations

from typing import Iterable

from repro.multirank.tracing import (
    COLLECTIVE_IMBALANCE,
    ClassifiedWait,
    MergedTimeline,
    collective_waits,
)
from repro.simmpi.messages import RECV_OPS, SEND_OPS, ring_partner

#: classification kinds, stable for CI assertions (the third,
#: COLLECTIVE_IMBALANCE, is the alignment's own, imported above)
LATE_SENDER = "late-sender"
LATE_RECEIVER = "late-receiver"


def classify_wait_states(
    trace: MergedTimeline,
    *,
    min_wait_cycles: float = 0.0,
    world_ranks: int | None = None,
) -> list[ClassifiedWait]:
    """Classify every wait in a merged trace, largest first.

    ``world_ranks`` names the original world size for degraded runs so
    ring partners resolve to true rank ids; defaults to
    ``max(rank_ids) + 1``.

    Sends and receives are keyed ``(rank, message id)``, every other
    marker ``(rank, aligned time, op)``, the key under which
    :func:`~repro.multirank.tracing.collective_waits` looks up the
    region of each collective wait.
    """
    ids = trace.rank_ids
    if world_ranks is None:
        world_ranks = (max(ids) + 1) if ids else 0
    present = set(ids)

    # (op, aligned time, mid, enclosing region) marker per key
    sends_by_key: dict[tuple[int, int], tuple] = {}
    recvs_by_key: dict[tuple[int, int], tuple] = {}
    sync_regions: dict[tuple[int, float, str], str | None] = {}
    for rank, walk in zip(ids, trace.walks):
        for marker in walk.markers:
            op, t, mid, region = marker
            if mid is not None and op in SEND_OPS:
                sends_by_key[(rank, mid)] = marker
            elif mid is not None and op in RECV_OPS:
                recvs_by_key[(rank, mid)] = marker
            else:
                sync_regions[(rank, t, op)] = region

    # collective imbalance: straight from the alignment sync points
    waits = collective_waits(trace, min_wait_cycles, sync_regions)

    # point-to-point: pair recv k on rank r with send k on its ring
    # neighbour; whoever acted first waits for the other
    for (rank, mid), (recv_op, recv_t, _, recv_region) in recvs_by_key.items():
        sender = ring_partner(rank, world_ranks)
        if sender not in present:
            continue  # degraded world: the partner's trace is gone
        match = sends_by_key.get((sender, mid))
        if match is None:
            continue  # ragged tail: send never happened
        send_op, send_t, _, send_region = match
        if send_t > recv_t + min_wait_cycles:
            waits.append(
                ClassifiedWait(
                    kind=LATE_SENDER,
                    rank=rank,
                    op=recv_op,
                    begin_cycles=recv_t,
                    end_cycles=send_t,
                    region=recv_region,
                    partner_rank=sender,
                    message_id=mid,
                )
            )
        elif recv_t > send_t + min_wait_cycles:
            waits.append(
                ClassifiedWait(
                    kind=LATE_RECEIVER,
                    rank=sender,
                    op=send_op,
                    begin_cycles=send_t,
                    end_cycles=recv_t,
                    region=send_region,
                    partner_rank=rank,
                    message_id=mid,
                )
            )

    waits.sort(
        key=lambda w: (-w.wait_cycles, w.rank, w.begin_cycles, w.kind)
    )
    return waits


# -- summaries -------------------------------------------------------------------


def summarize_by_rank(waits: Iterable[ClassifiedWait]) -> dict[int, dict[str, float]]:
    """Total wait cycles per rank per kind."""
    out: dict[int, dict[str, float]] = {}
    for w in waits:
        acc = out.setdefault(w.rank, {})
        acc[w.kind] = acc.get(w.kind, 0.0) + w.wait_cycles
    return out


def summarize_by_region(
    waits: Iterable[ClassifiedWait],
) -> dict[str, dict[str, float]]:
    """Total wait cycles per enclosing source region per kind."""
    out: dict[str, dict[str, float]] = {}
    for w in waits:
        acc = out.setdefault(w.region or "<top>", {})
        acc[w.kind] = acc.get(w.kind, 0.0) + w.wait_cycles
    return out


def render_wait_state_report(
    waits: list[ClassifiedWait], *, max_rows: int = 12
) -> str:
    """Human rendering: top waits plus per-rank and per-region totals."""
    lines = [
        "=" * 64,
        f"Wait-state classification — {len(waits)} wait(s)",
        "=" * 64,
    ]
    for w in waits[:max_rows]:
        where = f" in {w.region}" if w.region else ""
        peer = f" partner=rank {w.partner_rank}" if w.partner_rank is not None else ""
        lines.append(
            f"  {w.kind:<26} rank {w.rank} at {w.op}{where}: "
            f"{w.wait_cycles:.0f} cycles{peer}"
        )
    by_rank = summarize_by_rank(waits)
    if by_rank:
        lines.append("  totals by rank:")
        for rank in sorted(by_rank):
            parts = ", ".join(
                f"{kind}={cycles:.0f}"
                for kind, cycles in sorted(by_rank[rank].items())
            )
            lines.append(f"    rank {rank}: {parts}")
    by_region = summarize_by_region(waits)
    if by_region:
        lines.append("  totals by region:")
        for region in sorted(by_region):
            parts = ", ".join(
                f"{kind}={cycles:.0f}"
                for kind, cycles in sorted(by_region[region].items())
            )
            lines.append(f"    {region}: {parts}")
    return "\n".join(lines)
