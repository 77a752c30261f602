"""Partition-refinement vertex traversal shared by the lexicographic searches.

Vertex sets are Python ints used as bitmasks: bit ``v`` stands for vertex
``v``.  The block sequence is a doubly-linked list of block masks together
with a vertex-to-block map.  Visiting ``v`` splits every block ``B`` that
meets the unvisited neighborhood ``N`` of ``v`` into ``B & N`` followed by
``B & ~N``, with one ``&`` per touched block.  The blocks to split are
found through the vertex-to-block map from whichever of ``N`` and the
unvisited non-neighbors is smaller, one lowest bit per block.  A split gives
a new block id to its smaller half only, so each vertex is relabeled
O(log |V|) times.  Visited vertices leave their block at once, hence the
front block is never empty and its lowest bit realizes the lowest-index
tie-break.
"""

from __future__ import annotations

import random
from typing import Sequence

def adjacency_masks(adj: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Neighborhood bitmask of every vertex of a list adjacency."""
    # one bit per vertex, looked up rather than shifted per entry
    bits = [1 << i for i in range(len(adj))]
    return tuple(sum(map(bits.__getitem__, row)) for row in adj)


def mask_bits(x: int) -> list[int]:
    """Vertices of the bitmask ``x`` in increasing order."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def refine_traversal(
    adj: Sequence[Sequence[int]],
    initial_blocks: Sequence[int],
    rng: random.Random | None = None,
    skip_record: int | None = None,
    *,
    masks: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Visit every vertex of the initial blocks, always picking from the
    lexicographically first block.

    ``initial_blocks`` is the starting block sequence as disjoint vertex
    bitmasks, as every caller builds it (one block, or a clique and the
    rest); their union is the universe traversed, the subgraph of ``adj``
    induced on it.  Empty blocks are ignored, and nothing else is checked.
    The pick is the lowest vertex of the front block, or with ``rng`` a
    ``rng.choice`` over its vertices in increasing order.
    ``masks`` are the neighborhood bitmasks of ``adj`` (see
    :func:`adjacency_masks`); ``adj`` itself only sizes the vertex space.

    If ``skip_record`` (a bitmask) is not None, recording is enabled:
    whenever the visited vertex belongs to no previously recorded block and
    is not in ``skip_record``, the current front block is recorded as a
    bitmask.  Returns the visit order and the recorded blocks in recording
    order.
    """
    blocks: list[int] = []
    nxt: list[int] = []
    prv: list[int] = []
    first = -1
    unvisited = 0
    for blk in initial_blocks:
        if not blk:
            continue
        bid = len(blocks)
        blocks.append(blk)
        nxt.append(-1)
        prv.append(bid - 1)
        unvisited |= blk
        if bid:
            nxt[bid - 1] = bid
        else:
            first = bid
    if not unvisited:
        return [], []

    # label the largest initial block by default, the others bit by bit
    big = max(range(len(blocks)), key=lambda b: blocks[b].bit_count())
    vblock = [big] * len(adj)
    for bid, blk in enumerate(blocks):
        if bid != big:
            for v in mask_bits(blk):
                vblock[v] = bid

    order: list[int] = []
    records: list[int] = []
    recording = skip_record is not None
    done = skip_record if recording else 0  # recorded or skipped vertices

    left = unvisited.bit_count()
    for _ in range(left):
        b = first
        front = blocks[b]
        if rng is None:
            low = front & -front
            v = low.bit_length() - 1
        else:
            v = rng.choice(mask_bits(front))
            low = 1 << v
        if recording and not done & low:
            records.append(front)
            done |= front
        order.append(v)
        unvisited ^= low
        front ^= low
        if front:
            blocks[b] = front
        else:
            first = nxt[b]
            if first >= 0:
                prv[first] = -1

        # a block splits iff it meets both the unvisited neighbors and the
        # unvisited non-neighbors, so the blocks of the smaller side suffice
        left -= 1
        nbrs = masks[v] & unvisited
        by_nbrs = 2 * nbrs.bit_count() <= left
        side = nbrs if by_nbrs else unvisited ^ nbrs
        while side:
            c = vblock[(side & -side).bit_length() - 1]
            whole = blocks[c]
            part = whole & side
            side ^= part
            if part == whole:
                continue
            hit = part if by_nbrs else whole ^ part
            rest = whole ^ hit
            t = len(blocks)
            if hit.bit_count() <= rest.bit_count():
                # the hit half moves to the new block, in front of c
                small = hit
                blocks[c] = rest
                blocks.append(hit)
                p = prv[c]
                prv.append(p)
                nxt.append(c)
                prv[c] = t
                if p >= 0:
                    nxt[p] = t
                else:
                    first = t
            else:
                # the rest moves to the new block, behind c
                small = rest
                blocks[c] = hit
                blocks.append(rest)
                q = nxt[c]
                prv.append(c)
                nxt.append(q)
                nxt[c] = t
                if q >= 0:
                    prv[q] = t
            while small:
                low = small & -small
                vblock[low.bit_length() - 1] = t
                small ^= low

    return order, records
