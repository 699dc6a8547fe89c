"""Folded (compressed) global history registers for TAGE index/tag hashes.

TAGE hashes very long global histories (up to a couple hundred bits) into
table indices of ~9 bits.  Recomputing the XOR-fold from scratch at every
branch would dominate simulation time, so we maintain the fold
incrementally, exactly as in Michaud/Seznec's championship predictor code:
one shifted-in bit and one shifted-out bit per branch.
:class:`FoldBank` packs many such registers into one integer so that a
batch kernel advances them all with a few whole-integer operations.
"""

from __future__ import annotations


class FoldedHistory:
    """An incrementally maintained XOR-fold of the last ``original_length``
    history bits down to ``compressed_length`` bits."""

    __slots__ = ("comp", "original_length", "compressed_length", "outpoint", "mask")

    def __init__(self, original_length: int, compressed_length: int):
        if original_length <= 0 or compressed_length <= 0:
            raise ValueError("lengths must be positive")
        self.comp = 0
        self.original_length = original_length
        self.compressed_length = compressed_length
        self.outpoint = original_length % compressed_length
        self.mask = (1 << compressed_length) - 1

    def update(self, history_after_shift: int, new_bit: int) -> None:
        """Advance the fold after the global history shifted in ``new_bit``.

        ``history_after_shift`` is the global history integer *after*
        ``history = (history << 1) | new_bit``; the evicted bit of our
        window is then at position ``original_length``.
        """
        self.comp = (self.comp << 1) | new_bit
        evicted = (history_after_shift >> self.original_length) & 1
        self.comp ^= evicted << self.outpoint
        self.comp ^= self.comp >> self.compressed_length
        self.comp &= self.mask

    def recompute(self, history: int) -> int:
        """Reference (slow) fold of ``history``'s low ``original_length``
        bits; used by tests to validate the incremental update."""
        window = history & ((1 << self.original_length) - 1)
        folded = 0
        while window:
            folded ^= window & self.mask
            window >>= self.compressed_length
        return folded

    def reset(self) -> None:
        self.comp = 0


class FoldBank:
    """Several distinct folds of one global history, advanced together.

    Each distinct ``(original_length, compressed_length)`` pair is one
    bit field of a single packed integer, ``comp``, and every history
    bit advances all fields at once with a handful of whole-integer
    operations: exactly :meth:`FoldedHistory.update`'s steps, per field.

    That step XORs each field's evicted bit (history bit
    ``original_length``) in at the field's outpoint.  A second packed
    integer, ``window``, holds each field's last ``original_length``
    history bits, placed so that after a shift every evicted bit sits
    exactly :attr:`shift` bits above its field's outpoint: one mask and
    one shift move them all.  A kernel keeps ``comp`` and ``window`` in
    locals and inlines :meth:`advance`.
    """

    def __init__(self, pairs):
        #: The distinct ``(original_length, compressed_length)`` pairs.
        self.fields = list(dict.fromkeys(pairs))
        #: Bit offset of each pair's field in ``comp``.
        self.offsets = {}
        offset = 0
        previous = None
        for length, width in self.fields:
            if length <= 0 or width <= 0:
                raise ValueError("lengths must be positive")
            outpoint = length % width
            if previous is not None:
                # Neither the fold fields (each with a spare bit for the
                # shifted-out top bit) nor the windows may overlap.
                prev_width, prev_outpoint = previous
                offset += max(prev_width + 1,
                              prev_outpoint + length - outpoint + 1)
            self.offsets[(length, width)] = offset
            previous = (width, outpoint)
        # A field's window ends at its evicted bit, ``shift`` above the
        # field's outpoint; the smallest shift that keeps them all >= 0.
        self.shift = max(
            length - length % width - self.offsets[(length, width)]
            for length, width in self.fields
        )
        self.ones = 0           # bit 0 of every fold field
        self.mask = 0           # every fold field's bits
        self.window_ones = 0    # bit 0 of every window
        self.window_tops = 0    # every window's evicted bit
        self._window_offsets = {}
        by_width = {}
        for length, width in self.fields:
            offset = self.offsets[(length, width)]
            top = offset + length % width + self.shift
            self._window_offsets[(length, width)] = top - length
            self.ones |= 1 << offset
            self.mask |= ((1 << width) - 1) << offset
            self.window_ones |= 1 << (top - length)
            self.window_tops |= 1 << top
            by_width[width] = by_width.get(width, 0) | (1 << offset)
        #: ``(compressed_length, ones)`` per distinct width: the fields
        #: whose shifted-out top bit sits ``compressed_length`` above bit 0.
        self.overflows = tuple(sorted(by_width.items()))

    def pack(self, history: int, comps) -> tuple:
        """``(comp, window)`` for a global ``history`` whose folds are
        ``comps``, a mapping from pair to folded value."""
        comp = 0
        window = 0
        for pair in self.fields:
            comp |= comps[pair] << self.offsets[pair]
            window |= (history & ((1 << pair[0]) - 1)) << self._window_offsets[pair]
        return comp, window

    def field(self, comp: int, pair) -> int:
        """The folded value of ``pair`` in a packed ``comp``."""
        return (comp >> self.offsets[pair]) & ((1 << pair[1]) - 1)

    def advance(self, comp: int, window: int, bit: int) -> tuple:
        """Shift ``bit`` into every field: :meth:`FoldedHistory.update`
        for all of them at once."""
        if bit:
            comp = (comp << 1) | self.ones
            window = (window << 1) | self.window_ones
        else:
            comp <<= 1
            window <<= 1
        evicted = window & self.window_tops
        window ^= evicted
        comp ^= evicted >> self.shift
        for width, ones in self.overflows:
            comp ^= (comp >> width) & ones
        return comp & self.mask, window
