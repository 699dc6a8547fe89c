"""TAGE-SC-L: TAGE + statistical corrector + loop predictor, 8 KB budget.

The paper's second baseline: "an 8 KB TAGE-SC-L predictor taken from the
2016 Branch Prediction Championship" (Section VI-B).  Our from-scratch
implementation keeps the championship predictor's structure — a TAGE core,
a confident loop predictor that overrides, and a statistical corrector that
can flip low-confidence TAGE predictions — within the same storage budget.

Storage budget (default configuration):

===========  =============================  =======
component    configuration                  bits
===========  =============================  =======
TAGE base    4096 x 2-bit bimodal           8192
TAGE tagged  6 tables x 512 x 14 bits       43008
loop         32 entries x 41 bits           1312
corrector    (512 + 3 x 256) x 6-bit        7628
misc         histories, counters            ~200
total                                       ~60340  (< 65536 = 8 KB)
===========  =============================  =======
"""

from __future__ import annotations

from typing import List, Sequence

from .base import BranchPredictor
from .corrector import StatisticalCorrector
from .folded import FoldBank
from .loop import LoopPredictor
from .tage import Tage


class TageSCL(BranchPredictor):
    """The composed TAGE-SC-L predictor."""

    def __init__(
        self,
        tage: Tage = None,
        corrector: StatisticalCorrector = None,
        loop: LoopPredictor = None,
    ):
        self.tage = tage if tage is not None else Tage()
        self.corrector = (
            corrector if corrector is not None else StatisticalCorrector()
        )
        self.loop = loop if loop is not None else LoopPredictor(entries=32)
        # TAGE and the corrector shift the same bit at the same moments,
        # so their folds are all folds of one history, and equal
        # (length, width) pairs are one register: the batch kernel
        # advances the distinct ones together in one FoldBank.
        self._folds = (
            self.tage._fold_index + self.tage._fold_tag0
            + self.tage._fold_tag1 + self.corrector._folds
        )
        self._bank = FoldBank(
            (fold.original_length, fold.compressed_length) for fold in self._folds
        )

    @property
    def name(self) -> str:
        return "tage-sc-l-8kb"

    def predict(self, pc: int) -> bool:
        tage_pred = self.tage.predict(pc)
        if self.loop.hit(pc):
            # A confident loop entry overrides everything.
            prediction = self.loop.predict(pc)
            self.corrector.combine(pc, tage_pred)  # keep context coherent
            return prediction
        return self.corrector.combine(pc, tage_pred)

    def update(self, pc: int, taken: bool) -> None:
        self.tage.update(pc, taken)
        self.corrector.update(pc, taken)
        self.loop.update(pc, taken)

    def insert_history(self, pc: int, taken: bool) -> None:
        self.tage.insert_history(pc, taken)
        self.corrector.insert_history(pc, taken)

    def predict_update_batch(
        self, pcs: Sequence[int], takens: Sequence[bool], trains: Sequence[bool]
    ) -> List[bool]:
        """The fused kernel: :meth:`predict`, :meth:`update` and
        :meth:`insert_history` of TAGE, the corrector and the loop
        predictor inlined into one walk over the ops, with every table,
        register and constant in a local and the folds advanced together
        in a :class:`FoldBank`.  Same predictions and end state as the
        per-op reference sequence (``tests/test_branch_kernels.py``)."""
        tage = self.tage
        corrector = self.corrector
        loop = self.loop
        bank = self._bank
        offsets = bank.offsets

        # -- global history and its folds ----------------------------
        # TAGE and the corrector shift in the same bits, so each history
        # register is the low bits of the other or of one wider history.
        history = tage._history | corrector._history
        history_mask = max(tage._history_mask, corrector._history_mask)
        comp, window = bank.pack(history, {
            (fold.original_length, fold.compressed_length): fold.comp
            for fold in self._folds
        })
        ones = bank.ones
        window_ones = bank.window_ones
        window_tops = bank.window_tops
        shift = bank.shift
        overflows = bank.overflows
        fold_mask = bank.mask

        # -- TAGE ------------------------------------------------------
        num_tables = tage.num_tables
        last_table = num_tables - 1
        index_bits = tage._index_bits
        index_mask = tage._index_mask
        tag_bits = tage.tag_bits
        tag_mask = tage._tag_mask
        tag1_mask = tag_mask >> 1
        # The index fold is the tag0 fold when their widths match.
        index_is_tag0 = index_bits == tag_bits
        tag_tables = tage.tag
        ctr_tables = tage.ctr
        useful_tables = tage.useful
        # Per table, longest history first: its number, the pc hash
        # shift, the history-length constant, three fold offsets and
        # its tags.
        lookup = [
            (
                table,
                tage._pc_shifts[table],
                tage._length_bits[table],
                offsets[(length, index_bits)],
                offsets[(length, tag_bits)],
                offsets[(length, tag_bits - 1)],
                tag_tables[table],
            )
            for table, length in enumerate(tage.history_lengths)
        ][::-1]
        # The terms of every hash that depend on the pc alone, per
        # distinct pc of this batch: the lookup with each table's pc
        # hash in place of its pc shift and length bits, the tag's and
        # the corrector index's pc bits.
        pc_terms = {}
        indices = [0] * num_tables
        tags = [0] * num_tables
        ctr_min = tage.CTR_MIN
        ctr_max = tage.CTR_MAX
        base_table = tage.base.table
        base_mask = tage.base._mask
        base_init = tage.base._init
        base_max = tage.base._max
        use_alt_on_na = tage.use_alt_on_na
        lfsr = tage._lfsr
        tick = tage._tick
        reset_period = tage.useful_reset_period

        # -- statistical corrector -------------------------------------
        bias = corrector.bias
        bias_mask = corrector._bias_mask
        sc_mask = corrector._table_mask
        sc_tables = [
            (table, offsets[(fold.original_length, fold.compressed_length)])
            for table, fold in zip(corrector.tables, corrector._folds)
        ]
        sc_counters = corrector.tables
        sc_indices = [0] * len(sc_tables)
        sc_min = corrector.CTR_MIN
        sc_max = corrector.CTR_MAX
        tage_weight = corrector.tage_weight
        threshold = corrector.threshold

        # -- loop predictor --------------------------------------------
        loop_mask = loop._mask
        loop_shift = loop._tag_shift
        loop_tag_mask = loop._tag_mask
        loop_tag = loop.tag
        past_counts = loop.past_count
        current_counts = loop.current_count
        confidences = loop.confidence
        ages = loop.age
        directions = loop.direction
        max_confidence = loop.MAX_CONFIDENCE
        max_count = loop._max_count

        predictions = []
        record = predictions.append
        for pc, taken, train in zip(pcs, takens, trains):
            if train:
                # Loop predictor lookup.
                entry = pc & loop_mask
                entry_tag = (pc >> loop_shift) & loop_tag_mask
                loop_hit = False
                if loop_tag[entry] == entry_tag:
                    past = past_counts[entry]
                    if past > 0 and confidences[entry] >= max_confidence:
                        loop_hit = True
                        if current_counts[entry] >= past:
                            loop_pred = not directions[entry]
                        else:
                            loop_pred = directions[entry]

                terms = pc_terms.get(pc)
                if terms is None:
                    terms = pc_terms[pc] = (
                        [
                            (table, (pc ^ (pc >> pc_shift) ^ length_bits)
                             & index_mask, at_index, at_tag0, at_tag1,
                             table_tags)
                            for table, pc_shift, length_bits, at_index,
                            at_tag0, at_tag1, table_tags in lookup
                        ],
                        pc & tag_mask,
                        pc & sc_mask,
                    )
                probes, pc_tag, pc_sc = terms

                # TAGE lookup: provider and alternate, longest first.
                # Each fold field is masked as it is shifted down, so
                # the hashes are on small ints.
                provider = alt = -1
                for table, pc_index, at_index, at_tag0, at_tag1, \
                        table_tags in probes:
                    folded = (comp >> at_index) & index_mask
                    index = pc_index ^ folded
                    if index_is_tag0:
                        tag = pc_tag ^ folded ^ (
                            ((comp >> at_tag1) & tag1_mask) << 1
                        )
                    else:
                        tag = (
                            pc_tag ^ ((comp >> at_tag0) & tag_mask)
                            ^ (((comp >> at_tag1) & tag1_mask) << 1)
                        )
                    indices[table] = index
                    tags[table] = tag
                    if table_tags[index] == tag:
                        if provider < 0:
                            provider = table
                        else:
                            alt = table
                            break
                base_index = pc & base_mask
                base_pred = base_table[base_index] >= base_init
                if provider >= 0:
                    provider_index = indices[provider]
                    provider_ctrs = ctr_tables[provider]
                    provider_useful = useful_tables[provider]
                    ctr = provider_ctrs[provider_index]
                    provider_pred = ctr >= 0
                    if alt >= 0:
                        alt_pred = ctr_tables[alt][indices[alt]] >= 0
                    else:
                        alt_pred = base_pred
                    newly_allocated = (
                        provider_useful[provider_index] == 0
                        and (ctr == 0 or ctr == -1)
                    )
                    if newly_allocated and use_alt_on_na >= 8:
                        tage_pred = alt_pred
                    else:
                        tage_pred = provider_pred
                else:
                    provider_pred = alt_pred = tage_pred = base_pred

                # Corrector vote.
                bias_index = ((pc << 1) | tage_pred) & bias_mask
                total = 2 * bias[bias_index] + 1
                k = 0
                for sc_table, at in sc_tables:
                    index = pc_sc ^ ((comp >> at) & sc_mask)
                    sc_indices[k] = index
                    k += 1
                    total += 2 * sc_table[index] + 1
                total += tage_weight if tage_pred else -tage_weight
                record(loop_pred if loop_hit else total >= 0)

                # TAGE update: allocate on a misprediction.
                if tage_pred != taken and provider < last_table:
                    start = provider + 1
                    if start < last_table:
                        bit = (lfsr ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
                        lfsr = (lfsr >> 1) | (bit << 15)
                        if lfsr & 1:
                            start += 1
                    for table in range(start, num_tables):
                        index = indices[table]
                        if useful_tables[table][index] == 0:
                            tag_tables[table][index] = tags[table]
                            ctr_tables[table][index] = 0 if taken else -1
                            break
                    else:
                        for table in range(start, num_tables):
                            useful = useful_tables[table]
                            index = indices[table]
                            if useful[index] > 0:
                                useful[index] -= 1
                if provider >= 0:
                    if provider_pred != alt_pred:
                        if newly_allocated:
                            if alt_pred == taken:
                                if use_alt_on_na < 15:
                                    use_alt_on_na += 1
                            elif use_alt_on_na > 0:
                                use_alt_on_na -= 1
                        useful = provider_useful[provider_index]
                        if provider_pred == taken:
                            if useful < 3:
                                provider_useful[provider_index] = useful + 1
                        elif useful > 0:
                            provider_useful[provider_index] = useful - 1
                    if taken:
                        if ctr < ctr_max:
                            provider_ctrs[provider_index] = ctr + 1
                    elif ctr > ctr_min:
                        provider_ctrs[provider_index] = ctr - 1
                if alt < 0:  # the base predictor served as the alternate
                    counter = base_table[base_index]
                    if taken:
                        if counter < base_max:
                            base_table[base_index] = counter + 1
                    elif counter > 0:
                        base_table[base_index] = counter - 1
                tick += 1
                if tick >= reset_period:
                    tick = 0
                    tage.age_useful()

                # Corrector update: saturating counters step toward
                # the outcome unless already at that end.
                if (total >= 0) != taken or abs(total) <= threshold:
                    step, end = (1, sc_max) if taken else (-1, sc_min)
                    if bias[bias_index] != end:
                        bias[bias_index] += step
                    for sc_table, index in zip(sc_counters, sc_indices):
                        if sc_table[index] != end:
                            sc_table[index] += step

                # Loop predictor update.
                if loop_tag[entry] != entry_tag:
                    if taken:
                        if ages[entry] > 0:
                            ages[entry] -= 1
                        else:
                            loop_tag[entry] = entry_tag
                            past_counts[entry] = 0
                            current_counts[entry] = 1
                            confidences[entry] = 0
                            ages[entry] = 3
                            directions[entry] = True
                elif taken == directions[entry]:
                    current_counts[entry] += 1
                    if current_counts[entry] > max_count:
                        loop_tag[entry] = -1
                else:
                    if past_counts[entry] == current_counts[entry]:
                        if confidences[entry] < max_confidence:
                            confidences[entry] += 1
                    else:
                        past_counts[entry] = current_counts[entry]
                        confidences[entry] = 0
                    current_counts[entry] = 0
                    ages[entry] = 3

            # History shift: FoldBank.advance, inlined.
            if taken:
                history = ((history << 1) | 1) & history_mask
                comp = (comp << 1) | ones
                window = (window << 1) | window_ones
            else:
                history = (history << 1) & history_mask
                comp <<= 1
                window <<= 1
            evicted = window & window_tops
            window ^= evicted
            comp ^= evicted >> shift
            for width, width_ones in overflows:
                comp ^= (comp >> width) & width_ones
            comp &= fold_mask

        tage.use_alt_on_na = use_alt_on_na
        tage._lfsr = lfsr
        tage._tick = tick
        tage._history = history & tage._history_mask
        corrector._history = history & corrector._history_mask
        for fold in self._folds:
            fold.comp = bank.field(
                comp, (fold.original_length, fold.compressed_length)
            )
        tage._ctx = None
        corrector._ctx = None
        return predictions

    def storage_bits(self) -> int:
        return (
            self.tage.storage_bits()
            + self.corrector.storage_bits()
            + self.loop.storage_bits()
        )

    def reset(self) -> None:
        self.tage.reset()
        self.corrector.reset()
        self.loop.reset()
