//! The candidate-scan index: popcount-bucketed rows, bit-sliced SIMD planes
//! for large tables and a row-major walk for small ones.
//!
//! The correlation check is DICE's per-window hot path: every window without
//! an exact group match is compared against *all* groups by Hamming distance
//! (Figure 3.5). [`SlicedScanIndex`] is a structure-of-arrays mirror of the
//! [`GroupTable`] built for that scan:
//!
//! * **Popcount-bucket cascade.** Rows are sorted by `(popcount, group id)`,
//!   so the `|pc(q) − pc(g)| > maxDist` lower bound becomes two binary
//!   searches that select one *contiguous* slot range instead of a
//!   per-row branch. Everything outside the range is skipped wholesale.
//! * **Row-major mode.** Every row is also packed row-major in slot order.
//!   Tables below [`SCAN_CROSSOVER_GROUPS`] groups build nothing else: their
//!   candidate scans walk the bucket range one XOR+popcount chain per row,
//!   as do the nearest cascade and thresholds above [`MAX_SLICED_DISTANCE`].
//! * **Bit-sliced planes.** At or above the crossover, within blocks of
//!   [`BLOCK_LANES`] rows, the table is also transposed column-major: plane
//!   `i` of a block holds bit `i` of all 256 rows as four `u64` lane words.
//!   One 256-bit XOR against the broadcast query bit compares the same bit
//!   position of 256 groups at once, and per-lane distances accumulate in
//!   `K` vertical carry-save counter planes (`2^K − 1 ≥ maxDist`), with a
//!   sticky saturation plane.
//! * **Early abandon.** Once every lane of a block has saturated past
//!   `maxDist` (checked every [`EARLY_CHECK_BITS`] planes) the remaining
//!   planes of that block are skipped — with small thresholds most blocks
//!   die within the first few dozen of hh102's 270 planes.
//! * **Batched queries.** [`SlicedScanIndex::candidates_batch_into`] scans
//!   blocks in the outer loop and queries in the inner loop, so one pass
//!   over the plane data (kept cache-hot) serves a whole window batch.
//!
//! Kernels exist for AVX2 and SSE2 (`std::arch`, runtime-detected) and as a
//! portable four-sub-word scalar loop. All backends share the same plane
//! layout, block width, and early-abandon cadence, so results *and*
//! [`ScanProfile`] statistics are bit-identical across backends — the
//! cross-backend proptests in `tests/properties.rs` assert exactly that.
//! Results match the naive [`GroupTable::candidates`] /
//! [`GroupTable::nearest`] scans byte for byte, in both modes. The index is
//! derived state, rebuilt whenever the model's group table changes — see
//! [`DiceModel::rebuild_index`](crate::DiceModel::rebuild_index).

// The AVX2/SSE2 kernels are the one place in dice-core that needs `unsafe`:
// `#[target_feature]` functions may only be invoked once the matching CPU
// feature has been verified at runtime (`ScanBackend::detect`), which the
// compiler cannot prove. Each call site carries a SAFETY note tying it to
// that detection.
#![allow(unsafe_code)]

use crate::bitset::BitSet;
use crate::groups::{Candidate, GroupTable};

use dice_types::GroupId;

const WORD_BITS: usize = 64;

/// Group-table sizes below this build no bit planes and scan row-major;
/// larger tables build the bit-sliced planes too.
///
/// One 256-lane block is the bit-sliced path's minimum per-query work, so
/// tables smaller than a block scan faster row-major. 160 was tuned on the
/// `bench-json` synthetic workload (270-bit hh102 states, distance ≤ 3)
/// against a row-major walk that tested every row's popcount: the
/// crossover lay between 100 groups (row-major ~1.9× faster) and 200
/// groups (bit-sliced ~1.1× faster). Walking only the popcount bucket
/// range moves it higher — `crossover_probe` in this module's tests times
/// both modes of one table. The value is recorded in `BENCH_core.json`
/// (`candidate_scan.crossover_groups`).
pub const SCAN_CROSSOVER_GROUPS: usize = 160;

/// Rows per bit-sliced block: one 256-bit SIMD lane's worth.
pub const BLOCK_LANES: usize = 256;

/// `u64` lane words per block (`BLOCK_LANES / 64`).
const LANE_WORDS: usize = 4;

/// Saturation is polled every this many bit planes, on every backend, so
/// early-abandon statistics are backend-independent.
const EARLY_CHECK_BITS: usize = 32;

/// Largest `max_distance` served by the bit-sliced kernels (six counter
/// planes); beyond it [`SlicedScanIndex::candidates_into`] falls back to a
/// row-major scan of the bucket range.
pub const MAX_SLICED_DISTANCE: u32 = 63;

/// Environment variable that forces a scan backend (`scalar`, `sse2`,
/// `avx2`); unsupported values fall back to runtime detection.
pub const SCAN_BACKEND_ENV: &str = "DICE_SCAN_BACKEND";

/// Which compare kernel a [`SlicedScanIndex`] dispatches to.
///
/// All backends read the same plane layout and return bit-identical results;
/// they differ only in how many lane words one instruction touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScanBackend {
    /// Portable four-sub-word `u64` loop; always available.
    #[default]
    Scalar,
    /// 128-bit `std::arch` kernel (two lane words per op).
    Sse2,
    /// 256-bit `std::arch` kernel (one block row per op).
    Avx2,
}

impl ScanBackend {
    /// Picks the best backend: the [`SCAN_BACKEND_ENV`] override if set *and*
    /// supported on this CPU, otherwise the widest runtime-detected feature.
    pub fn detect() -> ScanBackend {
        if let Ok(forced) = std::env::var(SCAN_BACKEND_ENV) {
            let forced = match forced.to_ascii_lowercase().as_str() {
                "scalar" => Some(ScanBackend::Scalar),
                "sse2" => Some(ScanBackend::Sse2),
                "avx2" => Some(ScanBackend::Avx2),
                _ => None,
            };
            if let Some(backend) = forced {
                if backend.is_supported() {
                    return backend;
                }
            }
        }
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if is_x86_feature_detected!("avx2") {
                return ScanBackend::Avx2;
            }
            if is_x86_feature_detected!("sse2") {
                return ScanBackend::Sse2;
            }
        }
        ScanBackend::Scalar
    }

    /// Whether this backend's CPU feature is available at runtime.
    pub fn is_supported(self) -> bool {
        match self {
            ScanBackend::Scalar => true,
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            ScanBackend::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            ScanBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            _ => false,
        }
    }

    /// Every backend supported on this CPU, widest last.
    pub fn available() -> Vec<ScanBackend> {
        [ScanBackend::Scalar, ScanBackend::Sse2, ScanBackend::Avx2]
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// Stable lowercase name (`scalar` / `sse2` / `avx2`), accepted back by
    /// [`SCAN_BACKEND_ENV`].
    pub fn name(self) -> &'static str {
        match self {
            ScanBackend::Scalar => "scalar",
            ScanBackend::Sse2 => "sse2",
            ScanBackend::Avx2 => "avx2",
        }
    }

    /// Stable numeric encoding for telemetry gauges (0 scalar, 1 SSE2,
    /// 2 AVX2).
    pub fn gauge_value(self) -> i64 {
        match self {
            ScanBackend::Scalar => 0,
            ScanBackend::Sse2 => 1,
            ScanBackend::Avx2 => 2,
        }
    }
}

/// What one candidate scan did: how many group rows it covered, how many it
/// never compared, and how many bit-sliced blocks it ran.
///
/// Returned by every [`SlicedScanIndex`] query so the engine can report
/// prefilter effectiveness as telemetry; `pruned / rows` is the prune rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanProfile {
    /// Group rows considered (the whole index, for a full scan).
    pub rows: u32,
    /// Rows never XOR-compared against the query: outside the popcount
    /// bucket range for candidate scans, outside the visited popcount band
    /// for nearest scans.
    pub pruned: u32,
    /// Bit-sliced blocks visited (always 0 below [`SCAN_CROSSOVER_GROUPS`]).
    pub blocks: u32,
    /// Blocks abandoned early once every lane saturated past the threshold.
    pub early_stops: u32,
}

impl ScanProfile {
    /// Adds another profile's counts into this one (element-wise), for
    /// callers that merge the work of several scans into one report.
    pub fn absorb(&mut self, other: ScanProfile) {
        self.rows += other.rows;
        self.pruned += other.pruned;
        self.blocks += other.blocks;
        self.early_stops += other.early_stops;
    }
}

/// The popcount-bucketed candidate-scan mirror of a [`GroupTable`]: the one
/// index a [`DiceModel`](crate::DiceModel) builds and the engine queries.
///
/// Tables below [`SCAN_CROSSOVER_GROUPS`] groups scan row-major; larger ones
/// also build bit-sliced planes. Either way every query returns exactly what
/// the naive [`GroupTable::candidates`] / [`GroupTable::nearest`] scans
/// return. Derived state: rebuilt whenever the model's group table changes.
///
/// # Example
///
/// ```
/// use dice_core::{BitSet, GroupTable, SlicedScanIndex};
///
/// let mut table = GroupTable::new(5);
/// table.observe(&BitSet::from_indices(5, [0, 1]));
/// table.observe(&BitSet::from_indices(5, [3, 4]));
/// let index = SlicedScanIndex::build(&table);
///
/// let query = BitSet::from_indices(5, [0]);
/// assert_eq!(index.candidates(&query, 1), table.candidates(&query, 1));
/// assert_eq!(index.nearest(&query), table.nearest(&query));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlicedScanIndex {
    num_bits: usize,
    words_per_row: usize,
    backend: ScanBackend,
    /// `slot_to_group[slot]` = original group id of the row stored at
    /// `slot`; slots are sorted by `(popcount, group id)`.
    slot_to_group: Vec<u32>,
    /// Popcount per slot, ascending — the bucket-cascade search key.
    popcounts: Vec<u32>,
    /// Row-major packed rows in slot order, for small tables, the nearest
    /// cascade and the `max_distance > MAX_SLICED_DISTANCE` fallback.
    row_words: Vec<u64>,
    /// Column-major bit planes: block `b`, plane `i`, lane word `k` lives at
    /// `planes[(b * num_bits + i) * LANE_WORDS + k]`. Empty below
    /// [`SCAN_CROSSOVER_GROUPS`] groups.
    planes: Vec<u64>,
}

impl SlicedScanIndex {
    /// Builds the index from a group table with the runtime-detected backend.
    pub fn build(table: &GroupTable) -> Self {
        Self::with_backend(table, ScanBackend::detect())
    }

    /// Builds the index with an explicit backend (tests / CI forcing); the
    /// backend only affects tables large enough to build bit planes.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not supported on this CPU.
    pub fn with_backend(table: &GroupTable, backend: ScanBackend) -> Self {
        build(table, backend, table.len() >= SCAN_CROSSOVER_GROUPS)
    }

    /// Number of indexed groups.
    pub fn len(&self) -> usize {
        self.popcounts.len()
    }

    /// Whether the index holds no groups.
    pub fn is_empty(&self) -> bool {
        self.popcounts.is_empty()
    }

    /// Width of the indexed state sets, in bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// The kernel this process's bit-sliced scans dispatch to. Reported for
    /// small tables too, so the `dice_engine_scan_backend` gauge describes the
    /// hardware path consistently across model sizes.
    pub fn backend(&self) -> ScanBackend {
        self.backend
    }

    /// The contiguous slot range whose popcounts lie within `max_distance`
    /// of `query_pc` — everything outside it is pruned without XOR work.
    fn bucket_range(&self, query_pc: u32, max_distance: u32) -> (usize, usize) {
        let lo = query_pc.saturating_sub(max_distance);
        let start = self.popcounts.partition_point(|&pc| pc < lo);
        let end = self
            .popcounts
            .partition_point(|&pc| u64::from(pc) <= u64::from(query_pc) + u64::from(max_distance));
        (start, end)
    }

    /// Fills `out` with every group within Hamming distance `max_distance`
    /// of `state` (inclusive), sorted by ascending distance then group id —
    /// exactly [`GroupTable::candidates`], without allocating when `out` has
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if the query width does not match the index.
    pub fn candidates_into(
        &self,
        state: &BitSet,
        max_distance: u32,
        out: &mut Vec<Candidate>,
    ) -> ScanProfile {
        assert_eq!(state.len(), self.num_bits, "query width mismatch");
        out.clear();
        let mut profile = ScanProfile {
            rows: self.len() as u32,
            ..ScanProfile::default()
        };
        self.candidates_append(state, max_distance, out, &mut profile);
        out.sort_unstable_by_key(|c| (c.distance, c.group));
        profile
    }

    /// Scans one query, appending unsorted matches and accumulating into
    /// `profile` (shared by the single and batched entry points).
    fn candidates_append(
        &self,
        state: &BitSet,
        max_distance: u32,
        out: &mut Vec<Candidate>,
        profile: &mut ScanProfile,
    ) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let (start, end) = self.bucket_range(state.count_ones(), max_distance);
        profile.pruned += (n - (end - start)) as u32;
        if start >= end {
            return;
        }
        if max_distance > MAX_SLICED_DISTANCE || self.planes.is_empty() {
            // A small table has no planes, and past six counter planes they
            // would outgrow the packed rows: scan the bucket range row-major.
            let query = state.as_words();
            for slot in start..end {
                let row = &self.row_words[slot * self.words_per_row..][..self.words_per_row];
                let mut distance = 0u32;
                let mut within = true;
                for (a, b) in query.iter().zip(row) {
                    distance += (a ^ b).count_ones();
                    if distance > max_distance {
                        within = false;
                        break;
                    }
                }
                if within {
                    out.push(Candidate {
                        group: GroupId::new(self.slot_to_group[slot]),
                        distance,
                    });
                }
            }
            return;
        }
        let block_lo = start / BLOCK_LANES;
        let block_hi = end.div_ceil(BLOCK_LANES);
        dispatch_counter_planes!(counter_planes(max_distance), K => {
            for block in block_lo..block_hi {
                self.scan_block::<K>(block, state.as_words(), max_distance, out, profile);
            }
        });
    }

    /// Runs the backend kernel over one block and extracts matches.
    ///
    /// Lanes past the end of the index are pre-saturated, and lanes whose
    /// popcount falls outside the query's bucket range are rejected by their
    /// exact distance, so whole blocks are always processed.
    fn scan_block<const K: usize>(
        &self,
        block: usize,
        query: &[u64],
        max_distance: u32,
        out: &mut Vec<Candidate>,
        profile: &mut ScanProfile,
    ) {
        let planes =
            &self.planes[block * self.num_bits * LANE_WORDS..][..self.num_bits * LANE_WORDS];
        let valid = (self.len() - block * BLOCK_LANES).min(BLOCK_LANES);
        let mut sat_init = [0u64; LANE_WORDS];
        for (k, word) in sat_init.iter_mut().enumerate() {
            *word = !lane_mask(valid, k);
        }
        let mut counters = [[0u64; LANE_WORDS]; K];
        let mut sat = [0u64; LANE_WORDS];
        let early = match self.backend {
            ScanBackend::Scalar => scan_block_scalar::<K>(
                planes,
                query,
                self.num_bits,
                &sat_init,
                &mut counters,
                &mut sat,
            ),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            // SAFETY: `self.backend` is only ever set to Sse2/Avx2 when
            // `ScanBackend::is_supported` confirmed the CPU feature at
            // runtime (enforced in `with_backend`).
            ScanBackend::Sse2 => unsafe {
                scan_block_sse2::<K>(
                    planes,
                    query,
                    self.num_bits,
                    &sat_init,
                    &mut counters,
                    &mut sat,
                )
            },
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            // SAFETY: as above — AVX2 was runtime-detected before dispatch.
            ScanBackend::Avx2 => unsafe {
                scan_block_avx2::<K>(
                    planes,
                    query,
                    self.num_bits,
                    &sat_init,
                    &mut counters,
                    &mut sat,
                )
            },
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            _ => unreachable!("non-scalar backend on unsupported target"),
        };
        profile.blocks += 1;
        if early {
            profile.early_stops += 1;
            return;
        }
        // Extract lanes whose exact count equals each admissible distance.
        for d in 0..=max_distance {
            for k in 0..LANE_WORDS {
                let mut eq = !sat[k];
                for (j, counter) in counters.iter().enumerate() {
                    let c = counter[k];
                    eq &= if (d >> j) & 1 == 1 { c } else { !c };
                }
                while eq != 0 {
                    let lane = eq.trailing_zeros() as usize;
                    eq &= eq - 1;
                    let slot = block * BLOCK_LANES + k * WORD_BITS + lane;
                    debug_assert!(slot < self.len(), "phantom lane escaped saturation");
                    out.push(Candidate {
                        group: GroupId::new(self.slot_to_group[slot]),
                        distance: d,
                    });
                }
            }
        }
    }

    /// Fills `out` with the nearest group(s) to `state`: minimal distance,
    /// all ties, ascending by group id — exactly [`GroupTable::nearest`],
    /// without allocating when `out` has capacity.
    ///
    /// Walks popcount buckets outward from the query's popcount and stops
    /// once the popcount gap alone exceeds the best distance found, so only
    /// a thin band of rows is ever compared. Leaves `out` empty only for an
    /// empty index.
    ///
    /// # Panics
    ///
    /// Panics if the query width does not match the index.
    pub fn nearest_into(&self, state: &BitSet, out: &mut Vec<Candidate>) -> ScanProfile {
        assert_eq!(state.len(), self.num_bits, "query width mismatch");
        out.clear();
        let n = self.len();
        let mut profile = ScanProfile {
            rows: n as u32,
            ..ScanProfile::default()
        };
        if n == 0 {
            return profile;
        }
        let query = state.as_words();
        let query_pc = state.count_ones();
        let max_pc = *self.popcounts.last().expect("non-empty index");
        let mut best = u32::MAX;
        let mut visited = 0u32;
        let mut gap = 0u32;
        loop {
            // The popcount gap lower-bounds the distance: once it exceeds
            // the best distance seen, no further bucket can even tie.
            if best != u32::MAX && gap > best {
                break;
            }
            let low_exhausted = gap > query_pc;
            let high_exhausted = u64::from(query_pc) + u64::from(gap) > u64::from(max_pc);
            if low_exhausted && high_exhausted {
                break;
            }
            let mut sides = [None, None];
            if !low_exhausted {
                sides[0] = Some(query_pc - gap);
            }
            if gap > 0 && !high_exhausted {
                sides[1] = Some(query_pc + gap);
            }
            for pc in sides.into_iter().flatten() {
                let start = self.popcounts.partition_point(|&p| p < pc);
                let end = self.popcounts.partition_point(|&p| p <= pc);
                for slot in start..end {
                    visited += 1;
                    let row = &self.row_words[slot * self.words_per_row..][..self.words_per_row];
                    let mut distance = 0u32;
                    let mut beaten = false;
                    for (a, b) in query.iter().zip(row) {
                        distance += (a ^ b).count_ones();
                        if distance > best {
                            beaten = true;
                            break;
                        }
                    }
                    if beaten {
                        continue;
                    }
                    if distance < best {
                        best = distance;
                        out.clear();
                    }
                    out.push(Candidate {
                        group: GroupId::new(self.slot_to_group[slot]),
                        distance,
                    });
                }
            }
            gap += 1;
        }
        // Ties surface in (popcount, group) slot order; the naive scan
        // returns them ascending by group id.
        out.sort_unstable_by_key(|c| c.group);
        profile.pruned = n as u32 - visited;
        profile
    }

    /// Batched [`SlicedScanIndex::candidates_into`]: one pass over the plane
    /// data serves every query in `queries`.
    ///
    /// Blocks are the outer loop and queries the inner loop, so each block's
    /// planes stay cache-hot across the whole batch. `out` is resized to
    /// `queries.len()`, reusing inner buffers. Returns the element-wise sum
    /// of the per-query profiles — identical to running the single-query
    /// entry point per query.
    ///
    /// # Panics
    ///
    /// Panics if any query width does not match the index.
    pub fn candidates_batch_into(
        &self,
        queries: &[&BitSet],
        max_distance: u32,
        out: &mut Vec<Vec<Candidate>>,
    ) -> ScanProfile {
        out.resize_with(queries.len(), Vec::new);
        out.truncate(queries.len());
        let mut profile = ScanProfile::default();
        for (query, slots) in queries.iter().zip(out.iter_mut()) {
            assert_eq!(query.len(), self.num_bits, "query width mismatch");
            slots.clear();
            profile.rows += self.len() as u32;
        }
        let n = self.len();
        if n == 0 || queries.is_empty() {
            return profile;
        }
        if max_distance > MAX_SLICED_DISTANCE || self.planes.is_empty() {
            for (query, slots) in queries.iter().zip(out.iter_mut()) {
                self.candidates_append(query, max_distance, slots, &mut profile);
                slots.sort_unstable_by_key(|c| (c.distance, c.group));
            }
            return profile;
        }
        // Per-query bucket block ranges, then block-major over their union.
        let mut block_span = (usize::MAX, 0usize);
        let ranges: Vec<(usize, usize)> = queries
            .iter()
            .map(|query| {
                let (start, end) = self.bucket_range(query.count_ones(), max_distance);
                profile.pruned += (n - (end - start)) as u32;
                if start >= end {
                    return (usize::MAX, 0);
                }
                let blocks = (start / BLOCK_LANES, end.div_ceil(BLOCK_LANES));
                block_span.0 = block_span.0.min(blocks.0);
                block_span.1 = block_span.1.max(blocks.1);
                blocks
            })
            .collect();
        dispatch_counter_planes!(counter_planes(max_distance), K => {
            for block in block_span.0..block_span.1 {
                for ((query, slots), &(lo, hi)) in
                    queries.iter().zip(out.iter_mut()).zip(&ranges)
                {
                    if block >= lo && block < hi {
                        self.scan_block::<K>(
                            block,
                            query.as_words(),
                            max_distance,
                            slots,
                            &mut profile,
                        );
                    }
                }
            }
        });
        for slots in out.iter_mut() {
            slots.sort_unstable_by_key(|c| (c.distance, c.group));
        }
        profile
    }

    /// Batched [`SlicedScanIndex::nearest_into`] over a slice of queries.
    ///
    /// The nearest cascade is query-adaptive (its bucket walk depends on the
    /// running best distance), so this amortizes call overhead rather than
    /// plane passes. Returns the element-wise sum of per-query profiles.
    ///
    /// # Panics
    ///
    /// Panics if any query width does not match the index.
    pub fn nearest_batch_into(
        &self,
        queries: &[&BitSet],
        out: &mut Vec<Vec<Candidate>>,
    ) -> ScanProfile {
        out.resize_with(queries.len(), Vec::new);
        out.truncate(queries.len());
        let mut profile = ScanProfile::default();
        for (query, slots) in queries.iter().zip(out.iter_mut()) {
            profile.absorb(self.nearest_into(query, slots));
        }
        profile
    }

    /// Allocating convenience wrapper over
    /// [`SlicedScanIndex::candidates_into`].
    pub fn candidates(&self, state: &BitSet, max_distance: u32) -> Vec<Candidate> {
        let mut out = Vec::new();
        let _ = self.candidates_into(state, max_distance, &mut out);
        out
    }

    /// Allocating convenience wrapper over [`SlicedScanIndex::nearest_into`].
    pub fn nearest(&self, state: &BitSet) -> Vec<Candidate> {
        let mut out = Vec::new();
        let _ = self.nearest_into(state, &mut out);
        out
    }
}

/// Builds the index; `planes` selects the bit-sliced mode (the row-major
/// rows are built either way).
fn build(table: &GroupTable, backend: ScanBackend, planes: bool) -> SlicedScanIndex {
    assert!(
        backend.is_supported(),
        "scan backend {} not supported on this CPU",
        backend.name()
    );
    let num_bits = table.num_bits();
    let words_per_row = num_bits.div_ceil(WORD_BITS);
    let n = table.len();

    // Slot order: ascending (popcount, group id).
    let mut order: Vec<(u32, u32)> = table
        .iter()
        .map(|(id, state)| (state.count_ones(), id.index() as u32))
        .collect();
    order.sort_unstable();

    let mut slot_to_group = Vec::with_capacity(n);
    let mut popcounts = Vec::with_capacity(n);
    let mut row_words = Vec::with_capacity(n * words_per_row);
    let num_blocks = if planes { n.div_ceil(BLOCK_LANES) } else { 0 };
    let mut plane_words = vec![0u64; num_blocks * num_bits * LANE_WORDS];
    for (slot, &(pc, group)) in order.iter().enumerate() {
        slot_to_group.push(group);
        popcounts.push(pc);
        let state = table.state(GroupId::new(group));
        // Clamp to the table width: a corrupt table (verifier test fodder)
        // may hold wider rows; building must not panic on it.
        let words = state.as_words();
        for k in 0..words_per_row {
            row_words.push(words.get(k).copied().unwrap_or(0));
        }
        if planes {
            let block = slot / BLOCK_LANES;
            let lane = slot % BLOCK_LANES;
            let lane_word = (block * num_bits) * LANE_WORDS + lane / WORD_BITS;
            let lane_bit = 1u64 << (lane % WORD_BITS);
            for i in state.ones().take_while(|&i| i < num_bits) {
                plane_words[lane_word + i * LANE_WORDS] |= lane_bit;
            }
        }
    }

    SlicedScanIndex {
        num_bits,
        words_per_row,
        backend,
        slot_to_group,
        popcounts,
        row_words,
        planes: plane_words,
    }
}

/// Number of vertical counter planes needed to count distances `0..=2^K − 1`
/// with `2^K − 1 ≥ max_distance`.
fn counter_planes(max_distance: u32) -> usize {
    debug_assert!(max_distance <= MAX_SLICED_DISTANCE);
    (u32::BITS - max_distance.leading_zeros()).max(1) as usize
}

/// Bits of lane word `k` that correspond to real rows when `valid` lanes of
/// the block are populated.
fn lane_mask(valid: usize, k: usize) -> u64 {
    let lo = k * WORD_BITS;
    if valid >= lo + WORD_BITS {
        u64::MAX
    } else if valid <= lo {
        0
    } else {
        (1u64 << (valid - lo)) - 1
    }
}

/// Dispatches a compile-time counter-plane count (`1..=6`, covering
/// [`MAX_SLICED_DISTANCE`]) so counters stay in registers.
macro_rules! dispatch_counter_planes {
    ($k:expr, $K:ident => $body:block) => {
        match $k {
            1 => {
                const $K: usize = 1;
                $body
            }
            2 => {
                const $K: usize = 2;
                $body
            }
            3 => {
                const $K: usize = 3;
                $body
            }
            4 => {
                const $K: usize = 4;
                $body
            }
            5 => {
                const $K: usize = 5;
                $body
            }
            6 => {
                const $K: usize = 6;
                $body
            }
            other => unreachable!("counter planes out of range: {other}"),
        }
    };
}
use dispatch_counter_planes;

/// Portable kernel: XOR-accumulates one block's bit planes into `K` vertical
/// counters, four `u64` sub-words per step. Returns whether the block was
/// abandoned early (every lane saturated past the threshold).
fn scan_block_scalar<const K: usize>(
    planes: &[u64],
    query: &[u64],
    num_bits: usize,
    sat_init: &[u64; LANE_WORDS],
    counters: &mut [[u64; LANE_WORDS]; K],
    sat: &mut [u64; LANE_WORDS],
) -> bool {
    *counters = [[0u64; LANE_WORDS]; K];
    *sat = *sat_init;
    for i in 0..num_bits {
        let qbit = (query[i / WORD_BITS] >> (i % WORD_BITS)) & 1;
        let qmask = 0u64.wrapping_sub(qbit);
        let plane = &planes[i * LANE_WORDS..][..LANE_WORDS];
        for k in 0..LANE_WORDS {
            let mut carry = plane[k] ^ qmask;
            for counter in counters.iter_mut() {
                let t = counter[k] & carry;
                counter[k] ^= carry;
                carry = t;
            }
            sat[k] |= carry;
        }
        if (i + 1) % EARLY_CHECK_BITS == 0 && sat.iter().all(|&w| w == u64::MAX) {
            return true;
        }
    }
    false
}

/// SSE2 kernel: two 128-bit halves per block row. Bit-identical to the
/// scalar kernel, including the early-abandon cadence.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "sse2")]
unsafe fn scan_block_sse2<const K: usize>(
    planes: &[u64],
    query: &[u64],
    num_bits: usize,
    sat_init: &[u64; LANE_WORDS],
    counters_out: &mut [[u64; LANE_WORDS]; K],
    sat_out: &mut [u64; LANE_WORDS],
) -> bool {
    use std::arch::x86_64::*;
    // SAFETY: every load/store below reads or writes 16 bytes from slices /
    // arrays whose bounds are checked before the pointer cast; `loadu` /
    // `storeu` have no alignment requirement.
    unsafe {
        let mut counters = [[_mm_setzero_si128(); 2]; K];
        let mut sat = [
            _mm_loadu_si128(sat_init[0..2].as_ptr().cast()),
            _mm_loadu_si128(sat_init[2..4].as_ptr().cast()),
        ];
        let mut early = false;
        for i in 0..num_bits {
            let qbit = (query[i / WORD_BITS] >> (i % WORD_BITS)) & 1;
            let qmask = _mm_set1_epi64x(0i64.wrapping_sub(qbit as i64));
            let plane = &planes[i * LANE_WORDS..][..LANE_WORDS];
            for h in 0..2 {
                let p = _mm_loadu_si128(plane[h * 2..h * 2 + 2].as_ptr().cast());
                let mut carry = _mm_xor_si128(p, qmask);
                for counter in counters.iter_mut() {
                    let t = _mm_and_si128(counter[h], carry);
                    counter[h] = _mm_xor_si128(counter[h], carry);
                    carry = t;
                }
                sat[h] = _mm_or_si128(sat[h], carry);
            }
            if (i + 1) % EARLY_CHECK_BITS == 0 {
                let both = _mm_and_si128(sat[0], sat[1]);
                if _mm_movemask_epi8(_mm_cmpeq_epi8(both, _mm_set1_epi8(-1))) == 0xFFFF {
                    early = true;
                    break;
                }
            }
        }
        for (j, counter) in counters.iter().enumerate() {
            _mm_storeu_si128(counters_out[j][0..2].as_mut_ptr().cast(), counter[0]);
            _mm_storeu_si128(counters_out[j][2..4].as_mut_ptr().cast(), counter[1]);
        }
        _mm_storeu_si128(sat_out[0..2].as_mut_ptr().cast(), sat[0]);
        _mm_storeu_si128(sat_out[2..4].as_mut_ptr().cast(), sat[1]);
        early
    }
}

/// AVX2 kernel: one 256-bit op per block row. Bit-identical to the scalar
/// kernel, including the early-abandon cadence.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn scan_block_avx2<const K: usize>(
    planes: &[u64],
    query: &[u64],
    num_bits: usize,
    sat_init: &[u64; LANE_WORDS],
    counters_out: &mut [[u64; LANE_WORDS]; K],
    sat_out: &mut [u64; LANE_WORDS],
) -> bool {
    use std::arch::x86_64::*;
    // SAFETY: every load/store below reads or writes 32 bytes from slices /
    // arrays whose bounds are checked before the pointer cast; `loadu` /
    // `storeu` have no alignment requirement.
    unsafe {
        let mut counters = [_mm256_setzero_si256(); K];
        let mut sat = _mm256_loadu_si256(sat_init.as_ptr().cast());
        let ones = _mm256_set1_epi64x(-1);
        let mut early = false;
        for i in 0..num_bits {
            let qbit = (query[i / WORD_BITS] >> (i % WORD_BITS)) & 1;
            let qmask = _mm256_set1_epi64x(0i64.wrapping_sub(qbit as i64));
            let plane = &planes[i * LANE_WORDS..][..LANE_WORDS];
            let p = _mm256_loadu_si256(plane.as_ptr().cast());
            let mut carry = _mm256_xor_si256(p, qmask);
            for counter in counters.iter_mut() {
                let t = _mm256_and_si256(*counter, carry);
                *counter = _mm256_xor_si256(*counter, carry);
                carry = t;
            }
            sat = _mm256_or_si256(sat, carry);
            if (i + 1) % EARLY_CHECK_BITS == 0 && _mm256_testc_si256(sat, ones) != 0 {
                early = true;
                break;
            }
        }
        for (j, counter) in counters.iter().enumerate() {
            _mm256_storeu_si256(counters_out[j].as_mut_ptr().cast(), *counter);
        }
        _mm256_storeu_si256(sat_out.as_mut_ptr().cast(), sat);
        early
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift generator so tests need no RNG dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn random_table(num_bits: usize, rows: usize, seed: u64) -> GroupTable {
        let mut rng = XorShift(seed | 1);
        let mut table = GroupTable::new(num_bits);
        while table.len() < rows {
            let density = rng.next() % 64;
            let state = BitSet::from_indices(
                num_bits,
                (0..num_bits).filter(|_| (rng.next() % 64) < density),
            );
            table.observe(&state);
        }
        table
    }

    fn random_query(num_bits: usize, rng: &mut XorShift) -> BitSet {
        let density = rng.next() % 64;
        BitSet::from_indices(
            num_bits,
            (0..num_bits).filter(|_| (rng.next() % 64) < density),
        )
    }

    fn backends_under_test() -> Vec<ScanBackend> {
        if cfg!(miri) {
            vec![ScanBackend::Scalar]
        } else {
            ScanBackend::available()
        }
    }

    #[test]
    fn counter_plane_count_covers_threshold() {
        assert_eq!(counter_planes(0), 1);
        assert_eq!(counter_planes(1), 1);
        assert_eq!(counter_planes(3), 2);
        assert_eq!(counter_planes(4), 3);
        assert_eq!(counter_planes(63), 6);
        for d in 0..=MAX_SLICED_DISTANCE {
            let k = counter_planes(d);
            assert!((1u32 << k) > d, "K={k} cannot represent {d}");
        }
    }

    #[test]
    fn lane_mask_tracks_partial_blocks() {
        assert_eq!(lane_mask(256, 3), u64::MAX);
        assert_eq!(lane_mask(0, 0), 0);
        assert_eq!(lane_mask(65, 1), 1);
        assert_eq!(lane_mask(64, 0), u64::MAX);
        assert_eq!(lane_mask(63, 0), u64::MAX >> 1);
    }

    #[test]
    fn matches_naive_scan_on_every_backend() {
        let num_bits = 130; // multi-word rows, partial last word
        let table = random_table(num_bits, 300, 0x5eed); // partial second block
        let mut rng = XorShift(42);
        let queries: Vec<BitSet> = (0..8).map(|_| random_query(num_bits, &mut rng)).collect();
        let refs: Vec<&BitSet> = queries.iter().collect();
        for backend in backends_under_test() {
            for planes in [false, true] {
                let index = build(&table, backend, planes);
                assert_eq!(index.len(), 300);
                assert!(!index.is_empty());
                assert_eq!(index.num_bits(), num_bits);
                let mode = format!("backend={} planes={planes}", backend.name());
                for query in &queries {
                    for max in [0, 1, 3, 7, 64, 130] {
                        assert_eq!(
                            index.candidates(query, max),
                            table.candidates(query, max),
                            "{mode} max={max}"
                        );
                    }
                    assert_eq!(index.nearest(query), table.nearest(query), "{mode}");
                }
                let mut batch = Vec::new();
                let _ = index.candidates_batch_into(&refs, 3, &mut batch);
                for (query, got) in queries.iter().zip(&batch) {
                    assert_eq!(got, &table.candidates(query, 3), "{mode}");
                }
                let _ = index.nearest_batch_into(&refs, &mut batch);
                for (query, got) in queries.iter().zip(&batch) {
                    assert_eq!(got, &table.nearest(query), "{mode}");
                }
            }
        }
    }

    #[test]
    fn multiword_rows_scan_correctly() {
        let mut table = GroupTable::new(130);
        table.observe(&BitSet::from_indices(130, [0, 64, 129]));
        table.observe(&BitSet::from_indices(130, [1, 65]));
        let query = BitSet::from_indices(130, [0, 64]);
        for planes in [false, true] {
            let index = build(&table, ScanBackend::Scalar, planes);
            assert_eq!(index.candidates(&query, 130), table.candidates(&query, 130));
            assert_eq!(index.candidates(&query, 3), table.candidates(&query, 3));
            assert_eq!(index.nearest(&query), table.nearest(&query));
        }
    }

    #[test]
    fn small_tables_scan_row_major_and_large_tables_bit_sliced() {
        let query = BitSet::from_indices(64, (0..64).filter(|b| b % 5 == 0));
        let mut out = Vec::new();
        for groups in [SCAN_CROSSOVER_GROUPS / 4, SCAN_CROSSOVER_GROUPS - 1] {
            let small = SlicedScanIndex::build(&random_table(64, groups, 3));
            assert!(
                small.planes.is_empty(),
                "{groups} groups must build no planes"
            );
            assert_eq!(small.candidates_into(&query, 64, &mut out).blocks, 0);
        }
        for groups in [SCAN_CROSSOVER_GROUPS, SCAN_CROSSOVER_GROUPS + 8] {
            let large = SlicedScanIndex::build(&random_table(64, groups, 3));
            assert_eq!(large.len(), groups);
            for max in [3, MAX_SLICED_DISTANCE] {
                assert!(large.candidates_into(&query, max, &mut out).blocks > 0);
            }
        }
    }

    #[test]
    fn row_major_mode_reports_the_process_backend() {
        let index = SlicedScanIndex::build(&random_table(16, 4, 3));
        assert!(index.planes.is_empty());
        assert_eq!(index.backend(), ScanBackend::detect());
    }

    #[test]
    fn batch_reuses_slots_without_stale_entries() {
        let table = random_table(32, 8, 3);
        let q1 = BitSet::from_indices(32, [0, 5]);
        let q2 = BitSet::from_indices(32, [1]);
        for planes in [false, true] {
            let index = build(&table, ScanBackend::Scalar, planes);
            let mut batch = Vec::new();
            let _ = index.candidates_batch_into(&[&q1, &q2], 32, &mut batch);
            assert_eq!(batch.len(), 2);
            // A smaller follow-up batch must truncate the slot vector.
            let _ = index.candidates_batch_into(&[&q2], 0, &mut batch);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0], table.candidates(&q2, 0));
        }
    }

    #[test]
    fn backends_agree_bit_for_bit_including_profiles() {
        let table = random_table(96, 520, 7);
        let mut rng = XorShift(9);
        let queries: Vec<BitSet> = (0..6).map(|_| random_query(96, &mut rng)).collect();
        let reference = SlicedScanIndex::with_backend(&table, ScanBackend::Scalar);
        for backend in backends_under_test() {
            let index = SlicedScanIndex::with_backend(&table, backend);
            for query in &queries {
                let mut a = Vec::new();
                let mut b = Vec::new();
                let pa = reference.candidates_into(query, 5, &mut a);
                let pb = index.candidates_into(query, 5, &mut b);
                assert_eq!(a, b, "backend={}", backend.name());
                assert_eq!(pa, pb, "profile backend={}", backend.name());
            }
        }
    }

    #[test]
    fn batch_matches_single_queries_and_sums_profiles() {
        let table = random_table(70, 300, 0xbeef);
        let mut rng = XorShift(3);
        let queries: Vec<BitSet> = (0..10).map(|_| random_query(70, &mut rng)).collect();
        let refs: Vec<&BitSet> = queries.iter().collect();
        for backend in backends_under_test() {
            let index = SlicedScanIndex::with_backend(&table, backend);
            for max in [0, 2, 6, 80] {
                let mut batch = Vec::new();
                let batch_profile = index.candidates_batch_into(&refs, max, &mut batch);
                let mut sum = ScanProfile::default();
                for (query, got) in queries.iter().zip(&batch) {
                    let mut single = Vec::new();
                    sum.absorb(index.candidates_into(query, max, &mut single));
                    assert_eq!(got, &single, "backend={} max={max}", backend.name());
                }
                assert_eq!(batch_profile, sum, "backend={} max={max}", backend.name());
            }
            let mut batch = Vec::new();
            let _ = index.nearest_batch_into(&refs, &mut batch);
            for (query, got) in queries.iter().zip(&batch) {
                assert_eq!(got, &index.nearest(query), "backend={}", backend.name());
            }
        }
    }

    #[test]
    fn bucket_cascade_prunes_out_of_range_rows() {
        let mut table = GroupTable::new(8);
        table.observe(&BitSet::from_indices(8, []));
        table.observe(&BitSet::from_indices(8, [0, 1, 2, 3, 4, 5, 6, 7]));
        let query = BitSet::from_indices(8, [0, 1]);
        for planes in [false, true] {
            let index = build(&table, ScanBackend::Scalar, planes);
            let mut out = Vec::new();
            // Popcounts 0 and 8 vs query popcount 2 at threshold 1: both rows
            // fall outside the bucket range, no row or block is ever touched.
            let profile = index.candidates_into(&query, 1, &mut out);
            assert_eq!(profile.rows, 2);
            assert_eq!(profile.pruned, 2);
            assert_eq!(profile.blocks, 0);
            assert!(out.is_empty());
            // Threshold 2 admits the popcount-0 row (distance 2) but not the
            // full row (distance 6): one block scanned in the bit-sliced
            // mode, none row-major.
            let profile = index.candidates_into(&query, 2, &mut out);
            assert_eq!(profile.pruned, 1);
            assert_eq!(profile.blocks, u32::from(planes));
            assert_eq!(out, table.candidates(&query, 2));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].group, GroupId::new(0));
            // The nearest cascade stops after the popcount-0 bucket: the
            // full row lies outside the visited band.
            let profile = index.nearest_into(&query, &mut out);
            assert_eq!((profile.rows, profile.pruned, profile.blocks), (2, 1, 0));
            assert_eq!(out, table.nearest(&query));
        }
    }

    #[test]
    fn empty_index_yields_empty_results() {
        let index = SlicedScanIndex::build(&GroupTable::new(4));
        assert!(index.is_empty());
        assert!(index.candidates(&BitSet::new(4), 4).is_empty());
        assert!(index.nearest(&BitSet::new(4)).is_empty());
        let query = BitSet::new(4);
        let mut batch = Vec::new();
        let profile = index.candidates_batch_into(&[&query], 4, &mut batch);
        assert_eq!(profile.rows, 0);
        assert!(batch[0].is_empty());
    }

    #[test]
    fn scratch_buffers_are_reused_without_reallocation() {
        let table = random_table(40, 64, 11);
        for planes in [false, true] {
            let index = build(&table, ScanBackend::Scalar, planes);
            let mut out = Vec::with_capacity(table.len());
            let cap = out.capacity();
            let mut rng = XorShift(5);
            for _ in 0..4 {
                let query = random_query(40, &mut rng);
                for max in [3, 40] {
                    let _ = index.candidates_into(&query, max, &mut out);
                    assert_eq!(out.capacity(), cap, "candidates_into must not grow");
                }
                let _ = index.nearest_into(&query, &mut out);
                assert_eq!(out.capacity(), cap, "nearest_into must not grow");
            }
        }
    }

    #[test]
    fn nearest_ties_come_back_in_group_order() {
        let mut table = GroupTable::new(3);
        table.observe(&BitSet::from_indices(3, [0]));
        table.observe(&BitSet::from_indices(3, [1]));
        let index = SlicedScanIndex::with_backend(&table, ScanBackend::Scalar);
        let query = BitSet::from_indices(3, [2]);
        assert_eq!(index.nearest(&query), table.nearest(&query));
        assert_eq!(index.nearest(&query).len(), 2);
    }

    #[test]
    fn multi_block_index_finds_candidates_in_every_block() {
        // > 256 rows forces a second block; identical popcounts keep them in
        // one bucket so both blocks are scanned.
        let num_bits = 600;
        let mut table = GroupTable::new(num_bits);
        for i in 0..300 {
            table.observe(&BitSet::from_indices(num_bits, [i, i + 300 - 1]));
        }
        let index = SlicedScanIndex::with_backend(&table, ScanBackend::Scalar);
        let query = BitSet::from_indices(num_bits, [0, 299]);
        assert_eq!(index.candidates(&query, 4), table.candidates(&query, 4));
        let mut out = Vec::new();
        let profile = index.candidates_into(&query, 4, &mut out);
        assert_eq!(profile.blocks, 2);
    }

    #[test]
    fn backend_env_round_trips_names() {
        for backend in [ScanBackend::Scalar, ScanBackend::Sse2, ScanBackend::Avx2] {
            assert!(!backend.name().is_empty());
        }
        assert!(ScanBackend::Scalar.is_supported());
        assert!(ScanBackend::available().contains(&ScanBackend::Scalar));
    }

    /// Times both modes of the same table across the crossover bracket on
    /// the `bench-json` synthetic workload (270-bit hh102 states whose
    /// popcounts spread over ~[0, 120], mid-activity queries, distance 3),
    /// for re-tuning [`SCAN_CROSSOVER_GROUPS`]: `cargo test --release -p
    /// dice-core --lib -- --ignored crossover_probe --nocapture`.
    #[test]
    #[ignore = "measurement probe"]
    fn crossover_probe() {
        let num_bits = 33 + 3 * 79;
        // Distinct ids in the low 20 bits, then a run of `run_len` bits.
        let state = |i: usize, run_len: usize, phase: usize| {
            let span = num_bits - 20;
            let start = (i * 7 + phase) % span;
            let ids = (0..20).filter(move |j| (i >> j) & 1 == 1);
            let run = (0..run_len.min(span)).map(move |k| 20 + (start + k) % span);
            BitSet::from_indices(num_bits, ids.chain(run))
        };
        let queries: Vec<BitSet> = (0..32).map(|q| state(q, 57 + q % 7, 11)).collect();
        let time_ns = |index: &SlicedScanIndex| {
            let mut out = Vec::new();
            let mut reps = 1u32;
            loop {
                let start = std::time::Instant::now();
                for _ in 0..reps {
                    for query in &queries {
                        let _ = index.candidates_into(std::hint::black_box(query), 3, &mut out);
                    }
                }
                let elapsed = start.elapsed();
                if elapsed.as_millis() >= 25 {
                    return elapsed.as_nanos() as f64 / f64::from(reps) / queries.len() as f64;
                }
                reps *= 2;
            }
        };
        for groups in [50, 100, 150, 200, 300, 400, 600, 800, 1200] {
            let mut table = GroupTable::new(num_bits);
            for i in 0..groups {
                table.observe(&state(i, 3 * (i % 40), 0));
            }
            let rows = time_ns(&build(&table, ScanBackend::detect(), false));
            let sliced = time_ns(&build(&table, ScanBackend::detect(), true));
            println!("{groups:>5} groups: row-major {rows:.0} ns, bit-sliced {sliced:.0} ns");
        }
    }

    #[test]
    #[should_panic(expected = "query width mismatch")]
    fn width_mismatch_panics() {
        let index = SlicedScanIndex::build(&random_table(8, 4, 1));
        let _ = index.candidates(&BitSet::new(4), 1);
    }
}
