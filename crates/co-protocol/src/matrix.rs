//! The `AL` and `PAL` knowledge matrices (§4.1, §4.4, §4.5).
//!
//! `AL[k][j]` is "the sequence number of a PDU which `E_i` knows that `E_j`
//! expects to receive next from `E_k`" — one row per *source* `k`, one
//! column per *observer* `j`. `minAL_k` (the row minimum) is the highest
//! sequence number below which **every** entity is known to have accepted
//! `E_k`'s PDUs; the PACK condition is `p.SEQ < minAL_k`.
//!
//! `PAL` has the same shape but tracks *pre-acknowledgment* knowledge, and
//! `minPAL_k` drives the ACK condition.
//!
//! All updates are **monotonic** (component-wise max): retransmitted PDUs
//! carry their original, older `ACK` vectors (Lemma 4.2 depends on
//! retransmissions being bit-identical), and folding an old vector in must
//! never move knowledge backwards.
//!
//! # Layout
//!
//! Storage is **lane-major**: `cells[observer * n + source]`, one
//! contiguous `u64`-word *lane* per observer. Every bulk mutation the
//! protocol performs writes along an observer lane ([`fold_column`] folds
//! one peer's confirmation vector in) or streams all lanes in source order
//! ([`raise_rows`] adopts an `AckOnly` frontier), so the hot path walks
//! word-adjacent memory the CPU can prefetch instead of touching `n` cache
//! lines `n` words apart. At `n = 256` a fold visits 32 cache lines (2 KiB
//! lane) instead of 256 lines spread over a 512 KiB matrix.
//!
//! # Cost model: count-at-minimum row minima
//!
//! PACK and ACK read exactly one thing from a matrix — its row minima — so
//! each row keeps its minimum (`mins[k]`) **and how many of its cells sit
//! at it** (`at_min[k]`), both exact after every operation:
//!
//! * a mutation that raises a cell which sat at the row minimum decrements
//!   the row's count; every other raised cell costs nothing beyond the
//!   write. [`fold_column`] is one sequential walk over the observer's lane
//!   that only pays for the words that grew (most words of a confirmation
//!   vector repeat the sender's previous PDU);
//! * a row is rescanned — minimum *and* count, one strided pass — only when
//!   its count reaches zero, i.e. exactly when its minimum moves, which is
//!   exactly when PACK/ACK has work to do. A fold that moves `m` minima
//!   costs `m` row scans; one that moves none scans nothing;
//! * [`row_min`] / [`row_mins`] are plain loads, always exact — there is
//!   no deferred state and nothing for a caller to resolve first;
//! * [`raise_row`] walks its row anyway and recounts as it goes (the new
//!   minimum is simply `max(old minimum, value)`); [`raise_rows`] — the
//!   batched frontier adoption — short-circuits when the minima already
//!   cover the frontier, and otherwise lifts and recounts every row in one
//!   sequential pass over the whole matrix.
//!
//! Rows whose minimum moved since the last drain are tracked in a
//! **dirty-source set** ([`drain_dirty_into`]), letting the engine's
//! PACK/ACK sweep visit only sources whose `minAL`/`minPAL` actually
//! changed instead of all `n` on every event. A [`version`] counter
//! (bumped on every row-minimum change) gives callers an O(1) "did any
//! frontier move?" check.
//!
//! [`fold_column`]: KnowledgeMatrix::fold_column
//! [`raise_row`]: KnowledgeMatrix::raise_row
//! [`raise_rows`]: KnowledgeMatrix::raise_rows
//! [`row_min`]: KnowledgeMatrix::row_min
//! [`row_mins`]: KnowledgeMatrix::row_mins
//! [`drain_dirty_into`]: KnowledgeMatrix::drain_dirty_into
//! [`version`]: KnowledgeMatrix::version

use causal_order::{EntityId, Seq};

/// A dense `n × n` matrix of sequence-number knowledge with monotonic
/// updates, exact incrementally maintained row minima and dirty-row change
/// tracking.
#[derive(Debug, Clone)]
pub struct KnowledgeMatrix {
    n: usize,
    /// Lane-major: `cells[observer * n + source]`.
    cells: Vec<Seq>,
    /// Row minima, index-aligned with rows (sources). Always exact.
    mins: Vec<Seq>,
    /// For each row, how many of its cells equal `mins[k]` (never zero
    /// between operations: a minimum is attained).
    at_min: Vec<u32>,
    /// `true` for rows whose minimum changed since the last drain.
    dirty: Vec<bool>,
    /// Queue of dirty row indices (deduplicated through `dirty`).
    dirty_rows: Vec<u32>,
    /// Bumped every time any row minimum changes.
    version: u64,
    /// Strided row scans performed so far (the work tests' probe).
    #[cfg(test)]
    row_scans: u64,
}

impl KnowledgeMatrix {
    /// Creates an `n × n` matrix with every cell at [`Seq::FIRST`] (nothing
    /// accepted anywhere, matching Example 4.1's "initially `REQ_j = 1`").
    pub fn new(n: usize) -> Self {
        KnowledgeMatrix {
            n,
            cells: vec![Seq::FIRST; n * n],
            mins: vec![Seq::FIRST; n],
            at_min: vec![n as u32; n],
            dirty: vec![false; n],
            dirty_rows: Vec::with_capacity(n),
            version: 0,
            #[cfg(test)]
            row_scans: 0,
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The cell for (`source`, `observer`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, source: EntityId, observer: EntityId) -> Seq {
        self.cells[observer.index() * self.n + source.index()]
    }

    /// Monotonically raises the cell for (`source`, `observer`) to `value`
    /// (no-op if the cell is already at least `value`). Returns `true` if
    /// the cell changed.
    ///
    /// O(1) unless the raised cell was the last one holding the row's
    /// minimum, in which case that row is rescanned.
    pub fn raise(&mut self, source: EntityId, observer: EntityId, value: Seq) -> bool {
        let k = source.index();
        let idx = observer.index() * self.n + k;
        let old = self.cells[idx];
        if value <= old {
            return false;
        }
        self.cells[idx] = value;
        if old == self.mins[k] {
            self.at_min[k] -= 1;
            if self.at_min[k] == 0 {
                self.rescan_row(k);
            }
        }
        true
    }

    /// Folds a whole confirmation vector from `observer` in: for every
    /// source `k`, `cell[k][observer] = max(cell, vector[k])`. Returns
    /// `true` if anything changed.
    ///
    /// One sequential walk over the observer's lane that branches on the
    /// words that grew, then one strided row scan per row whose last
    /// minimum-holding cell was among them.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != n`.
    #[inline]
    pub fn fold_column(&mut self, observer: EntityId, vector: &[Seq]) -> bool {
        assert_eq!(vector.len(), self.n, "confirmation vector length mismatch");
        let n = self.n;
        let j = observer.index();
        let lane = &mut self.cells[j * n..(j + 1) * n];
        let row_state = self.mins.iter().zip(self.at_min.iter_mut());
        let mut changed = false;
        // Lowest row left without a minimum-holding cell (`n`: none).
        let mut first_moved = n;
        for (k, ((cell, &value), (&min, at_min))) in
            lane.iter_mut().zip(vector).zip(row_state).enumerate()
        {
            let old = *cell;
            if value > old {
                *cell = value;
                changed = true;
                if old == min {
                    *at_min -= 1;
                    if *at_min == 0 {
                        first_moved = first_moved.min(k);
                    }
                }
            }
        }
        for k in first_moved..n {
            if self.at_min[k] == 0 {
                self.rescan_row(k);
            }
        }
        changed
    }

    /// Monotonically raises **every** cell of `source`'s row to at least
    /// `value` (the AckOnly `acked`-adoption rule: the sender asserts all
    /// entities pre-acknowledged `source`'s PDUs below `value`). Returns
    /// `true` if anything changed. O(1) when `value` does not exceed the
    /// row minimum; otherwise one strided pass that lifts and recounts (the
    /// new row minimum is simply `value`).
    ///
    /// To lift many rows at once, prefer [`raise_rows`], which streams the
    /// matrix sequentially instead of striding per row.
    ///
    /// [`raise_rows`]: KnowledgeMatrix::raise_rows
    pub fn raise_row(&mut self, source: EntityId, value: Seq) -> bool {
        let k = source.index();
        if value <= self.mins[k] {
            return false;
        }
        // The cell that held the old minimum is raised to exactly `value`,
        // and no cell ends below it.
        let mut count = 0;
        for cell in self.cells.iter_mut().skip(k).step_by(self.n) {
            if *cell < value {
                *cell = value;
            }
            count += u32::from(*cell == value);
        }
        self.at_min[k] = count;
        self.set_min(k, value);
        true
    }

    /// Batched [`raise_row`] for the whole matrix: lifts row `k` to at
    /// least `values[k]` for every source at once. Returns `true` if any
    /// row minimum moved.
    ///
    /// O(n) when the minima already cover `values` (the steady state);
    /// otherwise one *sequential* pass over all lanes that lifts every cell
    /// and recounts every row — the cache-friendly replacement for n
    /// strided row walks when adopting a full `AckOnly` frontier.
    ///
    /// [`raise_row`]: KnowledgeMatrix::raise_row
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n`.
    pub fn raise_rows(&mut self, values: &[Seq]) -> bool {
        assert_eq!(values.len(), self.n, "frontier vector length mismatch");
        if values
            .iter()
            .zip(&self.mins)
            .all(|(&value, &min)| value <= min)
        {
            return false;
        }
        // A row's new minimum is max(old, value): if value exceeds the old
        // minimum, some cell sat at the old minimum and is raised to
        // exactly `value`, and no cell ends below `value`.
        for (k, &value) in values.iter().enumerate() {
            if value > self.mins[k] {
                self.set_min(k, value);
            }
        }
        self.at_min.fill(0);
        for lane in self.cells.chunks_exact_mut(self.n) {
            let row_state = self.mins.iter().zip(self.at_min.iter_mut());
            for ((cell, &value), (&min, at_min)) in lane.iter_mut().zip(values).zip(row_state) {
                let raised = (*cell).max(value);
                *cell = raised;
                *at_min += u32::from(raised == min);
            }
        }
        true
    }

    /// The row minimum for `source` — the paper's `minAL_k` / `minPAL_k`.
    /// O(1), always exact.
    #[inline]
    pub fn row_min(&self, source: EntityId) -> Seq {
        self.mins[source.index()]
    }

    /// The full vector of row minima (`⟨minAL_1, …, minAL_n⟩`), used as the
    /// pre-ack frontier advertised in `AckOnly` PDUs. O(1),
    /// allocation-free, always exact.
    pub fn row_mins(&self) -> &[Seq] {
        &self.mins
    }

    /// A counter bumped every time any row minimum changes; two equal
    /// versions imply identical [`row_mins`] (minima are monotonic, so no
    /// ABA). Lets callers compare frontiers in O(1).
    ///
    /// [`row_mins`]: KnowledgeMatrix::row_mins
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Moves the indices of rows whose minimum changed since the last drain
    /// into `out` (appended; `out` is *not* cleared) and resets the dirty
    /// set. Allocation-free when `out` has capacity for `n` entries.
    pub fn drain_dirty_into(&mut self, out: &mut Vec<u32>) {
        for &k in &self.dirty_rows {
            self.dirty[k as usize] = false;
        }
        out.append(&mut self.dirty_rows);
    }

    /// Recomputes one row's minimum and count by a strided scan. Only
    /// called once every cell that sat at the old minimum has been raised,
    /// so the minimum always moves.
    fn rescan_row(&mut self, k: usize) {
        #[cfg(test)]
        {
            self.row_scans += 1;
        }
        let mut min = self.cells[k];
        let mut count = 0;
        for &cell in self.cells.iter().skip(k).step_by(self.n) {
            if cell < min {
                min = cell;
                count = 1;
            } else {
                count += u32::from(cell == min);
            }
        }
        self.at_min[k] = count;
        debug_assert!(min > self.mins[k], "rescan without a minimum move");
        self.set_min(k, min);
    }

    /// Records row `k`'s new (strictly higher) minimum.
    fn set_min(&mut self, k: usize, min: Seq) {
        self.mins[k] = min;
        self.version += 1;
        if !self.dirty[k] {
            self.dirty[k] = true;
            self.dirty_rows.push(k as u32);
        }
    }
}

/// Equality is *knowledge* equality: same cluster size and cells. The
/// change-tracking bookkeeping (version, dirty set) is history-dependent —
/// two matrices reached by reordered commutative folds must still compare
/// equal.
impl PartialEq for KnowledgeMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.cells == other.cells
    }
}

impl Eq for KnowledgeMatrix {}

impl std::fmt::Display for KnowledgeMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for k in 0..self.n {
            if k > 0 {
                writeln!(f)?;
            }
            write!(f, "[")?;
            for j in 0..self.n {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self.cells[j * self.n + k].get())?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    fn seqs(v: &[u64]) -> Vec<Seq> {
        v.iter().copied().map(Seq::new).collect()
    }

    /// Freshly recomputed row minimum, for cross-checking the cache.
    fn fresh_min(m: &KnowledgeMatrix, k: u32) -> Seq {
        (0..m.n())
            .map(|j| m.get(e(k), e(j as u32)))
            .min()
            .expect("n >= 1")
    }

    /// Freshly recounted number of cells sitting at the row minimum.
    fn fresh_count(m: &KnowledgeMatrix, k: u32) -> u32 {
        let min = fresh_min(m, k);
        (0..m.n())
            .filter(|&j| m.get(e(k), e(j as u32)) == min)
            .count() as u32
    }

    /// Seeded xorshift, so the model and work tests are deterministic.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Applies one random `raise` / `fold_column` / `raise_row` /
    /// `raise_rows` with values in `1..=span`.
    fn random_op(m: &mut KnowledgeMatrix, rng: &mut impl FnMut() -> u64, span: u64) {
        let n = m.n() as u64;
        match rng() % 4 {
            0 => {
                let src = e((rng() % n) as u32);
                let obs = e((rng() % n) as u32);
                m.raise(src, obs, Seq::new(rng() % span + 1));
            }
            1 => {
                let obs = e((rng() % n) as u32);
                let vector: Vec<Seq> = (0..n).map(|_| Seq::new(rng() % span + 1)).collect();
                m.fold_column(obs, &vector);
            }
            2 => {
                let src = e((rng() % n) as u32);
                m.raise_row(src, Seq::new(rng() % span + 1));
            }
            _ => {
                let values: Vec<Seq> = (0..n).map(|_| Seq::new(rng() % span + 1)).collect();
                m.raise_rows(&values);
            }
        }
    }

    /// The model test: random interleavings of all four mutations, checked
    /// against a from-scratch recomputation after *every* operation — row
    /// minima, counts at the minimum, the version counter, and (at random
    /// drain points) the dirty set. The proptest twin
    /// (`tests/proptest_protocol.rs`) explores shapes; this pins deep
    /// deterministic trajectories in the plain test suite.
    #[test]
    fn model_minima_counts_dirty_set_and_version() {
        for n in [1usize, 2, 3, 17, 64] {
            let mut rng = xorshift(0x9E37_79B9_7F4A_7C15 ^ n as u64);
            let mut m = KnowledgeMatrix::new(n);
            let mut at_last_drain = m.row_mins().to_vec();
            let mut drained = Vec::new();
            for step in 0..(40_000 / n) {
                let before = m.row_mins().to_vec();
                let version = m.version();
                // A slowly widening span keeps minima moving to the end.
                random_op(&mut m, &mut rng, 8 + step as u64 / 16);
                for k in 0..n as u32 {
                    assert_eq!(m.row_min(e(k)), fresh_min(&m, k), "n={n} row {k} min");
                    assert_eq!(
                        m.at_min[k as usize],
                        fresh_count(&m, k),
                        "n={n} row {k} count"
                    );
                }
                assert_eq!(
                    m.version() > version,
                    m.row_mins() != &before[..],
                    "n={n}: version bumps iff a minimum changed"
                );
                if rng() % 4 == 0 {
                    drained.clear();
                    m.drain_dirty_into(&mut drained);
                    drained.sort_unstable();
                    let moved: Vec<u32> = (0..n as u32)
                        .filter(|&k| m.row_mins()[k as usize] != at_last_drain[k as usize])
                        .collect();
                    assert_eq!(drained, moved, "n={n}: dirty set = rows that moved");
                    at_last_drain = m.row_mins().to_vec();
                }
            }
        }
    }

    /// The work bound: rows are scanned only when a minimum moves.
    #[test]
    fn row_scans_are_bounded_by_minimum_moves() {
        let n = 17;
        let mut m = KnowledgeMatrix::new(n);
        // Every cell of lanes 1.. grows, yet lane 0 still holds every row
        // minimum: no minimum moves, so no row is scanned.
        for j in 1..n as u32 {
            let vector: Vec<Seq> = (0..n as u64).map(|k| Seq::new(2 + k + j as u64)).collect();
            assert!(m.fold_column(e(j), &vector));
        }
        assert_eq!(m.row_scans, 0, "a fold that moves no minimum scans no row");
        assert_eq!(m.version(), 0);
        // Raising the last minimum-holding lane moves all n minima: n scans.
        m.fold_column(e(0), &vec![Seq::new(2); n]);
        assert_eq!(m.row_scans, n as u64);
        // Random traffic: never more scans than minimum moves (`raise_row`
        // and `raise_rows` move minima without a rescan, hence `<=`).
        let mut rng = xorshift(7);
        for step in 0..4_000u64 {
            random_op(&mut m, &mut rng, 8 + step / 8);
            assert!(
                m.row_scans <= m.version(),
                "{} scans for {} minimum moves",
                m.row_scans,
                m.version()
            );
        }
    }

    /// `CoCore::restore` rebuilds a matrix by raising its n² exported
    /// cells one at a time, source-major. The copy must agree in cells,
    /// minima and counts, at a rescan per row at most — O(n²) in total.
    #[test]
    fn cellwise_restore_is_exact_and_scans_each_row_once() {
        let n = 17;
        let mut rng = xorshift(11);
        let mut original = KnowledgeMatrix::new(n);
        for _ in 0..500 {
            random_op(&mut original, &mut rng, 40);
        }
        let mut restored = KnowledgeMatrix::new(n);
        for k in 0..n as u32 {
            for j in 0..n as u32 {
                restored.raise(e(k), e(j), original.get(e(k), e(j)));
            }
        }
        assert_eq!(restored, original);
        assert_eq!(restored.row_mins(), original.row_mins());
        assert_eq!(restored.at_min, original.at_min);
        assert!(restored.row_scans <= n as u64, "{}", restored.row_scans);
    }

    #[test]
    fn starts_at_first() {
        let m = KnowledgeMatrix::new(3);
        assert_eq!(m.get(e(0), e(2)), Seq::FIRST);
        assert_eq!(m.row_min(e(1)), Seq::FIRST);
        assert_eq!(m.n(), 3);
        assert_eq!(m.version(), 0);
        assert_eq!(m.at_min, vec![3; 3]);
    }

    #[test]
    fn raise_is_monotonic() {
        let mut m = KnowledgeMatrix::new(2);
        assert!(m.raise(e(0), e(1), Seq::new(5)));
        assert!(!m.raise(e(0), e(1), Seq::new(3)), "must not regress");
        assert_eq!(m.get(e(0), e(1)), Seq::new(5));
        assert!(!m.raise(e(0), e(1), Seq::new(5)), "equal is a no-op");
    }

    #[test]
    fn fold_column_updates_one_observer() {
        let mut m = KnowledgeMatrix::new(3);
        assert!(m.fold_column(e(1), &seqs(&[3, 1, 2])));
        assert_eq!(m.get(e(0), e(1)), Seq::new(3));
        assert_eq!(m.get(e(1), e(1)), Seq::new(1));
        assert_eq!(m.get(e(2), e(1)), Seq::new(2));
        // Other observers untouched.
        assert_eq!(m.get(e(0), e(0)), Seq::FIRST);
        // Stale vector changes nothing.
        assert!(!m.fold_column(e(1), &seqs(&[2, 1, 1])));
    }

    #[test]
    fn row_min_is_pack_threshold() {
        // Example 4.1: after accepting a,b,c,d the AL row for E1 is
        // [3, 3, 2] (own REQ_1 = 3, d told us 3, b told us 2)... the row
        // minimum 2 makes exactly a (seq 1) pre-acknowledgeable.
        let mut m = KnowledgeMatrix::new(3);
        m.fold_column(e(0), &seqs(&[3, 2, 2]));
        m.fold_column(e(1), &seqs(&[3, 1, 2]));
        m.fold_column(e(2), &seqs(&[2, 1, 1]));
        assert_eq!(m.row_min(e(0)), Seq::new(2));
        // a.SEQ = 1 < 2 → pre-acknowledged; c.SEQ = 2 not yet.
        assert!(Seq::new(1) < m.row_min(e(0)));
        assert!(Seq::new(2) >= m.row_min(e(0)));
    }

    #[test]
    fn row_mins_vector() {
        let mut m = KnowledgeMatrix::new(2);
        m.fold_column(e(0), &seqs(&[4, 7]));
        m.fold_column(e(1), &seqs(&[2, 9]));
        assert_eq!(m.row_mins(), &seqs(&[2, 7])[..]);
    }

    #[test]
    fn cached_minima_track_raises() {
        let mut m = KnowledgeMatrix::new(3);
        // Raise cells one by one; cached minimum must always match a fresh
        // recomputation, including when the minimum-holding cell moves.
        let updates = [
            (0, 0, 4),
            (0, 1, 2),
            (0, 2, 2), // min now 2 (held twice)
            (0, 1, 5), // min stays 2 (one cell still at it)
            (0, 2, 3), // last minimal cell raised → rescan → min 3
            (1, 0, 9),
            (2, 2, 7),
        ];
        for (k, j, v) in updates {
            m.raise(e(k), e(j), Seq::new(v));
            for row in 0..3 {
                assert_eq!(m.row_min(e(row)), fresh_min(&m, row), "row {row}");
            }
        }
        assert_eq!(m.row_min(e(0)), Seq::new(3));
    }

    #[test]
    fn cached_minima_track_folds() {
        // Cross-check against fresh recomputation after every fold, with
        // folds that move several minima at once.
        let n = 8;
        let mut m = KnowledgeMatrix::new(n);
        for t in 0..40u64 {
            let j = (t * 5 % n as u64) as u32;
            let vector: Vec<u64> = (0..n as u64).map(|k| 1 + (t + k * 3) % 17).collect();
            m.fold_column(e(j), &seqs(&vector));
            for (row, &min) in m.row_mins().iter().enumerate() {
                assert_eq!(min, fresh_min(&m, row as u32), "row {row}");
                assert_eq!(m.at_min[row], fresh_count(&m, row as u32), "row {row}");
            }
        }
    }

    #[test]
    fn raise_row_lifts_whole_row() {
        let mut m = KnowledgeMatrix::new(3);
        m.fold_column(e(1), &seqs(&[5, 1, 1]));
        assert!(m.raise_row(e(0), Seq::new(3)));
        assert_eq!(m.get(e(0), e(0)), Seq::new(3));
        assert_eq!(m.get(e(0), e(1)), Seq::new(5), "higher cells keep value");
        assert_eq!(m.get(e(0), e(2)), Seq::new(3));
        assert_eq!(m.row_min(e(0)), Seq::new(3));
        assert_eq!(m.row_min(e(0)), fresh_min(&m, 0));
        // Raising below the current minimum is a no-op.
        assert!(!m.raise_row(e(0), Seq::new(2)));
    }

    #[test]
    fn raise_row_after_folds_sees_the_moved_minimum() {
        let mut m = KnowledgeMatrix::new(2);
        // Both cells of row 0 grow past the initial minimum of 1.
        m.fold_column(e(0), &seqs(&[5, 1]));
        m.fold_column(e(1), &seqs(&[4, 1]));
        // The minimum is 4 by now, so raising to 3 is a no-op.
        assert!(!m.raise_row(e(0), Seq::new(3)));
        assert_eq!(m.row_min(e(0)), Seq::new(4));
        assert!(m.raise_row(e(0), Seq::new(6)));
        assert_eq!(m.row_min(e(0)), Seq::new(6));
        assert_eq!(m.at_min[0], 2, "both cells lifted to the new minimum");
    }

    #[test]
    fn raise_rows_matches_per_row_raises() {
        let n = 5;
        let mut batched = KnowledgeMatrix::new(n);
        let mut one_by_one = KnowledgeMatrix::new(n);
        for m in [&mut batched, &mut one_by_one] {
            m.fold_column(e(1), &seqs(&[5, 1, 4, 2, 9]));
            m.fold_column(e(3), &seqs(&[2, 6, 1, 1, 3]));
        }
        let frontier = seqs(&[3, 1, 7, 2, 4]);
        let mut changed = false;
        for (k, &value) in frontier.iter().enumerate() {
            changed |= one_by_one.raise_row(e(k as u32), value);
        }
        assert_eq!(batched.raise_rows(&frontier), changed);
        assert_eq!(batched, one_by_one);
        assert_eq!(batched.row_mins(), one_by_one.row_mins());
        assert_eq!(batched.at_min, one_by_one.at_min);
        for k in 0..n as u32 {
            assert_eq!(batched.row_min(e(k)), fresh_min(&batched, k));
        }
        let mut d1 = Vec::new();
        let mut d2 = Vec::new();
        batched.drain_dirty_into(&mut d1);
        one_by_one.drain_dirty_into(&mut d2);
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2, "same rows reported dirty");
        // A frontier at-or-below every row minimum is a no-op.
        assert!(!batched.raise_rows(&seqs(&[1, 1, 1, 1, 1])));
    }

    #[test]
    fn dirty_rows_report_min_changes_once() {
        let mut m = KnowledgeMatrix::new(2);
        let mut dirty = Vec::new();
        // Raising one cell of a 2-cell row leaves the min unchanged.
        m.raise(e(0), e(0), Seq::new(3));
        m.drain_dirty_into(&mut dirty);
        assert!(dirty.is_empty(), "min did not move");
        // Raising the other cell moves the min → row 0 dirty, deduplicated.
        m.raise(e(0), e(1), Seq::new(2));
        m.raise(e(0), e(1), Seq::new(3));
        m.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![0]);
        // Drained: no re-report without a new change.
        dirty.clear();
        m.drain_dirty_into(&mut dirty);
        assert!(dirty.is_empty());
    }

    #[test]
    fn drain_reports_rows_moved_by_folds() {
        let mut m = KnowledgeMatrix::new(2);
        // Both cells of row 0 leave the minimum; row 1 never moves.
        m.fold_column(e(0), &seqs(&[3, 1]));
        assert_eq!(m.version(), 0, "one cell of row 0 still sits at 1");
        m.fold_column(e(1), &seqs(&[2, 1]));
        assert_eq!(m.version(), 1);
        let mut dirty = Vec::new();
        m.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![0]);
        assert_eq!(m.row_mins(), &seqs(&[2, 1])[..]);
    }

    #[test]
    fn version_tracks_frontier_changes_only() {
        let mut m = KnowledgeMatrix::new(2);
        let v0 = m.version();
        m.raise(e(0), e(0), Seq::new(5)); // min unchanged (other cell at 1)
        assert_eq!(m.version(), v0);
        m.raise(e(0), e(1), Seq::new(4)); // min 1 → 4
        assert!(m.version() > v0);
    }

    #[test]
    fn equality_ignores_change_tracking_history() {
        let mut a = KnowledgeMatrix::new(2);
        let mut b = KnowledgeMatrix::new(2);
        // Same knowledge, reached through different update orders.
        a.fold_column(e(0), &seqs(&[4, 2]));
        a.fold_column(e(1), &seqs(&[1, 5]));
        b.fold_column(e(1), &seqs(&[1, 5]));
        b.fold_column(e(0), &seqs(&[4, 2]));
        let mut sink = Vec::new();
        a.drain_dirty_into(&mut sink);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fold_wrong_length_panics() {
        let mut m = KnowledgeMatrix::new(3);
        m.fold_column(e(0), &seqs(&[1, 1]));
    }

    #[test]
    fn display_renders_rows() {
        let mut m = KnowledgeMatrix::new(2);
        m.raise(e(0), e(1), Seq::new(4));
        assert_eq!(m.to_string(), "[1 4]\n[1 1]");
    }
}
