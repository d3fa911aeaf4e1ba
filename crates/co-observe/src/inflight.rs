//! The table of PDUs in flight at one entity.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use causal_order::{EntityId, Seq};

/// Word-at-a-time rotate-xor-multiply hash (the `FxHash` construction).
/// Consecutive sequence numbers land in distinct low bits, and the odd
/// multiplier spreads them over the top seven, the two parts of a hash
/// `HashMap` uses.
#[derive(Debug, Clone, Copy, Default)]
struct SeqHasher(u64);

impl SeqHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SeqHasher {
    /// The trait's required fallback; `(u32, u64)` keys never reach it.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What an always-on observer remembers per PDU between its acceptance
/// and its delivery, keyed by `(source, seq)`.
///
/// The table is hashed without SipHash, which is sound **only** because it
/// is fed by an entity's *own* event stream: every key passed
/// `Entity::validate` (`src < n`) and the ACC condition (`seq ==
/// REQ_src`), so a peer can contribute nothing but the next consecutive
/// number of its own source and no party chooses keys. Anything keyed by
/// the contents of a *file* — `co_trace::SpanSet` and
/// `co_trace::StreamingDetectors` behind `trace analyze`, `trace watch`
/// and recorder dumps — must not use this table; those keep their ordered
/// maps and their input checks.
#[derive(Debug, Clone)]
pub struct InFlight<T> {
    map: HashMap<(u32, u64), T, BuildHasherDefault<SeqHasher>>,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight {
            map: HashMap::default(),
        }
    }
}

impl<T> InFlight<T> {
    fn key(src: EntityId, seq: Seq) -> (u32, u64) {
        (src.index() as u32, seq.get())
    }

    /// Records `value` for `(src, seq)`, returning what it replaces.
    pub fn insert(&mut self, src: EntityId, seq: Seq, value: T) -> Option<T> {
        self.map.insert(Self::key(src, seq), value)
    }

    /// The record of `(src, seq)`, if it is in flight.
    pub fn get(&self, src: EntityId, seq: Seq) -> Option<&T> {
        self.map.get(&Self::key(src, seq))
    }

    /// Mutable access to the record of `(src, seq)`.
    pub fn get_mut(&mut self, src: EntityId, seq: Seq) -> Option<&mut T> {
        self.map.get_mut(&Self::key(src, seq))
    }

    /// Takes `(src, seq)` out of the table.
    pub fn remove(&mut self, src: EntityId, seq: Seq) -> Option<T> {
        self.map.remove(&Self::key(src, seq))
    }

    /// Number of PDUs in flight.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// No PDU is in flight.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `((source index, seq), record)` of every PDU in flight, in no
    /// particular order — sort before anything is reported.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u64), &T)> {
        self.map.iter().map(|(&key, value)| (key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn pdu(src: u32, seq: u64) -> (EntityId, Seq) {
        (EntityId::new(src), Seq::new(seq))
    }

    #[test]
    fn insert_get_overwrite_remove() {
        let mut table = InFlight::default();
        assert!(table.is_empty());
        let (src, seq) = pdu(3, 7);
        assert_eq!(table.insert(src, seq, 10u64), None);
        assert_eq!(table.insert(src, Seq::new(8), 20), None);
        assert_eq!(table.get(src, seq), Some(&10));
        assert_eq!(table.get(EntityId::new(7), Seq::new(3)), None);
        assert_eq!(table.insert(src, seq, 11), Some(10), "overwrite");
        *table.get_mut(src, seq).unwrap() += 1;
        assert_eq!(table.len(), 2);
        let mut held: Vec<_> = table.iter().map(|(key, &v)| (key, v)).collect();
        held.sort_unstable();
        assert_eq!(held, [((3, 7), 12), ((3, 8), 20)]);
        assert_eq!(table.remove(src, seq), Some(12));
        assert_eq!(table.remove(src, seq), None);
        assert_eq!(table.len(), 1);
    }

    /// Every bucket within 2× of its uniform share, both ways.
    fn assert_spread(buckets: &[u32], what: &str) {
        let uniform = buckets.iter().sum::<u32>() / buckets.len() as u32;
        let (min, max) = (buckets.iter().min().unwrap(), buckets.iter().max().unwrap());
        assert!(
            *min >= uniform / 2 && *max <= uniform * 2,
            "{what}: buckets hold {min}..={max}, uniform is {uniform}"
        );
    }

    #[test]
    fn consecutive_sequence_numbers_fill_both_hash_parts_evenly() {
        // The keys a node sees: 64 sources, a run of consecutive sequence
        // numbers each. hashbrown picks the bucket from the low bits and
        // the control byte from the top seven.
        let mut low12 = vec![0u32; 1 << 12];
        let mut top7 = vec![0u32; 1 << 7];
        for src in 0..64u32 {
            for seq in 1_000..1_000 + 4_096u64 {
                let mut hasher = SeqHasher::default();
                (src, seq).hash(&mut hasher);
                let hash = hasher.finish();
                low12[(hash & 0xfff) as usize] += 1;
                top7[(hash >> 57) as usize] += 1;
            }
        }
        assert_spread(&low12, "low 12 bits");
        assert_spread(&top7, "top 7 bits");
    }
}
