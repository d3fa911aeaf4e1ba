//! The benchmark's correctness check.
//!
//! Every node must have delivered every submitted message exactly once,
//! in per-source FIFO order, with the payload it was submitted with, and
//! all nodes must agree on an order-insensitive digest of what they
//! delivered. (Causality proper is `co-check`'s job; this check is what a
//! throughput number needs to be worth reading.)

use crate::workload::mix;

/// One delivery as a node's application saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Originating entity index.
    pub src: u32,
    /// The origin's sequence number (1-based).
    pub seq: u64,
    /// [`crate::workload::hash64`] of the delivered payload bytes.
    pub payload_hash: u64,
}

/// What a passing check established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Deliveries expected over all nodes (messages × nodes).
    pub expected: u64,
    /// Deliveries found.
    pub delivered: u64,
    /// Order-insensitive digest of (src, seq, payload hash), equal at
    /// every node.
    pub digest: u64,
}

/// Why a result was rejected. Node, source and sequence number of the
/// first offence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckError {
    /// A node never delivered a submitted message.
    Missing { node: usize, src: u32, seq: u64 },
    /// A node delivered the same message twice.
    Duplicate { node: usize, src: u32, seq: u64 },
    /// A node delivered a source's messages out of submission order.
    FifoViolation { node: usize, src: u32, seq: u64 },
    /// A delivered payload differs from the submitted one.
    BadPayload { node: usize, src: u32, seq: u64 },
    /// A node delivered a message nobody submitted.
    Unexpected { node: usize, src: u32, seq: u64 },
    /// Two nodes disagree on the delivered set.
    DigestMismatch { node: usize },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CheckError::Missing { node, src, seq } => {
                write!(f, "node {node} never delivered ({src}, {seq})")
            }
            CheckError::Duplicate { node, src, seq } => {
                write!(f, "node {node} delivered ({src}, {seq}) twice")
            }
            CheckError::FifoViolation { node, src, seq } => {
                write!(
                    f,
                    "node {node} delivered ({src}, {seq}) after a later message of that source"
                )
            }
            CheckError::BadPayload { node, src, seq } => {
                write!(
                    f,
                    "node {node} delivered ({src}, {seq}) with a corrupted payload"
                )
            }
            CheckError::Unexpected { node, src, seq } => {
                write!(
                    f,
                    "node {node} delivered ({src}, {seq}), which nobody submitted"
                )
            }
            CheckError::DigestMismatch { node } => {
                write!(f, "node {node} disagrees with node 0 on the delivered set")
            }
        }
    }
}

/// Deliveries absent from `nodes`, against `expected_hash[src][seq - 1]`.
pub fn count_missing(expected_hash: &[Vec<u64>], nodes: &[Vec<DeliveryRecord>]) -> u64 {
    let expected: u64 = expected_hash.iter().map(|m| m.len() as u64).sum();
    nodes
        .iter()
        .map(|d| expected.saturating_sub(d.len() as u64))
        .sum()
}

/// Checks every node's delivery sequence against the submitted messages
/// (`expected_hash[src][seq - 1]` is the payload hash of each).
///
/// # Errors
///
/// The first [`CheckError`] found, scanning nodes in order.
pub fn verify(
    expected_hash: &[Vec<u64>],
    nodes: &[Vec<DeliveryRecord>],
) -> Result<CheckReport, CheckError> {
    let expected: u64 = expected_hash.iter().map(|m| m.len() as u64).sum();
    let mut first_digest = None;
    let mut delivered = 0u64;
    for (node, records) in nodes.iter().enumerate() {
        let mut seen: Vec<Vec<bool>> = expected_hash.iter().map(|m| vec![false; m.len()]).collect();
        let mut last_seq = vec![0u64; expected_hash.len()];
        let mut digest = 0u64;
        for r in records {
            let (src, seq) = (r.src, r.seq);
            let slot = seen
                .get_mut(src as usize)
                .and_then(|s| s.get_mut((seq as usize).wrapping_sub(1)))
                .ok_or(CheckError::Unexpected { node, src, seq })?;
            if *slot {
                return Err(CheckError::Duplicate { node, src, seq });
            }
            *slot = true;
            if seq < last_seq[src as usize] {
                return Err(CheckError::FifoViolation { node, src, seq });
            }
            last_seq[src as usize] = seq;
            if r.payload_hash != expected_hash[src as usize][seq as usize - 1] {
                return Err(CheckError::BadPayload { node, src, seq });
            }
            digest = digest.wrapping_add(mix(mix(u64::from(src) << 40 ^ seq) ^ r.payload_hash));
        }
        for (src, s) in seen.iter().enumerate() {
            if let Some(k) = s.iter().position(|&got| !got) {
                return Err(CheckError::Missing {
                    node,
                    src: src as u32,
                    seq: k as u64 + 1,
                });
            }
        }
        delivered += records.len() as u64;
        match first_digest {
            None => first_digest = Some(digest),
            Some(d) if d != digest => return Err(CheckError::DigestMismatch { node }),
            Some(_) => {}
        }
    }
    Ok(CheckReport {
        expected: expected * nodes.len() as u64,
        delivered,
        digest: first_digest.unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two sources × four messages, delivered correctly at three nodes.
    fn good() -> (Vec<Vec<u64>>, Vec<Vec<DeliveryRecord>>) {
        let expected: Vec<Vec<u64>> = (0..2u64)
            .map(|s| (0..4u64).map(|k| mix(s * 100 + k)).collect())
            .collect();
        let one_node: Vec<DeliveryRecord> = (1..=4u64)
            .flat_map(|seq| {
                let expected = &expected;
                (0..2u32).map(move |src| DeliveryRecord {
                    src,
                    seq,
                    payload_hash: expected[src as usize][seq as usize - 1],
                })
            })
            .collect();
        // Node 1 interleaves the sources differently: still FIFO per source.
        let mut other = one_node.clone();
        other.sort_by_key(|r| (r.src, r.seq));
        (expected, vec![one_node.clone(), other, one_node])
    }

    #[test]
    fn accepts_a_correct_result_in_any_interleaving() {
        let (expected, nodes) = good();
        let report = verify(&expected, &nodes).unwrap();
        assert_eq!(report.expected, 24);
        assert_eq!(report.delivered, 24);
        assert_eq!(count_missing(&expected, &nodes), 0);
    }

    // The verifier's self-test: each injected delivery bug must be caught,
    // and caught as what it is.

    #[test]
    fn rejects_a_removed_delivery() {
        let (expected, mut nodes) = good();
        let gone = nodes[1].remove(5);
        assert_eq!(
            verify(&expected, &nodes),
            Err(CheckError::Missing {
                node: 1,
                src: gone.src,
                seq: gone.seq
            })
        );
        assert_eq!(count_missing(&expected, &nodes), 1);
    }

    #[test]
    fn rejects_a_duplicated_delivery() {
        let (expected, mut nodes) = good();
        let twice = nodes[2][3];
        nodes[2].insert(6, twice);
        assert_eq!(
            verify(&expected, &nodes),
            Err(CheckError::Duplicate {
                node: 2,
                src: twice.src,
                seq: twice.seq
            })
        );
    }

    #[test]
    fn rejects_a_pair_swapped_within_a_source() {
        let (expected, mut nodes) = good();
        // Node 1 is sorted by (src, seq): positions 1 and 2 are source 0's
        // messages 2 and 3.
        nodes[1].swap(1, 2);
        assert_eq!(
            verify(&expected, &nodes),
            Err(CheckError::FifoViolation {
                node: 1,
                src: 0,
                seq: 2
            })
        );
    }

    #[test]
    fn rejects_a_corrupted_payload_and_an_invented_message() {
        let (expected, mut nodes) = good();
        nodes[0][2].payload_hash ^= 1;
        assert!(matches!(
            verify(&expected, &nodes),
            Err(CheckError::BadPayload { node: 0, .. })
        ));
        let (expected, mut nodes) = good();
        nodes[0].push(DeliveryRecord {
            src: 1,
            seq: 9,
            payload_hash: 0,
        });
        assert_eq!(
            verify(&expected, &nodes),
            Err(CheckError::Unexpected {
                node: 0,
                src: 1,
                seq: 9
            })
        );
    }
}
