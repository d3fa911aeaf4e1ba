//! A node on a real socket hears from anyone who can reach its port.
//! Whatever arrives there that is not an honest PDU must be dropped and
//! counted, and must cost the cluster nothing else.

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_protocol::{AckOnlyPdu, DataPdu, HybridCore, Pdu, SenderCore};
use co_transport::{Cluster, ClusterOptions};
use std::net::UdpSocket;
use std::time::Duration;

/// A data PDU that decodes cleanly, as `src` of a three-entity cluster.
fn data_pdu(cid: u32, src: u32) -> Bytes {
    Pdu::Data(DataPdu {
        cid,
        src: EntityId::new(src),
        seq: Seq::FIRST,
        ack: vec![Seq::FIRST; 3],
        buf: 64,
        data: Bytes::from_static(b"forged"),
    })
    .encode()
}

/// `valid` with its ack vector's width byte (after the 12-byte header,
/// `seq` and the vector's `len`) set to a width the codec does not have:
/// wire version 3 counts in bits and reads 0, 4, 8, 16, 32 and 64.
fn with_bad_width(valid: &Bytes) -> Bytes {
    let mut raw = valid.to_vec();
    raw[12 + 8 + 2] = 3;
    Bytes::from(raw)
}

/// [`data_pdu`] from `src` 0 as an older peer would have framed it, its
/// ack vector being `ack` on that version's wire.
fn old_data_pdu(version: u8, cid: u32, ack: &[u8]) -> Bytes {
    let mut raw = vec![0xC0, 0xBD, version, 0]; // magic, version, kind = DATA
    raw.extend_from_slice(&cid.to_be_bytes());
    raw.extend_from_slice(&0u32.to_be_bytes()); // src
    raw.extend_from_slice(&1u64.to_be_bytes()); // seq
    raw.extend_from_slice(ack);
    raw.extend_from_slice(&64u32.to_be_bytes()); // buf
    raw.extend_from_slice(&6u32.to_be_bytes()); // data len
    raw.extend_from_slice(b"forged");
    Bytes::from(raw)
}

/// Wire version 1: the ack vector as a `u16` length and fixed `u64`
/// entries.
fn v1_data_pdu(cid: u32) -> Bytes {
    let mut ack = 3u16.to_be_bytes().to_vec();
    for _ in 0..3 {
        ack.extend_from_slice(&1u64.to_be_bytes());
    }
    old_data_pdu(1, cid, &ack)
}

/// Wire version 2, well-formed: `len | width = 1 byte | base | offsets`.
fn v2_data_pdu(cid: u32) -> Bytes {
    let mut ack = 3u16.to_be_bytes().to_vec();
    ack.push(1);
    ack.extend_from_slice(&1u64.to_be_bytes());
    ack.extend_from_slice(&[0, 0, 0]);
    old_data_pdu(2, cid, &ack)
}

/// An `AckOnly` no sender builds and the codec carries all the same:
/// `packed` and `acked` far *ahead* of `ack`, so both lag vectors wrap
/// and take eight bytes an entry. It decodes, and then comes from
/// nobody the cluster knows. (The same vectors from a *member* are the
/// hostile-peer item's, ROADMAP "Hostile wire" (b).)
fn wrapped_lags_from_a_stranger(cid: u32) -> Bytes {
    let ahead = vec![
        Seq::new(u64::MAX - 1),
        Seq::new(1 << 40),
        Seq::new(u64::MAX),
    ];
    let raw = Pdu::AckOnly(AckOnlyPdu {
        cid,
        src: EntityId::new(9),
        ack: vec![Seq::FIRST; 3],
        packed: ahead.clone(),
        acked: ahead,
        buf: 64,
    })
    .encode();
    // header | ack at width 0 | two vectors at 64 bits an entry | buf
    assert_eq!(raw.len(), 12 + 11 + 2 * (11 + 3 * 8) + 4);
    assert!(Pdu::decode(&raw).is_ok());
    raw
}

#[test]
fn hostile_datagrams_are_counted_and_cost_nothing() {
    const ROUNDS: usize = 8;
    let options = ClusterOptions::default();
    let cluster = Cluster::start_udp::<HybridCore>(3, options.clone()).expect("start");
    let victim = cluster.local_addrs()[1];
    let stranger = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    let valid = data_pdu(options.cid, 0);
    let hostile: [(&str, Bytes); 8] = [
        ("garbage", Bytes::from_static(&[0xA5; 40])),
        ("truncated", valid.slice(..valid.len() - 3)),
        ("bad vector width", with_bad_width(&valid)),
        ("wire version 1", v1_data_pdu(options.cid)),
        ("wire version 2", v2_data_pdu(options.cid)),
        ("wrong cid", data_pdu(options.cid + 1, 0)),
        ("victim's own src", data_pdu(options.cid, 1)),
        ("wrapped lags", wrapped_lags_from_a_stranger(options.cid)),
    ];
    for round in 0..ROUNDS {
        for i in 0..3 {
            cluster
                .submit(i, Bytes::from(format!("{i}:{round}").into_bytes()))
                .expect("submit");
        }
        for (what, datagram) in &hostile {
            stranger.send_to(datagram, victim).expect(what);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // A node that panicked would make `shutdown` panic.
    let reports = cluster.shutdown();
    for r in &reports {
        let got: Vec<(usize, u64)> = r.delivered.iter().map(|d| (d.0.index(), d.1)).collect();
        for src in 0..3 {
            let seqs: Vec<u64> = got.iter().filter(|d| d.0 == src).map(|d| d.1).collect();
            let all: Vec<u64> = (1..=ROUNDS as u64).collect();
            assert_eq!(seqs, all, "every honest message from {src}, at {}", r.id);
        }
        assert_eq!(got.len(), 3 * ROUNDS, "and nothing forged, at {}", r.id);
        let hit = if r.id.index() == 1 { ROUNDS as u64 } else { 0 };
        assert_eq!(
            r.corrupt_frames,
            5 * hit,
            "garbage + truncated + bad width + v1 + v2 at {}",
            r.id
        );
        assert_eq!(
            r.rejected_pdus,
            3 * hit,
            "wrong cid + own src + stranger at {}",
            r.id
        );
        // The socket path carries the observer stack of the channel path.
        assert_eq!(r.flight_recorder.core, "hybrid");
        assert_eq!(r.flight_recorder.network, "udp");
        assert!(!r.flight_recorder.events.is_empty());
        assert!(r.latency.accept_to_deliver().count() >= ROUNDS as u64);
    }
}

#[test]
fn udp_cluster_runs_the_sender_core() {
    let cluster = Cluster::start_udp::<SenderCore>(3, ClusterOptions::default()).expect("start");
    for k in 0..6 {
        cluster
            .submit(k % 3, Bytes::from(format!("s{k}").into_bytes()))
            .expect("submit");
    }
    for r in cluster.shutdown() {
        assert_eq!(r.delivered.len(), 6, "at {}", r.id);
        assert_eq!(r.flight_recorder.core, "sender");
    }
}
