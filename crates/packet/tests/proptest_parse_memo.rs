//! Property: the parse memoised on a shared frame is never stale.
//!
//! `Packet::parsed()` must equal `parse_packet(bytes)` of the packet's
//! *current* bytes after any sequence of clones and writes, and a clone
//! must keep the parse of the bytes it still holds whatever its siblings
//! write afterwards.

use edp_packet::{parse_packet, KvHeader, KvOp, Packet, PacketBuilder};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A frame of one of the shapes the parser tells apart: valid UDP / TCP /
/// app-header frames, a truncated one and one with a corrupted byte.
fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..5,
        prop::collection::vec(any::<u8>(), 0..80),
        0usize..160,
        any::<prop::sample::Index>(),
        1u8..=255,
    )
        .prop_map(|(shape, payload, pad, at, flip)| {
            let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
            let udp = PacketBuilder::udp(src, dst, 4000, 5000, &payload).pad_to(pad);
            match shape {
                0 => udp.build(),
                1 => PacketBuilder::tcp(src, dst, 80, 443, 1, 2, &payload)
                    .pad_to(pad)
                    .build(),
                2 => {
                    let msg = KvHeader {
                        op: KvOp::Get,
                        key: pad as u64,
                        value: 0,
                    };
                    PacketBuilder::kv(src, dst, &msg).build()
                }
                3 => {
                    let mut frame = udp.build();
                    frame.truncate(at.index(frame.len()));
                    frame
                }
                _ => {
                    let mut frame = udp.build();
                    let i = at.index(frame.len());
                    frame[i] ^= flip;
                    frame
                }
            }
        })
}

/// Every packet parses as its own (modelled) bytes do.
fn check(pool: &[Packet], model: &[Vec<u8>]) {
    for (pkt, bytes) in pool.iter().zip(model) {
        assert_eq!(pkt.bytes(), &bytes[..]);
        assert_eq!(pkt.parsed().copied(), parse_packet(bytes));
        assert!(pkt.parse_is_memoised());
    }
}

proptest! {
    #[test]
    fn memoised_parse_tracks_every_write(
        frame in arb_frame(),
        steps in prop::collection::vec(
            (0u8..6, any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<u8>()),
            1..40,
        ),
    ) {
        // `pool[i]` is a live packet, `model[i]` the bytes it must hold.
        let mut pool = vec![Packet::anonymous(frame.clone())];
        let mut model = vec![frame];
        prop_assert!(!pool[0].parse_is_memoised(), "the memo is lazy");
        check(&pool, &model);
        for (op, who, at, value) in steps {
            let i = who.index(pool.len());
            match op {
                // Fan out: the clone shares the frame and its memo.
                0 if pool.len() < 6 => {
                    pool.push(pool[i].clone());
                    model.push(model[i].clone());
                }
                // Drop a sibling (the survivor may become unique again).
                0 | 1 if pool.len() > 1 => {
                    pool.swap_remove(i);
                    model.swap_remove(i);
                }
                2 if !model[i].is_empty() => {
                    let j = at.index(model[i].len());
                    pool[i].bytes_mut()[j] = value;
                    model[i][j] = value;
                }
                3 => {
                    let more = [value; 3];
                    pool[i].extend(&more);
                    model[i].extend_from_slice(&more);
                }
                4 => {
                    let len = at.index(model[i].len() + 1);
                    pool[i].truncate(len);
                    model[i].truncate(len);
                }
                _ => {
                    let trimmed = pool[i].trim_to_network_header();
                    prop_assert_eq!(
                        trimmed,
                        edp_packet::Ipv4Header::trim_to_network_header(&mut model[i])
                    );
                }
            }
            // Checking fills every memo, so the next write always lands on
            // a memoised frame — shared (copy-on-write) or unique (in place).
            check(&pool, &model);
        }
    }
}
