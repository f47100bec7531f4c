//! Property-based tests for the capture codec: arbitrary packet sets
//! survive write → read unchanged, and no amount of truncation or byte
//! corruption can make the reader panic — it returns a typed
//! [`PcapError`] or (for corrupted-but-wellformed bytes) different
//! packets, never UB or an abort.

use edp_packet::{PcapFile, PcapPacket, MAX_FRAME_LEN};
use proptest::prelude::*;

/// Largest timestamp classic pcap can represent: 32-bit seconds plus
/// nanosecond fraction. The canonical writer truncates beyond this (a
/// format limitation, ~year 2106), so round-tripping is only promised
/// inside the representable range.
const MAX_CLASSIC_TS_NS: u64 = u32::MAX as u64 * 1_000_000_000 + 999_999_999;

fn arb_packet() -> impl Strategy<Value = PcapPacket> {
    (
        0u64..=MAX_CLASSIC_TS_NS,
        proptest::collection::vec(any::<u8>(), 0..512),
        0u32..1024,
    )
        .prop_map(|(ts_ns, data, extra)| {
            let orig_len = data.len() as u32 + extra;
            PcapPacket {
                ts_ns,
                orig_len,
                data,
            }
        })
}

fn arb_file() -> impl Strategy<Value = PcapFile> {
    proptest::collection::vec(arb_packet(), 0..24).prop_map(|packets| PcapFile { packets })
}

proptest! {
    /// Arbitrary packets (any timestamps, snapped or full, any bytes)
    /// survive the canonical writer and come back identical.
    #[test]
    fn write_read_round_trip(file in arb_file()) {
        let bytes = file.to_pcap_bytes();
        let back = PcapFile::parse(&bytes).expect("own output parses");
        prop_assert_eq!(&back, &file);
        // The writer is a fixpoint: re-encoding changes nothing.
        prop_assert_eq!(back.to_pcap_bytes(), bytes);
    }

    /// Every prefix of a valid capture either parses (records are
    /// self-delimiting, so a cut between records yields the prefix's
    /// packets... except classic requires whole records) or fails with a
    /// typed error — never a panic.
    #[test]
    fn truncation_never_panics(file in arb_file(), cut in 0usize..4096) {
        let bytes = file.to_pcap_bytes();
        let cut = cut.min(bytes.len());
        match PcapFile::parse(&bytes[..cut]) {
            Ok(f) => prop_assert!(f.packets.len() <= file.packets.len()),
            Err(e) => { let _ = e.to_string(); }
        }
    }

    /// Flipping any single byte of a valid capture never panics the
    /// reader: it parses (possibly to different packets) or returns a
    /// typed error.
    #[test]
    fn corruption_never_panics(file in arb_file(), pos in any::<prop::sample::Index>(), xor in 1u8..=255) {
        let mut bytes = file.to_pcap_bytes();
        let i = pos.index(bytes.len());
        bytes[i] ^= xor;
        match PcapFile::parse(&bytes) {
            Ok(f) => prop_assert!(f.packets.iter().map(|p| p.data.len()).sum::<usize>() <= bytes.len()),
            Err(e) => { let _ = e.to_string(); }
        }
    }

    /// Arbitrary garbage bytes never panic the reader.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = PcapFile::parse(&bytes);
    }

    /// Oversized record claims are rejected with the typed error, not an
    /// allocation attempt.
    #[test]
    fn oversized_record_is_typed(len in (MAX_FRAME_LEN + 1)..u32::MAX / 2) {
        let mut bytes = PcapFile::default().to_pcap_bytes();
        // Append a record header claiming `len` captured bytes.
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ts_sec
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ts_frac
        bytes.extend_from_slice(&len.to_le_bytes()); // incl_len
        bytes.extend_from_slice(&len.to_le_bytes()); // orig_len
        prop_assert_eq!(
            PcapFile::parse(&bytes),
            Err(edp_packet::PcapError::OversizedRecord { len })
        );
    }
}
