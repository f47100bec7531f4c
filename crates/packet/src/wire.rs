//! Big-endian wire codec helpers and the Internet checksum.

/// Reads a big-endian `u16` at `off`. Caller must bounds-check.
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

/// Reads a big-endian `u32` at `off`. Caller must bounds-check.
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Reads a big-endian `u64` at `off`. Caller must bounds-check.
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_be_bytes(b)
}

/// Writes a big-endian `u16` at `off`.
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// RFC 1071 Internet checksum over `data` (one's-complement sum folded to
/// 16 bits, then complemented). An odd trailing byte is padded with zero.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data, 0))
}

/// One's-complement 32-bit accumulation of 16-bit big-endian words,
/// starting from `init`; used to chain pseudo-header and payload sums.
///
/// Internally sums native-endian 32-bit lanes into two 64-bit
/// accumulators: because 2^16 ≡ 1 (mod 0xffff), any word grouping is
/// congruent to the 16-bit-word sum, and the one's-complement sum is
/// byte-order independent (RFC 1071 §2(B)), so the lanes fold to 16 bits
/// and are byte-swapped once at the end instead of once per load. This
/// runs on every checksum verify of every parsed frame.
pub fn sum_words(data: &[u8], init: u32) -> u32 {
    let mut chunks = data.chunks_exact(8);
    let (mut s0, mut s1) = (0u64, 0u64);
    for c in &mut chunks {
        s0 += u32::from_ne_bytes([c[0], c[1], c[2], c[3]]) as u64;
        s1 += u32::from_ne_bytes([c[4], c[5], c[6], c[7]]) as u64;
    }
    let mut sum = s0 + s1;
    let mut pairs = chunks.remainder().chunks_exact(2);
    for c in &mut pairs {
        sum += u16::from_ne_bytes([c[0], c[1]]) as u64;
    }
    if let [last] = pairs.remainder() {
        sum += u16::from_ne_bytes([*last, 0]) as u64;
    }
    // End-around-carry folds 64 → 32 → 16 bits, each congruent (mod
    // 0xffff) to its input, then the one swap back to big-endian words.
    let (s, carry) = (sum as u32).overflowing_add((sum >> 32) as u32);
    let s = s + carry as u32;
    let (s, carry) = (s as u16).overflowing_add((s >> 16) as u16);
    let s = s + carry as u16;
    let (sum, carry) = init.overflowing_add(u16::from_be(s) as u32);
    sum + carry as u32
}

/// Folds a 32-bit one's-complement accumulator to 16 bits.
pub fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_integers() {
        let mut b = vec![0u8; 16];
        put_u16(&mut b, 0, 0xBEEF);
        b[2..6].copy_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        b[6..14].copy_from_slice(&0x0123_4567_89AB_CDEFu64.to_be_bytes());
        assert_eq!(get_u16(&b, 0), 0xBEEF);
        assert_eq!(get_u32(&b, 2), 0xDEAD_BEEF);
        assert_eq!(get_u64(&b, 6), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn checksum_rfc1071_example() {
        // Canonical example from RFC 1071 §3: words 0x0001, 0xf203,
        // 0xf4f5, 0xf6f7 sum to 0xddf2 before complement.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_of_zeroes_is_ffff() {
        assert_eq!(internet_checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn checksum_validates_to_zero() {
        // Inserting the checksum into the data makes the folded sum 0xffff.
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let ck = internet_checksum(&data);
        put_u16(&mut data, 10, ck);
        assert_eq!(fold(sum_words(&data, 0)), 0xffff);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(internet_checksum(&[0xab]), !0xab00);
    }
}
