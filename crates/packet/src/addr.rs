//! Link-layer addressing.

use core::fmt;
use serde::{Deserialize, Serialize};

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-zero address, used as "unset".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// A locally administered unicast address derived from a small id;
    /// convenient for synthetic topologies (`02:00:00:00:00:<id>` style).
    pub const fn from_id(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        assert_eq!(
            MacAddr([0, 1, 2, 0xaa, 0xbb, 0xff]).to_string(),
            "00:01:02:aa:bb:ff"
        );
    }

    #[test]
    fn from_id_unique_and_local() {
        assert_ne!(MacAddr::from_id(1), MacAddr::from_id(2));
        assert_eq!(MacAddr::from_id(0x01020304).octets(), [2, 0, 1, 2, 3, 4]);
    }
}
