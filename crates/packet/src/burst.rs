//! An ordered group of frames.
//!
//! A [`Burst`] is a container and nothing more: the frames that arrived
//! at one simulated instant, in arrival order. The switch model is per
//! packet, so every consumer processes them exactly as it would one
//! frame at a time (DESIGN.md §12).

use crate::packet::Packet;

/// An ordered group of same-instant frames.
#[derive(Debug, Default)]
pub struct Burst {
    frames: Vec<Packet>,
}

impl Burst {
    /// An empty burst.
    pub fn new() -> Self {
        Burst { frames: Vec::new() }
    }

    /// An empty burst with room for `cap` frames.
    pub fn with_capacity(cap: usize) -> Self {
        Burst {
            frames: Vec::with_capacity(cap),
        }
    }

    /// Wraps an already-collected group of frames.
    pub fn from_frames(frames: Vec<Packet>) -> Self {
        Burst { frames }
    }

    /// Appends a frame, preserving arrival order.
    pub fn push(&mut self, pkt: Packet) {
        self.frames.push(pkt);
    }

    /// Number of frames in the burst.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the burst holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

impl From<Vec<Packet>> for Burst {
    fn from(frames: Vec<Packet>) -> Self {
        Burst::from_frames(frames)
    }
}

impl IntoIterator for Burst {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.frames.into_iter()
    }
}
