//! Stateful externs: register arrays, counters, and access accounting.
//!
//! A PISA pipeline stage owns single-ported SRAM; the number of register
//! *accesses* a program makes per packet is therefore a first-class design
//! constraint (it is the constraint §4 of the paper is about). Every
//! access through [`RegisterArray`] is counted so experiments can report
//! memory bandwidth demand, and the resource model can price state words.

use serde::{Deserialize, Serialize};

/// A register array extern: `size` entries of `u64` state.
///
/// Models P4's `register<bit<W>>(size)` for W ≤ 64 (every register in the
/// paper's examples is 32-bit). Out-of-range indices wrap modulo `size`,
/// matching what a hash-indexed hardware register file does.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterArray {
    name: String,
    cells: Vec<u64>,
    reads: u64,
    writes: u64,
}

impl RegisterArray {
    /// Allocates `size` zeroed registers under a diagnostic `name`.
    pub fn new(name: impl Into<String>, size: usize) -> Self {
        assert!(size > 0, "zero-size register array");
        RegisterArray {
            name: name.into(),
            cells: vec![0; size],
            reads: 0,
            writes: 0,
        }
    }

    /// Number of entries.
    pub fn size(&self) -> usize {
        self.cells.len()
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn idx(&self, index: usize) -> usize {
        index % self.cells.len()
    }

    /// Reads entry `index` (wrapping).
    pub fn read(&mut self, index: usize) -> u64 {
        self.reads += 1;
        crate::probe::record(
            &self.name,
            crate::ProbeClass::Plain,
            crate::ProbeAccess::Read,
        );
        self.cells[self.idx(index)]
    }

    /// Writes entry `index` (wrapping).
    pub fn write(&mut self, index: usize, value: u64) {
        self.writes += 1;
        crate::probe::record(
            &self.name,
            crate::ProbeClass::Plain,
            crate::ProbeAccess::Write,
        );
        let i = self.idx(index);
        self.cells[i] = value;
    }

    /// Atomic read-modify-write: one read + one write, like a stateful ALU
    /// operation that completes within a stage.
    pub fn rmw(&mut self, index: usize, f: impl FnOnce(u64) -> u64) -> u64 {
        let i = self.idx(index);
        self.reads += 1;
        self.writes += 1;
        crate::probe::record(
            &self.name,
            crate::ProbeClass::Plain,
            crate::ProbeAccess::Rmw,
        );
        let v = f(self.cells[i]);
        self.cells[i] = v;
        v
    }

    /// Saturating add convenience (the enqueue-handler idiom).
    pub fn add(&mut self, index: usize, delta: u64) -> u64 {
        self.rmw(index, |v| v.saturating_add(delta))
    }

    /// Saturating subtract convenience (the dequeue-handler idiom).
    pub fn sub(&mut self, index: usize, delta: u64) -> u64 {
        self.rmw(index, |v| v.saturating_sub(delta))
    }

    /// Zeroes all entries — the timer-event reset operation. Counts as one
    /// write per cell (hardware sweeps the array).
    pub fn reset(&mut self) {
        self.writes += self.cells.len() as u64;
        crate::probe::record(
            &self.name,
            crate::ProbeClass::Plain,
            crate::ProbeAccess::Write,
        );
        self.cells.fill(0);
    }

    /// Peeks without counting an access (observability/testing only).
    pub fn peek(&self, index: usize) -> u64 {
        self.cells[self.idx(index)]
    }

    /// Total counted reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total counted writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// State footprint in 64-bit words (priced by `edp-resources`).
    pub fn state_words(&self) -> usize {
        self.cells.len()
    }

    /// Number of entries with a non-zero value (e.g. "active flows").
    pub fn nonzero_entries(&self) -> usize {
        self.cells.iter().filter(|&&v| v != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut r = RegisterArray::new("buf", 8);
        r.write(3, 42);
        assert_eq!(r.read(3), 42);
        assert_eq!(r.read(4), 0);
        assert_eq!(r.name(), "buf");
        assert_eq!(r.size(), 8);
    }

    #[test]
    fn wrapping_index() {
        let mut r = RegisterArray::new("w", 4);
        r.write(7, 9); // 7 % 4 == 3
        assert_eq!(r.read(3), 9);
    }

    #[test]
    fn rmw_and_helpers() {
        let mut r = RegisterArray::new("q", 2);
        assert_eq!(r.add(0, 100), 100);
        assert_eq!(r.add(0, 50), 150);
        assert_eq!(r.sub(0, 200), 0, "saturating");
        assert_eq!(r.rmw(1, |v| v + 7), 7);
    }

    #[test]
    fn access_accounting() {
        let mut r = RegisterArray::new("acct", 4);
        r.read(0);
        r.write(0, 1);
        r.rmw(0, |v| v);
        assert_eq!(r.reads(), 2);
        assert_eq!(r.writes(), 2);
        r.reset();
        assert_eq!(r.writes(), 6, "reset writes every cell");
        assert_eq!(r.peek(0), 0);
        assert_eq!(r.reads(), 2, "peek not counted");
    }

    #[test]
    fn nonzero_entries() {
        let mut r = RegisterArray::new("nz", 8);
        r.write(1, 5);
        r.write(2, 5);
        r.write(2, 0);
        assert_eq!(r.nonzero_entries(), 1);
    }
}
