//! Match-action tables.
//!
//! [`MatchTable<A>`] models a P4 table: a key schema (one [`MatchKind`]
//! per field), prioritized entries, and an action payload `A` chosen by
//! the control plane. Key fields are `u64` (wide enough for every header
//! field the apps match on). Lookup semantics follow P4 targets:
//!
//! * all-exact tables resolve via a hash map (O(1));
//! * single-field LPM tables with uniform priority resolve via
//!   per-prefix-length hash buckets probed longest-first (O(#distinct
//!   prefix lengths), independent of entry count);
//! * everything else scans entries in descending-priority order with an
//!   early exit once no remaining entry can beat the current winner
//!   (highest numeric priority wins; ties resolve by total matched LPM
//!   bits, then install order).
//!
//! All three paths return bit-for-bit the same winner as a naive full
//! scan; the index is an acceleration structure, never a semantic change.
//! Both hash indexes use FNV-1a ([`FnvBuildHasher`]), not SipHash: only
//! installed entries are inserted, so a packet's key can probe a bucket
//! but never grow one.

use edp_packet::FnvBuildHasher;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;

/// How one key field matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchKind {
    /// Field must equal the entry value.
    Exact,
    /// Longest-prefix match on the low `width` bits.
    Lpm {
        /// Field width in bits (for prefix semantics).
        width: u8,
    },
    /// Value/mask match.
    Ternary,
    /// Inclusive range match.
    Range,
}

/// One field of an entry's match key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldMatch {
    /// Matches exactly this value.
    Exact(u64),
    /// Matches when the top `prefix_len` bits (of the field's width) agree.
    Lpm {
        /// Prefix value (already masked).
        value: u64,
        /// Number of significant leading bits.
        prefix_len: u8,
    },
    /// Matches when `key & mask == value & mask`.
    Ternary {
        /// Comparison value.
        value: u64,
        /// Significant-bit mask.
        mask: u64,
    },
    /// Matches when `lo <= key <= hi`.
    Range {
        /// Low bound (inclusive).
        lo: u64,
        /// High bound (inclusive).
        hi: u64,
    },
    /// Wildcard: matches anything (ternary with mask 0).
    Any,
}

impl FieldMatch {
    fn matches(&self, kind: MatchKind, key: u64) -> bool {
        match (self, kind) {
            (FieldMatch::Exact(v), _) => key == *v,
            (FieldMatch::Lpm { value, prefix_len }, MatchKind::Lpm { width }) => {
                let width = width as u32;
                let plen = *prefix_len as u32;
                debug_assert!(plen <= width);
                if plen == 0 {
                    return true;
                }
                let shift = width - plen;
                (key >> shift) == (value >> shift)
            }
            (FieldMatch::Ternary { value, mask }, _) => key & mask == value & mask,
            (FieldMatch::Range { lo, hi }, _) => (*lo..=*hi).contains(&key),
            (FieldMatch::Any, _) => true,
            // An LPM FieldMatch against a non-LPM column: treat the prefix
            // length as exact when full-width, else reject loudly in debug.
            (FieldMatch::Lpm { value, .. }, _) => key == *value,
        }
    }
}

/// A table entry: per-field matches, a priority, and an action payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableEntry<A> {
    /// One match per key field, in schema order.
    pub fields: Vec<FieldMatch>,
    /// Higher wins among multiple matches.
    pub priority: i64,
    /// The action data returned on hit.
    pub action: A,
}

/// A rejected table mutation (see [`MatchTable::try_insert`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The entry's field count doesn't match the key schema.
    ArityMismatch {
        /// Diagnostic table name.
        table: String,
        /// Schema arity.
        expected: usize,
        /// Entry arity.
        got: usize,
    },
    /// A non-exact match aimed at an all-exact table; serving it would
    /// demote the hash index to a linear scan.
    NonExactField {
        /// Diagnostic table name.
        table: String,
        /// Index of the offending field (schema order).
        field: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "table {table}: entry arity {got} != schema arity {expected}"
            ),
            TableError::NonExactField { table, field } => write!(
                f,
                "table {table}: non-exact match in field {field} of an all-exact table"
            ),
        }
    }
}

impl std::error::Error for TableError {}

/// Per-prefix-length hash buckets for a single-field LPM table.
///
/// Eligible while every installed entry is `FieldMatch::Lpm` at one shared
/// priority (the common case: routes installed with priority 0 and
/// longest-prefix ordering left to the table). The moment an entry breaks
/// that shape the table silently demotes itself to the sorted scan path —
/// correctness never depends on the index staying eligible.
#[derive(Debug, Clone)]
struct LpmIndex {
    width: u8,
    /// Priority shared by every indexed entry (None until the first insert).
    uniform_priority: Option<i64>,
    /// `(prefix_len, masked-prefix → entry index)`, sorted longest-first.
    /// Only prefix lengths ≥ 1 live here; duplicates keep the first install.
    buckets: Vec<(u8, HashMap<u64, usize, FnvBuildHasher>)>,
    /// The /0 catch-all (first installed), probed last.
    default: Option<usize>,
}

impl LpmIndex {
    fn new(width: u8) -> Self {
        LpmIndex {
            width,
            uniform_priority: None,
            buckets: Vec::new(),
            default: None,
        }
    }

    fn add(&mut self, idx: usize, value: u64, prefix_len: u8, priority: i64) {
        self.uniform_priority = Some(priority);
        if prefix_len == 0 {
            if self.default.is_none() {
                self.default = Some(idx);
            }
            return;
        }
        let shift = self.width as u32 - prefix_len as u32;
        let pos = self.buckets.partition_point(|(p, _)| *p > prefix_len);
        if self.buckets.get(pos).map(|(p, _)| *p) != Some(prefix_len) {
            self.buckets.insert(pos, (prefix_len, HashMap::default()));
        }
        // First install wins on duplicate prefixes, matching the scan
        // path's earliest-index tie-break.
        self.buckets[pos].1.entry(value >> shift).or_insert(idx);
    }

    fn lookup(&self, key: u64) -> Option<usize> {
        for (plen, bucket) in &self.buckets {
            let shift = self.width as u32 - *plen as u32;
            if let Some(&i) = bucket.get(&(key >> shift)) {
                return Some(i);
            }
        }
        self.default
    }
}

/// The acceleration structure backing [`MatchTable::lookup`].
#[derive(Debug, Clone)]
enum Index {
    /// All-exact schema: key fields → entry index.
    Exact(HashMap<Vec<u64>, usize, FnvBuildHasher>),
    /// Single-field LPM schema with uniform priority.
    Lpm(LpmIndex),
    /// Entry indices sorted by (priority desc, install order asc).
    Scan(Vec<usize>),
}

/// A match-action table with key schema and entries.
#[derive(Debug, Clone)]
pub struct MatchTable<A> {
    name: String,
    schema: Vec<MatchKind>,
    entries: Vec<TableEntry<A>>,
    index: Index,
    /// Interior-mutable so [`lookup`](Self::lookup) works through `&self`
    /// (read-only probing by the analyzer; lookups are observations, not
    /// mutations).
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<A> MatchTable<A> {
    /// Creates an empty table with the given key schema.
    pub fn new(name: impl Into<String>, schema: Vec<MatchKind>) -> Self {
        let index = if schema.iter().all(|k| matches!(k, MatchKind::Exact)) {
            Index::Exact(HashMap::default())
        } else if let [MatchKind::Lpm { width }] = schema[..] {
            Index::Lpm(LpmIndex::new(width))
        } else {
            Index::Scan(Vec::new())
        };
        MatchTable {
            name: name.into(),
            schema,
            entries: Vec::new(),
            index,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs an entry. For a single-field LPM table, pass priority 0 and
    /// longest-prefix ordering is handled internally (prefix length is the
    /// effective priority). Replaces an identical-key exact entry.
    ///
    /// A non-exact match installed into an all-exact table demotes the
    /// table to the sorted scan path (same rule as LPM ineligibility) —
    /// the hash index simply can't serve wildcards, but the entry is
    /// semantically fine. Use [`try_insert`](Self::try_insert) to reject
    /// such entries instead, and `edp-analyze` (EDP-E006) to flag them
    /// statically.
    ///
    /// # Panics
    /// Panics if the entry's field count doesn't match the schema.
    pub fn insert(&mut self, entry: TableEntry<A>) {
        assert_eq!(
            entry.fields.len(),
            self.schema.len(),
            "entry arity != schema arity in table {}",
            self.name
        );
        self.insert_indexed(entry);
    }

    /// Installs an entry, rejecting shapes the table cannot take with a
    /// typed [`TableError`] instead of panicking or silently degrading:
    /// arity mismatches, and non-exact matches aimed at an all-exact
    /// table (which [`insert`](Self::insert) would accept by demoting the
    /// index). On `Err` the table is untouched.
    pub fn try_insert(&mut self, entry: TableEntry<A>) -> Result<(), TableError> {
        if entry.fields.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                table: self.name.clone(),
                expected: self.schema.len(),
                got: entry.fields.len(),
            });
        }
        if matches!(self.index, Index::Exact(_)) {
            if let Some(field) = entry
                .fields
                .iter()
                .position(|f| !matches!(f, FieldMatch::Exact(_)))
            {
                return Err(TableError::NonExactField {
                    table: self.name.clone(),
                    field,
                });
            }
        }
        self.insert_indexed(entry);
        Ok(())
    }

    /// The index-maintaining tail of insertion; arity already checked.
    fn insert_indexed(&mut self, entry: TableEntry<A>) {
        if let Index::Exact(idx) = &mut self.index {
            if entry
                .fields
                .iter()
                .all(|f| matches!(f, FieldMatch::Exact(_)))
            {
                let key: Vec<u64> = entry
                    .fields
                    .iter()
                    .map(|f| match f {
                        FieldMatch::Exact(v) => *v,
                        _ => unreachable!("checked all-exact above"),
                    })
                    .collect();
                if let Some(&i) = idx.get(&key) {
                    self.entries[i] = entry;
                } else {
                    idx.insert(key, self.entries.len());
                    self.entries.push(entry);
                }
                return;
            }
            // Reachable from control-plane rule installs: a wildcard/range
            // aimed at an exact table. The scan path evaluates any
            // `FieldMatch` against any column kind, so demote rather than
            // abort the process.
            self.demote_to_scan();
        }
        if let Index::Lpm(lpm) = &self.index {
            let eligible = matches!(entry.fields[0], FieldMatch::Lpm { .. })
                && lpm.uniform_priority.is_none_or(|p| p == entry.priority);
            if !eligible {
                self.demote_to_scan();
            }
        }
        let idx = self.entries.len();
        match &mut self.index {
            Index::Exact(_) => unreachable!("handled or demoted above"),
            Index::Lpm(lpm) => {
                let FieldMatch::Lpm { value, prefix_len } = entry.fields[0] else {
                    unreachable!("eligibility checked above");
                };
                lpm.add(idx, value, prefix_len, entry.priority);
            }
            Index::Scan(order) => {
                let entries = &self.entries;
                let pos = order.partition_point(|&i| entries[i].priority >= entry.priority);
                order.insert(pos, idx);
            }
        }
        self.entries.push(entry);
    }

    /// Looks up `key`, returning the winning entry's action.
    ///
    /// # Panics
    /// Panics if `key` arity doesn't match the schema.
    pub fn lookup(&self, key: &[u64]) -> Option<&A> {
        assert_eq!(key.len(), self.schema.len(), "key arity mismatch");
        match self.lookup_index(key) {
            Some(i) => {
                self.hits.set(self.hits.get().saturating_add(1));
                Some(&self.entries[i].action)
            }
            None => {
                self.misses.set(self.misses.get().saturating_add(1));
                None
            }
        }
    }

    fn lookup_index(&self, key: &[u64]) -> Option<usize> {
        match &self.index {
            Index::Exact(idx) => idx.get(key).copied(),
            Index::Lpm(lpm) => lpm.lookup(key[0]),
            Index::Scan(order) => self.scan_lookup(order, key),
        }
    }

    /// Priority-ordered scan. `order` holds entry indices sorted by
    /// (priority desc, install order asc), so once a match exists no entry
    /// at strictly lower priority can win and the loop exits early; the
    /// remainder of the equal-priority run is still examined to maximize
    /// matched LPM bits (then earliest install, which iteration order
    /// gives for free).
    fn scan_lookup(&self, order: &[usize], key: &[u64]) -> Option<usize> {
        let mut best: Option<(i64, i64, usize)> = None; // (priority, lpm_bits, idx)
        'entry: for &i in order {
            let e = &self.entries[i];
            if let Some((bp, _, _)) = best {
                if e.priority < bp {
                    break;
                }
            }
            let mut lpm_bits = 0i64;
            for ((fm, &kind), &k) in e.fields.iter().zip(&self.schema).zip(key) {
                if !fm.matches(kind, k) {
                    continue 'entry;
                }
                if let FieldMatch::Lpm { prefix_len, .. } = fm {
                    lpm_bits += *prefix_len as i64;
                }
            }
            match best {
                None => best = Some((e.priority, lpm_bits, i)),
                Some((_, bl, _)) if lpm_bits > bl => best = Some((e.priority, lpm_bits, i)),
                Some(_) => {}
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Rebuilds the sorted scan order from scratch and switches to it.
    fn demote_to_scan(&mut self) {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.entries[i].priority), i));
        self.index = Index::Scan(order);
    }

    /// Rebuilds whichever index is active from the current entry list
    /// (after bulk removal).
    fn rebuild_index(&mut self) {
        match &mut self.index {
            Index::Exact(idx) => {
                idx.clear();
                for (i, e) in self.entries.iter().enumerate() {
                    let key: Vec<u64> = e
                        .fields
                        .iter()
                        .map(|f| match f {
                            FieldMatch::Exact(v) => *v,
                            _ => unreachable!("all-exact invariant"),
                        })
                        .collect();
                    idx.insert(key, i);
                }
            }
            Index::Lpm(lpm) => {
                let mut fresh = LpmIndex::new(lpm.width);
                for (i, e) in self.entries.iter().enumerate() {
                    let FieldMatch::Lpm { value, prefix_len } = e.fields[0] else {
                        unreachable!("lpm eligibility invariant");
                    };
                    fresh.add(i, value, prefix_len, e.priority);
                }
                *lpm = fresh;
            }
            Index::Scan(_) => self.demote_to_scan(),
        }
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.rebuild_index();
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// The key schema, one [`MatchKind`] per field.
    pub fn schema(&self) -> &[MatchKind] {
        &self.schema
    }

    /// The installed entries, in install order.
    pub fn entries(&self) -> &[TableEntry<A>] {
        &self.entries
    }

    /// An action-erased snapshot of the table for rule analysis
    /// (`edp-analyze` works on shapes so it needs no knowledge of `A`).
    pub fn shape(&self) -> TableShape {
        TableShape {
            name: self.name.clone(),
            schema: self.schema.clone(),
            entries: self
                .entries
                .iter()
                .map(|e| ShapeEntry {
                    fields: e.fields.clone(),
                    priority: e.priority,
                })
                .collect(),
        }
    }
}

/// An action-erased snapshot of a [`MatchTable`]: schema plus the match
/// side of every entry, in install order. This is what rule-level static
/// analysis (shadowing, duplicate prefixes, missing default) consumes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableShape {
    /// Diagnostic table name.
    pub name: String,
    /// Key schema.
    pub schema: Vec<MatchKind>,
    /// Match side of each entry, in install order.
    pub entries: Vec<ShapeEntry>,
}

/// The match side of one installed entry (see [`TableShape`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShapeEntry {
    /// One match per key field, in schema order.
    pub fields: Vec<FieldMatch>,
    /// Entry priority (higher wins).
    pub priority: i64,
}

/// Builds an IPv4 LPM route table schema (single 32-bit LPM field).
pub fn ipv4_lpm_schema() -> Vec<MatchKind> {
    vec![MatchKind::Lpm { width: 32 }]
}

/// Helper to install an IPv4 prefix route into a single-LPM-field table.
pub fn insert_ipv4_route<A>(
    table: &mut MatchTable<A>,
    addr: std::net::Ipv4Addr,
    prefix_len: u8,
    action: A,
) {
    assert!(prefix_len <= 32);
    let value = u32::from(addr) as u64;
    table.insert(TableEntry {
        fields: vec![FieldMatch::Lpm { value, prefix_len }],
        priority: 0,
        action,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// An all-exact single-field entry.
    fn exact<A>(key: u64, action: A) -> TableEntry<A> {
        TableEntry {
            fields: vec![FieldMatch::Exact(key)],
            priority: 0,
            action,
        }
    }

    #[test]
    fn exact_table_hit_miss() {
        let mut t: MatchTable<&str> = MatchTable::new("mac", vec![MatchKind::Exact]);
        t.insert(exact(42, "port1"));
        assert_eq!(t.lookup(&[42]), Some(&"port1"));
        assert_eq!(t.lookup(&[43]), None);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn hit_miss_counters_saturate_instead_of_wrapping() {
        let mut t: MatchTable<&str> = MatchTable::new("mac", vec![MatchKind::Exact]);
        t.insert(exact(42, "port1"));
        t.hits.set(u64::MAX);
        t.misses.set(u64::MAX - 1);
        assert_eq!(t.lookup(&[42]), Some(&"port1"));
        assert_eq!(t.hits(), u64::MAX, "hit counter pegs at the ceiling");
        assert_eq!(t.lookup(&[43]), None);
        assert_eq!(t.lookup(&[43]), None);
        assert_eq!(t.misses(), u64::MAX, "miss counter pegs at the ceiling");
    }

    #[test]
    fn exact_replaces_duplicate_key() {
        let mut t: MatchTable<u32> = MatchTable::new("x", vec![MatchKind::Exact]);
        t.insert(exact(1, 10));
        t.insert(exact(1, 20));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&[1]), Some(&20));
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t: MatchTable<&str> = MatchTable::new("routes", ipv4_lpm_schema());
        insert_ipv4_route(&mut t, Ipv4Addr::new(10, 0, 0, 0), 8, "coarse");
        insert_ipv4_route(&mut t, Ipv4Addr::new(10, 1, 0, 0), 16, "fine");
        insert_ipv4_route(&mut t, Ipv4Addr::new(0, 0, 0, 0), 0, "default");
        let key = |a: Ipv4Addr| vec![u32::from(a) as u64];
        assert_eq!(t.lookup(&key(Ipv4Addr::new(10, 1, 2, 3))), Some(&"fine"));
        assert_eq!(t.lookup(&key(Ipv4Addr::new(10, 9, 2, 3))), Some(&"coarse"));
        assert_eq!(
            t.lookup(&key(Ipv4Addr::new(192, 168, 0, 1))),
            Some(&"default")
        );
    }

    #[test]
    fn lpm_duplicate_prefix_first_install_wins() {
        let mut t: MatchTable<&str> = MatchTable::new("routes", ipv4_lpm_schema());
        insert_ipv4_route(&mut t, Ipv4Addr::new(10, 0, 0, 0), 8, "first");
        insert_ipv4_route(&mut t, Ipv4Addr::new(10, 0, 0, 0), 8, "second");
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.lookup(&[u32::from(Ipv4Addr::new(10, 5, 5, 5)) as u64]),
            Some(&"first")
        );
    }

    #[test]
    fn lpm_mixed_priority_demotes_to_scan() {
        // Differing priorities break bucket eligibility; the table must
        // fall back to the scan path and honour priority over prefix len.
        let mut t: MatchTable<&str> = MatchTable::new("routes", ipv4_lpm_schema());
        insert_ipv4_route(&mut t, Ipv4Addr::new(10, 1, 0, 0), 16, "fine");
        t.insert(TableEntry {
            fields: vec![FieldMatch::Lpm {
                value: u32::from(Ipv4Addr::new(10, 0, 0, 0)) as u64,
                prefix_len: 8,
            }],
            priority: 100,
            action: "pinned",
        });
        assert_eq!(
            t.lookup(&[u32::from(Ipv4Addr::new(10, 1, 2, 3)) as u64]),
            Some(&"pinned")
        );
    }

    #[test]
    fn lpm_wildcard_field_demotes_to_scan() {
        let mut t: MatchTable<&str> = MatchTable::new("routes", ipv4_lpm_schema());
        insert_ipv4_route(&mut t, Ipv4Addr::new(10, 1, 0, 0), 16, "fine");
        t.insert(TableEntry {
            fields: vec![FieldMatch::Any],
            priority: 0,
            action: "wild",
        });
        // Longest prefix still beats the wildcard (more matched LPM bits).
        assert_eq!(
            t.lookup(&[u32::from(Ipv4Addr::new(10, 1, 2, 3)) as u64]),
            Some(&"fine")
        );
        assert_eq!(
            t.lookup(&[u32::from(Ipv4Addr::new(192, 168, 0, 1)) as u64]),
            Some(&"wild")
        );
    }

    #[test]
    fn ternary_priority() {
        let mut t: MatchTable<&str> = MatchTable::new("acl", vec![MatchKind::Ternary]);
        t.insert(TableEntry {
            fields: vec![FieldMatch::Ternary {
                value: 0x80,
                mask: 0x80,
            }],
            priority: 10,
            action: "high-bit",
        });
        t.insert(TableEntry {
            fields: vec![FieldMatch::Any],
            priority: 1,
            action: "any",
        });
        assert_eq!(t.lookup(&[0xFF]), Some(&"high-bit"));
        assert_eq!(t.lookup(&[0x01]), Some(&"any"));
    }

    #[test]
    fn ternary_priority_order_independent_of_install_order() {
        // Low priority installed first: the sorted scan must still pick
        // the higher-priority entry, and early exit must not skip it.
        let mut t: MatchTable<&str> = MatchTable::new("acl", vec![MatchKind::Ternary]);
        t.insert(TableEntry {
            fields: vec![FieldMatch::Any],
            priority: 1,
            action: "any",
        });
        t.insert(TableEntry {
            fields: vec![FieldMatch::Ternary {
                value: 0x80,
                mask: 0x80,
            }],
            priority: 10,
            action: "high-bit",
        });
        assert_eq!(t.lookup(&[0xFF]), Some(&"high-bit"));
        assert_eq!(t.lookup(&[0x01]), Some(&"any"));
    }

    #[test]
    fn range_match() {
        let mut t: MatchTable<&str> = MatchTable::new("ports", vec![MatchKind::Range]);
        t.insert(TableEntry {
            fields: vec![FieldMatch::Range { lo: 1000, hi: 2000 }],
            priority: 0,
            action: "mid",
        });
        assert_eq!(t.lookup(&[1000]), Some(&"mid"));
        assert_eq!(t.lookup(&[2000]), Some(&"mid"));
        assert_eq!(t.lookup(&[2001]), None);
    }

    #[test]
    fn multi_field_key() {
        // (exact dst, range port) — a small ACL.
        let mut t: MatchTable<u8> =
            MatchTable::new("acl2", vec![MatchKind::Exact, MatchKind::Range]);
        t.insert(TableEntry {
            fields: vec![FieldMatch::Exact(7), FieldMatch::Range { lo: 0, hi: 1023 }],
            priority: 5,
            action: 1,
        });
        assert_eq!(t.lookup(&[7, 80]), Some(&1));
        assert_eq!(t.lookup(&[7, 8080]), None);
        assert_eq!(t.lookup(&[8, 80]), None);
    }

    #[test]
    fn install_order_breaks_ties() {
        let mut t: MatchTable<&str> = MatchTable::new("tie", vec![MatchKind::Ternary]);
        t.insert(TableEntry {
            fields: vec![FieldMatch::Any],
            priority: 0,
            action: "first",
        });
        t.insert(TableEntry {
            fields: vec![FieldMatch::Any],
            priority: 0,
            action: "second",
        });
        assert_eq!(t.lookup(&[1]), Some(&"first"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let t: MatchTable<u8> = MatchTable::new("a", vec![MatchKind::Exact]);
        t.lookup(&[1, 2]);
    }

    #[test]
    fn non_exact_entry_demotes_exact_table_instead_of_panicking() {
        // Regression: this configuration used to abort the whole process
        // with "non-exact match ... in all-exact table".
        let mut t: MatchTable<&str> = MatchTable::new("mac", vec![MatchKind::Exact]);
        t.insert(exact(42, "port1"));
        t.insert(TableEntry {
            fields: vec![FieldMatch::Any],
            priority: -1,
            action: "flood",
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(&[42]), Some(&"port1"), "exact entry still wins");
        assert_eq!(t.lookup(&[7]), Some(&"flood"), "wildcard now reachable");
    }

    #[test]
    fn try_insert_rejects_non_exact_without_mutating() {
        let mut t: MatchTable<&str> = MatchTable::new("mac", vec![MatchKind::Exact]);
        t.insert(exact(42, "port1"));
        let err = t
            .try_insert(TableEntry {
                fields: vec![FieldMatch::Range { lo: 0, hi: 10 }],
                priority: 0,
                action: "bad",
            })
            .expect_err("non-exact into exact table must be rejected");
        assert_eq!(
            err,
            TableError::NonExactField {
                table: "mac".into(),
                field: 0
            }
        );
        assert!(err.to_string().contains("all-exact"));
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(&[42]),
            Some(&"port1"),
            "index still exact and live"
        );
    }

    #[test]
    fn try_insert_rejects_arity_mismatch_and_accepts_good_entries() {
        let mut t: MatchTable<u8> =
            MatchTable::new("pair", vec![MatchKind::Exact, MatchKind::Exact]);
        let err = t
            .try_insert(TableEntry {
                fields: vec![FieldMatch::Exact(1)],
                priority: 0,
                action: 1,
            })
            .expect_err("arity mismatch");
        assert!(matches!(
            err,
            TableError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        t.try_insert(TableEntry {
            fields: vec![FieldMatch::Exact(1), FieldMatch::Exact(2)],
            priority: 0,
            action: 9,
        })
        .expect("well-formed entry");
        assert_eq!(t.lookup(&[1, 2]), Some(&9));
    }

    #[test]
    fn try_insert_allows_non_exact_on_scan_tables() {
        let mut t: MatchTable<&str> = MatchTable::new("acl", vec![MatchKind::Ternary]);
        t.try_insert(TableEntry {
            fields: vec![FieldMatch::Any],
            priority: 0,
            action: "any",
        })
        .expect("scan tables take any match kind");
        assert_eq!(t.lookup(&[5]), Some(&"any"));
    }
}
