//! Property: every mutating `MatchTable` operation bumps `generation`.
//!
//! Anything derived from lookup results keys its validity on the table
//! generation counter; a mutation that forgets to bump it would leave
//! that state silently stale. This pins `insert`, `remove_where`
//! (including predicates that remove nothing), and `clear`.

use edp_pisa::{ipv4_lpm_schema, FieldMatch, MatchTable, TableEntry};
use proptest::prelude::*;

fn table_with_routes(routes: &[(u32, u8)]) -> MatchTable<u32> {
    let mut t = MatchTable::new("routes", ipv4_lpm_schema());
    for (i, &(addr, plen)) in routes.iter().enumerate() {
        let plen = plen.min(32);
        t.insert(TableEntry {
            fields: vec![FieldMatch::Lpm {
                value: addr as u64,
                prefix_len: plen,
            }],
            priority: 0,
            action: i as u32,
        });
    }
    t
}

proptest! {
    #[test]
    fn mutations_always_bump_generation(
        routes in prop::collection::vec((any::<u32>(), 0u8..=32), 1..20),
        threshold in any::<u32>(),
    ) {
        let mut t = table_with_routes(&routes);
        let after_inserts = t.generation();
        prop_assert_eq!(after_inserts, routes.len() as u64,
            "each insert bumps generation once");

        // remove_where bumps even when the predicate removes nothing.
        let g0 = t.generation();
        t.remove_where(|e| e.action >= threshold);
        prop_assert_eq!(t.generation(), g0 + 1);
        let g1 = t.generation();
        t.remove_where(|_| false);
        prop_assert_eq!(t.generation(), g1 + 1);

        let g2 = t.generation();
        t.clear();
        prop_assert_eq!(t.generation(), g2 + 1);
        prop_assert_eq!(t.entries().len(), 0);
    }
}
