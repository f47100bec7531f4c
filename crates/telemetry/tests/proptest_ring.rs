//! `Ring` against a reference model: a `VecDeque` that pops its front
//! when full, which is the queue the ring is written in place to be.

use edp_telemetry::Ring;
use proptest::prelude::*;
use std::collections::VecDeque;

/// One step: push a value, or (rarely) clear.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..16, any::<u32>()).prop_map(|(k, v)| if k == 0 { Op::Clear } else { Op::Push(v) })
}

proptest! {
    /// After every step, across several wraps of a small ring: the same
    /// entries oldest first, the same `len`, `dropped`, `front` and
    /// `back` as the model.
    #[test]
    fn ring_matches_a_vecdeque_model(
        capacity in 0usize..9,
        ops in prop::collection::vec(arb_op(), 0..120),
    ) {
        let mut ring = Ring::new(capacity);
        let cap = capacity.max(1);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut dropped = 0u64;
        for op in ops {
            match op {
                Op::Push(v) => {
                    ring.push(v);
                    if model.len() == cap {
                        model.pop_front();
                        dropped += 1;
                    }
                    model.push_back(v);
                }
                Op::Clear => {
                    ring.clear();
                    model.clear();
                    dropped = 0;
                }
            }
            prop_assert_eq!(ring.iter().copied().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.capacity(), cap);
            prop_assert_eq!(ring.dropped(), dropped);
            prop_assert_eq!(ring.front(), model.front());
            prop_assert_eq!(ring.back(), model.back());
        }
    }
}
