//! Property-based model tests: every [`rig_bitset::Bitset`] operation must
//! agree with `BTreeSet<u32>` as the reference model.

use proptest::prelude::*;
use rig_bitset::Bitset;
use std::collections::BTreeSet;

fn values() -> impl Strategy<Value = Vec<u32>> {
    // mix small dense values with sparse high ones to cross container kinds
    prop::collection::vec(
        prop_oneof![0u32..5_000, 60_000u32..70_000, 1_000_000u32..1_000_100],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn construction_and_iteration(vals in values()) {
        let model: BTreeSet<u32> = vals.iter().copied().collect();
        let set = Bitset::from_slice(&vals);
        prop_assert_eq!(set.len(), model.len() as u64);
        prop_assert_eq!(set.to_vec(), model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(set.min(), model.first().copied());
        prop_assert_eq!(set.max(), model.last().copied());
        for &v in model.iter().take(50) {
            prop_assert!(set.contains(v));
        }
    }

    #[test]
    fn insert_remove(vals in values(), ops in values()) {
        let mut model: BTreeSet<u32> = vals.iter().copied().collect();
        let mut set = Bitset::from_slice(&vals);
        for (i, &v) in ops.iter().enumerate() {
            if i % 2 == 0 {
                prop_assert_eq!(set.insert(v), model.insert(v));
            } else {
                prop_assert_eq!(set.remove(v), model.remove(&v));
            }
        }
        prop_assert_eq!(set.to_vec(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn binary_algebra(a in values(), b in values()) {
        let ma: BTreeSet<u32> = a.iter().copied().collect();
        let mb: BTreeSet<u32> = b.iter().copied().collect();
        let sa = Bitset::from_slice(&a);
        let sb = Bitset::from_slice(&b);
        let and: Vec<u32> = ma.intersection(&mb).copied().collect();
        let or: Vec<u32> = ma.union(&mb).copied().collect();
        let not: Vec<u32> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(sa.and(&sb).to_vec(), and.clone());
        let mut union = sa.clone();
        union.or_assign(&sb);
        prop_assert_eq!(union.to_vec(), or);
        prop_assert_eq!(sa.and_not(&sb).to_vec(), not);
        prop_assert_eq!(sa.intersects(&sb), !and.is_empty());
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
    }

    #[test]
    fn multiway_agrees_with_folds(a in values(), b in values(), c in values()) {
        let sa = Bitset::from_slice(&a);
        let sb = Bitset::from_slice(&b);
        let sc = Bitset::from_slice(&c);
        let folded_and = sa.and(&sb).and(&sc);
        prop_assert_eq!(Bitset::multi_and(&[&sa, &sb, &sc]), folded_and);
    }

    #[test]
    fn into_variants_agree_with_model(a in values(), b in values(), c in values()) {
        let ma: BTreeSet<u32> = a.iter().copied().collect();
        let mb: BTreeSet<u32> = b.iter().copied().collect();
        let mc: BTreeSet<u32> = c.iter().copied().collect();
        let sa = Bitset::from_slice(&a);
        let sb = Bitset::from_slice(&b);
        let sc = Bitset::from_slice(&c);
        let and2: Vec<u32> = ma.intersection(&mb).copied().collect();
        let and3: Vec<u32> =
            ma.iter().filter(|v| mb.contains(v) && mc.contains(v)).copied().collect();
        // one scratch reused across calls, as the hot loops do
        let mut scratch = Bitset::from_slice(&c);
        sa.and_into(&sb, &mut scratch);
        prop_assert_eq!(scratch.to_vec(), and2);
        Bitset::multi_and_into(&[&sa, &sb, &sc], &mut scratch);
        prop_assert_eq!(scratch.to_vec(), and3.clone());
        // in-place and_assign chain equals the multiway result
        let mut acc = Bitset::from_slice(&a);
        acc.and_assign(&sb);
        acc.and_assign(&sc);
        prop_assert_eq!(acc.to_vec(), and3);
    }
}

// ---------------------------------------------------------------------------
// Model tests for the mutating / auxiliary API surface not covered above:
// in-place algebra, retain, clear, construction fast paths.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn assign_ops_match_pure_ops(a in values(), b in values()) {
        let sa = Bitset::from_slice(&a);
        let sb = Bitset::from_slice(&b);

        let mut and = sa.clone();
        and.and_assign(&sb);
        prop_assert_eq!(&and, &sa.and(&sb));

        let mut or = sa.clone();
        or.or_assign(&sb);
        let model: Vec<u32> = sa.iter().chain(sb.iter()).collect::<BTreeSet<u32>>().into_iter().collect();
        prop_assert_eq!(or.to_vec(), model);
    }

    #[test]
    fn construction_fast_paths_agree(vals in values()) {
        let model: BTreeSet<u32> = vals.iter().copied().collect();
        let sorted: Vec<u32> = model.iter().copied().collect();
        let from_slice = Bitset::from_slice(&vals);
        let from_sorted = Bitset::from_sorted_dedup(&sorted);
        let collected: Bitset = vals.iter().copied().collect();
        prop_assert_eq!(&from_slice, &from_sorted);
        prop_assert_eq!(&from_slice, &collected);
        prop_assert_eq!(from_slice.is_empty(), model.is_empty());
    }

    #[test]
    fn retain_and_clear_match_model(vals in values(), modulus in 2u32..7) {
        let model: Vec<u32> =
            vals.iter().copied().collect::<BTreeSet<u32>>().into_iter().filter(|v| v % modulus != 0).collect();
        let mut set = Bitset::from_slice(&vals);
        set.retain(|v| v % modulus != 0);
        prop_assert_eq!(set.to_vec(), model);
        set.clear();
        prop_assert!(set.is_empty());
        prop_assert_eq!(set.len(), 0);
        prop_assert_eq!(set.iter().next(), None);
    }
}
