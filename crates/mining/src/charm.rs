//! A CHARM-style vertical closed-itemset miner (Zaki & Hsiao, SDM'02).
//!
//! CHARM is the best-known follow-on to Close/A-Close: it explores an
//! itemset-tidset (IT) tree depth-first, using four tidset properties to
//! jump straight between closure classes, and a subsumption hash to drop
//! non-closed candidates. Included as an independent cross-check of the
//! paper's miners and as the vertical-representation baseline in the
//! benchmark ablations.

use crate::itemsets::{ClosedItemsets, MiningStats};
use crate::sink::{ClosedSink, CollectSink};
use crate::traits::ClosedMiner;
use rulebases_dataset::{BitSet, Item, Itemset, MinSupport, MiningContext, Support, SupportEngine};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The CHARM frequent-closed-itemset miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Charm;

struct Node {
    set: Itemset,
    tidset: BitSet,
}

/// Closed candidates found so far, hashed by tidset for subsumption checks.
#[derive(Default)]
struct Collector {
    by_tidset_hash: HashMap<u64, Vec<usize>>,
    sets: Vec<(Itemset, Support)>,
}

impl Collector {
    fn tidset_hash(tidset: &BitSet) -> u64 {
        let mut h = DefaultHasher::new();
        tidset.hash(&mut h);
        h.finish()
    }

    /// Inserts `set`, resolving subsumption in **both** directions: if an
    /// already-found set with the same tidset subsumes `set`, the new set
    /// is not closed and is dropped; if `set` subsumes an earlier entry
    /// with the same tidset, that earlier entry was not closed and is
    /// replaced in place.
    ///
    /// Comparing `set ⊆/⊇ existing` under equal support is sound without
    /// materializing tidsets: for comparable itemsets the extents nest
    /// the opposite way, so equal support forces equal extents. CHARM's
    /// depth-first order (classes sorted by ascending support) happens to
    /// discover each closure class's full closure first, but the
    /// collector must not lean on that traversal invariant — a different
    /// emission order (a future parallel or streaming IT-tree walk) would
    /// otherwise silently report non-closed sets.
    fn insert(&mut self, set: Itemset, tidset: &BitSet) {
        let support = tidset.count() as Support;
        let key = Self::tidset_hash(tidset);
        let bucket = self.by_tidset_hash.entry(key).or_default();
        let mut replaced = false;
        for &idx in bucket.iter() {
            let (existing, existing_support) = &self.sets[idx];
            if *existing_support != support {
                continue;
            }
            if set.is_subset_of(existing) {
                return; // subsumed: not closed
            }
            if existing.is_subset_of(&set) {
                // The earlier entry is a proper subset with the same
                // extent — it was a premature partial closure. Replace it
                // (duplicates, if several partials accumulated, collapse
                // to identical entries and dedup downstream).
                self.sets[idx] = (set.clone(), support);
                replaced = true;
            }
        }
        if replaced {
            return;
        }
        bucket.push(self.sets.len());
        self.sets.push((set, support));
    }
}

impl Charm {
    /// Creates a CHARM miner.
    pub fn new() -> Self {
        Charm
    }

    /// Mines the frequent closed itemsets of `ctx` at `minsup`, through
    /// the context's (cached) engine.
    pub fn mine(&self, ctx: &MiningContext, minsup: MinSupport) -> ClosedItemsets {
        self.mine_engine(ctx.engine(), minsup)
    }

    /// Mines the frequent closed itemsets of any [`SupportEngine`] at
    /// `minsup`.
    ///
    /// Like the other closed miners, the result includes the lattice
    /// bottom `h(∅)`.
    pub fn mine_engine(&self, engine: &dyn SupportEngine, minsup: MinSupport) -> ClosedItemsets {
        let n = engine.n_objects();
        if n == 0 {
            return ClosedItemsets::from_pairs(Vec::new(), 1, 0);
        }
        let min_count = minsup.to_count(n);
        let mut sink = CollectSink::new();
        let stats = self.mine_engine_sink(engine, minsup, &mut sink);
        let mut result = sink.into_closed(min_count, n);
        result.stats = stats;
        result
    }

    /// Mines the frequent closed itemsets of any [`SupportEngine`] at
    /// `minsup`, streaming the result into `sink`.
    ///
    /// CHARM's subsumption check can retract a candidate after it was
    /// recorded (the collector resolves subsumption in both directions),
    /// so this path buffers in the collector and flushes once the IT-tree walk settles — the sink
    /// contract forbids retractions.
    pub fn mine_engine_sink(
        &self,
        engine: &dyn SupportEngine,
        minsup: MinSupport,
        sink: &mut dyn ClosedSink,
    ) -> MiningStats {
        let n = engine.n_objects();
        if n == 0 {
            return MiningStats::default();
        }
        let min_count = minsup.to_count(n);
        let mut stats = MiningStats {
            db_passes: 1, // vertical covers are materialized once
            ..MiningStats::default()
        };

        // Root class: frequent items, sorted by increasing support (the
        // order CHARM relies on to find closures early), ties by id.
        let mut root: Vec<Node> = (0..engine.n_items())
            .filter_map(|i| {
                let cover = engine.cover(Item::new(i as u32));
                let support = cover.count() as Support;
                (support >= min_count).then(|| Node {
                    set: Itemset::from_ids([i as u32]),
                    tidset: cover,
                })
            })
            .collect();
        stats.candidates_counted += engine.n_items();
        root.sort_by(|a, b| {
            a.tidset
                .count()
                .cmp(&b.tidset.count())
                .then_with(|| a.set.cmp(&b.set))
        });

        let mut collector = Collector::default();
        Self::extend(&mut root, &mut collector, min_count, &mut stats);

        // Lattice bottom — frequent unless the threshold exceeds |O|.
        if n as Support >= min_count {
            sink.accept(&engine.closure(&Itemset::empty()), n as Support);
        }
        for (set, support) in &collector.sets {
            sink.accept(set, *support);
        }
        stats
    }

    fn extend(
        class: &mut Vec<Node>,
        collector: &mut Collector,
        min_count: Support,
        stats: &mut MiningStats,
    ) {
        let mut i = 0;
        while i < class.len() {
            // `x_set` accumulates items proven to share `x_tid` (props 1-2);
            // the tidset itself never changes.
            let mut x_set = class[i].set.clone();
            let x_tid = class[i].tidset.clone();
            let x_count = x_tid.count() as Support;
            let mut children: Vec<Node> = Vec::new();

            let mut j = i + 1;
            while j < class.len() {
                stats.candidates_counted += 1;
                let t = x_tid.intersection(&class[j].tidset);
                let support = t.count() as Support;
                if support < min_count {
                    j += 1;
                    continue;
                }
                let covers_i = support == x_count; // t(Xi) ⊆ t(Xj)
                let covers_j = support == class[j].tidset.count() as Support; // t(Xj) ⊆ t(Xi)
                match (covers_i, covers_j) {
                    // Property 1: identical tidsets — absorb Xj, drop it.
                    (true, true) => {
                        x_set = x_set.union(&class[j].set);
                        class.remove(j);
                    }
                    // Property 2: t(Xi) ⊂ t(Xj) — absorb Xj's items, keep Xj.
                    (true, false) => {
                        x_set = x_set.union(&class[j].set);
                        j += 1;
                    }
                    // Property 3: t(Xj) ⊂ t(Xi) — child node, drop Xj.
                    (false, true) => {
                        children.push(Node {
                            set: class[j].set.clone(),
                            tidset: t,
                        });
                        class.remove(j);
                    }
                    // Property 4: incomparable — child node, keep Xj.
                    (false, false) => {
                        children.push(Node {
                            set: class[j].set.clone(),
                            tidset: t,
                        });
                        j += 1;
                    }
                }
            }

            if !children.is_empty() {
                // Children extend the final accumulated x_set.
                for child in &mut children {
                    child.set = child.set.union(&x_set);
                }
                children.sort_by(|a, b| {
                    a.tidset
                        .count()
                        .cmp(&b.tidset.count())
                        .then_with(|| a.set.cmp(&b.set))
                });
                Self::extend(&mut children, collector, min_count, stats);
            }

            collector.insert(x_set, &x_tid);
            i += 1;
        }
    }
}

impl ClosedMiner for Charm {
    fn name(&self) -> &'static str {
        "charm"
    }

    fn mine_closed(&self, ctx: &MiningContext, minsup: MinSupport) -> ClosedItemsets {
        self.mine(ctx, minsup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close::Close;
    use rulebases_dataset::paper_example;

    #[test]
    fn matches_close_on_paper_example() {
        let ctx = MiningContext::new(paper_example());
        for count in 1..=5u64 {
            let charm = Charm::new().mine(&ctx, MinSupport::Count(count));
            let close = Close::new().mine(&ctx, MinSupport::Count(count));
            assert_eq!(
                charm.into_sorted_vec(),
                close.into_sorted_vec(),
                "minsup count {count}"
            );
        }
    }

    #[test]
    fn every_reported_set_is_closed() {
        let ctx = MiningContext::new(paper_example());
        let fc = Charm::new().mine(&ctx, MinSupport::Count(1));
        for (s, sup) in fc.iter() {
            assert!(ctx.is_closed(s), "{s:?} is not closed");
            assert_eq!(ctx.support(s), sup);
        }
    }

    #[test]
    fn handles_identical_columns() {
        // Items 1 and 2 always co-occur: property 1 must merge them.
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![3],
        ]));
        let fc = Charm::new().mine(&ctx, MinSupport::Count(1));
        assert!(fc.contains(&Itemset::from_ids([1, 2])));
        assert!(!fc.contains(&Itemset::from_ids([1])));
        assert!(!fc.contains(&Itemset::from_ids([2])));
    }

    #[test]
    fn empty_context() {
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(vec![]));
        assert!(Charm::new().mine(&ctx, MinSupport::Count(1)).is_empty());
    }

    #[test]
    fn collector_is_insertion_order_independent() {
        // AB and its same-tidset superset ABC, inserted in both orders,
        // must leave only ABC. Superset-first is what CHARM's
        // ascending-support traversal produces; subset-first is the order
        // the old one-directional check silently got wrong (the partial
        // set survived as a phantom "closed" set).
        let tidset = {
            let mut t = BitSet::new(4);
            t.insert(0);
            t.insert(2);
            t
        };
        let partial = Itemset::from_ids([1, 2]);
        let full = Itemset::from_ids([1, 2, 3]);
        for first_is_partial in [true, false] {
            let mut collector = Collector::default();
            if first_is_partial {
                collector.insert(partial.clone(), &tidset);
                collector.insert(full.clone(), &tidset);
            } else {
                collector.insert(full.clone(), &tidset);
                collector.insert(partial.clone(), &tidset);
            }
            assert_eq!(
                collector.sets,
                vec![(full.clone(), 2)],
                "first_is_partial={first_is_partial}"
            );
        }
    }

    #[test]
    fn collector_keeps_distinct_closure_classes_apart() {
        // Same support, different tidsets: no subsumption either way.
        let t1 = {
            let mut t = BitSet::new(4);
            t.insert(0);
            t.insert(1);
            t
        };
        let t2 = {
            let mut t = BitSet::new(4);
            t.insert(2);
            t.insert(3);
            t
        };
        let mut collector = Collector::default();
        collector.insert(Itemset::from_ids([1]), &t1);
        collector.insert(Itemset::from_ids([1, 2]), &t2);
        assert_eq!(collector.sets.len(), 2);
    }

    #[test]
    fn cross_branch_closure_classes_match_brute_force() {
        // C's cover {0,1} is the intersection of A's {0,1,2} and B's
        // {0,1,3}: the closure class {0,1} = ABC is reachable both through
        // the C branch (prop-2 absorptions) and the A×B child — the shape
        // whose duplicate insertions exercise the collector's subsumption
        // resolution. Items: A=1, B=2, C=3.
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(vec![
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1],
            vec![2],
        ]));
        let fc = Charm::new().mine(&ctx, MinSupport::Count(1));
        let brute = crate::brute::brute_closed(&ctx, MinSupport::Count(1));
        assert_eq!(fc.into_sorted_vec(), brute.into_sorted_vec());
    }

    #[test]
    fn single_transaction() {
        let ctx = MiningContext::new(rulebases_dataset::TransactionDb::from_rows(vec![vec![
            1, 2, 3,
        ]]));
        let fc = Charm::new().mine(&ctx, MinSupport::Count(1));
        // Only one closed set: the whole transaction (= bottom).
        assert_eq!(fc.len(), 1);
        assert!(fc.contains(&Itemset::from_ids([1, 2, 3])));
    }
}
