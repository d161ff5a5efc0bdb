//! Streaming emission of closed itemsets.
//!
//! A staged composition mines all closed sets into a [`ClosedItemsets`]
//! container, then rebuilds the iceberg Hasse diagram from scratch, then
//! derives the rule bases in a third pass — three traversals over the
//! same lattice. [`ClosedSink`] decouples *discovery* from *collection*:
//! every closed miner can push each `(closed set, support)` it proves
//! into a sink as it is found, so a consumer (e.g. the fused pipeline's
//! incremental Hasse builder) processes the lattice during the single
//! mining traversal instead of re-walking it afterwards.
//!
//! Contract:
//!
//! * A miner may emit the **same closed set more than once** (Close
//!   reaches one closure from several generators); re-emissions always
//!   carry the same support, and sinks deduplicate.
//! * Every emitted set is genuinely closed and frequent at the mining
//!   threshold — miners that can only prove closedness globally (CHARM's
//!   subsumption check) buffer internally and flush once settled, rather
//!   than stream retractions.
//! * Emission order is unspecified; sinks must not rely on it.
//!
//! Only `(set, support)` pairs cross the sink. The fused pipeline's
//! incremental lattice derives every class's minimal generators from its
//! lower covers once the mine is done, so all three miners yield the same
//! complete tags without carrying generators through the traversal.

use crate::itemsets::ClosedItemsets;
use rulebases_dataset::{Itemset, Support};

/// Receives closed itemsets as a miner discovers them.
pub trait ClosedSink {
    /// Observes one discovered frequent closed itemset (possibly a
    /// duplicate of an earlier emission, always with the same support).
    fn accept(&mut self, set: &Itemset, support: Support);
}

/// The trivial sink: collects every emission into a vector, from which
/// [`CollectSink::into_closed`] builds the deduplicated, canonically
/// sorted [`ClosedItemsets`]. The buffered `mine_engine` entry points are
/// implemented as `mine_engine_sink` over this sink.
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    pairs: Vec<(Itemset, Support)>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the collected emissions into a [`ClosedItemsets`].
    pub fn into_closed(self, min_count: Support, n_objects: usize) -> ClosedItemsets {
        ClosedItemsets::from_pairs(self.pairs, min_count, n_objects)
    }
}

impl ClosedSink for CollectSink {
    fn accept(&mut self, set: &Itemset, support: Support) {
        self.pairs.push((set.clone(), support));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn collect_sink_dedups_and_sorts() {
        let mut sink = CollectSink::new();
        sink.accept(&set(&[2, 5]), 4);
        sink.accept(&set(&[3]), 4);
        sink.accept(&set(&[2, 5]), 4);
        let fc = sink.into_closed(2, 5);
        assert_eq!(fc.len(), 2);
        let sets: Vec<Itemset> = fc.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(sets, vec![set(&[3]), set(&[2, 5])]);
    }
}
