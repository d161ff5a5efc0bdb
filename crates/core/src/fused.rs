//! The fused one-pass pipeline behind [`RuleMiner::mine`].
//!
//! A staged composition walks the closed-set lattice three times: the
//! miner materializes `FC`, [`IcebergLattice::from_closed`] rebuilds the
//! Hasse diagram from scratch with a pairwise pass, and the frequent
//! itemsets are re-mined from the database by Apriori before the bases
//! are derived. The fused pipeline collapses those traversals into the
//! mining pass itself, the construction Hamrouni et al. and Vo & Le
//! describe for extracting generic bases *during* closed-set discovery:
//!
//! * as Close / A-Close / CHARM prove each closed set, it streams through
//!   a [`ClosedSink`] into an [`IncrementalLattice`] that maintains the
//!   covering relation insertion by insertion — no post-hoc rebuild;
//! * once the mine is done, the lattice tags every class with its
//!   minimal generators, derived from its lower covers by one Berge
//!   constraint step per cover
//!   ([`IncrementalLattice::derive_generator_tags`]) — one tag source for
//!   all three miners, with no generator carried through the traversal;
//! * the tagged lattice seeds the same maintained-bases state a
//!   [`StreamingMiner`] patches per batch, and the bundle is read out of
//!   it by the code [`StreamingMiner::bases`] uses: the Duquenne-Guigues
//!   basis comes from the classes' generator tags
//!   ([`pseudo_closed_from_generators`]), both Luxenburger bases from the
//!   maintained per-pair rule maps, and the frequent itemsets the bundle
//!   reports are *derived* from `FC` by the generating-set property of
//!   the paper's Definition 1 (every frequent itemset is a subset of a
//!   frequent closed itemset and takes its closure's support) instead of
//!   re-mined. No basis reads `F`.
//!
//! Batch mining is thus literally the seed of a streaming session: one
//! construction per basis serves both. The staged composition survives
//! only as the reference [`RuleMiner::staged_oracle`]. The two are
//! property-tested equal (closed sets, Hasse edges, `F`, all three bases)
//! across every algorithm and engine backend in `tests/equivalence.rs`;
//! the `bases-fused` bench ablates their engine traffic via
//! [`MiningContext::closure_cache_stats`] — the fused path answers the
//! same questions with strictly fewer engine calls.
//!
//! [`ClosedSink`]: rulebases_mining::ClosedSink
//! [`IncrementalLattice`]: rulebases_lattice::IncrementalLattice
//! [`IncrementalLattice::derive_generator_tags`]: rulebases_lattice::IncrementalLattice::derive_generator_tags
//! [`pseudo_closed_from_generators`]: rulebases_lattice::pseudo_closed_from_generators
//! [`IcebergLattice::from_closed`]: rulebases_lattice::IcebergLattice::from_closed
//! [`StreamingMiner`]: crate::stream::StreamingMiner
//! [`StreamingMiner::bases`]: crate::stream::StreamingMiner::bases

use crate::miner::{MinedBases, RuleMiner};
use crate::stream::MaintainedBases;
use rulebases_dataset::{Itemset, MiningContext, Support};
use rulebases_lattice::IncrementalLattice;
use rulebases_mining::ClosedSink;

/// The sink the fused traversal mines into: every emission goes straight
/// into the incremental Hasse builder (which also dedups re-emissions).
#[derive(Default)]
struct LatticeSink {
    lattice: IncrementalLattice,
}

impl ClosedSink for LatticeSink {
    fn accept(&mut self, set: &Itemset, support: Support) {
        self.lattice.insert(set, support);
    }
}

/// Runs the fused pipeline for `miner` over `ctx`: one mining traversal
/// feeding the incremental lattice, the generator tags derived from its
/// covers, then the maintained-bases seed and its read-out.
pub(crate) fn mine_bases(miner: &RuleMiner, ctx: &MiningContext) -> MinedBases {
    let mut sink = LatticeSink::default();
    let stats = miner.algorithm_config().mine_sink_par(
        ctx.engine(),
        miner.min_support_config(),
        miner.parallelism_config(),
        &mut sink,
    );
    sink.lattice.derive_generator_tags();
    let state = MaintainedBases::seed(miner, ctx, &sink.lattice);
    let mut bases = state.materialize(miner, ctx, &sink.lattice);
    bases.closed.stats = stats;
    bases
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::{paper_example, MinSupport};
    use rulebases_mining::ClosedAlgorithm;

    #[test]
    fn fused_matches_staged_on_paper_example() {
        let miner = RuleMiner::new(MinSupport::Fraction(0.4)).min_confidence(0.5);
        let staged = miner.staged_oracle(&MiningContext::new(paper_example()));
        let fused = miner.mine(paper_example());
        assert_eq!(
            fused.closed.clone().into_sorted_vec(),
            staged.closed.clone().into_sorted_vec()
        );
        assert_eq!(
            fused.lattice.edges().collect::<Vec<_>>(),
            staged.lattice.edges().collect::<Vec<_>>()
        );
        assert_eq!(fused.frequent.len(), staged.frequent.len());
        assert_eq!(fused.dg.rules(), staged.dg.rules());
        assert_eq!(fused.lux_full.rules(), staged.lux_full.rules());
        assert_eq!(fused.lux_reduced.rules(), staged.lux_reduced.rules());
        // And the fused bundle still derives everything.
        assert_eq!(fused.exact_rules(), fused.derive_exact_rules());
        assert_eq!(fused.approximate_rules(), fused.derive_approximate_rules());
    }

    #[test]
    fn fused_generator_tags_are_minimal_generators() {
        // Every miner's lattice is tagged from its covers after the
        // mine: each class carries exactly its minimal generators.
        let ctx = MiningContext::new(paper_example());
        for min_count in 1..=3 {
            for algo in ClosedAlgorithm::ALL {
                let bases = RuleMiner::new(MinSupport::Count(min_count))
                    .algorithm(algo)
                    .mine_context(&ctx);
                let tags = &bases.minimal_generators;
                assert_eq!(tags.len(), bases.lattice.n_nodes());
                // The transversal oracle over the same iceberg.
                let mut oracle = IncrementalLattice::new();
                for (set, support) in bases.closed.iter() {
                    oracle.insert(set, support);
                }
                for (node, generators) in tags.iter().enumerate() {
                    let (closure, support) = bases.lattice.node(node);
                    let id = oracle.position(closure).unwrap();
                    assert_eq!(
                        generators,
                        &oracle.oracle_generators_of(id),
                        "{algo} at {min_count}: node {node} incomplete"
                    );
                    for g in generators {
                        // Same closure class...
                        assert_eq!(&ctx.closure(g), closure, "{algo}");
                        // ...and minimal: every facet has strictly larger
                        // support.
                        for facet in g.facets() {
                            assert!(ctx.support(&facet) > support, "{algo}: {g:?} not minimal");
                        }
                    }
                }
                if min_count == 2 {
                    // BE is generated by both B and E.
                    let be = bases.lattice.position(&Itemset::from_ids([2, 5])).unwrap();
                    assert_eq!(
                        tags[be],
                        vec![Itemset::from_ids([2]), Itemset::from_ids([5])],
                        "{algo}"
                    );
                }
            }
        }
        // The staged oracle collects no tags.
        let staged = RuleMiner::new(MinSupport::Count(2)).staged_oracle(&ctx);
        assert_eq!(staged.minimal_generators.len(), staged.lattice.n_nodes());
        assert!(staged.minimal_generators.iter().all(Vec::is_empty));
    }

    #[test]
    fn fused_empty_database() {
        let bases = RuleMiner::new(MinSupport::Fraction(0.5))
            .mine(rulebases_dataset::TransactionDb::from_rows(vec![]));
        assert_eq!(bases.frequent.len(), 0);
        assert!(bases.dg.is_empty());
        assert!(bases.exact_rules().is_empty());
        assert!(bases.approximate_rules().is_empty());
        assert_eq!(bases.lattice.n_nodes(), 0);
    }

    #[test]
    fn fused_skips_the_apriori_scan() {
        // The acceptance claim in miniature: on the paper example the
        // fused pipeline answers every engine question the staged oracle
        // answers, with strictly fewer engine calls (no Apriori re-scan
        // of the database, no pairwise lattice rebuild).
        let miner = RuleMiner::new(MinSupport::Count(2));
        let staged_ctx = MiningContext::new(paper_example());
        let _ = miner.staged_oracle(&staged_ctx);
        let staged_calls = staged_ctx.closure_cache_stats().engine_calls();

        let fused_ctx = MiningContext::new(paper_example());
        let _ = miner.mine_context(&fused_ctx);
        let fused_calls = fused_ctx.closure_cache_stats().engine_calls();

        assert!(
            fused_calls < staged_calls,
            "fused {fused_calls} !< staged {staged_calls}"
        );
        // The fused frequent itemsets are derived, not re-mined: zero
        // database passes on that product.
        let fused = miner.mine(paper_example());
        assert_eq!(fused.frequent.stats.db_passes, 0);
    }
}
