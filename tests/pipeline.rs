//! End-to-end pipeline tests: every stand-in dataset through the full
//! bases pipeline at reduced scale, checking the structural invariants
//! the paper's experiments rely on.

use rulebases::{count_all_rules, count_exact_rules, MinSupport, RuleMiner};
use rulebases_bench::{Scale, StandIn};
use rulebases_dataset::MiningContext;
use rulebases_lattice::hasse::verify_covers;

#[test]
fn every_dataset_mines_cleanly() {
    for dataset in StandIn::ALL {
        let bases = RuleMiner::new(MinSupport::Fraction(dataset.default_minsup()))
            .min_confidence(0.7)
            .mine(dataset.generate(Scale::Test));

        // FC is a subset of F (modulo the empty bottom).
        assert!(
            bases.n_closed_nonempty() <= bases.frequent.len(),
            "{}: |FC| > |F|",
            dataset.name()
        );
        // The DG basis never exceeds the exact-rule count.
        let n_exact = count_exact_rules(&bases.frequent, &bases.closed);
        assert!(
            bases.dg.len() as u64 <= n_exact,
            "{}: DG bigger than exact set",
            dataset.name()
        );
        // Reduced basis ≤ full basis.
        assert!(
            bases.luxenburger_reduced_rules().len() <= bases.lux_full.len(),
            "{}: reduction grew",
            dataset.name()
        );
    }
}

#[test]
fn dense_datasets_compress_sparse_do_not() {
    let ratio = |dataset: StandIn| {
        let minsup = dataset.default_minsup();
        let bases =
            RuleMiner::new(MinSupport::Fraction(minsup)).mine(dataset.generate(Scale::Test));
        bases.frequent.len() as f64 / bases.n_closed_nonempty().max(1) as f64
    };
    let sparse = ratio(StandIn::T10I4);
    let mushrooms = ratio(StandIn::Mushrooms);
    let census = ratio(StandIn::C20D10K);
    // The paper's headline shape: closed sets compress the dense datasets
    // by a large factor and the sparse ones barely at all.
    assert!(sparse < 1.5, "sparse ratio {sparse}");
    assert!(mushrooms > 3.0, "mushrooms ratio {mushrooms}");
    assert!(census > 3.0, "census ratio {census}");
}

#[test]
fn derivation_round_trips_on_real_datasets() {
    // The expensive check on the two datasets with the richest structure.
    for dataset in [StandIn::Mushrooms, StandIn::C20D10K] {
        let bases = RuleMiner::new(MinSupport::Fraction(dataset.default_minsup()))
            .min_confidence(0.7)
            .mine(dataset.generate(Scale::Test));
        assert_eq!(
            bases.exact_rules(),
            bases.derive_exact_rules(),
            "{}: exact derivation mismatch",
            dataset.name()
        );
        assert_eq!(
            bases.approximate_rules(),
            bases.derive_approximate_rules(),
            "{}: approximate derivation mismatch",
            dataset.name()
        );
    }
}

#[test]
fn lattice_is_a_valid_hasse_diagram() {
    for dataset in [StandIn::Mushrooms, StandIn::C73D10K] {
        let bases = RuleMiner::new(MinSupport::Fraction(dataset.default_minsup()))
            .mine(dataset.generate(Scale::Test));
        let nodes: Vec<_> = bases
            .closed
            .iter()
            .map(|(s, sup)| (s.clone(), sup))
            .collect();
        let upper: Vec<Vec<usize>> = (0..bases.lattice.n_nodes())
            .map(|i| bases.lattice.upper_covers(i).to_vec())
            .collect();
        verify_covers(&nodes, &upper).unwrap_or_else(|e| panic!("{}: {e}", dataset.name()));
    }
}

#[test]
fn rule_counts_are_monotone_in_confidence() {
    let dataset = StandIn::Mushrooms;
    let bases = RuleMiner::new(MinSupport::Fraction(dataset.default_minsup()))
        .mine(dataset.generate(Scale::Test));
    let mut last = usize::MAX;
    for conf in [0.5, 0.7, 0.9, 1.0] {
        let n = count_all_rules(&bases.frequent, conf);
        assert!(n <= last, "counts increased at conf {conf}");
        last = n;
    }
}

#[test]
fn closed_supports_match_context_on_every_dataset() {
    for dataset in StandIn::ALL {
        let db = dataset.generate(Scale::Test);
        let ctx = MiningContext::new(db);
        let bases =
            RuleMiner::new(MinSupport::Fraction(dataset.default_minsup())).mine_context(&ctx);
        for (set, support) in bases.closed.iter() {
            assert_eq!(
                ctx.support(set),
                support,
                "{}: support mismatch for {set:?}",
                dataset.name()
            );
            assert!(ctx.is_closed(set), "{}: {set:?} not closed", dataset.name());
        }
    }
}

#[test]
fn fused_pipeline_matches_staged_on_every_dataset() {
    // RuleMiner's one-pass fused pipeline and the staged oracle agree on
    // every stand-in, at realistic (non-toy) lattice sizes.
    for dataset in StandIn::ALL {
        let miner =
            RuleMiner::new(MinSupport::Fraction(dataset.default_minsup())).min_confidence(0.7);
        let staged = miner.staged_oracle(&MiningContext::new(dataset.generate(Scale::Test)));
        let fused = miner.mine(dataset.generate(Scale::Test));
        assert_eq!(
            staged.closed.clone().into_sorted_vec(),
            fused.closed.clone().into_sorted_vec(),
            "{}: closed sets",
            dataset.name()
        );
        assert_eq!(
            staged.lattice.edges().collect::<Vec<_>>(),
            fused.lattice.edges().collect::<Vec<_>>(),
            "{}: Hasse edges",
            dataset.name()
        );
        assert_eq!(
            staged.frequent.len(),
            fused.frequent.len(),
            "{}: |F|",
            dataset.name()
        );
        assert_eq!(staged.dg.rules(), fused.dg.rules(), "{}", dataset.name());
        assert_eq!(
            staged.lux_full.rules(),
            fused.lux_full.rules(),
            "{}",
            dataset.name()
        );
        assert_eq!(
            staged.lux_reduced.rules(),
            fused.lux_reduced.rules(),
            "{}",
            dataset.name()
        );
    }
}

#[test]
fn fused_pipeline_performs_fewer_engine_calls_on_census() {
    // The acceptance criterion of the fused tentpole, enforced in CI: on
    // the census-like stand-in the fused pipeline answers every query
    // through strictly fewer engine calls than the staged oracle — it
    // neither re-mines the frequent itemsets from the database nor
    // rebuilds the lattice after mining.
    let dataset = StandIn::C20D10K;
    let miner = RuleMiner::new(MinSupport::Fraction(dataset.default_minsup())).min_confidence(0.7);
    let staged_ctx = MiningContext::new(dataset.generate(Scale::Test));
    let _ = miner.staged_oracle(&staged_ctx);
    let staged = staged_ctx.closure_cache_stats();
    let fused_ctx = MiningContext::new(dataset.generate(Scale::Test));
    let _ = miner.mine_context(&fused_ctx);
    let fused = fused_ctx.closure_cache_stats();
    assert!(
        fused.engine_calls() < staged.engine_calls(),
        "fused {} !< staged {}",
        fused.engine_calls(),
        staged.engine_calls()
    );
}

#[test]
fn io_round_trip_preserves_mining_results() {
    // Write a stand-in to FIMI format, read it back, and check the bases
    // are identical.
    let db = StandIn::C20D10K.generate(Scale::Test);
    let mut buffer = Vec::new();
    rulebases_dataset::io::write_dat(&db, &mut buffer).unwrap();
    let back = rulebases_dataset::io::read_dat(&buffer[..]).unwrap();

    let a = RuleMiner::new(MinSupport::Fraction(0.6)).mine(db);
    let b = RuleMiner::new(MinSupport::Fraction(0.6)).mine(back);
    assert_eq!(a.closed.into_sorted_vec(), b.closed.into_sorted_vec());
    assert_eq!(a.dg.rules(), b.dg.rules());
}
