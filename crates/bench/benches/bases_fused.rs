//! Fused pipeline vs staged oracle ablation on the census-like stand-in.
//!
//! Times the full bases pipeline (mine closed sets → lattice → DG +
//! Luxenburger bases) as [`RuleMiner::mine_context`] runs it and as the
//! retained [`RuleMiner::staged_oracle`] composes it, on fresh contexts,
//! then tallies the engine traffic of one run of each via
//! [`MiningContext::closure_cache_stats`]: the fused path builds the
//! Hasse diagram during the mining traversal and derives the frequent
//! itemsets from `FC`, so it must answer with **strictly fewer** engine
//! calls than the staged oracle — no extra full-lattice rebuild, no
//! Apriori re-scan. The bench asserts that invariant rather than just
//! printing it, so running it doubles as the acceptance check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rulebases::{MinSupport, MinedBases, RuleMiner};
use rulebases_bench::{append_bench_history, write_bench_artifact, Scale, StandIn};
use rulebases_dataset::{EngineKind, MiningContext};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One pipeline's tally in the `BENCH_fused.json` artifact.
#[derive(Serialize)]
struct PipelineTally {
    pipeline: String,
    wall_us: f64,
    engine_calls: u64,
    closure_lookups: u64,
    extents: u64,
    supports: u64,
    intents: u64,
}

/// The machine-readable record `BENCH_fused.json` holds.
#[derive(Serialize)]
struct FusedBenchRecord {
    dataset: String,
    pipelines: Vec<PipelineTally>,
}

/// One way to run the whole bases pipeline over a context.
type Pipeline = fn(&RuleMiner, &MiningContext) -> MinedBases;

fn bench_bases_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("bases-fused");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    let dataset = StandIn::C20D10K;
    let minsup = MinSupport::Fraction(dataset.default_minsup());
    // Generate once; each iteration gets a fresh context (cold caches,
    // fresh engine) over the shared rows — the timed section measures
    // the pipelines, not dataset generation.
    let db = Arc::new(dataset.generate(Scale::Test));

    let miner = RuleMiner::new(minsup).min_confidence(0.7);
    let pipelines: [(&str, Pipeline); 2] = [
        ("staged", RuleMiner::staged_oracle),
        ("fused", RuleMiner::mine_context),
    ];
    for (name, run) in pipelines {
        group.bench_function(BenchmarkId::new("pipeline", name), |b| {
            b.iter(|| {
                // A fresh context per iteration: the closure cache must
                // not let one pipeline ride the other's warm-up.
                let ctx = MiningContext::with_engine_arc(db.clone(), EngineKind::Auto);
                black_box(run(&miner, &ctx))
            })
        });
    }
    group.finish();

    // Engine-traffic tally — one clean run per pipeline on a cold cache.
    let tally = |run: Pipeline| {
        let ctx = MiningContext::with_engine_arc(db.clone(), EngineKind::Auto);
        let start = Instant::now();
        let _ = run(&miner, &ctx);
        (ctx.closure_cache_stats(), start.elapsed())
    };
    let (staged, staged_wall) = tally(pipelines[0].1);
    let (fused, fused_wall) = tally(pipelines[1].1);
    let mut pipelines = Vec::new();
    for (name, stats, wall) in [
        ("staged", staged, staged_wall),
        ("fused", fused, fused_wall),
    ] {
        println!(
            "{}/{name}: {} engine calls ({} closure lookups, {} extents, \
             {} supports, {} intents)",
            dataset.name(),
            stats.engine_calls(),
            stats.lookups(),
            stats.extents,
            stats.supports,
            stats.intents
        );
        pipelines.push(PipelineTally {
            pipeline: name.to_owned(),
            wall_us: wall.as_secs_f64() * 1e6,
            engine_calls: stats.engine_calls(),
            closure_lookups: stats.lookups(),
            extents: stats.extents,
            supports: stats.supports,
            intents: stats.intents,
        });
    }
    let record = FusedBenchRecord {
        dataset: dataset.name().to_owned(),
        pipelines,
    };
    write_bench_artifact("fused", &record);
    append_bench_history("fused", &record);
    assert!(
        fused.engine_calls() < staged.engine_calls(),
        "fused pipeline must perform strictly fewer engine calls: \
         fused {} !< staged {}",
        fused.engine_calls(),
        staged.engine_calls()
    );
    println!(
        "fused saves {} engine calls ({:.1}% of staged)",
        staged.engine_calls() - fused.engine_calls(),
        100.0 * (staged.engine_calls() - fused.engine_calls()) as f64
            / staged.engine_calls().max(1) as f64
    );
}

criterion_group!(benches, bench_bases_fused);
criterion_main!(benches);
