//! The mine phase: `RuleMiner::mine` with default settings, timed per
//! mine and checked against a reference, plus the traced run's stage-by-
//! stage decomposition of the same call.

use crate::stats::{median, Tally};
use crate::trace::Tracer;
use rulebases::{DuquenneGuiguesBasis, LuxenburgerBasis, MinedBases, Rule, RuleMiner};
use rulebases_dataset::{
    CacheStats, EngineKind, MinSupport, MiningContext, Parallelism, TransactionDb,
};
use rulebases_lattice::IcebergLattice;
use rulebases_mining::{Apriori, ClosedAlgorithm, ClosedItemsets};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Thresholds of one mine; everything else is `RuleMiner`'s default
/// (`EngineKind::Auto`, `Parallelism::Auto`, Close, staged pipeline).
#[derive(Clone, Copy, Debug)]
pub struct MineSpec {
    pub min_support: f64,
    pub min_confidence: f64,
}

impl MineSpec {
    pub fn miner(self) -> RuleMiner {
        RuleMiner::new(MinSupport::Fraction(self.min_support)).min_confidence(self.min_confidence)
    }

    /// The reference configuration: the dense engine on one thread.
    fn reference(self, db: &TransactionDb) -> MinedBases {
        self.miner()
            .engine(EngineKind::Dense)
            .parallelism(Parallelism::Off)
            .mine(db.clone())
    }
}

/// What a mine produced, in a form two engines can agree on: the set
/// counts plus order-independent hashes of the closed sets and of each
/// basis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub frequent: usize,
    pub closed: usize,
    pub dg_rules: usize,
    pub lux_full_rules: usize,
    pub lux_reduced_rules: usize,
    hashes: [u64; 4],
}

impl Fingerprint {
    fn new(
        frequent: usize,
        closed: &ClosedItemsets,
        dg: &[Rule],
        lux_full: &[Rule],
        lux_reduced: &[Rule],
    ) -> Self {
        let mut sets: Vec<_> = closed.iter().collect();
        sets.sort();
        Fingerprint {
            frequent,
            closed: closed.len(),
            dg_rules: dg.len(),
            lux_full_rules: lux_full.len(),
            lux_reduced_rules: lux_reduced.len(),
            hashes: [
                hash_of(&sets),
                hash_rules(dg),
                hash_rules(lux_full),
                hash_rules(lux_reduced),
            ],
        }
    }

    pub fn of(bases: &MinedBases) -> Self {
        Fingerprint::new(
            bases.frequent.len(),
            &bases.closed,
            bases.dg.rules(),
            bases.lux_full.rules(),
            bases.lux_reduced.rules(),
        )
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn hash_rules(rules: &[Rule]) -> u64 {
    let mut sorted: Vec<&Rule> = rules.iter().collect();
    sorted.sort_by_key(|r| r.sort_key());
    hash_of(&sorted)
}

/// Both engine layers' counters: the context's closure cache and the
/// backend beneath it (per-shard caches of a sharded engine).
pub fn engine_stats(ctx: &MiningContext) -> CacheStats {
    ctx.closure_cache_stats().merge(ctx.backend_cache_stats())
}

/// The reference every mine is checked against.
#[derive(Debug)]
pub struct Reference {
    /// What the dense engine on one thread mined.
    pub shape: Fingerprint,
    /// `MiningContext::resolved_kind` under the default settings.
    pub engine: String,
}

/// Mines `db` once with the dense engine on one thread, outside any
/// timed region, and resolves the default engine for the run record.
pub fn reference(spec: MineSpec, db: &TransactionDb) -> Reference {
    Reference {
        shape: Fingerprint::of(&spec.reference(db)),
        engine: MiningContext::with_engine_par(db.clone(), EngineKind::Auto, Parallelism::Auto)
            .resolved_kind()
            .to_string(),
    }
}

/// Share of `budget` elapsed since `start`.
fn share(start: Instant, budget: Duration) -> f64 {
    start.elapsed().as_secs_f64() / budget.as_secs_f64()
}

/// Mines `db` back to back for `budget` (at least `min_mines` times),
/// checking each result against `expected`, and calls `between` with the
/// share of `budget` elapsed after each mine; returns seconds per mine.
pub fn run(
    spec: MineSpec,
    db: &TransactionDb,
    expected: &Fingerprint,
    budget: Duration,
    min_mines: usize,
    tally: &mut Tally,
    mut between: impl FnMut(f64, &mut Tally),
) -> Vec<f64> {
    let mut seconds = Vec::new();
    let start = Instant::now();
    while seconds.len() < min_mines || start.elapsed() < budget {
        between(share(start, budget), tally);
        let t = Instant::now();
        let bases = spec.miner().mine(db.clone());
        seconds.push(t.elapsed().as_secs_f64());
        let got = Fingerprint::of(&bases);
        tally.check(got == *expected, || {
            format!(
                "mine {}: {got:?} differs from the reference {expected:?}",
                seconds.len()
            )
        });
    }
    seconds
}

/// Per-layer figures of the traced mine phase.
#[derive(Debug)]
pub struct MineLayers {
    /// What the last staged mine produced.
    pub shape: Fingerprint,
    /// Engine queries the Close stage issued.
    pub close_queries: u64,
    /// Engine counters after a whole staged mine.
    pub engine: CacheStats,
    /// Seconds per untraced `RuleMiner::mine`, interleaved with the
    /// staged mines.
    pub untraced_seconds: Vec<f64>,
}

/// Runs `RuleMiner::mine_context`'s stages one by one, each in its own
/// span under a `mine.staged` root, alternating with untraced
/// `RuleMiner::mine` calls whose output the staged result must equal,
/// as both must equal `expected`. Calls `between` like [`run`].
#[allow(clippy::too_many_arguments)]
pub fn run_traced(
    spec: MineSpec,
    db: &TransactionDb,
    expected: &Fingerprint,
    budget: Duration,
    min_mines: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
    mut between: impl FnMut(f64, &mut Tally),
) -> MineLayers {
    let minsup = MinSupport::Fraction(spec.min_support);
    let par = Parallelism::Auto;
    let mut untraced_seconds = Vec::new();
    let start = Instant::now();
    loop {
        between(share(start, budget), tally);
        let root = tracer.enter("mine.staged");
        let ctx = tracer.span("dataset.context.build", || {
            MiningContext::with_engine_par(db.clone(), EngineKind::Auto, par)
        });
        let frequent = tracer.span("mining.apriori", || {
            Apriori::new().parallelism(par).mine(&ctx, minsup)
        });
        let before_close = engine_stats(&ctx).engine_calls();
        let closed = tracer.span("mining.close", || {
            ClosedAlgorithm::Close.mine_engine_par(ctx.engine(), minsup, par)
        });
        let close_queries = engine_stats(&ctx).engine_calls() - before_close;
        let lattice = tracer.span("lattice.hasse", || IcebergLattice::from_closed(&closed));
        let dg = tracer.span("core.exact.dg", || {
            DuquenneGuiguesBasis::build(&frequent, &closed, ctx.n_items())
        });
        let lux_full = tracer.span("core.approx.lux_full", || {
            LuxenburgerBasis::full(&closed, spec.min_confidence, false)
        });
        let lux_reduced = tracer.span("core.approx.lux_reduced", || {
            LuxenburgerBasis::reduced(&lattice, spec.min_confidence, true)
        });
        tracer.exit(root);

        let t = Instant::now();
        let bases = spec.miner().mine(db.clone());
        untraced_seconds.push(t.elapsed().as_secs_f64());

        let staged = Fingerprint::new(
            frequent.len(),
            &closed,
            dg.rules(),
            lux_full.rules(),
            lux_reduced.rules(),
        );
        let direct = Fingerprint::of(&bases);
        tally.check(staged == direct, || {
            format!("staged mine {staged:?} differs from RuleMiner::mine {direct:?}")
        });
        tally.check(direct == *expected, || {
            format!("mine {direct:?} differs from the reference {expected:?}")
        });
        if untraced_seconds.len() >= min_mines && start.elapsed() >= budget {
            return MineLayers {
                shape: staged,
                close_queries,
                engine: engine_stats(&ctx),
                untraced_seconds,
            };
        }
    }
}

/// Traced-minus-untraced milliseconds per mine.
pub fn overhead_ms(tracer: &Tracer, layers: &MineLayers) -> f64 {
    (median(&tracer.seconds("mine.staged")) - median(&layers.untraced_seconds)) * 1e3
}
