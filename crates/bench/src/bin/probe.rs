//! `probe` — calibration helper: count frequent/closed itemsets for one
//! `(dataset, minsup)` cell with the closed miner only (Close never
//! materializes the exponential frequent set, so it is safe to run even
//! where Apriori would explode).
//!
//! ```bash
//! probe MUSHROOMS 0.5 [test|default|full] [--frequent] \
//!     [--engine auto|dense|tid-list|diffset|sharded:<k>:<inner>] \
//!     [--stream [--batch <n>] [--window <n>] \
//!         [--checkpoint-dir <d> [--crash-after <k>]]] \
//!     [--serve [--readers <n>]]
//! ```
//!
//! Without `--engine`, the backend comes from the `RULEBASES_ENGINE`
//! environment variable (default `auto`). With `--stream`, the dataset
//! is *replayed* in `--batch`-row appends (default 64) through
//! `RuleMiner::streaming`, reporting per-replay movement totals and the
//! engine calls the whole replay cost next to what one full `RuleMiner`
//! re-mine of the final context pays. The streaming session
//! maintains the **unthresholded** closure system (so the threshold can
//! rescale per batch), whose size is governed by the item universe — the
//! replay therefore projects the dataset onto its `--stream-items` most
//! frequent items first (default 16), the usual bounded-vocabulary
//! serving setup. `--window <n>` additionally bounds the session to a
//! sliding window of the newest `n` rows: the out-of-window prefix
//! expires through the delta machinery in reverse, so both the lattice
//! *and* the retained storage stay sized by the window instead of the
//! stream — the mode to probe long or drifting replays with. Either way
//! the replay reports the generator work the maintenance spent
//! (extension candidates, subsumption checks, transversal fallbacks —
//! the last identically zero on these paths).
//!
//! With `--checkpoint-dir <d>`, the streaming replay runs *durably*
//! through `RuleMiner::checkpointing`: every batch is journaled into the
//! directory and periodically folded into a full checkpoint. Adding
//! `--crash-after <k>` drops the live session after `k` batches —
//! simulating a crash — then recovers the directory and finishes the
//! replay on the recovered session, printing the recovery report
//! (checkpoint restored, bytes, batches replayed, and the engine-call
//! tally: the restore itself performs 0 engine calls during restore).
//!
//! Besides the paper stand-ins, the dataset name `DRIFT` selects the
//! `drifting_census` generator (item popularity rotates per block), the
//! windowed-streaming workload.
//!
//! With `--serve`, the same projected replay drives a `RuleServer`
//! instead: the first half of the rows seed the server, the rest arrive
//! as the writer's append batches while `--readers` (default 2) reader
//! threads replay the dataset's own rows as baskets — a smoke of the
//! whole concurrent serving path (epoch-swapped snapshots, antecedent
//! index, wait-free reads) with the serving counters and p50/p99 query
//! latencies printed at the end.

use rulebases::checkpoint::CheckpointedMiner;
use rulebases::{RuleMiner, RuleReader, Window};
use rulebases_bench::{drifting_census, engine_from_env, project_top_items, Scale, StandIn};
use rulebases_dataset::pool::fan_out;
use rulebases_dataset::{EngineKind, MinSupport, MiningContext, TransactionDb};
use rulebases_mining::{Apriori, Close, ClosedMiner};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut engine: Option<EngineKind> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut with_frequent = false;
    let mut stream = false;
    let mut serve = false;
    let mut readers = 2usize;
    let mut batch = 64usize;
    let mut stream_items = 16usize;
    let mut window = 0usize;
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut crash_after: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--frequent" => {
                with_frequent = true;
                i += 1;
            }
            "--stream" => {
                stream = true;
                i += 1;
            }
            "--serve" => {
                serve = true;
                i += 1;
            }
            "--readers" => {
                let value = args.get(i + 1).expect("--readers needs a value");
                readers = value.parse().unwrap_or_else(|e| panic!("--readers: {e}"));
                assert!(readers > 0, "--readers must be at least 1");
                i += 2;
            }
            "--batch" => {
                let value = args.get(i + 1).expect("--batch needs a value");
                batch = value.parse().unwrap_or_else(|e| panic!("--batch: {e}"));
                assert!(batch > 0, "--batch must be at least 1");
                i += 2;
            }
            "--window" => {
                let value = args.get(i + 1).expect("--window needs a value");
                window = value.parse().unwrap_or_else(|e| panic!("--window: {e}"));
                assert!(window > 0, "--window must be at least 1");
                i += 2;
            }
            "--checkpoint-dir" => {
                let value = args.get(i + 1).expect("--checkpoint-dir needs a value");
                checkpoint_dir = Some(value.into());
                i += 2;
            }
            "--crash-after" => {
                let value = args.get(i + 1).expect("--crash-after needs a value");
                crash_after = Some(
                    value
                        .parse()
                        .unwrap_or_else(|e| panic!("--crash-after: {e}")),
                );
                i += 2;
            }
            "--stream-items" => {
                let value = args.get(i + 1).expect("--stream-items needs a value");
                stream_items = value
                    .parse()
                    .unwrap_or_else(|e| panic!("--stream-items: {e}"));
                assert!(stream_items > 0, "--stream-items must be at least 1");
                i += 2;
            }
            "--engine" => {
                let value = args.get(i + 1).expect("--engine needs a value");
                engine = Some(value.parse().unwrap_or_else(|e| panic!("--engine: {e}")));
                i += 2;
            }
            other => {
                positional.push(other);
                i += 1;
            }
        }
    }
    let name = positional.first().copied().unwrap_or("MUSHROOMS");
    let minsup: f64 = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let scale = positional
        .get(2)
        .and_then(|s| Scale::parse(s))
        .unwrap_or(Scale::Test);
    let engine = engine.unwrap_or_else(engine_from_env);

    // `DRIFT` is the windowed-streaming workload (popularity rotates per
    // block); every other name resolves against the paper stand-ins.
    let (label, db) = if name.eq_ignore_ascii_case("DRIFT") {
        let n = match scale {
            Scale::Test => 1_000,
            Scale::Default => 10_000,
            Scale::Full => 100_000,
        };
        ("DRIFT*", drifting_census(n, 8, (n / 4).max(1), 0xD21F7))
    } else {
        let dataset = StandIn::ALL
            .into_iter()
            .find(|d| d.name().starts_with(name))
            .unwrap_or(StandIn::Mushrooms);
        (dataset.name(), dataset.generate(scale))
    };
    println!(
        "{label} |O|={} |I|={} minsup={minsup} engine={engine}",
        db.n_transactions(),
        db.n_items()
    );
    if serve {
        let minconf = 0.5;
        let rows = project_top_items(&db, stream_items);
        let split = rows.len() / 2;
        println!(
            "serving smoke over the top {stream_items} items: {split} seed rows, \
             {} appended in ≤{batch}-row batches, {readers} reader(s)",
            rows.len() - split
        );
        let miner = RuleMiner::new(MinSupport::Fraction(minsup))
            .min_confidence(minconf)
            .engine(engine);
        let start = Instant::now();
        let server = miner.serving(TransactionDb::from_rows(rows[..split].to_vec()));
        let seed_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "seed snapshot: {} rules at epoch {} ({seed_ms:.1} ms)",
            server.snapshot().n_rules(),
            server.epoch()
        );
        let lanes: Vec<Mutex<RuleReader>> =
            (0..readers).map(|_| Mutex::new(server.reader())).collect();
        let server = Mutex::new(server);
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let per_worker = fan_out(readers + 1, |worker| {
            if worker == 0 {
                let mut server = server.lock().expect("writer lane");
                for chunk in rows[split..].chunks(batch) {
                    server.ingest(chunk.to_vec()).expect("append batch");
                }
                done.store(true, Ordering::Relaxed);
                Vec::new()
            } else {
                let mut reader = lanes[worker - 1].lock().expect("reader lane");
                let mut latencies = Vec::new();
                'outer: for _pass in 0..1024 {
                    for basket in &rows {
                        let t0 = Instant::now();
                        let hit = reader.match_basket(basket);
                        latencies.push(t0.elapsed().as_nanos() as u64);
                        std::hint::black_box(hit.len());
                        if done.load(Ordering::Relaxed) && latencies.len() >= rows.len() {
                            break 'outer;
                        }
                    }
                }
                latencies
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let server = server.into_inner().expect("writer done");
        let mut merged: Vec<u64> = per_worker.into_iter().flatten().collect();
        merged.sort_unstable();
        let stats = server.stats();
        let pct = |p: usize| merged[(merged.len() - 1) * p / 100] as f64 / 1e3;
        println!(
            "served {} queries in {elapsed:.2} s ({:.0} q/s): p50 {:.1} µs, p99 {:.1} µs",
            merged.len(),
            merged.len() as f64 / elapsed,
            pct(50),
            pct(99)
        );
        println!(
            "final epoch {}: {} rules over {} rows; {} snapshots published, \
             {} index probes, {} rules scanned, {} fired",
            server.epoch(),
            server.snapshot().n_rules(),
            server.n_objects(),
            stats.snapshots_published,
            stats.index_probes,
            stats.rules_scanned,
            stats.rules_fired
        );
        return;
    }

    if stream {
        let minconf = 0.5;
        // The maintained closure system grows with the vocabulary, so a
        // bounded universe is what keeps a long replay serviceable.
        let rows = project_top_items(&db, stream_items);
        println!("streaming replay over the top {stream_items} items");
        let miner = RuleMiner::new(MinSupport::Fraction(minsup))
            .min_confidence(minconf)
            .engine(engine.clone());

        if let Some(dir) = checkpoint_dir {
            // Durable replay: journal every batch, optionally crash
            // mid-stream and finish on the recovered session.
            let (mut ckpt, resumed) = miner
                .checkpointing(TransactionDb::from_rows(vec![]), &dir)
                .expect("open checkpoint directory");
            if let Some(report) = resumed {
                println!("resumed a persisted session:\n{report}");
            }
            if window > 0 {
                ckpt.set_window(Window::Sliding(window))
                    .expect("persist window policy");
                println!("sliding window: the newest {window} rows");
            }
            let start = Instant::now();
            let mut session = Some(ckpt);
            let mut batches = 0usize;
            for chunk in rows.chunks(batch) {
                if crash_after == Some(batches) {
                    drop(session.take()); // the simulated crash
                    println!(
                        "simulated crash after {batches} batches; recovering {}",
                        dir.display()
                    );
                    let t0 = Instant::now();
                    let (recovered, report) =
                        CheckpointedMiner::recover(&dir).expect("recover session");
                    println!("{report}");
                    println!("recovery took {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
                    session = Some(recovered);
                }
                session
                    .as_mut()
                    .expect("live session")
                    .push_batch(chunk.to_vec())
                    .expect("append batch");
                batches += 1;
            }
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            let mut ckpt = session.expect("live session");
            println!(
                "durable replay: {} rows in {batches} batches of ≤{batch} ({elapsed:.1} ms); \
                 checkpoint generation {}, {} batches / {} bytes journaled since the last fold",
                rows.len(),
                ckpt.generation(),
                ckpt.journal_batches(),
                ckpt.journal_bytes()
            );
            let bases = ckpt.bases();
            println!(
                "|FC| = {} ({} Hasse edges, DG {} rules, Lux reduced {} rules at minconf {minconf})",
                bases.n_closed_nonempty(),
                bases.lattice.n_edges(),
                bases.dg.len(),
                bases.luxenburger_reduced_rules().len(),
            );
            return;
        }

        let start = Instant::now();
        let mut session = miner.streaming(TransactionDb::from_rows(vec![]));
        if window > 0 {
            session.set_window(Window::Sliding(window));
            println!("sliding window: the newest {window} rows");
        }
        let (mut batches, mut added, mut removed, mut rules_moved) = (0usize, 0, 0, 0);
        let mut expired = 0usize;
        for chunk in rows.chunks(batch) {
            let delta = session.push_batch(chunk.to_vec()).expect("append batch");
            batches += 1;
            added += delta.closed_added.len();
            removed += delta.closed_removed.len();
            expired += delta.expired;
            rules_moved += delta.dg.added.len()
                + delta.dg.removed.len()
                + delta.lux_reduced.added.len()
                + delta.lux_reduced.removed.len();
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        let n_replayed = rows.len();
        let bases = session.bases();
        println!(
            "replayed {n_replayed} rows in {batches} batches of ≤{batch} ({elapsed:.1} ms): \
             |FC| = {} ({} Hasse edges, DG {} rules, Lux reduced {} rules at minconf {minconf})",
            bases.n_closed_nonempty(),
            bases.lattice.n_edges(),
            bases.dg.len(),
            bases.luxenburger_reduced_rules().len(),
        );
        println!(
            "movement: {added} closed sets entered, {removed} left, \
             {rules_moved} DG/Lux-reduced rule changes; {} closure classes maintained",
            session.n_closure_classes()
        );
        if window > 0 {
            println!(
                "window: {expired} rows expired, {} retained ({} storage bytes)",
                session.n_objects(),
                session.db().storage_bytes()
            );
        }
        let gen = session.gen_stats();
        println!(
            "generator work: {} extension candidates, {} subsumption checks, \
             {} transversal fallbacks",
            gen.candidates, gen.subsumption_checks, gen.transversal_fallbacks
        );
        let streaming_calls = session.context().closure_cache_stats().engine_calls();
        let remine_ctx = MiningContext::with_engine(session.db().clone(), engine);
        let _ = miner.mine_context(&remine_ctx);
        println!(
            "engine calls: {streaming_calls} for the whole replay vs {} for ONE \
             re-mine of the final context",
            remine_ctx.closure_cache_stats().engine_calls()
        );
        return;
    }

    let ctx = MiningContext::with_engine(db, engine);
    println!("resolved backend: {}", ctx.engine_name());

    let start = Instant::now();
    let fc = Close::new().mine_closed(&ctx, MinSupport::Fraction(minsup));
    println!(
        "|FC| = {} ({} passes, {:.1} ms)",
        fc.len(),
        fc.stats.db_passes,
        start.elapsed().as_secs_f64() * 1e3
    );
    let largest = fc.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    println!("largest closed set: {largest} items");

    if with_frequent {
        let start = Instant::now();
        let f = Apriori::new().mine(&ctx, MinSupport::Fraction(minsup));
        println!(
            "|F| = {} ({:.1} ms)",
            f.len(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
}
