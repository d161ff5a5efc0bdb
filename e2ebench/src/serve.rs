//! The serve phase: a `RuleServer` over a sliding window of the drifting
//! census stream, with one writer ingesting back to back and one reader
//! querying beside it (two closed loops), inline checkpoints, and
//! recovery from the last checkpoint. The traced run replays the same
//! batches through the calls `RuleServer::ingest` composes.

use crate::mine::{engine_stats, MineSpec};
use crate::stats::{median, percentile, Reservoir, SplitMix, Tally};
use crate::trace::Tracer;
use rulebases::{
    CheckpointedMiner, GenStats, RuleReader, RuleServer, ServeStats, ServedBasis, ServingSnapshot,
    Window,
};
use rulebases_dataset::{Itemset, TransactionDb};
use rulebases_lattice::IncrementalLattice;
use std::collections::VecDeque;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The server's thresholds.
const SERVE_SPEC: MineSpec = MineSpec {
    min_support: 0.05,
    min_confidence: 0.3,
};
/// Rows the sliding window keeps; the server opens on the first 1024.
pub const WINDOW: usize = 1024;
/// Rows per `ingest` call.
pub const BATCH: usize = 64;
/// The writer checkpoints after every this many batches, and once more
/// after its last.
const CHECKPOINT_EVERY: usize = 8;
/// Fewest batches per run, so that p90 has ten samples beyond it.
const MIN_BATCHES: usize = 100;
/// Batches per second of serve time the writer is given. The serve phase
/// ingests a fixed number of batches rather than running for a fixed
/// time: the maintained lattice grows along the stream, so a time-bounded
/// writer would leave a faster machine with a larger state, dearer
/// publishes and slower recoveries, and the spread between runs would
/// feed on itself.
const BATCHES_PER_SECOND: f64 = 25.0;

/// Batches the writer ingests for a serve phase of `seconds`.
pub fn batches_for(seconds: f64) -> usize {
    ((seconds * BATCHES_PER_SECOND).round() as usize).max(MIN_BATCHES)
}
/// Publish-latency sample cap: supports p90, not p99.
const PUBLISH_SAMPLES: usize = 999;
/// Query-latency sample cap: supports p99, not p99.9.
const QUERY_SAMPLES: usize = 9_999;
/// The reader times one query in this many.
const TIME_EVERY: u64 = 16;
/// The reader checks one query in this many against the linear oracle
/// (every third query is a `match_basket`).
const CHECK_EVERY: u64 = 3 * 1024;
const TOP_K: usize = 5;
const RECOMMEND_K: usize = 3;
/// Distinct baskets the reader cycles through.
const BASKETS: usize = 4_096;
/// Recoveries per run; `recover_ms` is their median.
const RECOVERIES: usize = 31;
/// Checkpoint generations kept on disk.
const KEEP_CHECKPOINTS: usize = 2;

/// The generated stream: its first `WINDOW` rows seed the server, and
/// batch `k` is the next 64 rows after them, wrapping around at the end.
pub struct Stream {
    rows: Vec<Vec<u32>>,
}

impl Stream {
    pub fn new(rows: Vec<Vec<u32>>) -> Self {
        assert!(rows.len() > WINDOW, "the stream must outrun its seed");
        Stream { rows }
    }

    fn row(&self, i: usize) -> &Vec<u32> {
        &self.rows[i % self.rows.len()]
    }

    /// The first `rows` rows; the first `WINDOW` seed the server.
    pub fn head(&self, rows: usize) -> Vec<Vec<u32>> {
        self.rows[..rows].to_vec()
    }

    pub fn batch(&self, k: usize) -> Vec<Vec<u32>> {
        let start = WINDOW + k * BATCH;
        (start..start + BATCH)
            .map(|i| self.row(i).clone())
            .collect()
    }

    /// The rows in the window after `batches` batches.
    pub fn window_after(&self, batches: usize) -> Vec<Vec<u32>> {
        let end = WINDOW + batches * BATCH;
        (end - WINDOW..end).map(|i| self.row(i).clone()).collect()
    }

    /// The reader's baskets: stream rows at seeded positions.
    fn baskets(&self, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = SplitMix::new(seed);
        (0..BASKETS)
            .map(|_| self.row(rng.below(self.rows.len())).clone())
            .collect()
    }
}

/// Opens the served session: the default `RuleServer` (compact served
/// basis) seeded with the stream's first window.
pub fn open(stream: &Stream) -> RuleServer {
    SERVE_SPEC
        .miner()
        .serving(TransactionDb::from_rows(stream.head(WINDOW)))
        .window(Window::Sliding(WINDOW))
}

/// What the writer and reader measured.
#[derive(Debug)]
pub struct Session {
    pub batches: usize,
    /// Writer wall time, inline checkpoints included.
    pub ingest_s: f64,
    pub publish_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    /// Size of the last checkpoint file.
    pub checkpoint_bytes: u64,
    pub queries: u64,
    pub query_s: f64,
    pub query_us: Vec<f64>,
    pub stats: ServeStats,
    pub snapshot: Arc<ServingSnapshot>,
}

/// Runs the writer on this thread, ingesting `batches` batches, and the
/// reader on a second one until the writer is done.
pub fn run(
    server: &mut RuleServer,
    stream: &Stream,
    batches: usize,
    dir: &Path,
    seed: u64,
    tally: &mut Tally,
) -> Session {
    let baskets = stream.baskets(seed);
    let reader = server.reader();
    let stop = AtomicBool::new(false);
    let (writes, reads) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| read_loop(reader, &baskets, &stop, seed));
        let writes = write_loop(server, stream, batches, dir, tally);
        // The flag publishes no data: the reader only has to see it.
        stop.store(true, Ordering::Relaxed);
        (writes, reading.join().expect("reader thread panicked"))
    });
    tally.absorb(reads.tally);
    Session {
        batches: writes.batches,
        ingest_s: writes.seconds,
        publish_ms: writes.publish_ms.samples().to_vec(),
        checkpoint_ms: writes.checkpoint_ms,
        checkpoint_bytes: writes.checkpoint_bytes,
        queries: reads.queries,
        query_s: reads.seconds,
        query_us: reads.latency_us.samples().to_vec(),
        stats: server.stats(),
        snapshot: server.snapshot(),
    }
}

struct Writes {
    batches: usize,
    seconds: f64,
    publish_ms: Reservoir,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: u64,
}

fn write_loop(
    server: &mut RuleServer,
    stream: &Stream,
    batches: usize,
    dir: &Path,
    tally: &mut Tally,
) -> Writes {
    let mut writes = Writes {
        batches: 0,
        seconds: 0.0,
        publish_ms: Reservoir::new(PUBLISH_SAMPLES, 0x7075_626C),
        checkpoint_ms: Vec::new(),
        checkpoint_bytes: 0,
    };
    let start = Instant::now();
    while writes.batches < batches {
        let batch = stream.batch(writes.batches);
        let t = Instant::now();
        let result = server.ingest(batch);
        writes.publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        writes.batches += 1;
        tally.check(
            matches!(&result, Ok(delta) if delta.appended == BATCH && delta.n_objects == WINDOW),
            || format!("ingest {}: {result:?}", writes.batches),
        );
        if writes.batches.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoint(server, dir, &mut writes, tally);
        }
    }
    // One more after the last batch, so the recovered session must equal
    // the live one.
    if !writes.batches.is_multiple_of(CHECKPOINT_EVERY) {
        checkpoint(server, dir, &mut writes, tally);
    }
    writes.seconds = start.elapsed().as_secs_f64();
    writes
}

fn checkpoint(server: &RuleServer, dir: &Path, writes: &mut Writes, tally: &mut Tally) {
    let t = Instant::now();
    let result = server.checkpoint(dir);
    writes.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
    match result {
        Ok(path) => {
            writes.checkpoint_bytes = fs::metadata(&path).map_or(0, |m| m.len());
            tally.check(writes.checkpoint_bytes > 0, || format!("{path:?} is empty"));
        }
        Err(e) => {
            tally.check(false, || format!("checkpoint: {e}"));
        }
    }
    prune(dir);
}

/// Deletes all but the newest two checkpoint generations: the library
/// keeps every generation it writes, and the writer makes hundreds.
fn prune(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut checkpoints: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    // Generation numbers are zero-padded, so names sort by generation.
    checkpoints.sort();
    let stale = checkpoints.len().saturating_sub(KEEP_CHECKPOINTS);
    for path in &checkpoints[..stale] {
        let _ = fs::remove_file(path);
    }
}

struct Reads {
    queries: u64,
    seconds: f64,
    latency_us: Reservoir,
    tally: Tally,
}

/// The reader's closed loop: match, top-k and recommend in turn over the
/// baskets, timing one query in 16 and checking one match in 1024
/// against `match_basket_linear` on the snapshot that answered it.
fn read_loop(mut reader: RuleReader, baskets: &[Vec<u32>], stop: &AtomicBool, seed: u64) -> Reads {
    let mut latency_us = Reservoir::new(QUERY_SAMPLES, seed ^ 0x7175_6572);
    let mut tally = Tally::default();
    let mut i = 0u64;
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let basket = &baskets[i as usize % baskets.len()];
        let timer = i.is_multiple_of(TIME_EVERY).then(Instant::now);
        let matched = match i % 3 {
            0 => Some(reader.match_basket(basket)),
            1 => {
                black_box(reader.top_k(basket, TOP_K).len());
                None
            }
            _ => {
                black_box(reader.recommend(basket, RECOMMEND_K).len());
                None
            }
        };
        if let Some(t) = timer {
            latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if let Some(found) = matched.filter(|_| i.is_multiple_of(CHECK_EVERY)) {
            let (expected, _) = found.snapshot().match_basket_linear(basket);
            tally.check(expected == found.ids(), || {
                format!("query {i}: index {:?} != linear {expected:?}", found.ids())
            });
        }
        i += 1;
    }
    Reads {
        queries: i,
        seconds: start.elapsed().as_secs_f64(),
        latency_us,
        tally,
    }
}

/// Checks that `served` holds exactly the rules of a fresh mine of the
/// rows in the window.
pub fn check_window(window_rows: &[Vec<u32>], served: &ServingSnapshot, tally: &mut Tally) {
    let fresh = SERVE_SPEC
        .miner()
        .mine(TransactionDb::from_rows(window_rows.to_vec()));
    let expected = ServingSnapshot::from_bases(&fresh, ServedBasis::default(), served.epoch());
    tally.check(expected.rules() == served.rules(), || {
        "served rules differ from a fresh mine of the window".into()
    });
}

/// Recoveries from the checkpoint directory, spread over the mine phase.
#[derive(Debug, Default)]
pub struct Recovery {
    pub ms: Vec<f64>,
    pub restore_engine_calls: u64,
}

impl Recovery {
    /// Recovers the session from `dir` until `share` of the run's 31
    /// recoveries are done, checking each time that nothing was lost and
    /// that it serves exactly the live server's rules. Called between
    /// mines with the share of the mine phase elapsed, so the samples
    /// spread over the phase instead of landing in one burst that a
    /// short stall of the machine can cover.
    pub fn catch_up(&mut self, share: f64, dir: &Path, server: &RuleServer, tally: &mut Tally) {
        let due = (RECOVERIES as f64 * share.min(1.0)).ceil() as usize;
        while self.ms.len() < due {
            self.recover_once(dir, server, tally);
        }
    }

    fn recover_once(&mut self, dir: &Path, server: &RuleServer, tally: &mut Tally) {
        let live = server.snapshot();
        let t = Instant::now();
        let result = CheckpointedMiner::recover(dir);
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok((mut session, report)) => {
                self.restore_engine_calls = report.restore_engine_calls;
                let epoch = session.session().epoch();
                let n_objects = session.session().n_objects();
                let snapshot =
                    ServingSnapshot::from_bases(session.bases(), ServedBasis::default(), epoch);
                tally.check(
                    report.lost.is_none()
                        && epoch == server.epoch()
                        && n_objects == server.n_objects()
                        && snapshot.rules() == live.rules(),
                    || format!("recovered session differs from the live one: {report}"),
                );
            }
            Err(e) => {
                tally.check(false, || format!("recover: {e}"));
            }
        }
        prune(dir);
    }
}

/// Per-layer figures of the traced stream replay.
#[derive(Debug)]
pub struct StreamLayers {
    pub gen: GenStats,
    pub engine_calls: u64,
    pub classes: usize,
    pub segments: usize,
    pub storage_bytes: usize,
}

/// Replays the session's batches through `StreamingMiner::push_batch`,
/// `bases()` and `ServingSnapshot::from_bases` (what `RuleServer::ingest`
/// composes), one `ingest` span per batch, and checks that the final
/// rules equal the live server's.
pub fn replay_traced(
    stream: &Stream,
    batches: usize,
    live: &ServingSnapshot,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> StreamLayers {
    let mut miner = SERVE_SPEC
        .miner()
        .streaming(TransactionDb::from_rows(stream.head(WINDOW)))
        .window(Window::Sliding(WINDOW));
    miner.bases();
    let calls_before = engine_stats(miner.context()).engine_calls();
    let mut gen = GenStats::default();
    let mut snapshot = None;
    for k in 0..batches {
        let batch = stream.batch(k);
        let root = tracer.enter("ingest");
        let pushed = tracer.span("stream.push", || miner.push_batch(batch));
        match pushed {
            Ok(delta) => {
                gen.absorb(delta.gen);
                tracer.span("stream.materialize", || {
                    miner.bases();
                });
                let epoch = miner.epoch();
                snapshot = Some(tracer.span("serve.snapshot_build", || {
                    ServingSnapshot::from_bases(miner.bases(), ServedBasis::default(), epoch)
                }));
            }
            Err(e) => {
                tally.check(false, || format!("replayed push {k}: {e}"));
            }
        }
        tracer.exit(root);
    }
    tally.check(snapshot.is_some_and(|s| s.rules() == live.rules()), || {
        "replayed rules differ from the server's".into()
    });
    StreamLayers {
        gen,
        engine_calls: engine_stats(miner.context()).engine_calls() - calls_before,
        classes: miner.n_closure_classes(),
        segments: miner.n_segments(),
        storage_bytes: miner.db().storage_bytes(),
    }
}

/// The lattice's share of a push: the same rows replayed through
/// `insert_object_delta` / `remove_object_delta` alone, in one
/// `lattice.replay` span.
pub fn replay_lattice(stream: &Stream, batches: usize, tracer: &mut Tracer) {
    let mut lattice = IncrementalLattice::new();
    let mut live: VecDeque<Itemset> = VecDeque::with_capacity(WINDOW + BATCH);
    for row in stream.head(WINDOW) {
        let row = Itemset::from_ids(row);
        lattice.insert_object_delta(&row);
        live.push_back(row);
    }
    let rows: Vec<Vec<Itemset>> = (0..batches)
        .map(|k| stream.batch(k).into_iter().map(Itemset::from_ids).collect())
        .collect();
    tracer.span("lattice.replay", || {
        for batch in rows {
            for row in batch {
                black_box(lattice.insert_object_delta(&row));
                live.push_back(row);
            }
            while live.len() > WINDOW {
                let row = live.pop_front().expect("window is non-empty");
                black_box(lattice.remove_object_delta(&row));
            }
        }
    });
}

/// Traced-minus-untraced milliseconds per ingest.
pub fn overhead_ms(tracer: &Tracer, session: &Session) -> f64 {
    median(&tracer.seconds("ingest")) * 1e3 - median(&session.publish_ms)
}

/// Percentile `p` of a span's durations, in milliseconds.
pub fn span_ms(tracer: &Tracer, name: &str, p: f64) -> f64 {
    percentile(&tracer.seconds(name), p) * 1e3
}
