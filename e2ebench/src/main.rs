//! End-to-end benchmark of the rulebases workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <mine-dense|mine-sparse|serve-drift> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every workload is one session of the
//! system's two users, with default settings throughout, so every
//! end-to-end metric is measured on every workload:
//!
//! 1. set-up, eleven times (`setup_s` is the median): generate the inputs
//!    from `--seed` and open a `RuleServer` on the stream's first window;
//! 2. serve: one writer thread ingests 64-row batches back to back with a
//!    checkpoint every 8 batches, while one reader thread queries beside
//!    it (two closed loops);
//! 3. mine: `RuleMiner::mine` back to back on the workload's batch input,
//!    each result checked against a reference mined first;
//! 4. between the mines, recover from the last checkpoint 31 times.
//!
//! The workloads differ in the batch input and in how `--seconds` is
//! split: `mine-dense` and `mine-sparse` give 30% to serving, and
//! `serve-drift` gives half to serving and mines the census at a support
//! high enough that Close does nearly all of the mining work.
//!
//! With `--trace 0` the last line of standard output is the result with
//! every end-to-end metric. With `--trace 1` the mine phase runs the
//! stages of `RuleMiner::mine` one by one, and after it the session's
//! batches are replayed through the calls `RuleServer::ingest` composes,
//! each call in a span; the result carries every per-layer metric. The
//! run record (engine, threads, commit, the workload's shape) is printed
//! before the result and written with the spans to `e2ebench/out/`.

mod inputs;
mod mine;
mod report;
mod serve;
mod stats;
mod trace;

use mine::MineSpec;
use report::Metrics;
use rulebases_dataset::{Parallelism, TransactionDb};
use stats::{median, percentile, Tally};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Where the batch input of the mine phase comes from.
#[derive(Clone, Copy, Debug)]
enum MineInput {
    /// A 10 000-object sample of the C73D10K* census stand-in.
    Census,
    /// A 20 000-basket sample of the T10I4* Quest stand-in.
    Quest,
}

#[derive(Clone, Copy, Debug)]
struct Workload {
    name: &'static str,
    input: MineInput,
    spec: MineSpec,
    /// Share of `--seconds` that sizes the serve phase; mining gets the
    /// rest of the run.
    serve_share: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mine-dense",
        input: MineInput::Census,
        spec: MineSpec {
            min_support: 0.6,
            min_confidence: 0.5,
        },
        serve_share: 0.3,
    },
    Workload {
        name: "mine-sparse",
        input: MineInput::Quest,
        spec: MineSpec {
            min_support: 0.01,
            min_confidence: 0.5,
        },
        serve_share: 0.3,
    },
    // The same census sample at minsup 0.8 (|F| ~ 11k, |FC| ~ 52): Close
    // is ~85% of a mine and DG, Luxenburger and the Hasse diagram ~5%, so
    // this mine bypasses the rule-basis layers that `mine-dense` stresses.
    // Its ~0.2 s mines are steady; a mine of a few stream windows lasts
    // ~20 ms, and at that length the median of one run swung by 2x with
    // the host's steal time.
    Workload {
        name: "serve-drift",
        input: MineInput::Census,
        spec: MineSpec {
            min_support: 0.8,
            min_confidence: 0.5,
        },
        serve_share: 0.5,
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Fewest mines per untraced run.
const MIN_MINES: usize = 3;
/// Fewest staged-plus-direct mine pairs per traced run.
const MIN_TRACED_MINES: usize = 2;
/// The environment variables that override the defaults users get.
const OVERRIDES: [&str; 3] = [
    "RULEBASES_ENGINE",
    "RULEBASES_PIPELINE",
    "RULEBASES_THREADS",
];
const OUT_DIR: &str = "e2ebench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload <mine-dense|mine-sparse|serve-drift> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(*found.ok_or(format!("unknown workload {value}\n{USAGE}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match run(parse_args(std::env::args().skip(1))) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            ExitCode::from(2)
        }
    }
}

struct Setup {
    mine_db: TransactionDb,
    stream: serve::Stream,
    server: rulebases::RuleServer,
}

fn set_up(workload: Workload, seed: u64) -> Setup {
    let stream = serve::Stream::new(inputs::drift_stream(seed));
    let mine_db = match workload.input {
        MineInput::Census => inputs::census_sample(seed),
        MineInput::Quest => inputs::quest_sample(seed),
    };
    let server = serve::open(&stream);
    Setup {
        mine_db,
        stream,
        server,
    }
}

fn run(args: Result<Args, String>) -> Result<(), String> {
    let args = args?;
    if let Some(var) = OVERRIDES.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; the benchmark measures the default settings, so unset it"
        ));
    }
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    report::check_declared(&benchmark)?;

    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let tag = format!("{}-seed{seed}-trace{}", workload.name, u8::from(trace));
    let ckpt_dir = out.join(format!("ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(workload, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup {
        mine_db,
        stream,
        mut server,
    } = setup.expect("at least one set-up");

    let budget = Duration::from_secs(seconds);
    let serve_batches = serve::batches_for(seconds as f64 * workload.serve_share);
    let mut tally = Tally::default();

    let session = serve::run(
        &mut server,
        &stream,
        serve_batches,
        &ckpt_dir,
        seed,
        &mut tally,
    );
    // The mine phase has the rest of the run.
    let mine_budget = budget.saturating_sub(Duration::from_secs_f64(session.ingest_s));
    let window_rows = stream.window_after(session.batches);
    serve::check_window(&window_rows, &session.snapshot, &mut tally);
    let reference = mine::reference(workload.spec, &mine_db);

    let mut metrics = Metrics::default();
    let mut tracer = Tracer::new();
    let mut recovery = serve::Recovery::default();
    let recover_between = |share, tally: &mut Tally| {
        recovery.catch_up(share, &ckpt_dir, &server, tally);
    };
    let mine_seconds;
    if trace {
        let layers = mine::run_traced(
            workload.spec,
            &mine_db,
            &reference.shape,
            mine_budget,
            MIN_TRACED_MINES,
            &mut tally,
            &mut tracer,
            recover_between,
        );
        recovery.catch_up(1.0, &ckpt_dir, &server, &mut tally);
        mine_seconds = layers.untraced_seconds.clone();
        let replay = serve::replay_traced(
            &stream,
            session.batches,
            &session.snapshot,
            &mut tally,
            &mut tracer,
        );
        serve::replay_lattice(&stream, session.batches, &mut tracer);
        per_layer_metrics(
            &mut metrics,
            &tracer,
            &layers,
            &replay,
            &session,
            &recovery,
            &window_rows,
        );
    } else {
        mine_seconds = mine::run(
            workload.spec,
            &mine_db,
            &reference.shape,
            mine_budget,
            MIN_MINES,
            &mut tally,
            recover_between,
        );
        recovery.catch_up(1.0, &ckpt_dir, &server, &mut tally);
        let publish = &session.publish_ms;
        let query = &session.query_us;
        metrics.set("setup_s", median(&setup_s));
        metrics.set("mine_s", median(&mine_seconds));
        metrics.set(
            "ingest_rows_per_s",
            (session.batches * serve::BATCH) as f64 / session.ingest_s,
        );
        metrics.set("publish_ms.p50", median(publish));
        metrics.set("publish_ms.p90", percentile(publish, 90.0));
        metrics.set("query_us.p50", median(query));
        metrics.set("query_us.p99", percentile(query, 99.0));
        metrics.set("qps", session.queries as f64 / session.query_s);
        metrics.set("recover_ms", median(&recovery.ms));
        metrics.set("peak_rss_mb", report::peak_rss_mb());
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    // The tail percentiles are named; they must be the highest ones the
    // sample counts support.
    for (what, n, named) in [
        ("publish", session.publish_ms.len(), 90.0),
        ("query", session.query_us.len(), 99.0),
    ] {
        if stats::highest_percentile(n) != Some(named) {
            return Err(format!(
                "{n} {what} samples do not support p{named} as the tail"
            ));
        }
    }

    let catalog = if trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let values = metrics.in_catalog(catalog)?;
    let shape = &reference.shape;
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"commit\": \"{}\", \"nproc\": {}, \"engine\": \"{}\", \
         \"threads\": {{\"mine\": {}, \"serve_writer\": 1, \"serve_reader\": 1}}, \
         \"shape\": {{\"frequent\": {}, \"closed\": {}, \"dg_rules\": {}, \"lux_full_rules\": {}, \
         \"lux_reduced_rules\": {}, \"mine_rows\": {}, \"window_rows\": {}, \"served_rules\": {}}}, \
         \"samples\": {{\"setups\": {}, \"mines\": {}, \"batches\": {}, \"publish\": {}, \
         \"queries\": {}, \"query_latencies\": {}, \"checkpoints\": {}, \"recoveries\": {}}}, \
         \"mine_s\": {:?}, \"attempted\": {}, \"failed\": {}, \"failed_ratio\": {}}}",
        workload.name,
        report::git_commit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        reference.engine,
        Parallelism::Auto.threads(),
        shape.frequent,
        shape.closed,
        shape.dg_rules,
        shape.lux_full_rules,
        shape.lux_reduced_rules,
        mine_db.n_transactions(),
        window_rows.len(),
        session.snapshot.n_rules(),
        setup_s.len(),
        mine_seconds.len(),
        session.batches,
        session.publish_ms.len(),
        session.queries,
        session.query_us.len(),
        session.checkpoint_ms.len(),
        recovery.ms.len(),
        mine_seconds,
        tally.attempted,
        tally.failed,
        tally.failed_ratio(),
    );
    write_file(&out.join(format!("run-{tag}.json")), &record)?;
    if trace {
        write_file(&out.join(format!("spans-{tag}.jsonl")), &tracer.to_jsonl())?;
    }
    println!("run-record: {record}");
    for (name, unit, value) in &values {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "{:<36} {:>16.6} (failed {} of {} operations)",
        "failed_ratio",
        tally.failed_ratio(),
        tally.failed,
        tally.attempted
    );
    println!(
        "{}",
        report::result_line(tally.attempted, tally.failed, &values)
    );
    Ok(())
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn per_layer_metrics(
    metrics: &mut Metrics,
    tracer: &Tracer,
    layers: &mine::MineLayers,
    replay: &serve::StreamLayers,
    session: &serve::Session,
    recovery: &serve::Recovery,
    window_rows: &[Vec<u32>],
) {
    let secs = |name: &str| median(&tracer.seconds(name));
    metrics.set("mining.apriori_s", secs("mining.apriori"));
    metrics.set("mining.close_s", secs("mining.close"));
    metrics.set("mining.frequent", layers.shape.frequent as f64);
    metrics.set("mining.closed", layers.shape.closed as f64);
    metrics.set(
        "mining.close_yield",
        layers.shape.closed as f64 / layers.close_queries.max(1) as f64,
    );
    metrics.set("dataset.context.build_s", secs("dataset.context.build"));
    let engine = layers.engine;
    metrics.set("dataset.engine.supports", engine.supports as f64);
    metrics.set("dataset.engine.extents", engine.extents as f64);
    metrics.set("dataset.engine.intents", engine.intents as f64);
    metrics.set("dataset.engine.closure_hits", engine.hits as f64);
    metrics.set("dataset.engine.closure_misses", engine.misses as f64);
    metrics.set("dataset.engine.bytes_copied", engine.bytes_copied as f64);

    metrics.set("core.exact.dg_rules", layers.shape.dg_rules as f64);
    metrics.set(
        "core.approx.lux_full_rules",
        layers.shape.lux_full_rules as f64,
    );
    metrics.set(
        "core.approx.lux_reduced_rules",
        layers.shape.lux_reduced_rules as f64,
    );
    metrics.set("core.exact.dg_s", secs("core.exact.dg"));
    metrics.set("core.approx.lux_full_s", secs("core.approx.lux_full"));
    metrics.set("core.approx.lux_reduced_s", secs("core.approx.lux_reduced"));
    metrics.set("lattice.hasse_s", secs("lattice.hasse"));

    metrics.set(
        "stream.push_ms.p50",
        serve::span_ms(tracer, "stream.push", 50.0),
    );
    metrics.set(
        "stream.push_ms.p90",
        serve::span_ms(tracer, "stream.push", 90.0),
    );
    metrics.set(
        "stream.materialize_ms.p50",
        serve::span_ms(tracer, "stream.materialize", 50.0),
    );
    metrics.set("lattice.replay_s", secs("lattice.replay"));
    metrics.set("lattice.classes", replay.classes as f64);
    metrics.set("lattice.gen.candidates", replay.gen.candidates as f64);
    metrics.set(
        "lattice.gen.subsumption_checks",
        replay.gen.subsumption_checks as f64,
    );
    metrics.set(
        "lattice.gen.transversal_fallbacks",
        replay.gen.transversal_fallbacks as f64,
    );
    metrics.set(
        "dataset.engine.calls_during_replay",
        replay.engine_calls as f64,
    );
    metrics.set("dataset.segments", replay.segments as f64);
    metrics.set("dataset.storage_bytes", replay.storage_bytes as f64);

    let stats = session.stats;
    let per_query = |count: u64| count as f64 / stats.queries.max(1) as f64;
    metrics.set(
        "serve.snapshot_build_ms.p50",
        serve::span_ms(tracer, "serve.snapshot_build", 50.0),
    );
    metrics.set("serve.rules", session.snapshot.n_rules() as f64);
    metrics.set(
        "serve.index_probes_per_query",
        per_query(stats.index_probes),
    );
    metrics.set(
        "serve.rules_scanned_per_query",
        per_query(stats.rules_scanned),
    );
    metrics.set("serve.rules_fired_per_query", per_query(stats.rules_fired));
    metrics.set(
        "serve.fired_per_scanned",
        stats.rules_fired as f64 / stats.rules_scanned.max(1) as f64,
    );
    metrics.set(
        "serve.snapshots_published",
        stats.snapshots_published as f64,
    );
    metrics.set("serve.snapshot_refreshes", stats.snapshot_refreshes as f64);

    let user_bytes: usize = window_rows.iter().map(|row| 4 * row.len()).sum();
    metrics.set("checkpoint.write_ms.p50", median(&session.checkpoint_ms));
    metrics.set(
        "checkpoint.bytes_per_user_byte",
        session.checkpoint_bytes as f64 / user_bytes.max(1) as f64,
    );
    metrics.set(
        "checkpoint.restore_engine_calls",
        recovery.restore_engine_calls as f64,
    );
    metrics.set("trace.mine_overhead_ms", mine::overhead_ms(tracer, layers));
    metrics.set(
        "trace.ingest_overhead_ms",
        serve::overhead_ms(tracer, session),
    );
}
