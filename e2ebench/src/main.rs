//! End-to-end benchmark of the interface service: query text in over loopback HTTP,
//! interface JSON out.  See README.md for the workloads and metrics.
//!
//! ```text
//! e2ebench --workload <longlog|fleet|sdss|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer ones traced).

mod alloc;
mod check;
mod http_run;
mod replay;
mod stats;
mod trace;
mod workload;

use check::{Expected, Tally};
use stats::{median, tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Spec, SPECS};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-ups timed before the rounds; `setup_s` is the median over these and the one
/// that starts each round.
const SETUP_REPS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad.clone())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad.clone())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Restricts the process to the CPU it starts on; threads spawned later inherit the
/// mask.  Each request hands off between the client, the HTTP acceptor and the pool
/// worker.  On one CPU a hand-off is a context switch; across the virtual CPUs of a
/// shared host it waits for the other CPU to be scheduled, and that wait follows the
/// host's load from run to run.  The threads rarely run at once, so one CPU costs
/// little throughput.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, mask_bytes: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: both are plain libc calls; the mask outlives the call and its size is
    // passed with it.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= mask.len() * 64 {
        return Err(format!("CPU {cpu} is beyond the affinity mask"));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn main() -> ExitCode {
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!("e2ebench: running on CPU {cpu}"),
        Err(e) => eprintln!("e2ebench: not pinned to one CPU: {e}"),
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <longlog|fleet|sdss|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<&'static Spec> = if args.workload == "all" {
        SPECS.iter().collect()
    } else {
        match workload::spec(&args.workload) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("e2ebench: unknown workload {:?}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let mut lines = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for spec in &specs {
        let outcome = match run_workload(spec, &args, &root) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("e2ebench: {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        for error in outcome.tally.errors.iter().take(10) {
            eprintln!("e2ebench: {}: check failed: {error}", spec.name);
        }
        correct &= outcome.tally.correct() && outcome.metrics.iter().all(|m| m.1.is_finite());
        attempted += outcome.tally.attempted;
        failed += outcome.tally.failed;
        let prefix = if specs.len() > 1 {
            format!("{}.", spec.name)
        } else {
            String::new()
        };
        for (name, value, unit) in &outcome.metrics {
            eprintln!("{:>8} {name:<28} {value:>14.4} {unit}", spec.name);
            lines.push((format!("{prefix}{name}"), *value, *unit));
        }
        eprintln!(
            "{:>8} operations: {} attempted, {} failed",
            spec.name, outcome.tally.attempted, outcome.tally.failed
        );
    }
    println!("{}", json_line(correct, attempted, failed, &lines));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(spec: &'static Spec, args: &Args, root: &Path) -> std::io::Result<Outcome> {
    let root: PathBuf = root.join(format!("{}-{}", spec.name, std::process::id()));
    // Set-ups on their own before the rounds, which each start with one more.
    let mut setup_s = Vec::new();
    let first = http_run::round_seed(args.seed, 0);
    for _ in 0..SETUP_REPS {
        let dir = http_run::fresh_dir(&root, "setup")?;
        let (_, server, seconds) = http_run::setup(spec, first, &dir)?;
        setup_s.push(seconds);
        server.shutdown();
        drop(server);
        std::fs::remove_dir_all(&dir)?;
    }
    let mut tally = Tally::default();
    let samples = http_run::run(spec, args.seed, &root, args.seconds, &mut tally)?;
    setup_s.extend_from_slice(&samples.setup_s);
    let peak_heap: Vec<f64> = samples.peak_heap.iter().map(|&b| b as f64 / MIB).collect();

    let tails = [
        ("http.post", &samples.post_ms),
        ("http.refresh", &samples.refresh_ms),
        ("http.repeat_get", &samples.repeat_ms),
        ("restart_interface", &samples.restart_ms),
    ];
    for (name, values) in tails {
        match tail(values) {
            Some(t) => eprintln!(
                "{:>8} {name}: p50 {:.4} ms, p{} {:.4} ms over {} samples",
                spec.name,
                median(values),
                t.percentile,
                t.value,
                t.samples
            ),
            None => eprintln!(
                "{:>8} {name}: p50 {:.4} ms over {} samples (too few for a tail)",
                spec.name,
                median(values),
                values.len()
            ),
        }
    }
    let rates: Vec<String> = samples
        .ingest_rate
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    eprintln!(
        "{:>8} rounds: {}; ingest stmt/s by round: {}",
        spec.name,
        samples.rounds,
        rates.join(" ")
    );

    let metrics = if args.trace {
        traced_metrics(&workload::generate(spec, first), &root, &samples)?
    } else {
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("ingest_stmts_per_s", median(&samples.ingest_rate), "stmt/s"),
            ("refresh_p50_ms", median(&samples.refresh_ms), "ms"),
            ("repeat_get_p50_ms", median(&samples.repeat_ms), "ms"),
            ("restart_interface_ms", median(&samples.restart_ms), "ms"),
            ("peak_heap_mib", median(&peak_heap), "MiB"),
        ]
    };
    let _ = std::fs::remove_dir_all(&root);
    Ok(Outcome { tally, metrics })
}

/// The tail of `values`, or their median when there are too few for a tail.
fn tail_or_median(values: &[f64]) -> f64 {
    tail(values).map_or_else(|| median(values), |t| t.value)
}

fn traced_metrics(
    w: &workload::Workload,
    root: &Path,
    samples: &http_run::Samples,
) -> std::io::Result<Vec<Metric>> {
    // The same replay untraced and traced, alternating twice: the difference is the
    // tracing overhead.  The spans and counts are the last traced replay's.
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    for _ in 0..2 {
        untraced_s += replay::replay(w, root, &mut trace::Tracer::new(false))?.ingest_s;
        let mut tracer = trace::Tracer::new(true);
        let counts = replay::replay(w, root, &mut tracer)?;
        traced_s += counts.ingest_s;
        last = Some((tracer, counts));
    }
    let (tracer, counts) = last.expect("two traced replays");
    eprintln!(
        "{:>8} replay ingest: {untraced_s:.3} s untraced, {traced_s:.3} s traced",
        w.spec.name
    );
    let spans_path = root
        .parent()
        .expect("run directory has a parent")
        .join(format!("spans-{}.jsonl", w.spec.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&spans_path)?);
    tracer.write_to(&mut out)?;
    std::io::Write::flush(&mut out)?;
    eprintln!(
        "{:>8} spans written to {}",
        w.spec.name,
        spans_path.display()
    );

    let self_ns = trace::self_times(tracer.spans());
    let layer_ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    for (name, ns) in &self_ns {
        eprintln!(
            "{:>8} self time {name:<16} {:>12.3} ms",
            w.spec.name,
            *ns as f64 / 1e6
        );
    }
    let unattributed: u64 = replay::GROUPING_SPANS
        .iter()
        .filter_map(|name| self_ns.get(name))
        .sum();
    let footprint_ratio = footprint_ratio(&w.tenants[0]);
    let expected = check::expect_all(w);
    let widgets: usize = expected.iter().map(|e| e.interface.widgets().len()).sum();
    let inexpressible: usize = expected.iter().map(Expected::inexpressible).sum();
    Ok(vec![
        ("http.post_p50_ms", median(&samples.post_ms), "ms"),
        ("http.post_tail_ms", tail_or_median(&samples.post_ms), "ms"),
        (
            "http.refresh_tail_ms",
            tail_or_median(&samples.refresh_ms),
            "ms",
        ),
        (
            "http.repeat_get_tail_ms",
            tail_or_median(&samples.repeat_ms),
            "ms",
        ),
        ("http.get_body_kib", median(&samples.get_body_kib), "KiB"),
        ("wire.decode_ms", layer_ms("wire.decode"), "ms"),
        ("pool.enqueue_ms", layer_ms("pool.enqueue"), "ms"),
        ("pool.snapshot_ms", layer_ms("pool.snapshot"), "ms"),
        ("pool.evictions", counts.evictions as f64, "count"),
        ("pool.rehydrations", counts.rehydrations as f64, "count"),
        ("pool.persist_ms", counts.pool_persist_ms, "ms"),
        ("pool.restore_ms", counts.pool_restore_ms, "ms"),
        ("journal.syncs", counts.journal_syncs as f64, "count"),
        ("journal.kib", counts.journal_bytes as f64 / 1024.0, "KiB"),
        ("parse.ms", layer_ms("parse"), "ms"),
        ("mine.ms", layer_ms("mine"), "ms"),
        ("mine.diff_records", counts.diff_records as f64, "count"),
        ("mine.distinct_trees", counts.distinct_trees as f64, "count"),
        ("graph.freeze_ms", layer_ms("graph.freeze"), "ms"),
        ("map.init_ms", layer_ms("map.init"), "ms"),
        (
            "map.merge_ms",
            layer_ms("map.full") - layer_ms("map.init"),
            "ms",
        ),
        ("map.widgets", widgets as f64, "count"),
        ("map.inexpressible", inexpressible as f64, "count"),
        ("render.ms", layer_ms("render"), "ms"),
        ("persist.ms", layer_ms("persist"), "ms"),
        ("persist.kib", counts.persist_bytes as f64 / 1024.0, "KiB"),
        ("restore.ms", layer_ms("restore"), "ms"),
        ("hydrate.ms", layer_ms("hydrate"), "ms"),
        (
            "heap.final_mib",
            samples.heap_after_ingest as f64 / MIB,
            "MiB",
        ),
        ("session.footprint_ratio", footprint_ratio, "ratio"),
        (
            "trace.unattributed_pct",
            unattributed as f64 / (counts.wall_s * 1e9) * 100.0,
            "%",
        ),
        (
            "trace.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
    ])
}

/// `Session::memory_footprint()` over the heap one session's ingest actually grew by,
/// measured while no other thread of this process allocates.
fn footprint_ratio(tenant: &workload::Tenant) -> f64 {
    let before = alloc::live_bytes();
    let mut session = pi_core::Session::new(check::session_options());
    session.push_stream_tagged(tenant.lines.iter().map(|(d, l)| (*d, l.as_ref())));
    let grown = alloc::live_bytes().saturating_sub(before);
    session.memory_footprint() as f64 / grown.max(1) as f64
}
