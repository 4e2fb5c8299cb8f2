//! The untraced closed loop: one client on one keep-alive connection drives a server
//! hosted in this process over loopback HTTP.

use crate::check::{served_version, session_options, Expected, Tally};
use crate::workload::{Spec, Step, Workload};
use pi_server::client::Connection;
use pi_server::{DurabilityOptions, PoolOptions, Server, ServerOptions};
use pi_ui::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pool options with every thread count pinned: one pool worker, one shard (global,
/// deterministic LRU), a queue deep enough that a closed loop never sheds, and the
/// write-ahead journal (fsync on) under `dir`.
pub fn pool_options(spec: &Spec, dir: &Path) -> PoolOptions {
    PoolOptions {
        capacity: spec.capacity,
        shards: 1,
        queue_depth: spec.statements,
        workers: 1,
        session: session_options(),
        durability: Some(DurabilityOptions::new(dir)),
        ready_high_water: None,
    }
}

/// Starts a server over `dir` on an ephemeral loopback port (one HTTP acceptor) and
/// waits until it is ready.
pub fn start(spec: &Spec, dir: &Path) -> std::io::Result<Server> {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions {
            http_threads: 1,
            pool: pool_options(spec, dir),
            spill_dir: None,
        },
    )?;
    server.pool().wait_ready();
    Ok(server)
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Client-side samples of all rounds of one run.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub post_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub repeat_ms: Vec<f64>,
    pub restart_ms: Vec<f64>,
    pub get_body_kib: Vec<f64>,
    /// Each round's ingest rate: statements sent ÷ wall time from its first POST until
    /// every statement is applied.
    pub ingest_rate: Vec<f64>,
    /// Live heap right after the last round's ingest, with every tenant applied.
    pub heap_after_ingest: usize,
    /// Peak live heap of each round, from its set-up on.
    pub peak_heap: Vec<usize>,
    pub rounds: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Blocks until the pool has applied every queued statement.  The gauge locks each
/// tenant, so it waits out a worker that is mid-apply.
pub fn wait_applied(pool: &pi_server::SessionPool) {
    while pool.gauge().queued > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Set-up: generates the logs, encodes the bodies, starts a server over a fresh
/// directory and waits until it is ready.  Returns the time it took.
pub fn setup(
    spec: &'static Spec,
    seed: u64,
    dir: &Path,
) -> std::io::Result<(Workload, Server, f64)> {
    let started = Instant::now();
    let w = crate::workload::generate(spec, seed);
    let server = start(spec, dir)?;
    Ok((w, server, started.elapsed().as_secs_f64()))
}

/// Runs whole rounds, each from its own set-up, until `seconds` have passed (at least
/// one round).  Round `r` generates its logs from [`round_seed`]`(seed, r)`, so a run
/// averages over as many draws of the workload as it has rounds.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    root: &Path,
    seconds: f64,
    tally: &mut Tally,
) -> std::io::Result<Samples> {
    let mut samples = Samples::default();
    let start = Instant::now();
    while samples.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        let seed = round_seed(seed, samples.rounds);
        let expected = crate::check::expect_all(&crate::workload::generate(spec, seed));
        let dir = fresh_dir(root, "http")?;
        crate::alloc::reset_peak();
        let (w, server, setup_s) = setup(spec, seed, &dir)?;
        samples.setup_s.push(setup_s);
        round(&w, &expected, server, &dir, tally, &mut samples)?;
        samples.peak_heap.push(crate::alloc::peak_bytes());
        std::fs::remove_dir_all(&dir)?;
        samples.rounds += 1;
    }
    Ok(samples)
}

/// The generator seed of round `round` of a run started with `seed`.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    crate::workload::derive_seed(seed, 1 << 32 | round as u64)
}

fn round(
    w: &Workload,
    expected: &[Expected],
    mut server: Server,
    dir: &Path,
    tally: &mut Tally,
    samples: &mut Samples,
) -> std::io::Result<()> {
    let spec = w.spec;
    let steps = w.schedule();
    let mut conn = Connection::open(server.addr())?;

    // Ingest, with a refresh and a repeat GET after every k-th batch of a tenant.
    let began = Instant::now();
    let mut sent = 0u64;
    for step in &steps {
        match *step {
            Step::Post { tenant, batch } => {
                let t = &w.tenants[tenant];
                let started = Instant::now();
                let (status, _, body) = conn.request("POST", "/logs", Some(&t.bodies[batch]))?;
                samples.post_ms.push(ms(started.elapsed()));
                let n = (t.lines.len() - batch * spec.batch).min(spec.batch);
                sent += n as u64;
                let accepted = Json::parse(&body)
                    .ok()
                    .and_then(|j| j.get("accepted").and_then(Json::as_f64));
                tally.op(status == 202 && accepted == Some(n as f64), || {
                    format!("POST batch {batch} of {}: {status} {body}", t.path())
                });
            }
            Step::Refresh { tenant, batch } => {
                let t = &w.tenants[tenant];
                let path = t.path();
                let started = Instant::now();
                let (status, _, body) = conn.request("GET", &path, None)?;
                samples.refresh_ms.push(ms(started.elapsed()));
                samples.get_body_kib.push(body.len() as f64 / 1024.0);
                let want = t.version_through(batch, spec.batch);
                tally.op(status == 200 && served_version(&body) == Some(want), || {
                    format!(
                        "refresh {path}: {status}, version {:?}",
                        served_version(&body)
                    )
                });
                let started = Instant::now();
                let (status, _, again) = conn.request("GET", &path, None)?;
                samples.repeat_ms.push(ms(started.elapsed()));
                tally.op(status == 200 && again == body, || {
                    format!("repeat {path}: {status}, body differs from the refresh")
                });
            }
        }
    }
    wait_applied(server.pool());
    samples
        .ingest_rate
        .push(sent as f64 / began.elapsed().as_secs_f64());
    samples.heap_after_ingest = crate::alloc::live_bytes();

    // Every tenant's interface against its batch build.
    for (t, e) in w.tenants.iter().zip(expected) {
        let (status, _, body) = conn.request("GET", &t.path(), None)?;
        tally.served(t, e, status, &body);
    }
    tally.expressiveness(w, expected);

    // Restarts over the same directory, cycling through the tenants.
    for r in 0..spec.restarts {
        let t = &w.tenants[r * w.tenants.len() / spec.restarts];
        drop(conn);
        server.shutdown();
        drop(server);
        let started = Instant::now();
        server = start(spec, dir)?;
        conn = Connection::open(server.addr())?;
        let (status, _, body) = conn.request("GET", &t.path(), None)?;
        samples.restart_ms.push(ms(started.elapsed()));
        let e = &expected[r * w.tenants.len() / spec.restarts];
        tally.served(t, e, status, &body);
    }
    drop(conn);
    server.shutdown();
    Ok(())
}
