//! Workload definitions, set-up, the timed phase, the after-run checks
//! and recovery.

use crate::model::{pairs_of, Expect, Relation, Rng, RowForm, Zipf};
use crate::ops::{Call, Conn, Kind, Op, Reads, Writer, KINDS};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xst_client::coord::Coordinator;
use xst_client::Client;
use xst_server::{ServedEngine, Server, ServerConfig};
use xst_storage::ShardedEngine;

/// Rows per `Put` while loading.
const LOAD_CHUNK: usize = 500;
/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Recoveries per run: at least `RECOVERY_REPS`, and more (up to
/// `RECOVERY_MAX_REPS`) until they span `RECOVERY_SPAN_S`, so a short
/// recovery is sampled over as much of the host's varying load as a
/// long one. `recovery_s` is their median.
const RECOVERY_REPS: usize = 5;
const RECOVERY_MAX_REPS: usize = 25;
const RECOVERY_SPAN_S: f64 = 2.0;
/// Write rounds per second of the timed phase.
const ROUNDS_PER_S: u64 = 25;
/// Autocommit single-row writes per round.
const SINGLES_PER_ROUND: usize = 12;
/// New rows (and deleted rows) per transaction.
const TXN_ROWS: usize = 8;
/// Zipf exponent of probed keys.
const ZIPF_S: f64 = 0.99;

/// How the program is deployed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deploy {
    /// One 2-shard `ServedEngine` behind one `Server`, and two `Client`
    /// sessions on their own threads: session 0 writes, session 1 reads.
    Served,
    /// Two single-shard `Server`s behind one wire `Coordinator`, driven
    /// from one thread that both writes and reads.
    Cluster,
}

/// A workload: what is loaded, who reads, and what is written.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub deploy: Deploy,
    /// Distinct keys of the base table `t`.
    pub base_keys: usize,
    /// The written table: `t` itself, or the side table `w`.
    pub write_table: &'static str,
    /// Rows the written table holds beside the base rows.
    pub window: usize,
}

pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let scale = |n: usize| if tiny { (n / 20).max(40) } else { n };
    let s = match name {
        "scan" => Spec {
            name: "scan",
            deploy: Deploy::Served,
            base_keys: scale(2000),
            write_table: "w",
            window: 32,
        },
        "lookup" => Spec {
            name: "lookup",
            deploy: Deploy::Served,
            base_keys: scale(6000),
            write_table: "w",
            window: 32,
        },
        "commit" => Spec {
            name: "commit",
            deploy: Deploy::Served,
            base_keys: scale(1500),
            write_table: "t",
            window: 64,
        },
        "cluster" => Spec {
            name: "cluster",
            deploy: Deploy::Cluster,
            base_keys: scale(400),
            write_table: "t",
            window: 64,
        },
        _ => return None,
    };
    Some(s)
}

/// The seeded inputs of one run.
pub struct Inputs {
    pub base: Arc<Relation>,
    pub zipf: Arc<Zipf>,
    pub rng: Rng,
}

impl Inputs {
    pub fn new(spec: &Spec, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let base = Arc::new(Relation::random(spec.base_keys, &mut rng.fork(1)));
        let zipf = Arc::new(Zipf::new(spec.base_keys, ZIPF_S, &mut rng.fork(2)));
        rng = rng.fork(3);
        Inputs { base, zipf, rng }
    }

    pub fn form(spec: &Spec) -> RowForm {
        match spec.deploy {
            Deploy::Served => RowForm::Scoped,
            Deploy::Cluster => RowForm::Tuple,
        }
    }

    /// A fresh write stream, starting from the loaded state.
    pub fn writer(&self, spec: &Spec) -> Writer {
        let base = if spec.write_table == "t" {
            (*self.base).clone()
        } else {
            Relation::default()
        };
        Writer::new(
            spec.write_table,
            Inputs::form(spec),
            2,
            base,
            spec.window,
            SINGLES_PER_ROUND,
            TXN_ROWS,
        )
    }

    /// The read stream of session `i`.
    pub fn reads(&self, spec: &Spec) -> Reads {
        match spec.name {
            "scan" => {
                let pairs: BTreeSet<(i64, i64)> = self.base.pairs().into_iter().collect();
                Reads::Scan {
                    expect: Arc::new(Expect::Pairs(pairs)),
                    turn: 0,
                }
            }
            "lookup" => Reads::Lookup {
                rel: Arc::clone(&self.base),
                zipf: Arc::clone(&self.zipf),
                turn: 0,
            },
            "commit" => Reads::Racing {
                base: Arc::clone(&self.base),
                zipf: Arc::clone(&self.zipf),
                turn: 0,
            },
            _ => Reads::Gathered { turn: 0 },
        }
    }

    /// Every table and its loaded pairs.
    pub fn load(&self, spec: &Spec) -> Vec<(String, Vec<(i64, i64)>)> {
        let written = self.writer(spec).initial_pairs();
        if spec.write_table == "t" {
            vec![("t".into(), written)]
        } else {
            vec![
                ("t".into(), self.base.pairs()),
                (spec.write_table.into(), written),
            ]
        }
    }
}

/// The running program and the benchmark's connections to it.
pub enum World {
    Served {
        engine: Arc<ServedEngine>,
        server: Server,
        clients: Vec<Client>,
    },
    Cluster {
        engines: Vec<Arc<ServedEngine>>,
        servers: Vec<Server>,
        coord: Box<Coordinator>,
    },
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Start the program, load it through the client, and connect.
pub fn setup(
    spec: &Spec,
    load: &[(String, Vec<(i64, i64)>)],
    form: RowForm,
) -> Result<World, String> {
    match spec.deploy {
        Deploy::Served => {
            let engine = Arc::new(ServedEngine::with_shards(2));
            let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
                .map_err(err("server start"))?;
            let addr = server.addr().to_string();
            let mut clients = Vec::new();
            // Session 0 writes, session 1 reads.
            for i in 0..2 {
                clients.push(
                    Client::connect(&addr, &format!("servebench-{i}")).map_err(err("connect"))?,
                );
            }
            for (table, pairs) in load {
                for chunk in pairs.chunks(LOAD_CHUNK) {
                    clients[0]
                        .put(table, &form.set(chunk))
                        .map_err(err("load"))?;
                }
            }
            Ok(World::Served {
                engine,
                server,
                clients,
            })
        }
        Deploy::Cluster => {
            let mut engines = Vec::new();
            let mut servers = Vec::new();
            for _ in 0..2 {
                let engine = Arc::new(ServedEngine::new());
                let server =
                    Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
                        .map_err(err("server start"))?;
                engines.push(engine);
                servers.push(server);
            }
            let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
            let mut coord =
                Box::new(Coordinator::connect(&addrs, None).map_err(err("coordinator connect"))?);
            for (table, pairs) in load {
                for chunk in pairs.chunks(LOAD_CHUNK) {
                    coord.put(table, &form.set(chunk)).map_err(err("load"))?;
                }
            }
            Ok(World::Cluster {
                engines,
                servers,
                coord,
            })
        }
    }
}

impl World {
    /// Stop and join every server.
    pub fn stop(self) {
        match self {
            World::Served {
                mut server,
                clients,
                ..
            } => {
                drop(clients);
                server.stop();
            }
            World::Cluster {
                mut servers, coord, ..
            } => {
                drop(coord);
                for s in &mut servers {
                    s.stop();
                }
            }
        }
    }

    /// Durable bytes in every WAL: shard logs and decision logs.
    pub fn wal_bytes(&self) -> u64 {
        let engine_bytes = |e: &ShardedEngine| -> u64 {
            let shards: usize = (0..e.shard_count()).map(|i| e.shard_wal(i).len()).sum();
            (shards + e.coordinator_wal().len()) as u64
        };
        match self {
            World::Served { engine, .. } => engine_bytes(engine.sharded()),
            World::Cluster { engines, coord, .. } => {
                let shards: u64 = engines.iter().map(|e| engine_bytes(e.sharded())).sum();
                shards + coord.devices().1.len() as u64
            }
        }
    }
}

/// What one session saw in the timed phase.
#[derive(Default)]
pub struct Tally {
    pub lat_ns: [Vec<u64>; 3],
    /// The same latencies by operation type (the index into `lat_ns`)
    /// and shape.
    pub by_label: std::collections::BTreeMap<(usize, &'static str), Vec<u64>>,
    pub attempted: [u64; 3],
    pub failed: [u64; 3],
    pub rows_written: u64,
    /// When each completed operation finished, in seconds from the start
    /// of the timed phase.
    pub done_at: Vec<f64>,
    pub mismatches: Vec<String>,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        for i in 0..3 {
            self.lat_ns[i].extend(&other.lat_ns[i]);
            self.attempted[i] += other.attempted[i];
            self.failed[i] += other.failed[i];
        }
        for (label, v) in other.by_label {
            self.by_label.entry(label).or_default().extend(v);
        }
        self.rows_written += other.rows_written;
        self.done_at.extend(other.done_at);
        self.mismatches.extend(other.mismatches);
        self.errors.extend(other.errors);
    }

    /// Every operation succeeded and every answer matched the model.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.failed.iter().all(|&f| f == 0)
    }

    /// The typical latency of operation type `k`, in ns: the mean over
    /// its shapes (put and delete; image, restriction, …) of each
    /// shape's median. Each workload runs its shapes in a fixed turn, so
    /// every shape weighs the same. The median of all samples pooled
    /// would fall in the gap between two shapes' latencies, where a
    /// small shift of either moves it far.
    pub fn p50_ns(&self, k: usize) -> f64 {
        let medians: Vec<f64> = self
            .by_label
            .iter()
            .filter(|((kind, _), _)| *kind == k)
            .map(|(_, v)| crate::stats::quantile(v, 0.5) as f64)
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }

    /// Completed operations per second: the median over the whole
    /// seconds of a `seconds`-long phase, so a stall in one second does
    /// not move it; a phase shorter than a second counts all operations.
    pub fn ops_per_s(&self, seconds: f64) -> f64 {
        let windows = seconds.floor() as usize;
        if windows == 0 {
            return self.done_at.len() as f64 / seconds;
        }
        let mut counts = vec![0.0; windows];
        for &t in &self.done_at {
            if let Some(c) = counts.get_mut(t as usize) {
                *c += 1.0;
            }
        }
        crate::stats::median_f(&mut counts)
    }
}

fn slot(kind: Kind) -> usize {
    KINDS.iter().position(|&k| k == kind).unwrap_or(0)
}

/// Send one operation, time it, and check its answer after the clock
/// stops. `phase` is the start of the timed phase.
pub fn run_op<C: Conn>(conn: &mut C, op: &Op, tally: &mut Tally, phase: Instant) {
    let k = slot(op.kind);
    tally.attempted[k] += 1;
    let start = Instant::now();
    let mut replies = Vec::with_capacity(op.calls.len());
    for call in &op.calls {
        match conn.exec(call) {
            Ok(r) => replies.push(r),
            Err(e) => {
                if op.kind == Kind::Txn {
                    let _ = conn.exec(&Call::Abort);
                }
                tally.failed[k] += 1;
                if tally.errors.len() < 8 {
                    tally
                        .errors
                        .push(format!("{} {call:?}: {e}", op.kind.name()));
                }
                return;
            }
        }
    }
    let ns = start.elapsed().as_nanos() as u64;
    tally.done_at.push(phase.elapsed().as_secs_f64());
    tally.lat_ns[k].push(ns);
    tally.by_label.entry((k, op.label)).or_default().push(ns);
    tally.rows_written += op.rows;
    if let Err(e) = op.check(&replies) {
        if tally.mismatches.len() < 8 {
            tally.mismatches.push(format!("{}: {e}", op.kind.name()));
        }
    }
}

/// One session's share of the timed phase. The writer runs its write
/// rounds on a fixed schedule (`ROUNDS_PER_S`), so every run writes the
/// same rows whatever the program's speed; reads fill the time between
/// rounds in a closed loop until the deadline. The writer finishes any
/// round still due after the deadline.
pub fn session<C: Conn>(
    conn: &mut C,
    mut writer: Option<&mut Writer>,
    mut reads: Option<(Reads, Rng)>,
    start: Instant,
    seconds: f64,
) -> Tally {
    let mut tally = Tally::default();
    let deadline = start + Duration::from_secs_f64(seconds);
    let rounds = (seconds * ROUNDS_PER_S as f64).round().max(1.0) as u64;
    let period = Duration::from_secs_f64(1.0 / ROUNDS_PER_S as f64);
    let mut done = 0u64;
    loop {
        let now = Instant::now();
        if let Some(w) = writer.as_deref_mut() {
            if done < rounds {
                let due = start + period * done as u32;
                if now >= due {
                    for op in w.round() {
                        run_op(conn, &op, &mut tally, start);
                    }
                    done += 1;
                    continue;
                }
                if reads.is_none() || now >= deadline {
                    std::thread::sleep(due - now);
                    continue;
                }
            } else if reads.is_none() {
                break;
            }
        }
        if now >= deadline {
            break;
        }
        if let Some((r, rng)) = reads.as_mut() {
            let op = r.next(rng, writer.as_deref());
            run_op(conn, &op, &mut tally, start);
        }
    }
    tally
}

/// Run the timed phase on every session at once.
pub fn timed_phase(
    world: &mut World,
    spec: &Spec,
    inputs: &Inputs,
    writer: &mut Writer,
    seconds: f64,
    phase: u64,
) -> Tally {
    let reads = |i: usize| -> Option<(Reads, Rng)> {
        let reads = i > 0 || spec.deploy == Deploy::Cluster;
        reads.then(|| (inputs.reads(spec), inputs.rng.fork(100 * phase + i as u64)))
    };
    let start = Instant::now();
    let mut total = Tally::default();
    match world {
        World::Served { clients, .. } => {
            let (first, rest) = clients.split_at_mut(1);
            let tallies = std::thread::scope(|s| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .enumerate()
                    .map(|(i, c)| {
                        let r = reads(i + 1);
                        s.spawn(move || session(c, None, r, start, seconds))
                    })
                    .collect();
                let mut out = vec![session(
                    &mut first[0],
                    Some(writer),
                    reads(0),
                    start,
                    seconds,
                )];
                out.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("session thread")),
                );
                out
            });
            tallies.into_iter().for_each(|t| total.merge(t));
        }
        World::Cluster { coord, .. } => {
            total.merge(session(
                &mut **coord,
                Some(writer),
                reads(0),
                start,
                seconds,
            ));
        }
    }
    total
}

/// After the timed phase: every table read back through the program
/// equals the model; on the cluster, the shard fragments are disjoint
/// and gather to the model.
pub fn final_check(
    world: &mut World,
    tables: &[(String, BTreeSet<(i64, i64)>)],
) -> Result<(), String> {
    for (table, want) in tables {
        let got = match world {
            World::Served { clients, .. } => clients[0].get(table).map_err(err("final get"))?,
            World::Cluster { coord, .. } => coord.get(table).map_err(err("final get"))?,
        };
        let got = pairs_of(&got)?;
        if &got != want {
            return Err(format!(
                "final {table}: {} rows, model {}",
                got.len(),
                want.len()
            ));
        }
        if let World::Cluster { servers, .. } = world {
            let mut seen = BTreeSet::new();
            for s in servers.iter() {
                let mut c = Client::connect(&s.addr().to_string(), "servebench-check")
                    .map_err(err("shard connect"))?;
                for row in pairs_of(&c.frag_read(table).map_err(err("frag read"))?)? {
                    if !seen.insert(row) {
                        return Err(format!("{table}: row {row:?} is on two shards"));
                    }
                }
            }
            if &seen != want {
                return Err(format!(
                    "{table}: shard fragments gather to {} rows, model {}",
                    seen.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(())
}

fn check_recovered(
    e: &ShardedEngine,
    tables: &[(String, BTreeSet<(i64, i64)>)],
    form: RowForm,
) -> Result<(), String> {
    for (table, want) in tables {
        let identity = e.latest_identity(table).map_err(err("recovered read"))?;
        let got = match form {
            RowForm::Scoped => pairs_of(&identity)?,
            RowForm::Tuple => {
                let members = xst_server::records_identity_to_set(&identity)?;
                pairs_of(&members)?
            }
        };
        if &got != want {
            return Err(format!(
                "recovered {table}: {} rows, model {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// Rebuild from durable state (see `RECOVERY_REPS`), check every
/// rebuild against the model, and return the median time. On the
/// cluster one recovery is the coordinator's plus every shard's.
pub fn recover(
    world: &mut World,
    tables: &[(String, BTreeSet<(i64, i64)>)],
    form: RowForm,
) -> Result<f64, String> {
    let mut times = Vec::new();
    let span = Instant::now();
    while times.len() < RECOVERY_REPS
        || (times.len() < RECOVERY_MAX_REPS && span.elapsed().as_secs_f64() < RECOVERY_SPAN_S)
    {
        match world {
            World::Served { engine, .. } => {
                let start = Instant::now();
                let rec = engine.recover(&[]).map_err(err("recover"))?;
                times.push(start.elapsed().as_secs_f64());
                check_recovered(&rec, tables, form)?;
            }
            World::Cluster {
                engines,
                servers,
                coord,
            } => {
                let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
                let (storage, wal) = coord.devices();
                let start = Instant::now();
                let fresh = Coordinator::recover(&addrs, storage, wal, None)
                    .map_err(err("coordinator recover"))?;
                let decided: BTreeSet<u64> = fresh.committed_gtxns().into_iter().collect();
                let mut shards = Vec::new();
                for e in engines.iter() {
                    shards.push(
                        e.recover_with_decisions(&[], &decided)
                            .map_err(err("shard recover"))?,
                    );
                }
                times.push(start.elapsed().as_secs_f64());
                **coord = fresh;
                for (table, want) in tables {
                    let mut seen = BTreeSet::new();
                    for s in &shards {
                        let members = xst_server::records_identity_to_set(
                            &s.latest_identity(table).map_err(err("recovered read"))?,
                        )?;
                        for row in pairs_of(&members)? {
                            if !seen.insert(row) {
                                return Err(format!("recovered {table}: {row:?} on two shards"));
                            }
                        }
                    }
                    if &seen != want {
                        return Err(format!(
                            "recovered {table}: {} rows, model {}",
                            seen.len(),
                            want.len()
                        ));
                    }
                }
            }
        }
    }
    Ok(crate::stats::median_f(&mut times))
}

/// A memory figure of this process from `/proc/self/status`, in bytes:
/// `VmHWM` (peak resident set) or `VmRSS` (current).
pub fn status_bytes(field: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(err("read /proc/self/status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or(format!("no {field} in /proc/self/status"))?;
    Ok(kb * 1024.0)
}
