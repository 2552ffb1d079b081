//! The traced run: where a request's time goes, layer by layer.
//!
//! A traced run of a workload has four parts, all in one process:
//!
//! 1. the workload over TCP with the `xst-obs` collector off, for half
//!    of `--seconds` — the untraced reference figures;
//! 2. the same over TCP with the collector on, for the other half —
//!    tracing overhead, and the `xst-obs` counters (WAL bytes and
//!    flushes, 2PC commits) read as deltas of the public registry; on
//!    the cluster, the coordinator's public calls are timed here;
//! 3. on a served workload, a replay of its request stream through the
//!    decomposed in-process path, with no socket:
//!    client encode → frame → `read_frame` → decode → `Session::handle`
//!    → encode → frame → `read_frame` → decode,
//!    beside a mirror engine that receives the same writes through the
//!    storage and query public functions alone, so each of those calls
//!    is timed on its own. The cluster has no replay: its layers are the
//!    wire coordinator's public calls of part 2, and the figures that
//!    only a replay gives read 0;
//! 4. one recovery, for the replay rate of the durable state.
//!
//! Nothing here adds a span, counter or knob inside the program: every
//! figure is a timer around a public call, or a registry read.

use crate::model::Rng;
use crate::ops::{Call, Conn, Kind, Op, Reply};
use crate::run::{self, Deploy, Inputs, Spec, World};
use crate::{metric, stats, Metric, Outcome};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;
use xst_client::coord::Coordinator;
use xst_client::Client;
use xst_core::ops::Parallelism;
use xst_core::ExtendedSet;
use xst_obs::names;
use xst_query::{eval_sharded, merge_bindings, OpKind, ShardedBindings};
use xst_server::proto::{Request, Response};
use xst_server::{encode_frame, read_frame, set_to_records, ServedEngine, Session};
use xst_storage::snapshot::crc32;
use xst_storage::ShardedTxn;

/// Samples per layer; every reported figure is a median or a ratio of
/// sums over them.
#[derive(Default)]
struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn median(&mut self, name: &str) -> f64 {
        self.samples
            .get_mut(name)
            .map_or(0.0, |v| stats::median_f(v))
    }

    fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

/// Times one call, adding it to `layer` when the run is a read.
struct Clock<'a> {
    layers: &'a mut Layers,
    read: bool,
}

impl Clock<'_> {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let t = us(start);
        if self.read {
            self.layers.add(layer, t);
        }
        (out, t)
    }
}

/// One request through the decomposed in-process path. Returns the
/// answer, the time spent in all the in-process layers, and the part of
/// it spent in `Session::handle`.
fn wire(
    session: &mut Session,
    req: Request,
    clock: &mut Clock,
) -> Result<(Response, f64, f64), String> {
    let frame_err = |e: xst_server::FrameError| e.to_string();
    let (body, a) = clock.time("wire.request_encode_us", || req.encode());
    let (frame, b) = clock.time("wire.frame_encode_us", || encode_frame(&body));
    let frame = frame.map_err(frame_err)?;
    let (payload, c) = clock.time("wire.frame_read_us", || read_frame(&mut Cursor::new(frame)));
    let payload = payload.map_err(frame_err)?;
    let (req, d) = clock.time("wire.request_decode_us", || Request::decode(&payload));
    let req = req.map_err(|e| e.to_string())?;
    let (resp, e) = clock.time("session.handle_us", || session.handle(req));
    let (rbody, f) = clock.time("wire.response_encode_us", || resp.encode());
    let (rframe, g) = clock.time("wire.frame_encode_us", || encode_frame(&rbody));
    let rframe = rframe.map_err(frame_err)?;
    let (rpayload, h) = clock.time("wire.frame_read_us", || {
        read_frame(&mut Cursor::new(rframe))
    });
    let rpayload = rpayload.map_err(frame_err)?;
    let (resp, i) = clock.time("wire.response_decode_us", || Response::decode(&rpayload));
    let resp = resp.map_err(|e| e.to_string())?;
    let start = Instant::now();
    std::hint::black_box(crc32(&body));
    std::hint::black_box(crc32(&rbody));
    let crc_ns = start.elapsed().as_nanos() as f64;
    clock.layers.add("crc.ns", crc_ns);
    clock
        .layers
        .add("crc.bytes", (body.len() + rbody.len()) as f64);
    if clock.read {
        clock.layers.add("wire.response_bytes", rbody.len() as f64);
    }
    Ok((resp, a + b + c + d + e + f + g + h + i, e))
}

fn reply(resp: Response) -> Result<Reply, String> {
    match resp {
        Response::Value { set } => Ok(Reply::Set(set)),
        Response::Applied {
            rows,
            autocommit_ts,
        } => Ok(Reply::Applied(rows, autocommit_ts.is_some())),
        Response::TxnBegun { .. } | Response::Committed { .. } | Response::Aborted => {
            Ok(Reply::Done)
        }
        Response::Error(e) => Err(e.to_string()),
        other => Err(format!("unexpected {other:?}")),
    }
}

/// Time the query layer on sharded bindings: the static gate alone,
/// then the evaluator (which runs the gate again inside). Returns the
/// answer and the evaluator's time, the call a session or the
/// coordinator makes.
fn query(
    expr: &xst_query::Expr,
    b: &ShardedBindings,
    clock: &mut Clock,
) -> Result<(ExtendedSet, f64), String> {
    let merged = merge_bindings(b);
    clock.time("query.gate_us", || xst_query::check(expr, &merged));
    let (out, eval) = clock.time("query.eval_us", || {
        eval_sharded(expr, b, &Parallelism::sequential())
    });
    let (set, st) = out.map_err(|e| e.to_string())?;
    let bound: usize = b.values().flatten().map(ExtendedSet::card).sum();
    let layers = &mut clock.layers;
    layers.add("query.nodes", st.nodes as f64);
    for (kind, name) in [
        (OpKind::Image, "query.op.image_us"),
        (OpKind::Restrict, "query.op.restrict_us"),
    ] {
        let op = st.op(kind);
        if op.invocations > 0 {
            layers.add(name, op.wall_nanos as f64 / 1e3);
        }
    }
    layers.add("query.bound_members", bound as f64);
    layers.add("query.result_rows", set.card() as f64);
    Ok((set, eval))
}

/// The replay of a served workload: an engine behind a `Session` (the
/// decomposed path) and a mirror engine `b` that receives the same calls
/// through the storage and query public functions alone.
struct ServedReplay {
    session: Session,
    b: Arc<ServedEngine>,
    open: Option<ShardedTxn>,
}

impl ServedReplay {
    /// Run one call through the decomposed path and the mirror. Returns
    /// the answer and the in-process time of the decomposed path.
    fn call(&mut self, call: &Call, kind: Kind, clock: &mut Clock) -> Result<(Reply, f64), String> {
        let st = |e: xst_storage::StorageError| e.to_string();
        let b = self.b.sharded();
        // The decomposed path first, so the mirror's work does not cool
        // its caches; then the storage and query calls on their own.
        let (resp, inproc, handle) = wire(&mut self.session, call.request(), clock)?;
        let direct = match call {
            Call::Eval(expr) => {
                let mut bindings = ShardedBindings::new();
                let mut t = 0.0;
                for name in expr.tables() {
                    let (frags, ft) =
                        clock.time("storage.fragments_us", || b.latest_fragments(name));
                    bindings.insert(name.to_string(), frags.map_err(st)?);
                    t += ft;
                }
                t + query(expr, &bindings, clock)?.1
            }
            Call::Get(table) => {
                let start = Instant::now();
                b.latest_identity(table).map_err(st)?;
                us(start)
            }
            Call::Put(table, set) => {
                self.b.ensure_table(table);
                let records = set_to_records(set);
                let start = Instant::now();
                match self.open.as_mut() {
                    Some(txn) => {
                        for r in records {
                            txn.insert(table, r).map_err(st)?;
                        }
                    }
                    None => {
                        b.autocommit_insert(table, &records).map_err(st)?;
                        clock.layers.add("storage.autocommit_us", us(start));
                    }
                }
                us(start)
            }
            Call::Delete(table, set) => {
                let start = Instant::now();
                let auto = self.open.is_none();
                let txn = self.open.get_or_insert_with(|| b.begin());
                for r in set_to_records(set) {
                    txn.delete(table, r).map_err(st)?;
                }
                if auto {
                    if let Some(txn) = self.open.take() {
                        txn.commit().map_err(st)?;
                    }
                    clock.layers.add("storage.autocommit_us", us(start));
                }
                us(start)
            }
            Call::Begin => {
                self.open = Some(b.begin());
                0.0
            }
            Call::Commit => {
                let txn = self.open.take().ok_or("commit without a transaction")?;
                let start = Instant::now();
                txn.commit().map_err(st)?;
                let t = us(start);
                clock.layers.add("storage.commit_2pc_us", t);
                t
            }
            Call::Abort => {
                if let Some(txn) = self.open.take() {
                    txn.abort();
                }
                0.0
            }
        };
        if kind == Kind::Read {
            clock.layers.add("session.self_us", handle - direct);
        }
        Ok((reply(resp)?, inproc))
    }
}

/// Load a fresh 2-shard engine in-process with the workload's tables.
fn load_engine(tables: &[(String, Vec<ExtendedSet>)]) -> Result<Arc<ServedEngine>, String> {
    let engine = Arc::new(ServedEngine::with_shards(2));
    for (table, chunks) in tables {
        engine.ensure_table(table);
        for chunk in chunks {
            engine
                .sharded()
                .autocommit_insert(table, &set_to_records(chunk))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(engine)
}

/// Replay a served workload: whole write rounds, each followed by the
/// reads the untraced phase interleaved per round, until `seconds`
/// have passed. Returns the in-process time of a read, in µs, averaged
/// over read shapes as `Tally::p50_ns` does.
fn replay(
    spec: &Spec,
    inputs: &Inputs,
    reads_per_round: usize,
    seconds: f64,
    layers: &mut Layers,
    mismatches: &mut Vec<String>,
) -> Result<f64, String> {
    let form = Inputs::form(spec);
    let mut chunked: Vec<(String, Vec<ExtendedSet>)> = Vec::new();
    for (table, pairs) in inputs.load(spec) {
        chunked.push((table, pairs.chunks(500).map(|c| form.set(c)).collect()));
    }
    let mut r = ServedReplay {
        session: Session::new(load_engine(&chunked)?),
        b: load_engine(&chunked)?,
        open: None,
    };
    let mut writer = inputs.writer(spec);
    let mut reads = inputs.reads(spec);
    let mut rng: Rng = inputs.rng.fork(999);
    let mut read_sums: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut ops: Vec<Op> = writer.round();
        for _ in 0..reads_per_round {
            ops.push(reads.next(&mut rng, Some(&writer)));
        }
        for op in ops {
            let read = op.kind == Kind::Read;
            let mut clock = Clock { layers, read };
            let mut replies = Vec::new();
            let mut inproc = 0.0;
            for call in &op.calls {
                let (rep, t) = r.call(call, op.kind, &mut clock)?;
                replies.push(rep);
                inproc += t;
            }
            if read {
                read_sums.entry(op.label).or_default().push(inproc);
            }
            if let Err(e) = op.check(&replies) {
                mismatches.push(format!("replay {}: {e}", op.kind.name()));
            }
        }
    }
    let shapes = read_sums.len().max(1) as f64;
    Ok(read_sums
        .values_mut()
        .map(|v| stats::median_f(v))
        .sum::<f64>()
        / shapes)
}

/// Times the coordinator's public calls during the traced phase.
struct TimedCoord<'a> {
    coord: &'a mut Coordinator,
    layers: Layers,
}

impl Conn for TimedCoord<'_> {
    fn exec(&mut self, call: &Call) -> Result<Reply, String> {
        let in_txn = self.coord.in_txn();
        let start = Instant::now();
        let out = self.coord.exec(call);
        let t = us(start);
        match call {
            Call::Put(..) if in_txn => self.layers.add("coord.put_us", t),
            Call::Commit => self.layers.add("coord.commit_us", t),
            Call::Get(_) => self.layers.add("coord.get_us", t),
            _ => {}
        }
        out
    }
}

fn counter(name: &str) -> u64 {
    xst_obs::registry().counter(name, "").get()
}

fn fsyncs() -> u64 {
    xst_obs::registry()
        .histogram(names::STORAGE_WAL_FSYNC_NS, "")
        .snapshot()
        .count
}

fn decision_bytes(world: &World) -> u64 {
    match world {
        World::Served { engine, .. } => engine.sharded().coordinator_wal().len() as u64,
        World::Cluster { coord, .. } => coord.devices().1.len() as u64,
    }
}

fn versions_retained(world: &World, tables: &[String]) -> u64 {
    let engines: Vec<&ServedEngine> = match world {
        World::Served { engine, .. } => vec![engine],
        World::Cluster { engines, .. } => engines.iter().map(|e| &**e).collect(),
    };
    let mut n = 0;
    for e in engines {
        for i in 0..e.shard_count() {
            for t in tables {
                n += e.sharded().shard_mgr(i).version_count(t).unwrap_or(0) as u64;
            }
        }
    }
    n
}

fn connect_ms(world: &World) -> Result<f64, String> {
    let addr = match world {
        World::Served { server, .. } => server.addr().to_string(),
        World::Cluster { servers, .. } => servers[0].addr().to_string(),
    };
    let mut times = Vec::new();
    for i in 0..20 {
        let start = Instant::now();
        let c = Client::connect(&addr, &format!("servebench-connect-{i}"))
            .map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        drop(c);
    }
    Ok(stats::median_f(&mut times))
}

/// A traced run of `spec`; see the module documentation.
pub fn traced(spec: Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut s = crate::start(spec, seed)?;
    let connect = connect_ms(&s.world)?;
    let half = seconds / 2.0;

    // 1. Untraced reference.
    let mut untraced = run::timed_phase(&mut s.world, &s.spec, &s.inputs, &mut s.writer, half, 1);
    let rounds = untraced.attempted[2].max(1);
    let reads_per_round = (untraced.attempted[0] / rounds) as usize;
    let untraced_ops = untraced.ops_per_s(half);
    let read_p50_us = untraced.p50_ns(0) / 1e3;

    // 2. Collector on: overhead, registry counters, coordinator calls.
    xst_obs::enable();
    // The 2PC coordinator a transaction runs: in-process on a served engine,
    // the wire coordinator on the cluster.
    let two_pc = match s.spec.deploy {
        Deploy::Served => names::SHARD_2PC_COMMITS_TOTAL,
        Deploy::Cluster => names::COORD_2PC_COMMITS_TOTAL,
    };
    let before = [
        counter(names::STORAGE_WAL_BYTES_TOTAL),
        fsyncs(),
        counter(two_pc),
    ];
    let decisions_before = decision_bytes(&s.world);
    let mut coord_layers = Layers::default();
    let traced = match &mut s.world {
        World::Cluster { coord, .. } => {
            let start = Instant::now();
            let mut timed = TimedCoord {
                coord,
                layers: Layers::default(),
            };
            let reads = Some((s.inputs.reads(&s.spec), s.inputs.rng.fork(200)));
            let tally = run::session(&mut timed, Some(&mut s.writer), reads, start, half);
            coord_layers = timed.layers;
            tally
        }
        World::Served { .. } => {
            run::timed_phase(&mut s.world, &s.spec, &s.inputs, &mut s.writer, half, 2)
        }
    };
    let after = [
        counter(names::STORAGE_WAL_BYTES_TOTAL),
        fsyncs(),
        counter(two_pc),
    ];
    xst_obs::disable();
    xst_obs::collector().take_spans();
    xst_obs::request_log().clear();
    let decisions = (decision_bytes(&s.world) - decisions_before) as f64;
    let traced_ops = traced.ops_per_s(half);
    let txns = (traced.attempted[2] - traced.failed[2]).max(1) as f64;
    let commits = txns + (traced.attempted[1] - traced.failed[1]) as f64;
    let tables: Vec<String> = s.tables().into_iter().map(|(t, _)| t).collect();
    let versions = versions_retained(&s.world, &tables);
    let live_rows: usize = s.tables().iter().map(|(_, rows)| rows.len()).sum();
    let rss = run::status_bytes("VmRSS")?;

    // 3. The decomposed replay of a served workload. On the cluster the
    // layers are the wire coordinator's own calls, timed in part 2.
    let mut layers = coord_layers;
    let mut mismatches: Vec<String> = untraced
        .mismatches
        .drain(..)
        .chain(traced.mismatches.iter().cloned())
        .collect();
    let replayed = s.spec.deploy == Deploy::Served;
    let mut read_sum = 0.0;
    if replayed {
        read_sum = replay(
            &s.spec,
            &s.inputs,
            reads_per_round,
            half,
            &mut layers,
            &mut mismatches,
        )?;
    }

    // 4. Recovery rate.
    let model = s.tables();
    let rows_written = s.rows_loaded + untraced.rows_written + traced.rows_written;
    let rec_s = run::recover(&mut s.world, &model, Inputs::form(&s.spec))
        .map_err(|e| format!("recovery: {e}"))?;
    s.world.stop();

    let crc = layers.sum("crc.ns") / layers.sum("crc.bytes").max(1.0);
    let scanned = layers.sum("query.bound_members") / layers.sum("query.result_rows").max(1.0);
    let l = &mut layers;
    let metrics: Vec<Metric> = vec![
        metric("client.connect_ms", connect, "ms"),
        metric(
            "wire.request_encode_us",
            l.median("wire.request_encode_us"),
            "us",
        ),
        metric(
            "wire.request_decode_us",
            l.median("wire.request_decode_us"),
            "us",
        ),
        metric(
            "wire.response_encode_us",
            l.median("wire.response_encode_us"),
            "us",
        ),
        metric(
            "wire.response_decode_us",
            l.median("wire.response_decode_us"),
            "us",
        ),
        metric(
            "wire.frame_encode_us",
            l.median("wire.frame_encode_us"),
            "us",
        ),
        metric("wire.frame_read_us", l.median("wire.frame_read_us"), "us"),
        metric("wire.response_bytes", l.median("wire.response_bytes"), "B"),
        metric("wire.crc_ns_per_byte", crc, "ns/B"),
        metric(
            "wire.transport_us",
            if replayed {
                read_p50_us - read_sum
            } else {
                0.0
            },
            "us",
        ),
        metric("layers.read_sum_us", read_sum, "us"),
        metric("e2e.read_p50_us", read_p50_us, "us"),
        metric("session.handle_us", l.median("session.handle_us"), "us"),
        metric("session.self_us", l.median("session.self_us"), "us"),
        metric("query.gate_us", l.median("query.gate_us"), "us"),
        metric("query.eval_us", l.median("query.eval_us"), "us"),
        metric("query.nodes", l.median("query.nodes"), "count"),
        metric("query.op.image_us", l.median("query.op.image_us"), "us"),
        metric(
            "query.op.restrict_us",
            l.median("query.op.restrict_us"),
            "us",
        ),
        metric("query.members_scanned_per_row", scanned, "count"),
        metric(
            "storage.fragments_us",
            l.median("storage.fragments_us"),
            "us",
        ),
        metric(
            "storage.autocommit_us",
            l.median("storage.autocommit_us"),
            "us",
        ),
        metric(
            "storage.commit_2pc_us",
            l.median("storage.commit_2pc_us"),
            "us",
        ),
        metric(
            "storage.wal_bytes_per_commit",
            (after[0] - before[0]) as f64 / commits,
            "B",
        ),
        metric(
            "storage.wal_flushes_per_commit",
            (after[1] - before[1]) as f64 / commits,
            "count",
        ),
        metric("storage.versions_retained", versions as f64, "count"),
        metric(
            "storage.rss_bytes_per_live_row",
            rss / live_rows.max(1) as f64,
            "B",
        ),
        metric(
            "storage.recover_rows_per_s",
            rows_written as f64 / rec_s,
            "rows/s",
        ),
        metric(
            "shard.2pc_commits_per_txn",
            (after[2] - before[2]) as f64 / txns,
            "count",
        ),
        metric("coord.put_us", l.median("coord.put_us"), "us"),
        metric("coord.commit_us", l.median("coord.commit_us"), "us"),
        metric("coord.get_us", l.median("coord.get_us"), "us"),
        metric("coord.decision_bytes_per_txn", decisions / txns, "B"),
        metric("obs.traced_slowdown", traced_ops / untraced_ops, "ratio"),
    ];
    let mut tally = untraced;
    tally.merge(traced);
    tally.mismatches = mismatches;
    Ok(Outcome {
        correct: tally.is_clean(),
        tally,
        metrics,
        reference: Vec::new(),
    })
}
