//! Operations, the two ways of sending them (a session [`Client`] or the
//! wire [`Coordinator`]), and the generators that produce a workload's
//! request stream from its seed.

use crate::model::{key_set, written_value, Expect, Relation, Rng, RowForm, Zipf};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use xst_client::coord::Coordinator;
use xst_client::Client;
use xst_core::{ExtendedSet, Scope};
use xst_query::Expr;
use xst_server::proto::Request;
use xst_storage::shard_of;

/// One client call.
#[derive(Clone, Debug)]
pub enum Call {
    Eval(Expr),
    Get(String),
    Put(String, ExtendedSet),
    Delete(String, ExtendedSet),
    Begin,
    Commit,
    Abort,
}

impl Call {
    /// The wire request a session client sends for this call.
    pub fn request(&self) -> Request {
        match self {
            Call::Eval(expr) => Request::Eval { expr: expr.clone() },
            Call::Get(table) => Request::Get {
                table: table.clone(),
            },
            Call::Put(table, set) => Request::Put {
                table: table.clone(),
                set: set.clone(),
            },
            Call::Delete(table, set) => Request::Delete {
                table: table.clone(),
                set: set.clone(),
            },
            Call::Begin => Request::Begin,
            Call::Commit => Request::Commit,
            Call::Abort => Request::Abort,
        }
    }
}

/// A decoded answer.
#[derive(Debug)]
pub enum Reply {
    Set(ExtendedSet),
    /// Rows applied, and whether the write committed on its own.
    Applied(u64, bool),
    Done,
}

/// Something that carries calls to the program.
pub trait Conn {
    fn exec(&mut self, call: &Call) -> Result<Reply, String>;
}

impl Conn for Client {
    fn exec(&mut self, call: &Call) -> Result<Reply, String> {
        let r = match call {
            Call::Eval(expr) => self.eval(expr).map(Reply::Set),
            Call::Get(table) => self.get(table).map(Reply::Set),
            Call::Put(table, set) => self
                .put(table, set)
                .map(|a| Reply::Applied(a.rows, a.autocommit_ts.is_some())),
            Call::Delete(table, set) => self
                .delete(table, set)
                .map(|a| Reply::Applied(a.rows, a.autocommit_ts.is_some())),
            Call::Begin => self.begin().map(|_| Reply::Done),
            Call::Commit => self.commit().map(|_| Reply::Done),
            Call::Abort => self.abort().map(|_| Reply::Done),
        };
        r.map_err(|e| e.to_string())
    }
}

impl Conn for Coordinator {
    fn exec(&mut self, call: &Call) -> Result<Reply, String> {
        // The coordinator reports no autocommit flag: a write
        // autocommitted if it left no transaction open.
        let r = match call {
            Call::Eval(expr) => self.eval(expr).map(Reply::Set),
            Call::Get(table) => self.get(table).map(Reply::Set),
            Call::Put(table, set) => self
                .put(table, set)
                .map(|n| Reply::Applied(n, !self.in_txn())),
            Call::Delete(table, set) => self
                .delete(table, set)
                .map(|n| Reply::Applied(n, !self.in_txn())),
            Call::Begin => self.begin().map(|_| Reply::Done),
            Call::Commit => self.commit().map(|_| Reply::Done),
            Call::Abort => self.abort().map(|_| Reply::Done),
        };
        r.map_err(|e| e.to_string())
    }
}

/// Operation types, each with its own latency metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Eval` or `Get`.
    Read,
    /// One autocommit `Put` or `Delete`.
    Write,
    /// `Begin`, puts and deletes, `Commit`.
    Txn,
}

pub const KINDS: [Kind; 3] = [Kind::Read, Kind::Write, Kind::Txn];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Txn => "txn",
        }
    }
}

/// One operation: its calls, and what its answer must be.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    /// What the operation does, for the per-shape latency lines.
    pub label: &'static str,
    pub calls: Vec<Call>,
    /// For reads: the answer the model allows.
    pub expect: Option<Arc<Expect>>,
    /// User rows the operation writes.
    pub rows: u64,
}

impl Op {
    /// Check every reply: reads against the model, writes against the
    /// row count they sent and whether they should have autocommitted.
    pub fn check(&self, replies: &[Reply]) -> Result<(), String> {
        for (call, reply) in self.calls.iter().zip(replies) {
            match (call, reply) {
                (Call::Eval(_) | Call::Get(_), Reply::Set(set)) => match &self.expect {
                    Some(e) => e.check(set)?,
                    None => return Err("read without an expected answer".into()),
                },
                (Call::Put(_, set) | Call::Delete(_, set), Reply::Applied(rows, auto)) => {
                    if *rows != set.card() as u64 {
                        return Err(format!("write applied {rows} rows of {}", set.card()));
                    }
                    if *auto != (self.kind == Kind::Write) {
                        return Err(format!(
                            "write autocommit flag {auto} inside a {:?}",
                            self.kind
                        ));
                    }
                }
                (Call::Begin | Call::Commit | Call::Abort, Reply::Done) => {}
                (call, reply) => return Err(format!("{call:?} answered {reply:?}")),
            }
        }
        Ok(())
    }
}

/// Keys written by the benchmark start here, clear of every base key.
pub const WRITE_KEY0: i64 = 1 << 30;

/// The write stream: autocommit puts and deletes, and transactions that
/// put new rows and delete the oldest ones, so the written table keeps a
/// steady size. Owns the model of the table it writes.
pub struct Writer {
    pub table: String,
    form: RowForm,
    shards: usize,
    /// The written table's model: base rows plus the live window.
    pub rel: Relation,
    live: VecDeque<(i64, i64)>,
    next_key: i64,
    singles: usize,
    txn_rows: usize,
}

impl Writer {
    pub fn new(
        table: &str,
        form: RowForm,
        shards: usize,
        base: Relation,
        window: usize,
        singles: usize,
        txn_rows: usize,
    ) -> Writer {
        let mut w = Writer {
            table: table.to_string(),
            form,
            shards,
            rel: base,
            live: VecDeque::new(),
            next_key: WRITE_KEY0,
            singles,
            txn_rows,
        };
        for _ in 0..window {
            let row = w.fresh_row(None);
            w.rel.insert(row.0, row.1);
            w.live.push_back(row);
        }
        w
    }

    /// The rows every run loads before it starts: base plus window.
    pub fn initial_pairs(&self) -> Vec<(i64, i64)> {
        self.rel.pairs()
    }

    /// A new row, optionally one that lands on `shard`.
    fn fresh_row(&mut self, shard: Option<usize>) -> (i64, i64) {
        loop {
            let k = self.next_key;
            self.next_key += 1;
            let row = (k, written_value(k));
            let records = xst_server::set_to_records(&self.form.set(&[row]));
            if shard.is_none_or(|s| shard_of(&records[0], self.shards) == s) {
                return row;
            }
        }
    }

    fn put_new(&mut self, rows: &[(i64, i64)]) -> Call {
        for &(k, v) in rows {
            self.rel.insert(k, v);
            self.live.push_back((k, v));
        }
        Call::Put(self.table.clone(), self.form.set(rows))
    }

    fn delete_oldest(&mut self, n: usize) -> Call {
        let rows: Vec<(i64, i64)> = (0..n).filter_map(|_| self.live.pop_front()).collect();
        for &(k, v) in &rows {
            self.rel.remove(k, v);
        }
        Call::Delete(self.table.clone(), self.form.set(&rows))
    }

    /// One write round: `singles` autocommit writes (put, delete, put,
    /// …), then one transaction whose new rows alternate between shards
    /// so its commit always spans them.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.singles + 1);
        for i in 0..self.singles {
            let (label, call) = if i % 2 == 0 {
                let row = self.fresh_row(None);
                ("put", self.put_new(&[row]))
            } else {
                ("delete", self.delete_oldest(1))
            };
            ops.push(Op {
                kind: Kind::Write,
                label,
                calls: vec![call],
                expect: None,
                rows: 1,
            });
        }
        let rows: Vec<(i64, i64)> = (0..self.txn_rows)
            .map(|i| self.fresh_row(Some(i % self.shards)))
            .collect();
        let put = self.put_new(&rows);
        let del = self.delete_oldest(self.txn_rows);
        ops.push(Op {
            kind: Kind::Txn,
            label: "txn",
            calls: vec![Call::Begin, put, del, Call::Commit],
            expect: None,
            rows: 2 * self.txn_rows as u64,
        });
        ops
    }
}

/// Keys probed by one lookup.
pub const PROBE_KEYS: usize = 16;
/// Of those, keys a racing reader draws from the first
/// `WRITTEN_PROBE_SPAN` written keys, live or deleted by now.
const WRITTEN_PROBES: usize = 4;
const WRITTEN_PROBE_SPAN: u64 = 4096;

/// The read stream of a workload.
pub enum Reads {
    /// `Eval(table t)` and `Get(t)` in turn; the table never changes.
    Scan { expect: Arc<Expect>, turn: u64 },
    /// Image, restriction and two-hop image lookups with Zipf keys over
    /// a table that never changes.
    Lookup {
        rel: Arc<Relation>,
        zipf: Arc<Zipf>,
        turn: u64,
    },
    /// Image and restriction lookups racing the writer on the same
    /// table: base keys by Zipf, plus keys from the written range.
    Racing {
        base: Arc<Relation>,
        zipf: Arc<Zipf>,
        turn: u64,
    },
    /// The gathered table, image and restriction lookups, answered
    /// exactly from the writer's model (reads and writes share one
    /// thread).
    Gathered { turn: u64 },
}

fn image(keys: &BTreeSet<i64>) -> Expr {
    Expr::table("t").image(Expr::lit(key_set(keys)), Scope::pairs())
}

fn restrict(keys: &BTreeSet<i64>) -> Expr {
    Expr::table("t").restrict(ExtendedSet::tuple([1i64]), Expr::lit(key_set(keys)))
}

fn zipf_keys(zipf: &Zipf, rng: &mut Rng, n: usize) -> BTreeSet<i64> {
    (0..n).map(|_| zipf.sample(rng)).collect()
}

fn read(label: &'static str, call: Call, expect: Expect) -> Op {
    Op {
        kind: Kind::Read,
        label,
        calls: vec![call],
        expect: Some(Arc::new(expect)),
        rows: 0,
    }
}

impl Reads {
    /// The next read. `writer` is the model of the written table, for
    /// readers that share its thread.
    pub fn next(&mut self, rng: &mut Rng, writer: Option<&Writer>) -> Op {
        match self {
            Reads::Scan { expect, turn } => {
                *turn += 1;
                let (label, call) = if *turn % 2 == 1 {
                    ("eval", Call::Eval(Expr::table("t")))
                } else {
                    ("get", Call::Get("t".into()))
                };
                Op {
                    kind: Kind::Read,
                    label,
                    calls: vec![call],
                    expect: Some(Arc::clone(expect)),
                    rows: 0,
                }
            }
            Reads::Lookup { rel, zipf, turn } => {
                *turn += 1;
                match *turn % 3 {
                    1 => {
                        let keys = zipf_keys(zipf, rng, PROBE_KEYS);
                        read(
                            "image",
                            Call::Eval(image(&keys)),
                            Expect::Values(rel.image(&keys)),
                        )
                    }
                    2 => {
                        let keys = zipf_keys(zipf, rng, PROBE_KEYS);
                        read(
                            "restrict",
                            Call::Eval(restrict(&keys)),
                            Expect::Pairs(rel.restrict(&keys)),
                        )
                    }
                    _ => {
                        let keys = zipf_keys(zipf, rng, PROBE_KEYS / 4);
                        let hop = Expr::lit(key_set(&keys));
                        let inner = Expr::table("t").image(hop, Scope::pairs());
                        let expr = Expr::table("t").image(inner, Scope::pairs());
                        read(
                            "two-hop",
                            Call::Eval(expr),
                            Expect::Values(rel.image(&rel.image(&keys))),
                        )
                    }
                }
            }
            Reads::Racing { base, zipf, turn } => {
                *turn += 1;
                let mut keys = zipf_keys(zipf, rng, PROBE_KEYS - WRITTEN_PROBES);
                let base_keys = keys.clone();
                let written: BTreeSet<i64> = (0..WRITTEN_PROBES)
                    .map(|_| WRITE_KEY0 + rng.below(WRITTEN_PROBE_SPAN) as i64)
                    .collect();
                keys.extend(&written);
                let must = base.restrict(&base_keys);
                let mut may = must.clone();
                may.extend(written.iter().map(|&k| (k, written_value(k))));
                if *turn % 2 == 1 {
                    let values = |s: &BTreeSet<(i64, i64)>| s.iter().map(|p| p.1).collect();
                    let expect = Expect::ValuesWithin {
                        must: values(&must),
                        may: values(&may),
                    };
                    read("image", Call::Eval(image(&keys)), expect)
                } else {
                    read(
                        "restrict",
                        Call::Eval(restrict(&keys)),
                        Expect::PairsWithin { must, may },
                    )
                }
            }
            Reads::Gathered { turn } => {
                *turn += 1;
                let rel = &writer
                    .expect("gathered reads follow the writer's model")
                    .rel;
                let keys: BTreeSet<i64> = (0..PROBE_KEYS)
                    .map(|_| rng.below(rel.rows.len() as u64) as i64)
                    .collect();
                match *turn % 3 {
                    1 => {
                        let pairs: BTreeSet<(i64, i64)> = rel.pairs().into_iter().collect();
                        read("get", Call::Get("t".into()), Expect::Pairs(pairs))
                    }
                    2 => read(
                        "image",
                        Call::Eval(image(&keys)),
                        Expect::Values(rel.image(&keys)),
                    ),
                    _ => read(
                        "restrict",
                        Call::Eval(restrict(&keys)),
                        Expect::Pairs(rel.restrict(&keys)),
                    ),
                }
            }
        }
    }
}
