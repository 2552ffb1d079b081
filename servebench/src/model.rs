//! Seeded inputs and the answer model.
//!
//! Everything the benchmark sends is drawn from [`Rng`] seeded by
//! `--seed`, and every answer the program returns is checked against a
//! model kept in plain Rust collections: a relation of `(key, value)`
//! pairs. Results are turned back into plain rows by walking set
//! members directly, so a check never relies on the program's own set
//! algebra to decide whether the program was right.

use std::collections::{BTreeMap, BTreeSet};
use xst_core::{ExtendedSet, Value};

/// SplitMix64: small, fast, and the same stream for the same seed on
/// every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EB1_2C0F_FEE0_0001)
    }

    /// An independent stream for a named purpose (session, phase).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`, by inverse CDF.
/// Rank 0 is the most popular; [`Zipf::new`] also permutes ranks onto
/// keys so the hot keys are spread over the key space (and the shards).
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<i64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut keys: Vec<i64> = (0..n as i64).collect();
        for i in (1..keys.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            keys.swap(i, j);
        }
        Zipf { cdf, keys }
    }

    pub fn sample(&self, rng: &mut Rng) -> i64 {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}

/// Value written with a key outside the base table: a function of the
/// key alone, so a concurrent reader knows every value a key can ever
/// hold without synchronising with the writer.
pub fn written_value(key: i64) -> i64 {
    (key.wrapping_mul(2_654_435_761) >> 7).rem_euclid(1 << 20)
}

/// The model of one table: `key -> values`.
#[derive(Clone, Default, Debug)]
pub struct Relation {
    pub rows: BTreeMap<i64, BTreeSet<i64>>,
}

impl Relation {
    /// `n` keys `0..n`, each with one or two values drawn from `0..n`,
    /// so every value is also a key and image chains stay inside the
    /// table.
    pub fn random(n: usize, rng: &mut Rng) -> Relation {
        let mut rows = BTreeMap::new();
        for k in 0..n as i64 {
            let fanout = 1 + rng.below(2);
            let vals: BTreeSet<i64> = (0..fanout).map(|_| rng.below(n as u64) as i64).collect();
            rows.insert(k, vals);
        }
        Relation { rows }
    }

    pub fn pairs(&self) -> Vec<(i64, i64)> {
        self.rows
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
            .collect()
    }

    pub fn insert(&mut self, k: i64, v: i64) {
        self.rows.entry(k).or_default().insert(v);
    }

    pub fn remove(&mut self, k: i64, v: i64) {
        if let Some(vs) = self.rows.get_mut(&k) {
            vs.remove(&v);
            if vs.is_empty() {
                self.rows.remove(&k);
            }
        }
    }

    /// `R[keys]`: every value of every key in `keys`.
    pub fn image(&self, keys: &BTreeSet<i64>) -> BTreeSet<i64> {
        keys.iter()
            .filter_map(|k| self.rows.get(k))
            .flatten()
            .copied()
            .collect()
    }

    /// `R |_⟨1⟩ keys`: the pairs whose key is in `keys`.
    pub fn restrict(&self, keys: &BTreeSet<i64>) -> BTreeSet<(i64, i64)> {
        keys.iter()
            .filter_map(|k| self.rows.get(k).map(|vs| (k, vs)))
            .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
            .collect()
    }
}

/// How a deployment stores a `(key, value)` row as a set member.
///
/// A served table binds queries to its *record identity*: the member
/// `key^value` becomes the record tuple `⟨key, value⟩`. The wire
/// coordinator binds queries to the gathered *member set* instead, so
/// there the row travels as the classical member `⟨key, value⟩`. Both
/// present the relation to a query as a set of 2-tuples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowForm {
    Scoped,
    Tuple,
}

impl RowForm {
    pub fn set(self, pairs: &[(i64, i64)]) -> ExtendedSet {
        match self {
            RowForm::Scoped => ExtendedSet::from_pairs(pairs.iter().copied()),
            RowForm::Tuple => ExtendedSet::classical(
                pairs
                    .iter()
                    .map(|&(k, v)| Value::Set(ExtendedSet::pair(k, v))),
            ),
        }
    }
}

/// The 1-tuple set `{⟨k⟩ : k ∈ keys}`: the input of an image or a
/// restriction.
pub fn key_set(keys: &BTreeSet<i64>) -> ExtendedSet {
    ExtendedSet::classical(keys.iter().map(|&k| Value::Set(ExtendedSet::tuple([k]))))
}

fn int(v: &Value) -> Result<i64, String> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(format!("expected an integer atom, got {other:?}")),
    }
}

fn classical(scope: &Value) -> Result<(), String> {
    match scope {
        Value::Set(s) if s.is_empty() => Ok(()),
        other => Err(format!(
            "expected classical membership, got scope {other:?}"
        )),
    }
}

/// The atoms of a tuple `{x1^1, …, xn^n}` of integers, by position.
fn tuple_ints<const N: usize>(v: &Value) -> Result<[i64; N], String> {
    let Value::Set(t) = v else {
        return Err(format!("expected a tuple, got {v:?}"));
    };
    let mut out = [0i64; N];
    let mut seen = [false; N];
    if t.card() != N {
        return Err(format!("expected a {N}-tuple, got {} members", t.card()));
    }
    for m in t.members() {
        let pos = int(&m.scope)?;
        let slot = usize::try_from(pos - 1).ok().filter(|&p| p < N);
        let Some(p) = slot.filter(|&p| !seen[p]) else {
            return Err(format!("bad tuple position {pos}"));
        };
        out[p] = int(&m.element)?;
        seen[p] = true;
    }
    Ok(out)
}

/// Plain pairs of a set of classical 2-tuples (a served table identity,
/// a restriction result, or the coordinator's gathered table).
pub fn pairs_of(set: &ExtendedSet) -> Result<BTreeSet<(i64, i64)>, String> {
    let mut out = BTreeSet::new();
    for m in set.members() {
        classical(&m.scope)?;
        let [k, v] = tuple_ints::<2>(&m.element)?;
        if !out.insert((k, v)) {
            return Err(format!("row ⟨{k}, {v}⟩ appears twice"));
        }
    }
    Ok(out)
}

/// Plain values of a set of classical 1-tuples (an image result).
pub fn values_of(set: &ExtendedSet) -> Result<BTreeSet<i64>, String> {
    let mut out = BTreeSet::new();
    for m in set.members() {
        classical(&m.scope)?;
        let [v] = tuple_ints::<1>(&m.element)?;
        out.insert(v);
    }
    Ok(out)
}

/// What a read must return, fixed when the read is generated.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exactly these pairs.
    Pairs(BTreeSet<(i64, i64)>),
    /// Exactly these image values.
    Values(BTreeSet<i64>),
    /// Pairs racing a concurrent writer: every `must` pair, and nothing
    /// outside `may`.
    PairsWithin {
        must: BTreeSet<(i64, i64)>,
        may: BTreeSet<(i64, i64)>,
    },
    /// Image values racing a concurrent writer.
    ValuesWithin {
        must: BTreeSet<i64>,
        may: BTreeSet<i64>,
    },
}

impl Expect {
    /// Check one answer. The error names the first difference.
    pub fn check(&self, got: &ExtendedSet) -> Result<(), String> {
        match self {
            Expect::Pairs(want) => same(&pairs_of(got)?, want),
            Expect::Values(want) => same(&values_of(got)?, want),
            Expect::PairsWithin { must, may } => within(&pairs_of(got)?, must, may),
            Expect::ValuesWithin { must, may } => within(&values_of(got)?, must, may),
        }
    }
}

fn same<T: Ord + std::fmt::Debug>(got: &BTreeSet<T>, want: &BTreeSet<T>) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing = want.difference(got).next();
    let extra = got.difference(want).next();
    Err(format!(
        "answer has {} rows, model has {} (first missing {missing:?}, first extra {extra:?})",
        got.len(),
        want.len()
    ))
}

fn within<T: Ord + std::fmt::Debug>(
    got: &BTreeSet<T>,
    must: &BTreeSet<T>,
    may: &BTreeSet<T>,
) -> Result<(), String> {
    if let Some(m) = must.difference(got).next() {
        return Err(format!("answer lacks {m:?}, which no write ever touched"));
    }
    if let Some(x) = got.difference(may).next() {
        return Err(format!("answer holds {x:?}, which was never written"));
    }
    Ok(())
}

/// The checks must be able to fail: feed each kind a corrupted answer
/// and require a mismatch. Run at the start of every run.
pub fn self_test() -> Result<(), String> {
    let mut rng = Rng::new(7);
    let rel = Relation::random(64, &mut rng);
    let keys: BTreeSet<i64> = (0..8).collect();
    let good_pairs = RowForm::Tuple.set(&rel.restrict(&keys).into_iter().collect::<Vec<_>>());
    let exact = Expect::Pairs(rel.restrict(&keys));
    exact.check(&good_pairs)?;
    let (k, v) = *rel.restrict(&keys).iter().next().ok_or("empty model")?;
    let dropped = good_pairs.without_member(
        &Value::Set(ExtendedSet::pair(k, v)),
        &Value::Set(ExtendedSet::empty()),
    );
    let foreign = good_pairs.with_member(xst_core::Member::classical(Value::Set(
        ExtendedSet::pair(k, v + 1_000_000),
    )));
    let vals = key_set(&rel.image(&keys));
    Expect::Values(rel.image(&keys)).check(&vals)?;
    let scoped = RowForm::Scoped.set(&[(k, v)]);
    let corrupted: [(&str, &Expect, &ExtendedSet); 5] = [
        ("missing row", &exact, &dropped),
        ("foreign row", &exact, &foreign),
        ("wrong shape", &exact, &scoped),
        (
            "image vs pairs",
            &Expect::Values(rel.image(&keys)),
            &good_pairs,
        ),
        (
            "never-written value",
            &Expect::PairsWithin {
                must: BTreeSet::new(),
                may: rel.restrict(&keys),
            },
            &foreign,
        ),
    ];
    for (what, expect, answer) in corrupted {
        if expect.check(answer).is_ok() {
            return Err(format!("self-test: a {what} answer passed the check"));
        }
    }
    Ok(())
}
