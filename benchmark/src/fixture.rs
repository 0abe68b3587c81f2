//! Inputs made from the seed, the index built from them, and the answers
//! the workloads are checked against.

use crate::spec::{
    Fixture, Workload, BACKEND, CORPUS_SEED, DIM, KEEP, NAIVE_CHECKED, QUERY_POOL, QUERY_RESERVOIR,
    RECALL_DEPTH,
};
use pqfs_core::{Neighbor, RowMajorCodes, TopK};
use pqfs_data::{SyntheticConfig, SyntheticDataset};
use pqfs_ivf::{IvfError, IvfadcConfig, IvfadcIndex, SearchBackend};
use pqfs_pool::ThreadPool;
use pqfs_scan::{PreparedScanner, ScanError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The generated vectors of one run, all drawn from one mixture.
pub struct Data {
    pub train: Vec<f32>,
    pub base: Vec<f32>,
    /// `QUERY_POOL` row-major queries.
    pub queries: Vec<f32>,
}

/// SplitMix64: the benchmark's own generator for choosing queries.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first `count` places of a seeded shuffle of `0..from`.
fn choose(from: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..from).collect();
    let mut state = seed;
    for i in 0..count.min(from) {
        let j = i + (splitmix64(&mut state) % (from - i) as u64) as usize;
        order.swap(i, j);
    }
    order.truncate(count);
    order
}

impl Data {
    /// The fixed corpus, and the `QUERY_POOL` queries that `seed` picks, in
    /// the order it picks them, from the reservoir drawn after the corpus.
    pub fn generate(fixture: Fixture, seed: u64) -> Data {
        let mut source =
            SyntheticDataset::new(&SyntheticConfig::sift_like().with_seed(CORPUS_SEED));
        let train = source.sample(fixture.train);
        let base = source.sample(fixture.vectors);
        let reservoir = source.sample(QUERY_RESERVOIR);
        let mut queries = Vec::with_capacity(QUERY_POOL * DIM);
        for i in choose(QUERY_RESERVOIR, QUERY_POOL, seed) {
            queries.extend_from_slice(&reservoir[i * DIM..(i + 1) * DIM]);
        }
        Data {
            train,
            base,
            queries,
        }
    }

    pub fn query(&self, i: usize) -> &[f32] {
        &self.queries[i * DIM..(i + 1) * DIM]
    }
}

pub fn index_config(fixture: Fixture) -> IvfadcConfig {
    IvfadcConfig::new(DIM, fixture.partitions).with_seed(CORPUS_SEED)
}

pub fn build_index(data: &Data, fixture: Fixture) -> Result<IvfadcIndex, IvfError> {
    IvfadcIndex::build(&data.train, &data.base, &index_config(fixture))
}

pub fn ids(neighbors: &[Neighbor]) -> Vec<u64> {
    neighbors.iter().map(|n| n.id).collect()
}

fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    // Eight independent sums, so the compiler may keep them in one vector.
    let mut acc = [0f32; 8];
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for i in 0..8 {
            let d = x[i] - y[i];
            acc[i] += d * d;
        }
    }
    acc.iter().sum()
}

/// The `depth` true L2 nearest base vectors of each query, by brute force:
/// the pool scans cache-sized blocks of the base against every query, then
/// the per-block candidates are merged.
pub fn true_neighbours(base: &[f32], queries: &[f32], depth: usize) -> Vec<Vec<u64>> {
    const BLOCK: usize = 2048;
    let blocks: Vec<(usize, &[f32])> = base
        .chunks(BLOCK * DIM)
        .enumerate()
        .map(|(b, rows)| (b * BLOCK, rows))
        .collect();
    let per_block = ThreadPool::global().parallel_map(&blocks, |_, &(first, rows)| {
        queries
            .chunks_exact(DIM)
            .map(|q| {
                let mut best = TopK::new(depth);
                for (i, v) in rows.chunks_exact(DIM).enumerate() {
                    best.push(l2_sq(q, v), (first + i) as u64);
                }
                best.into_sorted()
            })
            .collect::<Vec<_>>()
    });
    (0..queries.len() / DIM)
        .map(|q| {
            let mut best = TopK::new(depth);
            for block in &per_block {
                for n in &block[q] {
                    best.push(n.dist, n.id);
                }
            }
            ids(&best.into_sorted())
        })
        .collect()
}

/// Share of the true neighbours that the answers contain, over all queries.
pub fn recall(answers: &[Vec<Neighbor>], truth: &[Vec<u64>]) -> f64 {
    let mut found = 0usize;
    let mut wanted = 0usize;
    for (answer, truth) in answers.iter().zip(truth) {
        wanted += truth.len();
        found += truth
            .iter()
            .filter(|t| answer.iter().any(|n| n.id == **t))
            .count();
    }
    found as f64 / wanted.max(1) as f64
}

pub fn search(
    index: &IvfadcIndex,
    w: &Workload,
    query: &[f32],
    backend: SearchBackend,
) -> Result<Vec<Neighbor>, IvfError> {
    index
        .search_probes(query, w.topk, backend, KEEP, w.nprobe)
        .map(|outcome| outcome.neighbors)
}

/// What a workload's answers are compared with.
pub struct Expected {
    /// The library's own answer for the first `answers.len()` pool queries.
    pub answers: Vec<Vec<Neighbor>>,
    /// `SearchBackend::Naive` ids of the first `NAIVE_CHECKED` pool queries.
    pub naive_ids: Vec<Vec<u64>>,
    /// Checks made while computing the above, and how many failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Expected {
    /// Answers the first `count` pool queries in the library and checks the
    /// leading ones against the naive backend.
    pub fn compute(index: &IvfadcIndex, w: &Workload, data: &Data, count: usize) -> Expected {
        let mut failed = 0u64;
        let mut answer = |i: usize, backend| {
            search(index, w, data.query(i), backend).unwrap_or_else(|_| {
                failed += 1;
                Vec::new()
            })
        };
        let answers: Vec<Vec<Neighbor>> = (0..count).map(|i| answer(i, BACKEND)).collect();
        let naive_ids: Vec<Vec<u64>> = (0..NAIVE_CHECKED.min(count))
            .map(|i| ids(&answer(i, SearchBackend::Naive)))
            .collect();
        for (a, n) in answers.iter().zip(&naive_ids) {
            if ids(a) != *n || n.is_empty() {
                failed += 1;
            }
        }
        Expected {
            attempted: naive_ids.len() as u64,
            failed,
            answers,
            naive_ids,
        }
    }

    /// Recall of the leading answers against brute-force ground truth.
    pub fn recall(&self, data: &Data, fixture: Fixture) -> f64 {
        let n = fixture.recall_queries.min(self.answers.len());
        let truth = true_neighbours(&data.base, &data.queries[..n * DIM], RECALL_DEPTH);
        recall(&self.answers[..n], &truth)
    }
}

/// One partition re-encoded by the benchmark, prepared for three backends.
pub struct ShadowPartition {
    pub ids: Vec<u64>,
    pub fastscan: Box<dyn PreparedScanner>,
    pub libpq: Box<dyn PreparedScanner>,
    pub naive: Box<dyn PreparedScanner>,
}

/// Copies of the index's partitions, rebuilt from the raw vectors through
/// the index's public quantizers so that the scan layer can be timed alone.
pub struct Shadow {
    pub partitions: Vec<ShadowPartition>,
    /// Time spent in `Scanner::prepare`, over all partitions and backends.
    pub prepare: Duration,
}

impl Shadow {
    pub fn build(index: &IvfadcIndex, base: &[f32]) -> Result<Shadow, ScanError> {
        let pool = ThreadPool::global();
        let (coarse, pq) = (index.coarse(), index.pq());
        let rows: Vec<&[f32]> = base.chunks_exact(DIM).collect();
        let assignment = pool.parallel_map(&rows, |_, v| coarse.assign(v));
        let mut members: Vec<(usize, Vec<u64>)> = (0..index.num_partitions())
            .map(|p| (p, Vec::new()))
            .collect();
        for (i, &p) in assignment.iter().enumerate() {
            members[p].1.push(i as u64);
        }
        let m = pq.config().m();
        let encoded = pool.parallel_map_mut(&mut members, |_, (p, ids)| {
            let mut residual = vec![0f32; DIM];
            let mut codes = vec![0u8; ids.len() * m];
            for (slot, &id) in ids.iter().enumerate() {
                coarse.residual_into(rows[id as usize], *p, &mut residual);
                pq.encode_into(&residual, &mut codes[slot * m..(slot + 1) * m]);
            }
            (std::mem::take(ids), Arc::new(RowMajorCodes::new(codes, m)))
        });
        let started = Instant::now();
        let prepare = |backend: SearchBackend, codes: &Arc<RowMajorCodes>| {
            backend
                .scanner(index.scan_opts())
                .prepare(Arc::clone(codes))
        };
        let mut partitions = Vec::with_capacity(encoded.len());
        for (ids, codes) in encoded {
            partitions.push(ShadowPartition {
                ids,
                fastscan: prepare(SearchBackend::FastScan, &codes)?,
                libpq: prepare(SearchBackend::Libpq, &codes)?,
                naive: prepare(SearchBackend::Naive, &codes)?,
            });
        }
        Ok(Shadow {
            partitions,
            prepare: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_finds_planted_neighbours_in_order() {
        // 5 000 far-away vectors and two planted next to the query.
        let mut base = vec![200f32; 5000 * DIM];
        base[4321 * DIM..4322 * DIM].fill(1.0);
        base[17 * DIM..18 * DIM].fill(2.0);
        let query = vec![0f32; DIM];
        assert_eq!(true_neighbours(&base, &query, 2), vec![vec![4321, 17]]);
    }

    #[test]
    fn a_seed_chooses_its_own_queries_and_always_the_same_ones() {
        let a = choose(QUERY_RESERVOIR, QUERY_POOL, 7);
        assert_eq!(a, choose(QUERY_RESERVOIR, QUERY_POOL, 7));
        assert_ne!(a, choose(QUERY_RESERVOIR, QUERY_POOL, 8));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), QUERY_POOL);
        assert!(a.iter().all(|&i| i < QUERY_RESERVOIR));
    }

    #[test]
    fn recall_counts_true_neighbours_found() {
        let n = |id| Neighbor { dist: 0.0, id };
        let answers = vec![vec![n(1), n(2), n(3)], vec![n(9)]];
        let truth = vec![vec![1, 3], vec![4, 5]];
        assert_eq!(recall(&answers, &truth), 0.5);
    }
}
