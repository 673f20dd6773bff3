//! `rank-1m`: exact filtered ranking over a 1M-entity, d = 64 ComplEx
//! table (256 MiB of entity embeddings, larger than a typical shared L3).
//!
//! Untraced, the workload ranks consecutive 64-triple blocks of the
//! graph's triples with `evaluate_parallel` until the window closes, timing each
//! call. Correctness: on sampled triples `evaluate_parallel` must equal
//! `evaluate_sequential` bit for bit. Traced, it ranks a few blocks
//! untraced, then replays the same blocks through the sharded crew's layer
//! calls (`score_tails_shard`/`score_heads_shard` per worker shard, then
//! `count_cmp` per score row against the target's score) inside spans, and
//! probes the kernels on the full-size table.

use crate::trace::{attribute, Tracer};
use crate::{median, setup_median, windowed_p90, Args, Report, SetupTimes, TAIL_WINDOW_S};
use kg_core::{Dataset, FilterIndex, Triple};
use kg_eval::ranking::{evaluate_parallel, evaluate_sequential, shard_bounds, RankMetrics};
use kg_linalg::gemm::gemm_nt_rows_with;
use kg_linalg::vecops::count_cmp;
use kg_linalg::{KernelPolicy, SeededRng};
use kg_models::{classics, BatchScorer, BatchScratch, BlmModel, Embeddings};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const ENTITIES: usize = 1_000_000;
const DIM: usize = 64;
const BLOCK: usize = 64;

struct Setup {
    ds: Dataset,
    filter: FilterIndex,
    model: BlmModel,
}

fn setup(seed: u64) -> (Setup, SetupTimes) {
    let t0 = Instant::now();
    let ds = crate::graph("rank-1m", ENTITIES, 8, 25_000, seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut rng = SeededRng::new(seed ^ 0x1A2B_3C4D);
    let model = BlmModel::new(
        classics::complex(),
        Embeddings::init(ds.n_entities, ds.n_relations, DIM, &mut rng),
    );
    let init_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let filter = FilterIndex::from_dataset(&ds);
    let filter_build_s = t2.elapsed().as_secs_f64();
    (
        Setup { ds, filter, model },
        SetupTimes { generate_s, init_s, filter_build_s, ..Default::default() },
    )
}

fn same(a: &RankMetrics, b: &RankMetrics) -> bool {
    let bits =
        |m: &RankMetrics| [m.mrr, m.mr, m.hits1, m.hits3, m.hits10].map(f64::to_bits).to_vec();
    bits(a) == bits(b) && a.n_queries == b.n_queries
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (s, times) = setup_median(3, || setup(args.seed));
    rep.setup(args.trace, times);
    rep.detail("entities", s.ds.n_entities);
    // Queries are known triples: at this sparsity nearly every held-out
    // triple has an entity unseen in training and the split moves it back.
    rep.detail("triples", s.ds.train.len());
    let blocks: Vec<&[Triple]> = s.ds.train.chunks_exact(BLOCK).collect();

    if args.trace {
        traced(args, &s, &blocks, &mut rep);
    } else {
        let window = Instant::now();
        // (seconds into the window at the call's end, call seconds)
        let mut calls = Vec::new();
        while calls.len() < 3 || window.elapsed().as_secs_f64() < args.seconds {
            let block = blocks[calls.len() % blocks.len()];
            let t0 = Instant::now();
            let m = evaluate_parallel(&s.model, block, &s.filter, args.threads);
            calls.push((window.elapsed().as_secs_f64(), t0.elapsed().as_secs_f64()));
            rep.check(m.mrr.is_finite() && m.n_queries == 2 * BLOCK);
        }
        let wall = window.elapsed().as_secs_f64();
        let times: Vec<f64> = calls.iter().map(|c| c.1).collect();
        let total: f64 = times.iter().sum();
        // Two ranked queries (tail and head) per triple.
        rep.metric("throughput", (times.len() * 2 * BLOCK) as f64 / total);
        rep.metric("p50_ms", 1e3 * median(&times));
        rep.metric("tail_ms", 1e3 * windowed_p90(&calls, wall, TAIL_WINDOW_S));
        rep.detail("blocks", times.len());
    }

    // Sampled bitwise equivalence with the per-query reference.
    let mut rng = SeededRng::new(args.seed ^ 0xC4EC);
    for _ in 0..4 {
        let i = rng.below(s.ds.train.len() - 1);
        let sample = &s.ds.train[i..i + 2];
        let par = evaluate_parallel(&s.model, sample, &s.filter, args.threads);
        let seq = evaluate_sequential(&s.model, sample, &s.filter);
        rep.check(same(&par, &seq));
    }
    rep
}

fn traced(args: &Args, s: &Setup, blocks: &[&[Triple]], rep: &mut Report) {
    let replayed = &blocks[..blocks.len().min(4)];
    // Warm-up: the process's first call also pays for first-touch faults.
    std::hint::black_box(evaluate_parallel(&s.model, replayed[0], &s.filter, args.threads));
    let t0 = Instant::now();
    let mut block_s = Vec::new();
    for block in replayed {
        let t = Instant::now();
        std::hint::black_box(evaluate_parallel(&s.model, block, &s.filter, args.threads));
        block_s.push(t.elapsed().as_secs_f64());
    }
    let untraced_s = t0.elapsed().as_secs_f64();

    let tracer = Tracer::new();
    let from = Instant::now();
    for block in replayed {
        replay_block(&s.model, block, args.threads, &tracer);
    }
    rep.account(&attribute(&tracer, from, Instant::now()), untraced_s);
    rep.tracer = Some(tracer);

    // Kernel probes: one worker's shard of the full table, single thread.
    let width = ENTITIES / args.threads;
    let block = replayed[0];
    let queries: Vec<(usize, usize)> = block.iter().map(|t| (t.h.idx(), t.r.idx())).collect();
    let mut out = vec![0.0f32; BLOCK * width];
    let mut scratch = BatchScratch::new();
    let score =
        median_of(3, || s.model.score_tails_shard(&queries, 0..width, &mut out, &mut scratch));
    let thresholds: Vec<f32> = (0..BLOCK).map(|q| out[q * width + q]).collect();
    let count = median_of(3, || {
        for (q, row) in out.chunks_exact(width).enumerate() {
            std::hint::black_box(count_cmp(row, thresholds[q]));
        }
    });
    let mut rng = SeededRng::new(args.seed ^ 0x6E3);
    let mut a = vec![0.0f32; BLOCK * DIM];
    rng.xavier_uniform(DIM, &mut a);
    let policy = KernelPolicy::default_from_env();
    let table = &s.model.emb.ent;
    let gemm =
        median_of(3, || gemm_nt_rows_with(policy, &a, BLOCK, DIM, table, 0..width, &mut out));
    let table_bytes = (width * DIM * 4) as f64;
    let score_bytes = (BLOCK * width * 4) as f64;
    let block_ms = 1e3 * median(&block_s);
    rep.metric("kg-eval.block_ms", block_ms);
    rep.metric("kg-models.score_shard_ms", 1e3 * score);
    rep.metric("kg-linalg.gemm_nt_rows_gbps", (table_bytes + score_bytes) / gemm / 1e9);
    rep.metric("kg-linalg.count_cmp_gbps", score_bytes / count / 1e9);
    // Both directions score and count one shard per worker in parallel;
    // whatever the block takes beyond that is crew overhead.
    rep.metric("kg-eval.crew_residual_frac", 1.0 - 2.0 * 1e3 * (score + count) / block_ms);
}

/// Median seconds of `reps` calls of `f`.
pub fn median_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// One block through the sharded crew's layer calls: each worker scores
/// its contiguous entity shard, publishes the scores of the targets it
/// owns, and after a barrier counts every row of its shard against them.
/// Counts are raw (the filter correction touches a handful of entries and
/// is left out).
fn replay_block(model: &BlmModel, block: &[Triple], threads: usize, tracer: &Tracer) {
    let n = model.emb.ent.rows();
    let bounds = shard_bounds(n, threads);
    let thresholds: Vec<AtomicU32> = (0..block.len()).map(|_| AtomicU32::new(0)).collect();
    let barrier = Barrier::new(threads);
    tracer.span("kg-eval.block", None, |bid| {
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (lo, hi) = (bounds[w], bounds[w + 1]);
                let (thresholds, barrier) = (&thresholds, &barrier);
                scope.spawn(move || {
                    let width = hi - lo;
                    let mut out = vec![0.0f32; block.len() * width];
                    let mut scratch = BatchScratch::new();
                    for tails in [true, false] {
                        let (queries, targets): (Vec<(usize, usize)>, Vec<usize>) = block
                            .iter()
                            .map(|t| {
                                let (h, r, e) = (t.h.idx(), t.r.idx(), t.t.idx());
                                if tails {
                                    ((h, r), e)
                                } else {
                                    ((r, e), h)
                                }
                            })
                            .unzip();
                        tracer.span("kg-models.score_shard", Some(bid), |_| {
                            if tails {
                                model.score_tails_shard(&queries, lo..hi, &mut out, &mut scratch)
                            } else {
                                model.score_heads_shard(&queries, lo..hi, &mut out, &mut scratch)
                            }
                        });
                        for (q, &e) in targets.iter().enumerate() {
                            if (lo..hi).contains(&e) {
                                thresholds[q]
                                    .store(out[q * width + e - lo].to_bits(), Ordering::Relaxed);
                            }
                        }
                        barrier.wait();
                        tracer.span("kg-linalg.count_cmp", Some(bid), |_| {
                            for (q, row) in out.chunks_exact(width.max(1)).enumerate() {
                                let thr = f32::from_bits(thresholds[q].load(Ordering::Relaxed));
                                std::hint::black_box(count_cmp(row, thr));
                            }
                        });
                        barrier.wait();
                    }
                });
            }
        });
    });
}
