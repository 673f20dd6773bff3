//! `search-wn18rr`: the paper's greedy search (Alg. 2) end to end.
//!
//! Untraced, the workload repeats `GreedySearch::run` on one generated
//! dataset with a fixed seed and model budget until the measuring window
//! closes; every repeat must find the same best structure and MRR. Traced,
//! it runs one search to warm up, one untraced for the reference wall time,
//! then replays
//! Alg. 2 through the same public pieces (`enumerate_b4`, `extend_two`,
//! `DedupFilter`, `PerformancePredictor`, `kg_train::train`,
//! `evaluate_parallel`) inside spans, and checks that the replay reaches
//! the same best structure and MRR.

use crate::trace::{attribute, Tracer};
use crate::{median, p90, setup_median, Args, Report, SetupTimes};
use autosf::filter::DedupFilter;
use autosf::invariance::canonical;
use autosf::space::{enumerate_b4, extend_two};
use autosf::{GreedyConfig, GreedySearch, PerformancePredictor, SearchDriver};
use kg_core::{Dataset, FilterIndex};
use kg_datagen::{preset, Preset, Scale};
use kg_eval::ranking::evaluate_parallel;
use kg_linalg::{Mat, SeededRng};
use kg_models::{classics, BlmModel, Block, BlockSpec, Embeddings};
use kg_train::loss::{multiclass_block, MulticlassScratch, MULTICLASS_BLOCK};
use kg_train::{train, TrainConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Candidate training: the Quick-scale search configuration (d = 32,
/// 30 epochs, batch 64), so each candidate costs what it costs in the
/// paper's loop.
fn train_cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        dim: 32,
        epochs: 30,
        lr: 0.3,
        l2: 1e-5,
        batch_size: 64,
        seed,
        ..Default::default()
    }
}

/// Searches per run at least. A search takes 13–22 s on a 2-vCPU VM, and
/// the host's speed drifts on about that time scale, so one run's median
/// needs three of them.
const SEARCHES: usize = 3;

/// The model budget: the five f4 structures plus one round of four b = 6
/// candidates.
fn greedy_cfg(seed: u64) -> GreedyConfig {
    GreedyConfig { b_max: 6, n_candidates: 32, k1: 4, k2: 4, rounds: 1, seed, ..Default::default() }
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let tcfg = train_cfg(args.seed);
    let gcfg = greedy_cfg(args.seed);
    let (ds, setup) = setup_median(101, || {
        let t0 = Instant::now();
        let ds = preset(Preset::Wn18rrLike, Scale::Quick, args.seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        drop(SearchDriver::new(&ds, tcfg, args.threads));
        let filter_build_s = t1.elapsed().as_secs_f64();
        (ds, SetupTimes { generate_s, filter_build_s, ..Default::default() })
    });
    rep.setup(args.trace, setup);
    rep.detail("entities", ds.n_entities);
    rep.detail("train_triples", ds.train.len());
    rep.detail("valid_triples", ds.valid.len());

    if args.trace {
        traced(args, &ds, tcfg, gcfg, &mut rep);
        return rep;
    }

    let window = Instant::now();
    let mut walls = Vec::new();
    let mut models = 0usize;
    let mut first: Option<(BlockSpec, f64)> = None;
    while walls.len() < SEARCHES || window.elapsed().as_secs_f64() < args.seconds {
        let mut driver = SearchDriver::new(&ds, tcfg, args.threads);
        let t0 = Instant::now();
        let outcome = GreedySearch::new(gcfg).run(&mut driver);
        walls.push(t0.elapsed().as_secs_f64());
        models += driver.models_trained();
        match &first {
            None => {
                rep.check(outcome.best_mrr.is_finite() && outcome.best_mrr > 0.0);
                rep.detail("search_best_mrr", crate::num(outcome.best_mrr));
                rep.detail("best_spec", crate::json_str(&outcome.best_spec.formula()));
                rep.detail("models_per_search", driver.models_trained());
                first = Some((outcome.best_spec, outcome.best_mrr));
            }
            Some((spec, mrr)) => {
                rep.check(*spec == outcome.best_spec && mrr.to_bits() == outcome.best_mrr.to_bits())
            }
        }
    }
    let total: f64 = walls.iter().sum();
    rep.metric("throughput", models as f64 / total);
    rep.metric("p50_ms", 1e3 * median(&walls));
    rep.metric("tail_ms", 1e3 * p90(&walls));
    rep.detail("search_wall_s", crate::num(median(&walls)));
    rep.detail("searches", walls.len());
    let walls_json: Vec<String> = walls.iter().map(|w| crate::num(*w)).collect();
    rep.detail("search_walls_s", format!("[{}]", walls_json.join(",")));
    rep
}

fn traced(args: &Args, ds: &Dataset, tcfg: TrainConfig, gcfg: GreedyConfig, rep: &mut Report) {
    // Reference: a warm-up search, then one timed untraced search, so the
    // reference wall does not pay for the process's first search.
    let mut driver = SearchDriver::new(ds, tcfg, args.threads);
    let outcome = GreedySearch::new(gcfg).run(&mut driver);
    let mut again = SearchDriver::new(ds, tcfg, args.threads);
    let t0 = Instant::now();
    let repeat = GreedySearch::new(gcfg).run(&mut again);
    let untraced_s = t0.elapsed().as_secs_f64();
    rep.check(
        repeat.best_spec == outcome.best_spec
            && repeat.best_mrr.to_bits() == outcome.best_mrr.to_bits(),
    );
    rep.metric("autosf.filter_s", outcome.timings.iter().skip(1).map(|t| t.filter_secs).sum());
    rep.metric("autosf.predictor_s", outcome.timings.iter().map(|t| t.predictor_secs).sum());

    // Replay inside spans.
    let tracer = Tracer::new();
    let from = Instant::now();
    let mut replay = Replay::new(ds, tcfg, args.threads, &tracer);
    let (best_spec, best_mrr) = replay.greedy(gcfg);
    let to = Instant::now();
    rep.check(best_spec == outcome.best_spec && best_mrr.to_bits() == outcome.best_mrr.to_bits());
    rep.check(replay.models_trained == driver.models_trained());
    rep.metric("autosf.models_trained", replay.models_trained as f64);
    rep.account(&attribute(&tracer, from, to), untraced_s);

    let secs = |name: &str| tracer.named(name).iter().map(|s| s.secs()).collect::<Vec<_>>();
    rep.metric("autosf.enumerate_b4_s", secs("autosf.enumerate_b4").iter().sum());
    rep.metric("kg-train.candidate_train_s", median(&secs("kg-train.candidate_train")));
    rep.metric("kg-eval.candidate_eval_s", median(&secs("kg-eval.candidate_eval")));
    let fan: f64 = secs("kg-train.fanout").iter().sum();
    rep.metric("kg-train.fanout_idle_frac", (fan - replay.busy_per_thread_s) / fan);

    // Layer probes on this workload's shapes, outside the accounted window.
    let mut rng = SeededRng::new(args.seed ^ 0x5EA5C4);
    let model = BlmModel::new(
        classics::complex(),
        Embeddings::init(ds.n_entities, ds.n_relations, tcfg.dim, &mut rng),
    );
    let one = &ds.valid[..1];
    let filter = FilterIndex::from_dataset(ds);
    let calls: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(evaluate_parallel(&model, one, &filter, args.threads));
            t.elapsed().as_secs_f64()
        })
        .collect();
    rep.metric("kg-eval.call_overhead_us", 1e6 * median(&calls));
    rep.metric("kg-train.multiclass_block_ms", 1e3 * multiclass_block_s(&model, &ds.train, 100));
    rep.tracer = Some(tracer);
}

/// Median seconds of one `multiclass_block` call on the first block of
/// `triples`.
pub fn multiclass_block_s(model: &BlmModel, triples: &[kg_core::Triple], reps: usize) -> f64 {
    let (ent, rel) = (&model.emb.ent, &model.emb.rel);
    let mut d_ent = Mat::zeros(ent.rows(), ent.cols());
    let mut d_rel = Mat::zeros(rel.rows(), rel.cols());
    let mut scratch = MulticlassScratch::new(ent.rows(), ent.cols());
    let block = &triples[..MULTICLASS_BLOCK.min(triples.len())];
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let loss = multiclass_block(
                &model.spec,
                block,
                ent,
                rel,
                &mut d_ent,
                &mut d_rel,
                &mut scratch,
            );
            std::hint::black_box(loss);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Alg. 2 and the search driver's batch evaluation, replayed from public
/// entry points with a span around each layer call. Mirrors
/// `GreedySearch::run` and `SearchDriver::evaluate_batch` step for step
/// (same RNG streams, seeds and orbit cache), so it trains the same models.
struct Replay<'a> {
    ds: &'a Dataset,
    cfg: TrainConfig,
    threads: usize,
    tracer: &'a Tracer,
    filter: FilterIndex,
    cache: HashMap<Vec<Block>, f64>,
    records: Vec<(BlockSpec, f64)>,
    models_trained: usize,
    /// Σ over fan-outs of (candidate seconds ÷ threads used).
    busy_per_thread_s: f64,
}

impl<'a> Replay<'a> {
    fn new(ds: &'a Dataset, cfg: TrainConfig, threads: usize, tracer: &'a Tracer) -> Self {
        let mut filter = FilterIndex::build(&ds.train);
        for t in &ds.valid {
            filter.insert(*t);
        }
        Replay {
            ds,
            cfg,
            threads,
            tracer,
            filter,
            cache: HashMap::new(),
            records: Vec::new(),
            models_trained: 0,
            busy_per_thread_s: 0.0,
        }
    }

    fn greedy(&mut self, g: GreedyConfig) -> (BlockSpec, f64) {
        let tracer = self.tracer;
        let mut predictor = PerformancePredictor::new(g.feature, g.seed ^ 0x51F0);
        let mut rng = SeededRng::new(g.seed ^ 0xA5A5_5A5A_1234_8765);
        let b4 = tracer.span("autosf.enumerate_b4", None, |_| enumerate_b4());
        let scores4 = self.evaluate_batch(&b4);
        let mut tiers: Vec<Vec<(BlockSpec, f64)>> =
            vec![b4.iter().cloned().zip(scores4.iter().copied()).collect()];
        let mut all_records = tiers[0].clone();
        let mut dedup = DedupFilter::new();
        for s in &b4 {
            dedup.insert(s);
        }
        let mut b = 6;
        while b <= g.b_max {
            let mut stage_records = Vec::new();
            for _ in 0..g.rounds {
                let candidates = tracer.span("autosf.filter", None, |_| {
                    let mut parents: Vec<&(BlockSpec, f64)> =
                        tiers[(b - 4) / 2 - 1].iter().collect();
                    parents.sort_by(|a, b| b.1.total_cmp(&a.1));
                    let top = &parents[..g.k1.min(parents.len())];
                    let mut candidates: Vec<BlockSpec> = Vec::with_capacity(g.n_candidates);
                    let mut attempts = 0usize;
                    while candidates.len() < g.n_candidates && attempts < g.n_candidates * 400 {
                        attempts += 1;
                        let parent = &top[rng.below(top.len())].0;
                        let Some(child) = extend_two(parent, &mut rng) else { continue };
                        if !self.cache.contains_key(canonical(&child).blocks())
                            && dedup.admit(&child)
                        {
                            candidates.push(child);
                        }
                    }
                    candidates
                });
                if candidates.is_empty() {
                    break;
                }
                let chosen: Vec<BlockSpec> = tracer.span("autosf.predictor", None, |_| {
                    let ranked = predictor.rank(&candidates);
                    ranked.into_iter().take(g.k2).map(|i| candidates[i].clone()).collect()
                });
                let scores = self.evaluate_batch(&chosen);
                tracer.span("autosf.predictor", None, |_| {
                    for (spec, mrr) in chosen.into_iter().zip(scores) {
                        stage_records.push((spec.clone(), mrr));
                        all_records.push((spec, mrr));
                    }
                    predictor.fit(&all_records);
                });
            }
            if stage_records.is_empty() {
                break;
            }
            tiers.push(stage_records);
            b += 2;
        }
        let best = self.records.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("f4 evaluated");
        best.clone()
    }

    fn evaluate_batch(&mut self, specs: &[BlockSpec]) -> Vec<f64> {
        let keys: Vec<Vec<Block>> = specs.iter().map(|s| canonical(s).blocks().to_vec()).collect();
        let mut todo: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if !self.cache.contains_key(key) && !todo.iter().any(|&j| keys[j] == *key) {
                todo.push(i);
            }
        }
        if !todo.is_empty() {
            let batch: Vec<BlockSpec> = todo.iter().map(|&i| specs[i].clone()).collect();
            let seed_base = self.cfg.seed.wrapping_add(self.models_trained as u64 * 7919);
            let models = self.fanout(&batch, &self.cfg.with_seed(seed_base));
            for (bi, model) in models.into_iter().enumerate() {
                let metrics = self.tracer.span("kg-eval.candidate_eval", None, |_| {
                    evaluate_parallel(&model, &self.ds.valid, &self.filter, self.threads)
                });
                self.models_trained += 1;
                self.records.push((batch[bi].clone(), metrics.mrr));
                self.cache.insert(keys[todo[bi]].clone(), metrics.mrr);
            }
        }
        keys.iter().map(|k| self.cache[k]).collect()
    }

    /// `train_many`'s fan-out: workers pull candidates from a shared
    /// counter, candidate `i` trains with seed `cfg.seed + i`.
    fn fanout(&mut self, specs: &[BlockSpec], cfg: &TrainConfig) -> Vec<BlmModel> {
        let n = self.threads.min(specs.len());
        let next = AtomicUsize::new(0);
        let (ds, tracer) = (self.ds, self.tracer);
        let mut done: Vec<(usize, BlmModel, f64)> = tracer.span("kg-train.fanout", None, |fid| {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..n)
                    .map(|_| {
                        let next = &next;
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= specs.len() {
                                    break;
                                }
                                let cfg_i = cfg.with_seed(cfg.seed.wrapping_add(i as u64));
                                let t = Instant::now();
                                let m = tracer.span("kg-train.candidate_train", Some(fid), |_| {
                                    train(&specs[i], ds, &cfg_i)
                                });
                                local.push((i, m, t.elapsed().as_secs_f64()));
                            }
                            local
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("training worker panicked"))
                    .collect()
            })
        });
        self.busy_per_thread_s += done.iter().map(|d| d.2).sum::<f64>() / n as f64;
        done.sort_by_key(|d| d.0);
        done.into_iter().map(|d| d.1).collect()
    }
}
