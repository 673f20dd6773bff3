//! Parallel training of candidate structures.
//!
//! The paper trains "8 models in parallel" per greedy iteration
//! (Sec. V-A3); we fan candidates out over OS threads with a shared atomic
//! work queue (`std::thread::scope`, so the dataset can be borrowed, not
//! cloned). Every candidate trains with its own deterministic seed, so the
//! result is independent of thread interleaving.

use crate::config::TrainConfig;
use crate::trainer::train;
use kg_core::Dataset;
use kg_models::{BlmModel, BlockSpec};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Train every spec on `ds`, using up to `n_threads` worker threads.
/// Returns models in the same order as `specs`.
///
/// Candidate `i` trains with seed `cfg.seed + i`, matching what a
/// sequential loop would use — parallelism never changes results.
pub fn train_many(
    specs: &[BlockSpec],
    ds: &Dataset,
    cfg: &TrainConfig,
    n_threads: usize,
) -> Vec<BlmModel> {
    assert!(n_threads > 0, "need at least one worker thread");
    if specs.is_empty() {
        return Vec::new();
    }
    let n_threads = n_threads.min(specs.len());
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<BlmModel>> = (0..specs.len()).map(|_| None).collect();
    // Hand each worker a disjoint set of result slots via a mutex-free
    // split: collect (index, model) pairs per worker, then merge.
    let mut per_worker: Vec<Vec<(usize, BlmModel)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..n_threads {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let cfg_i = cfg.with_seed(cfg.seed.wrapping_add(i as u64));
                    local.push((i, train(&specs[i], ds, &cfg_i)));
                }
                local
            }));
        }
        for h in handles {
            per_worker.push(h.join().expect("training worker panicked"));
        }
    });
    for (i, m) in per_worker.into_iter().flatten() {
        results[i] = Some(m);
    }
    results.into_iter().map(|m| m.expect("every slot trained")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::Triple;
    use kg_models::blm::classics;

    fn toy_dataset() -> Dataset {
        let train: Vec<Triple> = (0..20u32).map(|i| Triple::new(i, 0, (i + 1) % 20)).collect();
        Dataset::new("toy", train, vec![], vec![])
    }

    fn cfg() -> TrainConfig {
        TrainConfig { dim: 8, epochs: 3, batch_size: 8, ..Default::default() }
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = toy_dataset();
        let specs = vec![classics::distmult(), classics::complex(), classics::simple()];
        let par = train_many(&specs, &ds, &cfg(), 3);
        // sequential reference with the same per-candidate seeds
        for (i, spec) in specs.iter().enumerate() {
            let seq = train(spec, &ds, &cfg().with_seed(cfg().seed + i as u64));
            assert_eq!(par[i].emb.ent, seq.emb.ent, "candidate {i} differs");
        }
    }

    #[test]
    fn order_is_preserved() {
        let ds = toy_dataset();
        let specs = vec![classics::distmult(), classics::simple()];
        let out = train_many(&specs, &ds, &cfg(), 2);
        assert_eq!(out[0].spec, specs[0]);
        assert_eq!(out[1].spec, specs[1]);
    }

    #[test]
    fn empty_input_is_fine() {
        let ds = toy_dataset();
        assert!(train_many(&[], &ds, &cfg(), 4).is_empty());
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let ds = toy_dataset();
        let out = train_many(&[classics::distmult()], &ds, &cfg(), 8);
        assert_eq!(out.len(), 1);
    }
}
