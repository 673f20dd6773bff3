//! `train-10k`: multi-class softmax training on the sharded crew
//! (`Trainer::threads`) over a 10k-entity graph, d = 64, batch 256.
//!
//! Untraced, the workload repeats one fixed training run (same seed, so
//! every run must produce byte-identical embeddings) until the window
//! closes. The epoch percentiles come from the steady epochs only: epoch 0
//! also pays for the run's set-up (embedding init, Adagrad and gradient
//! buffers, the crew's threads), so it counts toward throughput but is not
//! an epoch sample. Afterwards a `threads(1)` crew trains the same seed and
//! must match byte for byte, and the loss must be finite. Traced, it runs
//! once to warm up, once untraced for the reference wall time, once inside
//! spans (the run, and each epoch from the epoch callback), and probes the kernels the crew
//! runs on this table: `multiclass_block`, `gemm_nt_rows`,
//! `gemm_acc_t_rows`.

use crate::rank::median_of;
use crate::search::multiclass_block_s;
use crate::trace::{attribute, Tracer};
use crate::{median, setup_median, windowed_p90, Args, Report, SetupTimes, TAIL_WINDOW_S};
use kg_core::Dataset;
use kg_linalg::gemm::{gemm_acc_t_rows_with, gemm_nt_rows_with};
use kg_linalg::{KernelPolicy, SeededRng};
use kg_models::{classics, BlmModel, Embeddings};
use kg_train::loss::MULTICLASS_BLOCK;
use kg_train::{ControlFlow, EpochInfo, TrainConfig, Trainer};
use std::time::Instant;

const ENTITIES: usize = 10_000;
const TRIPLES: usize = 1_024;
const EPOCHS: usize = 5;

fn cfg(seed: u64) -> TrainConfig {
    TrainConfig { dim: 64, epochs: EPOCHS, batch_size: 256, seed, ..Default::default() }
}

fn setup(seed: u64) -> (Dataset, SetupTimes) {
    let t0 = Instant::now();
    let mut ds = crate::graph("train-10k", ENTITIES, 8, 400, seed);
    ds.train.truncate(TRIPLES);
    assert_eq!(ds.train.len(), TRIPLES, "train-10k generated too few triples");
    (ds, SetupTimes { generate_s: t0.elapsed().as_secs_f64(), ..Default::default() })
}

/// One training run: the model, each epoch's (start, end) and the mean
/// loss of the last epoch. Epoch 0 starts with the call, so it includes
/// the run's set-up.
fn train_once(trainer: &Trainer, ds: &Dataset) -> (BlmModel, Vec<(Instant, Instant)>, f32) {
    let mut epochs = Vec::new();
    let mut loss = f32::NAN;
    let mut last = Instant::now();
    let model =
        trainer.train_with_callback(&classics::complex(), ds, |_: &BlmModel, info: EpochInfo| {
            let now = Instant::now();
            epochs.push((last, now));
            last = now;
            loss = info.loss;
            ControlFlow::Continue
        });
    (model, epochs, loss)
}

/// Every epoch after the first: (end, seconds).
fn steady_epochs(epochs: &[(Instant, Instant)]) -> impl Iterator<Item = (Instant, f64)> + '_ {
    epochs.iter().skip(1).map(|(a, b)| (*b, (*b - *a).as_secs_f64()))
}

fn bytes(m: &BlmModel) -> Vec<u32> {
    m.emb.ent.as_slice().iter().chain(m.emb.rel.as_slice()).map(|x| x.to_bits()).collect()
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (ds, times) = setup_median(101, || setup(args.seed));
    rep.setup(args.trace, times);
    let crew = Trainer::new(cfg(args.seed)).threads(args.threads);

    let reference = if args.trace {
        traced(args, &ds, &crew, &mut rep)
    } else {
        let window = Instant::now();
        // Steady epochs: (seconds into the window at the epoch's end, epoch
        // seconds).
        let (mut walls, mut steady) = (Vec::new(), Vec::new());
        let mut first: Option<Vec<u32>> = None;
        while walls.len() < 2 || window.elapsed().as_secs_f64() < args.seconds {
            let t0 = Instant::now();
            let (model, epochs, loss) = train_once(&crew, &ds);
            walls.push(t0.elapsed().as_secs_f64());
            steady.extend(steady_epochs(&epochs).map(|(end, e)| ((end - window).as_secs_f64(), e)));
            let b = bytes(&model);
            match &first {
                None => {
                    rep.check(loss.is_finite());
                    rep.detail("train_loss", crate::num(loss as f64));
                    first = Some(b);
                }
                Some(f) => rep.check(*f == b),
            }
        }
        let total: f64 = walls.iter().sum();
        rep.metric("throughput", (walls.len() * TRIPLES * EPOCHS) as f64 / total);
        let epoch_s: Vec<f64> = steady.iter().map(|e| e.1).collect();
        rep.metric("p50_ms", 1e3 * median(&epoch_s));
        let wall = window.elapsed().as_secs_f64();
        rep.metric("tail_ms", 1e3 * windowed_p90(&steady, wall, TAIL_WINDOW_S));
        rep.detail("runs", walls.len());
        first.expect("at least one run")
    };

    // The crew's determinism contract: one thread, same bytes.
    let (single, _, loss) = train_once(&Trainer::new(cfg(args.seed)).threads(1), &ds);
    rep.check(loss.is_finite() && bytes(&single) == reference);
    rep
}

fn traced(args: &Args, ds: &Dataset, crew: &Trainer, rep: &mut Report) -> Vec<u32> {
    // A warm-up run gives the reference bytes; the second run is the
    // untraced reference wall, so neither pass pays the process's first run.
    let (model, _, _) = train_once(crew, ds);
    let reference = bytes(&model);
    let t0 = Instant::now();
    let (again, _, _) = train_once(crew, ds);
    let untraced_s = t0.elapsed().as_secs_f64();
    rep.check(bytes(&again) == reference);

    let tracer = Tracer::new();
    let from = Instant::now();
    let (traced_model, epochs) = tracer.span("kg-train.train", None, |id| {
        let (m, epochs, _) = train_once(crew, ds);
        for (a, b) in &epochs {
            tracer.record(tracer.id(), "kg-train.epoch", Some(id), *a, *b, None);
        }
        (m, epochs)
    });
    rep.account(&attribute(&tracer, from, Instant::now()), untraced_s);
    rep.tracer = Some(tracer);
    rep.check(bytes(&traced_model) == reference);

    let epoch_s = median(&steady_epochs(&epochs).map(|e| e.1).collect::<Vec<_>>());
    rep.metric("kg-train.epoch_s", epoch_s);

    // Kernel probes on this table, single thread.
    let mut rng = SeededRng::new(args.seed ^ 0x7A1);
    let probe = BlmModel::new(
        classics::complex(),
        Embeddings::init(ENTITIES, ds.n_relations, 64, &mut rng),
    );
    let block_s = multiclass_block_s(&probe, &ds.train, 30);
    rep.metric("kg-train.multiclass_block_ms", 1e3 * block_s);
    let blocks_per_epoch = TRIPLES.div_ceil(MULTICLASS_BLOCK) as f64;
    rep.metric(
        "kg-train.crew_residual_frac",
        1.0 - blocks_per_epoch * block_s / args.threads as f64 / epoch_s,
    );
    let (m, k, n) = (2 * MULTICLASS_BLOCK, 64, ENTITIES);
    let flops = (2 * m * k * n) as f64;
    let (nt, acc) = gemm_probes(&probe, m, args.seed);
    rep.metric("kg-linalg.gemm_nt_rows_gflops", flops / nt / 1e9);
    rep.metric("kg-linalg.gemm_acc_t_rows_gflops", flops / acc / 1e9);
    reference
}

/// Median seconds of `gemm_nt_rows` (an `m`-query block against the whole
/// table) and `gemm_acc_t_rows` (the matching backward accumulation), under
/// the process's default kernel policy.
pub fn gemm_probes(model: &BlmModel, m: usize, seed: u64) -> (f64, f64) {
    let table = &model.emb.ent;
    let (n, k) = (table.rows(), table.cols());
    let policy = KernelPolicy::default_from_env();
    let mut rng = SeededRng::new(seed ^ 0x6E77);
    let mut a = vec![0.0f32; m * k];
    rng.xavier_uniform(k, &mut a);
    let mut scores = vec![0.0f32; m * n];
    let nt = median_of(9, || gemm_nt_rows_with(policy, &a, m, k, table, 0..n, &mut scores));
    let mut out = vec![0.0f32; m * k];
    let acc = median_of(9, || gemm_acc_t_rows_with(policy, &scores, m, table, 0..n, &mut out));
    (nt, acc)
}
