//! The cooperative sharded training engine: a persistent worker crew that
//! executes each [`crate::loss::multiclass_block`] step in parallel.
//!
//! # Layout
//!
//! The entity table is cut into a **fixed shard grid**
//! ([`kg_eval::engine::entity_shard_grid`]) whose size is a knob of its
//! own, *decoupled from the thread count*: shards are dealt round-robin to
//! however many workers exist, so the same grid — and therefore the same
//! floating-point result — serves any crew size. The main thread is the
//! crew's lead: it owns the model, the optimiser and the batch loop, and
//! scores/reduces its own share of shards like every other worker. Spawned
//! workers live for the whole training run (the scope wraps the epoch
//! loop), keep private entity/relation copies refreshed once per batch,
//! and communicate only through `AtomicU32` grids — all cells Relaxed,
//! with the crew's rendezvous as the only synchronisation, the same safe-code
//! discipline as the ranking engine's `PipelineSlots`.
//!
//! # One step (one 32-triple block, 64 query rows)
//!
//! 1. **Forward** — every participant builds the full query block (cheap,
//!    duplicated), then scores *its own shards* with the row-restricted
//!    GEMM ([`kg_linalg::gemm::gemm_nt_rows_with`]) and publishes the score
//!    columns into the shared coefficient grid. Shard score slices are
//!    bit-identical columns of the full block, so the assembled grid equals
//!    the sequential score block byte for byte.
//! 2. **Rows** — query rows are dealt evenly across the crew; each row
//!    owner runs the *real* [`kg_linalg::vecops::softmax_inplace`] on its
//!    contiguous full row (the lane-folded exponential sum cannot be
//!    reproduced from shard partials), records the cross-entropy, applies
//!    the `p − onehot` shift and publishes the processed row back.
//! 3. **Backward, owner-split** — per-entity gradients are computed
//!    entirely within the owning shard: each worker accumulates the rank-1
//!    `(p − onehot) ⊗ q` updates for *its shard's entity rows only* into a
//!    private block (no races, same add order per row as the sequential
//!    `ger`), and reduces its shards' query-side partials with
//!    [`kg_linalg::gemm::gemm_acc_t_rows_with`] into per-shard slots.
//! 4. **Reduce (lead)** — the lead merges the `dL/dq` partials in **fixed
//!    ascending shard order**, then walks the block in the sequential
//!    path's triple order: query-backward hooks, conditioning-entity and
//!    relation-row accumulation, cross-entropy bookkeeping. Mid-batch this
//!    overlaps the crew's next forward (the PR 6 pipeline discipline: the
//!    lead converts step `s` while the crew scores step `s + 1` — disjoint
//!    grids, one gate rendezvous per step).
//!
//! At a batch boundary workers additionally flush their private gradient
//! blocks to the shared grid; the lead assembles the dense gradient, adds
//! the N3/L2 terms, takes the Adagrad step and republishes the parameters
//! before the crew's next gate.
//!
//! # Determinism contract
//!
//! Two tiers, pinned by `tests/train_equivalence.rs`:
//!
//! * **Bit-identical to the sequential block path** (under
//!   [`KernelPolicy::Exact`]): forward scores, softmax probabilities and
//!   per-block cross-entropies — sharding restricts which columns a worker
//!   computes, never their value, and softmax runs on assembled full rows.
//! * **Deterministic at a fixed shard grid, for any thread count** (any
//!   policy): the merged `dL/dq` reassociates f32 additions at shard cuts,
//!   and conditioning-entity contributions are applied after (not
//!   interleaved with) the rank-1 terms, so trained embeddings differ from
//!   the sequential trainer within FP noise — but they are a pure function
//!   of `(seed, shard grid, kernel backend)`. Thread count, scheduling and
//!   oversubscription cannot show in a single byte of the result.
//!
//! # Crew and poison
//!
//! The crew is a [`kg_eval::crew::Crew`], the same primitive the parallel
//! ranker runs on, sized to the work it can use (`crew_size`). Every
//! participant crosses the same rendezvous sequence on its one barrier —
//! gate, forward, rows, and flush on batch ends — so a panic anywhere
//! (a phase, the lead's batch tail, the epoch callback) takes the whole
//! crew out at the same rendezvous and re-raises the original payload on
//! the caller: the crew's barrier-index poison protocol, with no
//! hand-written abort branches here.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Relaxed};

use crate::config::TrainConfig;
use crate::loss::MULTICLASS_BLOCK;
use crate::trainer::{ControlFlow, EpochCallback, EpochInfo};
use kg_core::Dataset;
use kg_eval::crew::{Crew, Seat};
use kg_eval::engine::{entity_shard_grid, WorkerShard};
use kg_linalg::{gemm, vecops, Adagrad, KernelPolicy, Mat, Optimizer, SeededRng};
use kg_models::{BlmModel, BlockSpec, Embeddings};

/// Query rows per step: two directions per triple of a full block.
const ROWS: usize = 2 * MULTICLASS_BLOCK;

/// Default fixed shard-grid size. Small enough that merging partials stays
/// a rounding error next to the GEMMs, large enough to deal several shards
/// to each worker of any sensible crew (the grid is capped at the entity
/// count). Changing it changes the gradient's f32 reassociation — it is
/// part of the deterministic layout, not a free tuning knob.
pub const DEFAULT_TRAIN_SHARDS: usize = 16;

const FLAG_REFRESH: usize = 1;
const FLAG_FLUSH: usize = 2;
const FLAG_DONE: usize = 4;

/// Step metadata the lead hands the crew at each gate: the triple block
/// plus control flags. Written strictly between the previous step's rows
/// barrier and the gate, read strictly between the gate and the forward
/// barrier, so a single buffer suffices.
struct StepMeta {
    h: Vec<AtomicUsize>,
    r: Vec<AtomicUsize>,
    t: Vec<AtomicUsize>,
    len: AtomicUsize,
    flags: AtomicUsize,
}

impl StepMeta {
    fn new() -> Self {
        let cell = || (0..MULTICLASS_BLOCK).map(|_| AtomicUsize::new(0)).collect();
        StepMeta {
            h: cell(),
            r: cell(),
            t: cell(),
            len: AtomicUsize::new(0),
            flags: AtomicUsize::new(0),
        }
    }
}

/// The crew's shared state: parameter image, score/coefficient grid,
/// per-shard gradient partial slots and step metadata.
struct SharedCrew {
    /// Published model parameters, entity table then relation table.
    params: Vec<AtomicU32>,
    /// The `ROWS × n_ent` score block; raw scores after the forward
    /// barrier, `p − onehot` coefficients after the rows barrier.
    coeff: Vec<AtomicU32>,
    /// Per-shard `dL/dq` partials, `n_shards × ROWS × dim`.
    dq_parts: Vec<AtomicU32>,
    /// Per-row cross-entropy slots.
    ce: Vec<AtomicU32>,
    /// Rank-1 entity-gradient totals, flushed once per batch.
    d_ent: Vec<AtomicU32>,
    meta: StepMeta,
    /// The fixed entity-shard grid (round-robin dealt to workers).
    shards: Vec<Range<usize>>,
    n_workers: usize,
    n_ent: usize,
    n_rel: usize,
    dim: usize,
}

impl SharedCrew {
    fn new(n_ent: usize, n_rel: usize, dim: usize, n_shards: usize, n_workers: usize) -> Self {
        let cells = |len: usize| (0..len).map(|_| AtomicU32::new(0)).collect::<Vec<_>>();
        let shards: Vec<Range<usize>> = entity_shard_grid(n_ent, n_shards)
            .into_iter()
            .map(|s| match s {
                WorkerShard::Entities(r) => r,
                WorkerShard::Queries { .. } => unreachable!("entity grids are entity shards"),
            })
            .collect();
        SharedCrew {
            params: cells((n_ent + n_rel) * dim),
            coeff: cells(ROWS * n_ent),
            dq_parts: cells(n_shards * ROWS * dim),
            ce: cells(ROWS),
            d_ent: cells(n_ent * dim),
            meta: StepMeta::new(),
            shards,
            n_workers,
            n_ent,
            n_rel,
            dim,
        }
    }

    /// Shard indices worker `w` owns: `w, w + crew, w + 2·crew, …`.
    fn owned_shards(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        (w..self.shards.len()).step_by(self.n_workers)
    }

    fn write_meta(&self, block: &[(usize, usize, usize)], flags: usize) {
        for (i, &(h, r, t)) in block.iter().enumerate() {
            self.meta.h[i].store(h, Relaxed);
            self.meta.r[i].store(r, Relaxed);
            self.meta.t[i].store(t, Relaxed);
        }
        self.meta.len.store(block.len(), Relaxed);
        self.meta.flags.store(flags, Relaxed);
    }

    fn read_meta(&self, block: &mut Vec<(usize, usize, usize)>) -> usize {
        block.clear();
        for i in 0..self.meta.len.load(Relaxed) {
            block.push((
                self.meta.h[i].load(Relaxed),
                self.meta.r[i].load(Relaxed),
                self.meta.t[i].load(Relaxed),
            ));
        }
        self.meta.flags.load(Relaxed)
    }

    /// Publish the lead's parameters for the crew's next per-batch refresh.
    fn publish_params(&self, model: &BlmModel) {
        let ent = model.emb.ent.as_slice();
        let rel = model.emb.rel.as_slice();
        for (cell, &v) in self.params.iter().zip(ent.iter().chain(rel.iter())) {
            cell.store(v.to_bits(), Relaxed);
        }
    }

    fn load_params(&self, ent: &mut Mat, rel: &mut Mat) {
        let split = self.n_ent * self.dim;
        for (v, cell) in ent.as_mut_slice().iter_mut().zip(&self.params[..split]) {
            *v = f32::from_bits(cell.load(Relaxed));
        }
        for (v, cell) in rel.as_mut_slice().iter_mut().zip(&self.params[split..]) {
            *v = f32::from_bits(cell.load(Relaxed));
        }
    }
}

/// One participant's reusable scratch, allocated once and carried across
/// every step of every epoch.
struct WorkerScratch {
    /// The full query block (every participant builds all rows).
    queries: Vec<f32>,
    /// Shard-compact score / coefficient staging, `ROWS × max shard width`.
    shard_block: Vec<f32>,
    /// One full score row for the softmax pass.
    row_buf: Vec<f32>,
    /// One shard's `dL/dq` partial.
    dq_part: Vec<f32>,
    /// Private rank-1 gradient blocks, one per owned shard, accumulated
    /// across the batch and flushed at its end.
    d_ent_blocks: Vec<Mat>,
}

impl WorkerScratch {
    fn new(sh: &SharedCrew, w: usize) -> Self {
        let max_width = sh.shards.iter().map(|r| r.len()).max().unwrap_or(0);
        WorkerScratch {
            queries: vec![0.0; ROWS * sh.dim],
            shard_block: vec![0.0; ROWS * max_width],
            row_buf: vec![0.0; sh.n_ent],
            dq_part: vec![0.0; ROWS * sh.dim],
            d_ent_blocks: sh
                .owned_shards(w)
                .map(|s| Mat::zeros(sh.shards[s].len(), sh.dim))
                .collect(),
        }
    }
}

/// Build the full query block — stage 1 of the sequential path, verbatim.
fn build_queries(
    spec: &BlockSpec,
    block: &[(usize, usize, usize)],
    ent: &Mat,
    rel: &Mat,
    queries: &mut [f32],
) {
    let dim = ent.cols();
    let dsub = dim / 4;
    for (i, &(h, r, t)) in block.iter().enumerate() {
        spec.tail_query(
            ent.row(h),
            rel.row(r),
            &mut queries[(2 * i) * dim..(2 * i + 1) * dim],
            dsub,
        );
        spec.head_query(
            ent.row(t),
            rel.row(r),
            &mut queries[(2 * i + 1) * dim..(2 * i + 2) * dim],
            dsub,
        );
    }
}

/// Forward: score the worker's shards and publish the columns.
#[allow(clippy::too_many_arguments)]
fn phase_forward(
    sh: &SharedCrew,
    policy: KernelPolicy,
    spec: &BlockSpec,
    block: &[(usize, usize, usize)],
    ent: &Mat,
    rel: &Mat,
    scratch: &mut WorkerScratch,
    w: usize,
) {
    let (dim, n) = (sh.dim, sh.n_ent);
    let m = 2 * block.len();
    build_queries(spec, block, ent, rel, &mut scratch.queries[..m * dim]);
    for s in sh.owned_shards(w) {
        let range = sh.shards[s].clone();
        let width = range.len();
        if width == 0 {
            continue;
        }
        let out = &mut scratch.shard_block[..m * width];
        gemm::gemm_nt_rows_with(
            policy,
            &scratch.queries[..m * dim],
            m,
            dim,
            ent,
            range.clone(),
            out,
        );
        for i in 0..m {
            for j in 0..width {
                sh.coeff[i * n + range.start + j].store(out[i * width + j].to_bits(), Relaxed);
            }
        }
    }
}

/// Rows: softmax + cross-entropy + `p − onehot` on the worker's share of
/// the block's query rows — full contiguous rows, so the lane-folded
/// softmax is bit-identical to the sequential pass whatever the row split.
fn phase_rows(
    sh: &SharedCrew,
    block: &[(usize, usize, usize)],
    scratch: &mut WorkerScratch,
    w: usize,
) {
    let n = sh.n_ent;
    let m = 2 * block.len();
    let my_rows = WorkerShard::Queries { worker: w, n_workers: sh.n_workers }.rows(m);
    for row in my_rows {
        let s = &mut scratch.row_buf[..n];
        for (v, cell) in s.iter_mut().zip(&sh.coeff[row * n..(row + 1) * n]) {
            *v = f32::from_bits(cell.load(Relaxed));
        }
        vecops::softmax_inplace(s);
        let (h, _, t) = block[row / 2];
        let target = if row % 2 == 0 { t } else { h };
        let ce = -(s[target].max(1e-12)).ln();
        s[target] -= 1.0;
        for (cell, &v) in sh.coeff[row * n..(row + 1) * n].iter().zip(s.iter()) {
            cell.store(v.to_bits(), Relaxed);
        }
        sh.ce[row].store(ce.to_bits(), Relaxed);
    }
}

/// Owner-split backward: per owned shard, reduce the query-side partial
/// (`entᵀ (p − onehot)`, shard rows only) into its slot and accumulate the
/// rank-1 entity gradients into the private block — per entity row, the
/// same `axpy(coeff, q, row)` sequence in the same block-row order as the
/// sequential `ger`. On a flush step the private blocks then move to the
/// shared gradient grid and reset for the next batch.
fn phase_backward(
    sh: &SharedCrew,
    policy: KernelPolicy,
    m: usize,
    ent: &Mat,
    scratch: &mut WorkerScratch,
    w: usize,
    flush: bool,
) {
    let (dim, n) = (sh.dim, sh.n_ent);
    for (local, s) in sh.owned_shards(w).enumerate() {
        let range = sh.shards[s].clone();
        let width = range.len();
        let coeffs = &mut scratch.shard_block[..m * width];
        for i in 0..m {
            for j in 0..width {
                coeffs[i * width + j] =
                    f32::from_bits(sh.coeff[i * n + range.start + j].load(Relaxed));
            }
        }
        // Always reduce (an empty shard publishes zeros): the slots persist
        // across steps, so every step must overwrite its own partial.
        let part = &mut scratch.dq_part[..m * dim];
        gemm::gemm_acc_t_rows_with(policy, coeffs, m, ent, range.clone(), part);
        let slot = &sh.dq_parts[s * ROWS * dim..];
        for (cell, &v) in slot.iter().zip(part.iter()) {
            cell.store(v.to_bits(), Relaxed);
        }
        let d_block = &mut scratch.d_ent_blocks[local];
        for j in 0..width {
            let row = d_block.row_mut(j);
            for i in 0..m {
                vecops::axpy(coeffs[i * width + j], &scratch.queries[i * dim..(i + 1) * dim], row);
            }
        }
    }
    if flush {
        for (local, s) in sh.owned_shards(w).enumerate() {
            let range = sh.shards[s].clone();
            let d_block = &mut scratch.d_ent_blocks[local];
            for (j, e) in range.enumerate() {
                let row = d_block.row_mut(j);
                for (c, v) in row.iter_mut().enumerate() {
                    sh.d_ent[e * dim + c].store(v.to_bits(), Relaxed);
                    *v = 0.0;
                }
            }
        }
    }
}

/// Test hook of [`crate::Trainer::inject_panic_at`]: participant `w`
/// panics at the start of step `step`'s row phase.
fn maybe_trip(panic_inject: Option<(usize, usize)>, step: usize, w: usize) {
    if let Some((ps, pw)) = panic_inject {
        assert!(ps != step || pw != w, "train crew grenade tripped (step {step}, worker {w})");
    }
}

/// A spawned (non-lead) crew member: loop over steps until the lead's
/// gate says done. Its rendezvous mirror the lead's exactly: gate,
/// forward, rows, and flush on a batch boundary.
fn worker_loop(
    sh: &SharedCrew,
    spec: &BlockSpec,
    policy: KernelPolicy,
    seat: &mut Seat<'_>,
    panic_inject: Option<(usize, usize)>,
) {
    let w = seat.index();
    let mut ent = Mat::zeros(sh.n_ent, sh.dim);
    let mut rel = Mat::zeros(sh.n_rel, sh.dim);
    let mut scratch = WorkerScratch::new(sh, w);
    let mut block: Vec<(usize, usize, usize)> = Vec::with_capacity(MULTICLASS_BLOCK);
    for step in 0.. {
        seat.wait(); // gate
        let flags = sh.read_meta(&mut block);
        if flags & FLAG_DONE != 0 {
            return;
        }
        if flags & FLAG_REFRESH != 0 {
            sh.load_params(&mut ent, &mut rel);
        }
        phase_forward(sh, policy, spec, &block, &ent, &rel, &mut scratch, w);
        seat.wait(); // forward
        maybe_trip(panic_inject, step, w);
        phase_rows(sh, &block, &mut scratch, w);
        seat.wait(); // rows
        let flushing = flags & FLAG_FLUSH != 0;
        phase_backward(sh, policy, 2 * block.len(), &ent, &mut scratch, w, flushing);
        if flushing {
            seat.wait(); // flush
        }
    }
}

/// How many participants a crew can use. Shards and query rows are the
/// units of work, so a crew of `max(n_shards, ROWS)` already gives every
/// shard of the grid and every row of a full step a participant of its
/// own; a larger crew would shorten no phase and only add participants to
/// every rendezvous. The result never depends on the crew size, so the
/// clamp cannot change a byte of the output.
fn crew_size(threads: usize, n_shards: usize) -> usize {
    threads.min(n_shards.max(ROWS))
}

/// Train `spec` with the cooperative crew. The lead (calling thread) runs
/// the epoch/batch loop and works shards alongside up to `threads − 1`
/// spawned workers ([`crew_size`]) kept alive across all epochs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_crew<F>(
    spec: &BlockSpec,
    ds: &Dataset,
    cfg: &TrainConfig,
    policy: KernelPolicy,
    threads: usize,
    shards: usize,
    panic_inject: Option<(usize, usize)>,
    mut on_epoch: F,
) -> BlmModel
where
    F: EpochCallback,
{
    cfg.validate().expect("invalid training configuration");
    assert!(!ds.train.is_empty(), "cannot train on an empty training set");
    assert!(threads >= 1, "crew needs at least one thread");
    assert!(shards >= 1, "crew needs at least one shard");
    let mut rng = SeededRng::new(cfg.seed ^ 0xEE55_11AA_77CC_33BB);
    let emb = Embeddings::init(ds.n_entities, ds.n_relations, cfg.dim, &mut rng);
    let mut model = BlmModel::new(spec.clone(), emb);

    let n_ent = ds.n_entities;
    let n_rel = ds.n_relations;
    let dim = cfg.dim;
    let dsub = dim / 4;
    let n_shards = shards.min(n_ent).max(1);
    let n_workers = crew_size(threads, n_shards);
    let sh = SharedCrew::new(n_ent, n_rel, dim, n_shards, n_workers);
    let spec = spec.clone();

    let mut opt = Adagrad::new(n_ent * dim + n_rel * dim, cfg.lr, cfg.decay);
    let mut d_ent = Mat::zeros(n_ent, dim);
    let mut d_ent_cond = Mat::zeros(n_ent, dim);
    let mut d_rel = Mat::zeros(n_rel, dim);
    let mut dq_full = vec![0.0f32; ROWS * dim];
    let mut hook_cond = vec![0.0f32; dim];
    let mut hook_rel = vec![0.0f32; dim];
    let mut lead_scratch = WorkerScratch::new(&sh, 0);
    let mut block: Vec<(usize, usize, usize)> = Vec::with_capacity(MULTICLASS_BLOCK);
    let mut order: Vec<usize> = (0..ds.train.len()).collect();
    let start = std::time::Instant::now();

    if n_workers > 1 {
        sh.publish_params(&model);
    }

    // The lead's driving loop. Its rendezvous mirror `worker_loop`'s.
    let lead = |seat: &mut Seat<'_>| {
        let mut step = 0usize;
        // Converted lazily: `Some(block)` holds a mid-batch step whose
        // reduce overlaps the crew's next forward.
        let mut pending: Option<Vec<(usize, usize, usize)>> = None;
        for epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f64;
            let mut n_terms = 0usize;
            for batch in order.chunks(cfg.batch_size) {
                d_rel.clear();
                let n_blocks = batch.len().div_ceil(MULTICLASS_BLOCK);
                for (bi, chunk) in batch.chunks(MULTICLASS_BLOCK).enumerate() {
                    let is_last = bi + 1 == n_blocks;
                    block.clear();
                    block.extend(chunk.iter().map(|&i| {
                        let tr = ds.train[i];
                        (tr.h.idx(), tr.r.idx(), tr.t.idx())
                    }));
                    let mut flags = if bi == 0 { FLAG_REFRESH } else { 0 };
                    if is_last {
                        flags |= FLAG_FLUSH;
                    }
                    sh.write_meta(&block, flags);
                    seat.wait(); // gate

                    // Reduce the previous mid-batch step, then score this
                    // step's shards, both before the forward rendezvous:
                    // the lead's reduce of step `s − 1` overlaps the crew's
                    // forward of step `s` — the pipeline overlap. Safe:
                    // reduce reads `dq_parts`/`ce` (which the crew next
                    // writes only after this step's rows rendezvous) and
                    // writes lead-private accumulators.
                    if let Some(prev) = pending.take() {
                        let ce = lead_reduce(
                            &sh,
                            &spec,
                            &model,
                            &prev,
                            dsub,
                            &mut dq_full,
                            &mut hook_cond,
                            &mut hook_rel,
                            &mut d_ent_cond,
                            &mut d_rel,
                        );
                        epoch_loss += ce as f64;
                        n_terms += 2 * prev.len();
                    }
                    let (ent, rel) = (&model.emb.ent, &model.emb.rel);
                    phase_forward(&sh, policy, &spec, &block, ent, rel, &mut lead_scratch, 0);
                    seat.wait(); // forward

                    maybe_trip(panic_inject, step, 0);
                    phase_rows(&sh, &block, &mut lead_scratch, 0);
                    seat.wait(); // rows

                    let m = 2 * block.len();
                    phase_backward(&sh, policy, m, &model.emb.ent, &mut lead_scratch, 0, is_last);
                    if is_last {
                        seat.wait(); // flush
                        let ce = batch_end(
                            &sh,
                            &spec,
                            &mut model,
                            &block,
                            batch,
                            ds,
                            cfg,
                            dsub,
                            &mut dq_full,
                            &mut hook_cond,
                            &mut hook_rel,
                            &mut d_ent,
                            &mut d_ent_cond,
                            &mut d_rel,
                            &mut opt,
                        );
                        epoch_loss += ce as f64;
                        n_terms += 2 * block.len();
                    } else {
                        pending = Some(block.clone());
                    }
                    step += 1;
                }
            }
            opt.end_epoch();
            let info = EpochInfo {
                epoch,
                loss: (epoch_loss / n_terms.max(1) as f64) as f32,
                seconds: start.elapsed().as_secs_f64(),
            };
            if on_epoch.on_epoch(&model, info) == ControlFlow::Stop {
                break;
            }
        }
        sh.write_meta(&[], FLAG_DONE);
        seat.wait(); // gate: done
    };
    Crew::run(n_workers, lead, |seat| worker_loop(&sh, &spec, policy, seat, panic_inject));
    model
}

/// Merge the step's `dL/dq` partials in fixed ascending shard order, then
/// run the sequential path's per-triple backward hooks and cross-entropy
/// bookkeeping. Returns the block's summed cross-entropy.
#[allow(clippy::too_many_arguments)]
fn lead_reduce(
    sh: &SharedCrew,
    spec: &BlockSpec,
    model: &BlmModel,
    block: &[(usize, usize, usize)],
    dsub: usize,
    dq_full: &mut [f32],
    hook_cond: &mut [f32],
    hook_rel: &mut [f32],
    d_ent_cond: &mut Mat,
    d_rel: &mut Mat,
) -> f32 {
    let dim = sh.dim;
    let m = 2 * block.len();
    let dq = &mut dq_full[..m * dim];
    vecops::zero(dq);
    for s in 0..sh.shards.len() {
        let slot = &sh.dq_parts[s * ROWS * dim..][..m * dim];
        for (acc, cell) in dq.iter_mut().zip(slot) {
            *acc += f32::from_bits(cell.load(Relaxed));
        }
    }
    let mut block_ce = 0.0f32;
    for row in 0..m {
        block_ce += f32::from_bits(sh.ce[row].load(Relaxed));
    }
    let (ent, rel) = (&model.emb.ent, &model.emb.rel);
    for (i, &(h, r, t)) in block.iter().enumerate() {
        for (row, tail_direction, cond) in [(2 * i, true, h), (2 * i + 1, false, t)] {
            let dq_row = &dq[row * dim..(row + 1) * dim];
            vecops::zero(hook_cond);
            vecops::zero(hook_rel);
            if tail_direction {
                spec.tail_query_backward(
                    ent.row(cond),
                    rel.row(r),
                    dq_row,
                    hook_cond,
                    hook_rel,
                    dsub,
                );
            } else {
                spec.head_query_backward(
                    ent.row(cond),
                    rel.row(r),
                    dq_row,
                    hook_cond,
                    hook_rel,
                    dsub,
                );
            }
            vecops::axpy(1.0, hook_cond, d_ent_cond.row_mut(cond));
            vecops::axpy(1.0, hook_rel, d_rel.row_mut(r));
        }
    }
    block_ce
}

/// The batch-boundary tail: reduce the flush step, assemble the dense
/// entity gradient (rank-1 totals from the grid + conditioning totals),
/// apply N3/L2, take the Adagrad step and republish parameters — all
/// while the crew waits at the next gate. Returns the flush step's summed
/// cross-entropy.
#[allow(clippy::too_many_arguments)]
fn batch_end(
    sh: &SharedCrew,
    spec: &BlockSpec,
    model: &mut BlmModel,
    block: &[(usize, usize, usize)],
    batch: &[usize],
    ds: &Dataset,
    cfg: &TrainConfig,
    dsub: usize,
    dq_full: &mut [f32],
    hook_cond: &mut [f32],
    hook_rel: &mut [f32],
    d_ent: &mut Mat,
    d_ent_cond: &mut Mat,
    d_rel: &mut Mat,
    opt: &mut Adagrad,
) -> f32 {
    let ce =
        lead_reduce(sh, spec, model, block, dsub, dq_full, hook_cond, hook_rel, d_ent_cond, d_rel);
    // Dense gradient: rank-1 totals (grid) + conditioning totals — one
    // elementwise add, the same two-subtotal sum for every crew size.
    for (v, cell) in d_ent.as_mut_slice().iter_mut().zip(&sh.d_ent) {
        *v = f32::from_bits(cell.load(Relaxed));
    }
    vecops::axpy(1.0, d_ent_cond.as_slice(), d_ent.as_mut_slice());
    d_ent_cond.clear();
    if cfg.n3 > 0.0 {
        for &i in batch {
            let tr = ds.train[i];
            for row in [tr.h.idx(), tr.t.idx()] {
                crate::trainer::n3_grad(cfg.n3, model.emb.ent.row(row), d_ent.row_mut(row));
            }
            crate::trainer::n3_grad(
                cfg.n3,
                model.emb.rel.row(tr.r.idx()),
                d_rel.row_mut(tr.r.idx()),
            );
        }
    }
    let inv = 1.0 / batch.len() as f32;
    vecops::scale(inv, d_ent.as_mut_slice());
    vecops::scale(inv, d_rel.as_mut_slice());
    if cfg.l2 > 0.0 {
        vecops::axpy(cfg.l2, model.emb.ent.as_slice(), d_ent.as_mut_slice());
        vecops::axpy(cfg.l2, model.emb.rel.as_slice(), d_rel.as_mut_slice());
    }
    opt.update(0, model.emb.ent.as_mut_slice(), d_ent.as_slice());
    opt.update(sh.n_ent * sh.dim, model.emb.rel.as_mut_slice(), d_rel.as_slice());
    if sh.n_workers > 1 {
        sh.publish_params(model);
    }
    ce
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crew_size_clamps_to_the_work_a_crew_can_use() {
        assert_eq!(crew_size(128, DEFAULT_TRAIN_SHARDS), ROWS);
        assert_eq!(crew_size(4, DEFAULT_TRAIN_SHARDS), 4);
        assert_eq!(crew_size(1, 1), 1);
        assert_eq!(crew_size(500, 200), 200);
        for threads in 1..=300 {
            for n_shards in [1, 2, 16, 63, 64, 65, 100, 256] {
                let size = crew_size(threads, n_shards);
                assert!(size >= 1 && size <= threads);
                let rows = |w| WorkerShard::Queries { worker: w, n_workers: size }.rows(ROWS);
                // Every participant owns a shard or a row of a full step…
                for w in 0..size {
                    assert!(w < n_shards || !rows(w).is_empty(), "{w} of {size} idles");
                }
                // …and a clamped crew already gives every shard and every
                // row a participant of its own.
                if size < threads {
                    assert!(n_shards <= size);
                    assert_eq!((0..size).map(|w| rows(w).len()).max(), Some(1));
                }
            }
        }
    }
}
