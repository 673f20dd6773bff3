//! `serve-10k`: request traffic against `kg-serve` over a 10k-entity,
//! d = 64 ComplEx table (`KgEngine::with_filter(..).threads(nproc)
//! .block(64)`, default admission, no retries). The mix is 50/50 tail/head
//! and half rank, half top-10 queries, drawn from the graph's triples by
//! the seed.
//!
//! Eight callers each wait for their reply before sending the next request
//! (a closed loop). Untraced, the loop runs for the whole window: the run
//! is cut into 1 s windows, and completions per second and the p50/p90
//! latency are the medians over those windows. Every 50th answer is
//! checked against `filtered_rank`/`top_k` on the model's own score rows.
//! A closed loop keeps the engine's threads busy. An open loop at a fixed
//! rate leaves them idle between requests, and on a shared VM each wake-up
//! then pays the host's scheduling delay. On a 2-vCPU VM that made the open
//! loop's percentiles and rate-ladder capacity swing by up to 3× between
//! runs of one build.
//!
//! Traced, the same closed loop sends a fixed number of requests twice:
//! once untraced, for the reference wall time and the `EngineStats`
//! deltas, and once with a span per request.

use crate::rank::median_of;
use crate::trace::{attribute, Tracer};
use crate::{median, p90, p99, setup_median, windows, Args, Report, SetupTimes};
use kg_core::{Dataset, EntityId, FilterIndex, RelationId};
use kg_eval::ranking::{filtered_rank, top_k};
use kg_linalg::SeededRng;
use kg_models::{classics, BatchScorer, BatchScratch, BlmModel, Embeddings, LinkPredictor};
use kg_serve::{EngineStats, KgEngine, RankTicket, TopKTicket};
use std::sync::Arc;
use std::time::Instant;

const ENTITIES: usize = 10_000;
const DIM: usize = 64;
/// Callers of the closed loop, each with one request in flight.
const CALLERS: usize = 8;
/// Length of the windows whose medians the untraced run reports, seconds.
const WINDOW_S: f64 = 1.0;
/// Requests of each traced-mode pass (about 2 s of the closed loop).
const TRACED_REQUESTS: usize = 8_000;
const TOP_K: usize = 10;
/// Every this-many-th answer is checked.
const CHECK_EVERY: usize = 50;
/// Generated requests, cycled by the loops.
const REQUESTS: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
enum Req {
    RankTail(usize, usize, usize),
    RankHead(usize, usize, usize),
    TopTails(usize, usize),
    TopHeads(usize, usize),
}

enum Ticket {
    Rank(RankTicket),
    TopK(TopKTicket),
}

#[derive(Debug, PartialEq)]
enum Answer {
    Rank(u64),
    TopK(Vec<(usize, u32)>),
}

impl Ticket {
    fn is_settled(&self) -> bool {
        match self {
            Ticket::Rank(t) => t.is_settled(),
            Ticket::TopK(t) => t.is_settled(),
        }
    }

    fn answer(self) -> Option<Answer> {
        match self {
            Ticket::Rank(t) => t.wait_result().ok().map(|r| Answer::Rank(r.to_bits())),
            Ticket::TopK(t) => t
                .wait_result()
                .ok()
                .map(|v| Answer::TopK(v.into_iter().map(|(e, s)| (e, s.to_bits())).collect())),
        }
    }
}

fn submit(engine: &KgEngine, req: Req) -> Option<Ticket> {
    match req {
        Req::RankTail(h, r, t) => engine.submit_rank_tail(h, r, t).ok().map(Ticket::Rank),
        Req::RankHead(h, r, t) => engine.submit_rank_head(h, r, t).ok().map(Ticket::Rank),
        Req::TopTails(h, r) => engine.submit_top_k_tails(h, r, TOP_K).ok().map(Ticket::TopK),
        Req::TopHeads(r, t) => engine.submit_top_k_heads(r, t, TOP_K).ok().map(Ticket::TopK),
    }
}

/// The answer computed per query from the model's own score row.
fn reference(model: &BlmModel, filter: &FilterIndex, req: Req) -> Answer {
    let mut row = vec![0.0f32; model.n_entities()];
    let rank = |row: &[f32], target: usize, known: &[EntityId]| {
        Answer::Rank(filtered_rank(row, target, known).to_bits())
    };
    let top = |row: &[f32]| {
        Answer::TopK(top_k(row, TOP_K).into_iter().map(|(e, s)| (e, s.to_bits())).collect())
    };
    let (e, r) = (|x: usize| EntityId(x as u32), |x: usize| RelationId(x as u32));
    match req {
        Req::RankTail(h, rel, t) => {
            model.score_tails(h, rel, &mut row);
            rank(&row, t, filter.tails(e(h), r(rel)))
        }
        Req::RankHead(h, rel, t) => {
            model.score_heads(rel, t, &mut row);
            rank(&row, h, filter.heads(r(rel), e(t)))
        }
        Req::TopTails(h, rel) => {
            model.score_tails(h, rel, &mut row);
            top(&row)
        }
        Req::TopHeads(rel, t) => {
            model.score_heads(rel, t, &mut row);
            top(&row)
        }
    }
}

/// The request mix: `n` requests over the graph's training triples.
fn requests(ds: &Dataset, n: usize, seed: u64) -> Vec<Req> {
    let mut rng = SeededRng::new(seed ^ 0x5E4E);
    (0..n)
        .map(|_| {
            let tr = ds.train[rng.below(ds.train.len())];
            let (h, r, t) = (tr.h.idx(), tr.r.idx(), tr.t.idx());
            match rng.below(4) {
                0 => Req::RankTail(h, r, t),
                1 => Req::RankHead(h, r, t),
                2 => Req::TopTails(h, r),
                _ => Req::TopHeads(r, t),
            }
        })
        .collect()
}

struct Setup {
    model: Arc<BlmModel>,
    filter: FilterIndex,
    engine: KgEngine,
    reqs: Vec<Req>,
}

fn setup(seed: u64, threads: usize, n_reqs: usize) -> (Setup, SetupTimes) {
    let t0 = Instant::now();
    let ds = crate::graph("serve-10k", ENTITIES, 8, 1_500, seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut rng = SeededRng::new(seed ^ 0x5E7E);
    let model = Arc::new(BlmModel::new(
        classics::complex(),
        Embeddings::init(ds.n_entities, ds.n_relations, DIM, &mut rng),
    ));
    let init_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let filter = FilterIndex::from_dataset(&ds);
    let filter_build_s = t2.elapsed().as_secs_f64();
    let t3 = Instant::now();
    let engine = KgEngine::with_filter(Arc::clone(&model), filter.clone())
        .threads(threads)
        .block(64)
        .build();
    let reqs = requests(&ds, n_reqs, seed);
    // Warm-up: a few blocks' worth, sent in bursts and waited for.
    for chunk in reqs[..512].chunks(64) {
        let tickets: Vec<Ticket> = chunk.iter().filter_map(|&q| submit(&engine, q)).collect();
        for t in tickets {
            let _ = t.answer();
        }
    }
    let build_s = t3.elapsed().as_secs_f64();
    (
        Setup { model, filter, engine, reqs },
        SetupTimes { generate_s, init_s, filter_build_s, build_s, ..Default::default() },
    )
}

/// What the closed loop observed.
#[derive(Default)]
struct Closed {
    attempted: u64,
    failed: u64,
    /// (seconds since the loop started, latency ms) of every settled request.
    done: Vec<(f64, f64)>,
    /// (request index, answer) of every `CHECK_EVERY`-th request.
    answers: Vec<(usize, Answer)>,
    wall_s: f64,
}

impl Closed {
    fn latency_ms(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.1).collect()
    }
}

/// When the closed loop stops sending.
#[derive(Clone, Copy)]
enum Limit {
    Seconds(f64),
    Requests(usize),
}

/// Keep `CALLERS` requests in flight until `limit`. One thread plays every
/// caller: it polls the tickets, yielding the CPU between sweeps, and sends
/// a new request for each one that settled. Polling instead of blocking
/// keeps its vCPU from halting; on a shared VM every halt and wake-up adds
/// the host's scheduling delay. With a tracer, each request gets a
/// `kg-serve.request` span (submitted → seen settled, with its request id)
/// under one `client.closed_loop` span.
fn closed_loop(engine: &KgEngine, reqs: &[Req], limit: Limit, tracer: Option<&Tracer>) -> Closed {
    let mut out = Closed::default();
    let mut inflight: Vec<(usize, Instant, Ticket)> = Vec::with_capacity(CALLERS);
    let parent = tracer.map(|t| t.id());
    let start = Instant::now();
    let more = |sent: usize| match limit {
        Limit::Seconds(s) => start.elapsed().as_secs_f64() < s,
        Limit::Requests(n) => sent < n,
    };
    let mut next = 0usize;
    loop {
        while inflight.len() < CALLERS && more(next) {
            out.attempted += 1;
            let sent = Instant::now();
            match submit(engine, reqs[next % reqs.len()]) {
                Some(ticket) => inflight.push((next, sent, ticket)),
                None => out.failed += 1,
            }
            next += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let mut any = false;
        let mut j = 0;
        while j < inflight.len() {
            if !inflight[j].2.is_settled() {
                j += 1;
                continue;
            }
            let (index, sent, ticket) = inflight.remove(j);
            let answer = ticket.answer();
            let now = Instant::now();
            out.done.push(((now - start).as_secs_f64(), (now - sent).as_secs_f64() * 1e3));
            if let Some(t) = tracer {
                t.record(t.id(), "kg-serve.request", parent, sent, now, Some(index as u64));
            }
            match answer {
                Some(a) if index % CHECK_EVERY == 0 => out.answers.push((index, a)),
                Some(_) => {}
                None => out.failed += 1,
            }
            any = true;
        }
        if !any {
            std::thread::yield_now();
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, parent) {
        t.record(id, "client.closed_loop", None, start, Instant::now(), None);
    }
    out
}

/// Split the run into windows of about `WINDOW_S` and return the medians,
/// over the windows, of completions per second and of each window's p50
/// and p90 latency. A burst of host vCPU steal shorter than half the run
/// then moves none of the three.
fn windowed(out: &Closed) -> (f64, f64, f64) {
    let (width, groups) = windows(&out.done, out.wall_s, WINDOW_S);
    let rate: Vec<f64> = groups.iter().map(|w| w.len() as f64 / width).collect();
    let served: Vec<&Vec<f64>> = groups.iter().filter(|w| !w.is_empty()).collect();
    let p50: Vec<f64> = served.iter().map(|w| median(w)).collect();
    let tail: Vec<f64> = served.iter().map(|w| p90(w)).collect();
    (median(&rate), median(&p50), median(&tail))
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (s, times) = setup_median(15, || setup(args.seed, args.threads, REQUESTS));
    rep.setup(args.trace, times);
    if args.trace {
        traced(args, &s, &mut rep);
        return rep;
    }
    let out = closed_loop(&s.engine, &s.reqs, Limit::Seconds(args.seconds), None);
    rep.attempted += out.attempted;
    rep.failed += out.failed;
    let (throughput, p50_ms, tail_ms) = windowed(&out);
    rep.metric("throughput", throughput);
    rep.metric("p50_ms", p50_ms);
    rep.metric("tail_ms", tail_ms);
    let latency_ms = out.latency_ms();
    rep.detail("p99_ms", crate::num(p99(&latency_ms)));
    rep.detail("requests", latency_ms.len());
    check_answers(&s, &out.answers, &mut rep);
    rep
}

fn check_answers(s: &Setup, answers: &[(usize, Answer)], rep: &mut Report) {
    for (i, answer) in answers {
        let req = s.reqs[i % s.reqs.len()];
        rep.check(*answer == reference(&s.model, &s.filter, req));
    }
}

fn delta(a: &EngineStats, b: &EngineStats, f: fn(&EngineStats) -> u64) -> f64 {
    (f(b) - f(a)) as f64
}

fn traced(args: &Args, s: &Setup, rep: &mut Report) {
    // The measured closed loop, cut to a fixed number of requests so that
    // the untraced and the traced pass send the same inputs.
    let before = s.engine.stats();
    let untraced = closed_loop(&s.engine, &s.reqs, Limit::Requests(TRACED_REQUESTS), None);
    let after = s.engine.stats();
    rep.attempted += untraced.attempted;
    rep.failed += untraced.failed;
    check_answers(s, &untraced.answers, rep);

    let tracer = Tracer::new();
    let from = Instant::now();
    let traced = closed_loop(&s.engine, &s.reqs, Limit::Requests(TRACED_REQUESTS), Some(&tracer));
    rep.account(&attribute(&tracer, from, Instant::now()), untraced.wall_s);
    rep.tracer = Some(tracer);
    rep.attempted += traced.attempted;
    rep.failed += traced.failed;
    check_answers(s, &traced.answers, rep);

    let blocks = delta(&before, &after, |x| x.blocks_cut);
    let rows = after.mean_block_fill * after.blocks_cut as f64
        - before.mean_block_fill * before.blocks_cut as f64;
    rep.metric("kg-serve.block_fill", if blocks > 0.0 { rows / blocks } else { 0.0 });
    rep.metric("kg-serve.blocks_cut", blocks);
    rep.metric("kg-serve.crew_idle", delta(&before, &after, |x| x.crew_idle));
    rep.metric("kg-serve.lead_idle", delta(&before, &after, |x| x.lead_idle));
    rep.metric("kg-serve.blocks_overlapped", delta(&before, &after, |x| x.blocks_overlapped));
    rep.metric("kg-serve.shed", delta(&before, &after, |x| x.queries_shed));
    rep.metric("kg-serve.expired", delta(&before, &after, |x| x.queries_expired));
    rep.metric("kg-serve.failed", delta(&before, &after, |x| x.queries_failed));
    // A closed loop has no send schedule to fall behind.
    rep.metric("kg-serve.generator_late_ms", 0.0);

    // Service time: the same requests one at a time on an idle engine.
    let service: Vec<f64> = s.reqs[..300]
        .iter()
        .filter_map(|&q| {
            let t = Instant::now();
            submit(&s.engine, q)?.answer()?;
            Some(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    rep.metric("kg-serve.queue_wait_ms", median(&untraced.latency_ms()) - median(&service));

    // Kernel probes on this table: one worker's shard, single thread.
    let width = ENTITIES / args.threads;
    let queries: Vec<(usize, usize)> = (0..64).map(|i| (i * 37 % ENTITIES, i % 8)).collect();
    let mut out = vec![0.0f32; 64 * width];
    let mut scratch = BatchScratch::new();
    let score =
        median_of(21, || s.model.score_tails_shard(&queries, 0..width, &mut out, &mut scratch));
    rep.metric("kg-models.score_shard_ms", 1e3 * score);
    let (nt, _) = crate::train::gemm_probes(&s.model, 64, args.seed);
    rep.metric("kg-linalg.gemm_nt_rows_gflops", (2 * 64 * DIM * ENTITIES) as f64 / nt / 1e9);
}
