//! The benchmark of record for the AutoSF reproduction workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search-wn18rr|rank-1m|train-10k|serve-10k> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload's inputs from `--seed`, sets up several
//! times (the median is `setup_s`), measures for `--seconds`, checks the
//! answers outside the timed region, and prints one JSON object as the last
//! line of standard output. With `--trace 0` it carries the end-to-end
//! metrics; with `--trace 1` the run re-drives the same inputs through each
//! layer's public entry points inside spans and carries the per-layer
//! metrics instead. `perfbench/README.md` maps every per-layer metric to
//! the end-to-end metric it should move.

mod rank;
mod search;
mod serve;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`:
/// (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("throughput", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics every workload reports with `--trace 1`: (name,
/// unit). A layer a workload never enters reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("autosf.enumerate_b4_s", "s"),
    ("autosf.filter_s", "s"),
    ("autosf.predictor_s", "s"),
    ("autosf.models_trained", "count"),
    ("kg-train.candidate_train_s", "s"),
    ("kg-train.fanout_idle_frac", "frac"),
    ("kg-train.epoch_s", "s"),
    ("kg-train.multiclass_block_ms", "ms"),
    ("kg-train.crew_residual_frac", "frac"),
    ("kg-eval.candidate_eval_s", "s"),
    ("kg-eval.call_overhead_us", "us"),
    ("kg-eval.block_ms", "ms"),
    ("kg-eval.crew_residual_frac", "frac"),
    ("kg-models.score_shard_ms", "ms"),
    ("kg-linalg.gemm_nt_rows_gbps", "GB/s"),
    ("kg-linalg.count_cmp_gbps", "GB/s"),
    ("kg-linalg.gemm_nt_rows_gflops", "GFLOP/s"),
    ("kg-linalg.gemm_acc_t_rows_gflops", "GFLOP/s"),
    ("kg-serve.queue_wait_ms", "ms"),
    ("kg-serve.block_fill", "count"),
    ("kg-serve.blocks_cut", "count"),
    ("kg-serve.crew_idle", "count"),
    ("kg-serve.lead_idle", "count"),
    ("kg-serve.blocks_overlapped", "count"),
    ("kg-serve.shed", "count"),
    ("kg-serve.expired", "count"),
    ("kg-serve.failed", "count"),
    ("kg-serve.generator_late_ms", "ms"),
    ("kg-datagen.generate_s", "s"),
    ("kg-models.init_s", "s"),
    ("kg-core.filter_build_s", "s"),
    ("kg-serve.build_s", "s"),
    ("autosf.self_s", "s"),
    ("kg-train.self_s", "s"),
    ("kg-eval.self_s", "s"),
    ("kg-models.self_s", "s"),
    ("kg-linalg.self_s", "s"),
    ("kg-serve.self_s", "s"),
    ("client.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Crew size for every layer: the host's logical cores.
    pub threads: usize,
}

/// What a workload hands back to the driver of this binary.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (failed, shed, expired or
    /// mismatched), correctness checks included.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end (`--trace 0`) or per-layer (`--trace 1`) values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific details for the result file: name → JSON value.
    pub details: BTreeMap<&'static str, String>,
    /// The traced run's spans, written out at exit.
    pub tracer: Option<trace::Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.details.insert(name, value.to_string());
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Report the set-up: `setup_s` untraced, its parts traced.
    pub fn setup(&mut self, trace: bool, s: SetupTimes) {
        if trace {
            self.metric("kg-datagen.generate_s", s.generate_s);
            self.metric("kg-models.init_s", s.init_s);
            self.metric("kg-core.filter_build_s", s.filter_build_s);
            self.metric("kg-serve.build_s", s.build_s);
        } else {
            self.metric("setup_s", s.total_s);
        }
    }

    /// Per-layer self times, residual and overhead from a traced window.
    pub fn account(&mut self, a: &trace::Attribution, untraced_wall_s: f64) {
        for (layer, s) in &a.self_s {
            if let Some(name) =
                PER_LAYER.iter().map(|(n, _)| *n).find(|n| n.strip_suffix(".self_s") == Some(layer))
            {
                self.metric(name, *s);
            }
        }
        self.metric("trace.wall_s", a.wall_s);
        self.metric("trace.untraced_wall_s", untraced_wall_s);
        self.metric("trace.residual_s", a.residual_s);
        self.metric("trace.overhead_s", a.wall_s - untraced_wall_s);
        let table: Vec<String> =
            a.self_s.iter().map(|(l, s)| format!("\"{l}\":{}", num(*s))).collect();
        self.detail("self_s", format!("{{{}}}", table.join(",")));
    }
}

/// A generated graph: `n_relations` general relations of about
/// `per_relation` triples each over `n_entities` entities, split 90/5/5.
pub fn graph(
    name: &str,
    n_entities: usize,
    n_relations: usize,
    per_relation: usize,
    seed: u64,
) -> kg_core::Dataset {
    let mut b = kg_datagen::KgBuilder::new(n_entities, 8, 16, seed);
    for _ in 0..n_relations {
        b.add_general(per_relation);
    }
    b.build(name, kg_core::split::SplitSpec { valid_fraction: 0.05, test_fraction: 0.05 })
}

/// Times of one set-up's parts, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub init_s: f64,
    pub filter_build_s: f64,
    pub build_s: f64,
    pub total_s: f64,
}

/// Set up `n` times, keeping only the last product alive (each earlier one
/// is dropped before the next set-up starts). Returns the product, the
/// median total and the median of each part.
pub fn setup_median<T>(n: usize, mut f: impl FnMut() -> (T, SetupTimes)) -> (T, SetupTimes) {
    let mut kept: Option<T> = None;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let (value, mut parts) = f();
        parts.total_s = t0.elapsed().as_secs_f64();
        kept = Some(value);
        times.push(parts);
    }
    let pick = |g: fn(&SetupTimes) -> f64| median(&times.iter().map(g).collect::<Vec<_>>());
    let med = SetupTimes {
        generate_s: pick(|t| t.generate_s),
        init_s: pick(|t| t.init_s),
        filter_build_s: pick(|t| t.filter_build_s),
        build_s: pick(|t| t.build_s),
        total_s: pick(|t| t.total_s),
    };
    (kept.expect("at least one set-up"), med)
}

/// Median (mean of the middle two for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The 90th percentile, linearly interpolated. It is the tail every
/// workload reports: a handful of samples still gives a value above the
/// median, and on a shared host it moves far less with vCPU steal than p99.
pub fn p90(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = 0.9 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + pos.fract() * (v[hi] - v[lo])
}

/// Split `[0, wall_s)` into windows of about `window_s` seconds and
/// group the values of `(at_s, value)` samples by the window `at_s` falls
/// in. Returns the window width and the groups.
pub fn windows(samples: &[(f64, f64)], wall_s: f64, window_s: f64) -> (f64, Vec<Vec<f64>>) {
    let n = ((wall_s / window_s).floor() as usize).max(1);
    let width = wall_s / n as f64;
    let mut groups = vec![Vec::new(); n];
    for &(at, v) in samples {
        groups[((at / width) as usize).min(n - 1)].push(v);
    }
    (width, groups)
}

/// Window length of rank's and train's `tail_ms`, seconds: long enough for
/// about five samples, so a window's p90 is near its slowest sample.
pub const TAIL_WINDOW_S: f64 = 3.0;

/// The tail reported by rank and train: the median, over windows of about
/// `window_s` seconds, of each window's p90. A burst of host vCPU steal
/// that covers fewer than half of the windows does not move it.
pub fn windowed_p90(samples: &[(f64, f64)], wall_s: f64, window_s: f64) -> f64 {
    let (_, groups) = windows(samples, wall_s, window_s);
    median(&groups.iter().filter(|g| !g.is_empty()).map(|g| p90(g)).collect::<Vec<_>>())
}

/// p99 by nearest rank (reported as a detail where samples allow).
pub fn p99(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((0.99 * v.len() as f64).ceil() as usize).max(1) - 1]
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number: finite values as Rust prints them (shortest round-trip
/// form, all digits), anything else as 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and build provenance: CPU model and flags, cores, caches, the
/// resolved kernel policy, the commit (when the checkout has `.git`) and
/// the run's own arguments.
fn provenance(args: &Args) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let wanted = ["avx2", "fma", "avx512f", "avx512bw", "avx512vl", "avx512_vnni", "avx_vnni"];
    let flag_json: Vec<String> = wanted.iter().map(|f| format!("\"{f}\":{}", has(f))).collect();
    let mut cores = std::collections::BTreeSet::new();
    let mut phys = String::new();
    for line in cpuinfo.lines() {
        if let Some((k, v)) = line.split_once(':') {
            match k.trim() {
                "physical id" => phys = v.trim().to_string(),
                "core id" => {
                    cores.insert((phys.clone(), v.trim().to_string()));
                }
                _ => {}
            }
        }
    }
    let logical = std::thread::available_parallelism().map_or(1, |n| n.get());
    let physical = if cores.is_empty() { logical } else { cores.len() };
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        if let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type")) {
            if kind.trim() != "Instruction" {
                caches.push(format!("\"L{}\":{}", level.trim(), json_str(size.trim())));
            }
        }
    }
    let policy = kg_linalg::KernelPolicy::default_from_env();
    format!(
        "{{\"cpu_model\":{},\"flags\":{{{}}},\"logical_cores\":{},\"physical_cores\":{},\
         \"caches\":{{{}}},\"kernel_policy\":{},\"kernel_resolved\":{},\"commit\":{},\
         \"workload\":{},\"seed\":{},\"seconds\":{},\"threads\":{}}}",
        json_str(&field("model name")),
        flag_json.join(","),
        logical,
        physical,
        caches.join(","),
        json_str(policy.name()),
        json_str(policy.resolve().name()),
        json_str(&commit()),
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        args.threads
    )
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
                    .ok_or(std::io::Error::other("ref not found"))
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "search-wn18rr" => search::run(&args),
        "rank-1m" => rank::run(&args),
        "train-10k" => train::run(&args),
        "serve-10k" => serve::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} \
                 (search-wn18rr, rank-1m, train-10k, serve-10k)"
            );
            std::process::exit(2);
        }
    };

    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        report.metric("peak_rss_mb", peak_rss_mb());
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.metric("ok_frac", ok);
    }
    for name in report.metrics.keys() {
        assert!(listed.iter().any(|(n, _)| n == name), "unlisted metric {name}");
    }
    let all_finite = report.metrics.values().all(|v| v.is_finite());

    if args.trace {
        eprintln!("per-layer self time (wall-attributed), workload {}:", args.workload);
        for (key, _) in
            PER_LAYER.iter().filter(|(k, _)| k.ends_with(".self_s") || k.starts_with("trace."))
        {
            let v = report.metrics.get(key).copied().unwrap_or(0.0);
            eprintln!("  {key:<22} {v:>10.4} s");
        }
    }

    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(name), num(v), json_str(unit))
        })
        .collect();
    let details: Vec<String> =
        report.details.iter().map(|(k, v)| format!("{}:{}", json_str(k), v)).collect();
    let correct = report.failed == 0 && report.attempted > 0 && all_finite;
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    let full = format!(
        "{{\"provenance\":{},\"details\":{{{}}},\"result\":{}}}",
        provenance(&args),
        details.join(","),
        result
    );
    let stem =
        format!("perfbench/out/{}-seed{}-trace{}", args.workload, args.seed, args.trace as u8);
    if let Some(tracer) = &report.tracer {
        if let Err(e) = tracer.write_jsonl(std::path::Path::new(&format!("{stem}.spans.jsonl"))) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }
    if let Err(e) = std::fs::create_dir_all("perfbench/out")
        .and_then(|_| std::fs::write(format!("{stem}.json"), format!("{full}\n")))
    {
        eprintln!("perfbench: could not write the result file: {e}");
    }
    println!("{full}");
    println!("{result}");
}
