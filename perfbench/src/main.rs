//! Wall-clock benchmark of the vPHI stack.
//!
//! ```text
//! bash perfbench/run.sh --workload <pingpong|rma-bulk> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run drives both gated workloads and the `paper-figures` passes —
//! the named workload with most of the time budget, the others with a
//! fixed slice — so every metric is reported on every workload.
//! `--trace 0` prints the end-to-end metrics (host wall-clock time unless
//! prefixed `virt.`).  `--trace 1`
//! runs the isolated layer probes and a traced pass of every workload plus
//! the open-loop `serve-open` workload, and prints the per-layer metrics.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.  See README.md in this directory for
//! the workload table and metric definitions.

mod audit;
mod figures;
mod pingpong;
mod probes;
mod rma;
mod serve;
mod servers;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vphi_trace::{Stage, TraceSummary};

use crate::audit::Snapshot;
use crate::spans::Recorder;
use crate::stats::{median, Metrics};

/// The workloads `--workload` accepts.  Every run drives both and the
/// figure passes of `paper-figures`; the named workload gets the most
/// time.  `paper-figures` is not a workload of its own: every run already
/// times its figures, so a row of its own would add only runs.  `serve-open`
/// runs in traced runs only: its open-loop latencies on a 2-core host
/// spread too widely between runs to gate on (see README.md), so they are
/// reported as per-layer metrics.
const WORKLOADS: [&str; 2] = ["pingpong", "rma-bulk"];

/// Budget slice of each workload when it is not the named one; the named
/// workload gets the rest of `--seconds`.  The figures always get their
/// slice, four or five passes.
const SLICES: [(&str, f64); 3] = [("pingpong", 12.0), ("rma-bulk", 10.0), ("paper-figures", 25.0)];

/// Slice length of the pingpong and rma-bulk budgets in an end-to-end
/// run (see [`run_e2e`]).
const SLICE: Duration = Duration::from_secs(1);

/// Wall time of the traced serve-open run.
const SERVE_TRACED: Duration = Duration::from_secs(4);

/// Everything a run accumulates: op counts, failures, set-up times and
/// both metric sets.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    /// Wall time of every timed set-up, per workload.
    setup_s: BTreeMap<&'static str, Vec<f64>>,
    retries: (u64, u64),
    /// Digested figures whose output first differed from the golden
    /// digest (each one either matched on a rerun or failed the run).
    digest_mismatches: u64,
    pub e2e: Metrics,
    pub layer: Metrics,
}

impl Outcome {
    /// A failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.error(msg);
    }

    /// A failed check that is not an operation (audit, server totals).
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 32 {
            self.errors.push(msg);
        }
    }

    /// Set a workload's stack up, recording the wall time it took.
    pub fn timed_setup<S>(&mut self, workload: &'static str, setup: impl FnOnce() -> S) -> S {
        let t0 = Instant::now();
        let stack = setup();
        self.setup_s.entry(workload).or_default().push(t0.elapsed().as_secs_f64());
        stack
    }

    /// Accumulate the retry counters, which should stay 0 everywhere.
    pub fn retries(&mut self, snap: &Snapshot) {
        self.retries.0 += snap.report.deadline_retries;
        self.retries.1 += snap.report.spurious_wakeups;
    }

    /// Mean virtual time per traced request in each of the 7 stages.
    pub fn virt_stages(&mut self, workload: &str, summaries: &[TraceSummary]) {
        let n = summaries.len().max(1) as f64;
        for stage in Stage::ALL {
            let ns: u64 = summaries.iter().map(|s| s.stages[stage.index()].as_nanos()).sum();
            let value = if summaries.is_empty() { f64::NAN } else { ns as f64 / n / 1e3 };
            self.layer.set(format!("virt.{}_us_per_op.{workload}", stage.name()), value, "us");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}': use {}", WORKLOADS.join("|")));
    }
    let num =
        |flag: &str, v: String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Time budget per workload: its slice, or for the named workload the
/// rest of `--seconds` (never less than its slice).
fn budgets(main: &str, seconds: u64) -> BTreeMap<&'static str, Duration> {
    let others: f64 = SLICES.iter().filter(|(w, _)| *w != main).map(|(_, s)| s).sum();
    SLICES
        .iter()
        .map(|&(w, slice)| {
            let s = if w == main { (seconds as f64 - others).max(slice) } else { slice };
            (w, Duration::from_secs_f64(s))
        })
        .collect()
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run a pass's next figure.  A digested figure whose output differs
/// from the golden digest is rerun alone (see [`figures::RERUNS`]): the
/// mismatch is counted if a rerun matches and fails the run if none does.
fn next_figure(pass: &mut figures::Pass, n: usize, rec: &mut Recorder, out: &mut Outcome) {
    out.attempted += 1;
    let Some((name, digest, resolved)) = pass.run_next(rec, n as u64) else { return };
    out.digest_mismatches += 1;
    if resolved {
        eprintln!("paper-figures: {name} digest {digest:#018x} differed once; a rerun matched");
    } else {
        out.fail(format!(
            "paper-figures: {name} virtual-time digest {digest:#018x} differs from golden in {} \
             reruns",
            figures::RERUNS
        ));
    }
}

/// Whether another figure pass fits: always the first, then only if a
/// pass of the mean length so far ends within the budget.
fn figure_pass_fits(spent: Duration, passes: usize, budget: Duration) -> bool {
    passes == 0 || spent + spent / passes as u32 <= budget
}

/// The paper anchors, checked once per run.
fn check_anchors(out: &mut Outcome) {
    out.attempted += 1;
    for v in figures::anchor_violations() {
        out.fail(format!("paper-figures anchor: {v}"));
    }
}

/// Figure passes until the budget is spent (at least one).
fn figure_passes(budget: Duration, rec: &mut Recorder, out: &mut Outcome) -> Vec<figures::Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while figure_pass_fits(start.elapsed(), passes.len(), budget) {
        let mut pass = figures::Pass::default();
        while !pass.done() {
            next_figure(&mut pass, passes.len(), rec, out);
        }
        passes.push(pass);
    }
    passes
}

/// Fastest wall time of each figure over the passes (at most a few), in
/// [`figures::FIGURES`] order: host noise only adds time, so with four or
/// five samples the fastest tracks the figure's cost, while their median
/// moves with whichever host regime a slow pass fell into.
fn figure_fastest_ms(passes: &[figures::Pass]) -> Vec<f64> {
    (0..figures::FIGURES.len())
        .map(|i| passes.iter().map(|p| p.ms[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The end-to-end run.  The pingpong and rma-bulk budgets are spent in
/// [`SLICE`]-long slices interleaved with the figures, one figure at a
/// time — each unit of work goes to the workload furthest behind its
/// budget — so every workload's samples spread over the whole run: the
/// host's speed drifts on a scale of seconds (the 1-byte echo rate of one
/// process ranged 27 k–52 k round trips/s between 2 s windows).  A figure
/// pass is started only if one of the mean length so far fits, and a
/// started pass is finished.
fn run_e2e(args: &Args, out: &mut Outcome) {
    let b = budgets(&args.workload, args.seconds);
    let budget = [b["pingpong"], b["rma-bulk"], b["paper-figures"]];
    let mut pingpong = pingpong::Bench::start(args.seed, false, out);
    let mut rma = rma::Bench::start(args.seed, false, out);
    let mut passes = Vec::new();
    let mut current: Option<figures::Pass> = None;
    let mut off = Recorder::new(false);
    let mut spent = [Duration::ZERO; 3];
    loop {
        let due = |w: usize| match w {
            2 => current.is_some() || figure_pass_fits(spent[2], passes.len(), budget[2]),
            _ => spent[w] < budget[w],
        };
        let behind = |w: usize| spent[w].as_secs_f64() / budget[w].as_secs_f64();
        let Some(w) = (0..3).filter(|&w| due(w)).min_by(|&x, &y| behind(x).total_cmp(&behind(y)))
        else {
            break;
        };
        // One more set-up of the workload's stack, torn down at once, before
        // each of its slices: the set-up times spread over the whole run.
        match w {
            0 => pingpong::setup_trial(out),
            1 => rma::setup_trial(out),
            _ => {}
        }
        let t0 = Instant::now();
        match w {
            0 => pingpong.measure(SLICE.min(budget[0] - spent[0]), &mut off, out),
            1 => rma.measure(SLICE.min(budget[1] - spent[1]), &mut off, out),
            _ => {
                let pass = current.get_or_insert_with(figures::Pass::default);
                next_figure(pass, passes.len(), &mut off, out);
                if pass.done() {
                    passes.extend(current.take());
                }
            }
        }
        spent[w] += t0.elapsed();
    }
    pingpong.finish_e2e(out);
    rma.finish_e2e(out);
    check_anchors(out);
    let per_figure = figure_fastest_ms(&passes);
    out.e2e.set("figures_s", per_figure.iter().sum::<f64>() / 1e3, "s");
    let setup_s = out.setup_s.values().map(|t| median(t).expect("one set-up")).sum::<f64>();
    out.e2e.set("setup_s", setup_s, "s");
    out.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

fn run_traced(args: &Args, out: &mut Outcome) {
    let mut rec = Recorder::new(true);
    probes::run(args.seed, &mut rec, out);
    let b = budgets(&args.workload, args.seconds);
    let rtt_p50 = pingpong::run_traced(args.seed, b["pingpong"], &mut rec, out);
    rma::run_traced(args.seed, b["rma-bulk"], &mut rec, out);
    serve::run_traced(args.seed, SERVE_TRACED, &mut rec, out);
    let passes = figure_passes(b["paper-figures"], &mut rec, out);
    check_anchors(out);
    for (f, ms) in figures::FIGURES.iter().zip(figure_fastest_ms(&passes)) {
        out.layer.set(format!("figures.{}_ms", f.name), ms, "ms");
    }
    out.layer.set("figures.digest_mismatches", out.digest_mismatches as f64, "count");
    out.layer.set("frontend.deadline_retries", out.retries.0 as f64, "count");
    out.layer.set("frontend.spurious_wakeups", out.retries.1 as f64, "count");

    // The named remainder: the guest RTT minus the native RTT and the
    // probe costs of the layers on the blocking path (per round trip:
    // two ring round trips, two wait-queue hand-offs, two kmallocs).
    let l = |name: &str| out.layer.get(name).unwrap_or(f64::NAN);
    let blocking_us = 2.0
        * (l("virtio.chain_roundtrip_ns") / 1e3
            + l("vmm.wake_handoff_us")
            + l("vmm.kmalloc_ns") / 1e3);
    let residual = rtt_p50 - (l("scif.native_rtt_p50_us") + blocking_us);
    out.layer.set("harness.residual_us", residual, "us");

    for (layer, ns) in spans::self_time_by_layer(rec.spans()) {
        out.layer.set(format!("self.{layer}_ms"), ns as f64 / 1e6, "ms");
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.render())) {
        Ok(()) => eprintln!("wrote {} spans to {}", rec.spans().len(), path.display()),
        Err(e) => out.error(format!("could not write {}: {e}", path.display())),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    if args.trace {
        run_traced(&args, &mut out);
    } else {
        run_e2e(&args, &mut out);
    }
    let metrics = if args.trace { &out.layer } else { &out.e2e };
    eprint!("{}", metrics.render_table());
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    println!("{}", metrics.result_json(correct, out.attempted, out.failed));
}
