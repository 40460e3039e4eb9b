//! `serve-open`: open loop, two VMs sharing one card, one endpoint each,
//! one generator thread.  Seeded Poisson arrivals carry an inference
//! serving mix — prefill (64 KiB send, 10%), decode (1 KiB send, 60%) and
//! kv-fetch (4 KiB `vreadfrom` from a byte-backed window, 30%).  Every
//! request due at a given moment is pushed through `submit`; completions
//! are taken with non-blocking `reap`.  Latency runs from the request's
//! *due* time, so a stalled generator or a stalled stack both show.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use vphi::guest::GuestBuf;
use vphi::{Cq, GuestScif, Sq, SqEntry, VmConfig, VphiHost, VphiVm};
use vphi_scif::{Port, RmaFlags, ScifAddr};
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::{SplitMix64, Timeline};
use vphi_trace::TraceConfig;

use crate::audit::{self, Snapshot};
use crate::servers::{fill_region, pattern_bytes, WindowServer};
use crate::spans::Recorder;
use crate::stats::{block_values, median, percentile};
use crate::Outcome;

const VMS: usize = 2;
const BASE_PORT: u16 = 920;
/// Device window each VM fetches kv blocks from.
const KV_WINDOW: u64 = MIB;
const KV_BLOCK: u64 = 4 * KIB;
/// Guest buffers per VM for in-flight kv fetches.
const KV_POOL: usize = 512;

/// The request mix: (class, payload bytes, share).
const MIX: [(Class, u64, f64); 3] = [
    (Class::Prefill, 64 * KIB, 0.10),
    (Class::Decode, KIB, 0.60),
    (Class::KvFetch, KV_BLOCK, 0.30),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Prefill,
    Decode,
    KvFetch,
}

/// Offered-rate ladder for goodput (requests per second, both VMs
/// together), spanning the knee of about 25k rps that a traced run pinned
/// to one CPU showed when the benchmark was written.  Unpinned on the
/// 2-core reference host the knee follows the host's load: in six traced
/// runs goodput ranged from below the ladder (extrapolated, 180 rps) to
/// its top (40k rps), with `gen.late_p99_us` from 0.4 to 11 ms.
const LADDER: [f64; 7] = [10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0, 35_000.0, 40_000.0];
/// Ladder sweeps per run; goodput is their median.
const SWEEPS: usize = 3;
/// The two fixed rungs reported on their own: about 25% and 65% of that
/// knee.  Each is run [`REPEATS`] times, interleaved, and the median
/// repeat reported, so a burst of host noise moves one repeat only.
const LIGHT_RPS: f64 = 6_000.0;
const BUSY_RPS: f64 = 16_000.0;
const REPEATS: usize = 5;
/// Completions per rung needed for a p99 with ten samples beyond it in
/// each of two blocks.
const MIN_REQUESTS: f64 = 2.0 * BLOCK as f64;
/// The p99 latency limit a rung must meet to count toward goodput.
const P99_LIMIT_US: f64 = 2_000.0;
/// A rung keeps up if at most this share of its requests is still
/// unfinished when its horizon passes.
const MAX_BACKLOG_SHARE: f64 = 0.02;
/// Latency percentiles are taken per block of this many completions and
/// the median block reported.
const BLOCK: usize = 1000;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    pub due_ns: u64,
    pub vm: usize,
    pub class: Class,
    /// Window offset of a kv-fetch (block-aligned); 0 for sends.
    pub kv_offset: u64,
}

/// Seeded Poisson arrivals at `rate_rps` over `horizon`: exponential
/// gaps, class by mix share, VM uniform.  A pure function of its inputs.
fn schedule(seed: u64, rate_rps: f64, horizon: Duration) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let horizon_ns = horizon.as_nanos() as u64;
    let mut t_ns = 0u64;
    let mut out = Vec::with_capacity((rate_rps * horizon.as_secs_f64() * 1.1) as usize + 16);
    loop {
        let u = rng.next_f64().max(1e-12);
        t_ns += ((-u.ln() / rate_rps * 1e9) as u64).max(1);
        if t_ns >= horizon_ns {
            return out;
        }
        let pick = rng.next_f64();
        let mut acc = 0.0;
        let mut class = MIX[MIX.len() - 1].0;
        for &(c, _, share) in &MIX {
            acc += share;
            if pick < acc {
                class = c;
                break;
            }
        }
        let vm = rng.next_below(VMS as u64) as usize;
        let kv_offset = if class == Class::KvFetch {
            rng.next_below(KV_WINDOW / KV_BLOCK) * KV_BLOCK
        } else {
            0
        };
        out.push(Arrival { due_ns: t_ns, vm, class, kv_offset });
    }
}

/// A submitted request's arrival and, for a kv-fetch, its buffer.
type Pending = (Arrival, Option<GuestBuf>);

struct Guest {
    vm: VphiVm,
    guest: GuestScif,
    server: WindowServer,
    kv_seed: u64,
    pool: Vec<GuestBuf>,
    cq: Cq,
    /// token → (arrival, kv buffer) for everything submitted, not reaped.
    inflight: HashMap<u64, Pending>,
    /// Bytes the completed sends reported as sent.
    sent_bytes: u64,
}

struct Stack {
    host: VphiHost,
    guests: Vec<Guest>,
    payload: Vec<u8>,
}

fn setup(seed: u64, traced: bool) -> Stack {
    let host = VphiHost::new(1);
    if traced {
        host.arm_tracing(TraceConfig::default());
    }
    let guests = (0..VMS)
        .map(|i| {
            let port = Port(BASE_PORT + i as u16);
            let kv_seed = seed ^ (0x6b76 + i as u64);
            let server = WindowServer::spawn(&host, port, KV_WINDOW);
            let vm = host.spawn_vm(VmConfig::default());
            let mut tl = Timeline::new();
            let guest = vm.open_scif(&mut tl).expect("guest open");
            guest.connect(ScifAddr::new(host.device_node(0), port), &mut tl).expect("connect");
            fill_region(&server.wait_registered(), kv_seed);
            let pool = (0..KV_POOL).map(|_| vm.alloc_buf(KV_BLOCK).expect("kv buffer")).collect();
            Guest {
                vm,
                guest,
                server,
                kv_seed,
                pool,
                cq: Cq::new(),
                inflight: HashMap::new(),
                sent_bytes: 0,
            }
        })
        .collect();
    Stack { host, guests, payload: vec![0x5A; 64 * KIB as usize] }
}

fn teardown(stack: Stack, out: &mut Outcome) -> Vec<Snapshot> {
    let mut snaps = Vec::new();
    for mut g in stack.guests {
        if !g.inflight.is_empty() {
            out.error(format!("serve-open: {} tokens never reaped", g.inflight.len()));
        }
        let drained = g.server.wait_drained(g.sent_bytes, Duration::from_secs(10));
        if drained != g.sent_bytes {
            out.error(format!(
                "serve-open: server drained {drained} bytes, guest sent {}",
                g.sent_bytes
            ));
        }
        g.server.server.stop();
        let snap = audit::close_and_audit("serve-open", &g.guest, &g.vm, out);
        drop(g.pool);
        g.vm.shutdown();
        g.server.server.join();
        snaps.push(snap);
    }
    drop(stack.host);
    snaps
}

/// What one rung measured (microseconds).
#[derive(Debug, Default)]
struct Rung {
    pub offered_rps: f64,
    pub latency_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub reap_us: Vec<f64>,
    /// Requests due by the end of the rung's horizon but not yet
    /// completed when the horizon passed (`None` until then).
    pub backlog: Option<usize>,
    pub requests: usize,
}

impl Rung {
    fn p50_us(&self) -> f64 {
        median(&block_values(&self.latency_us, 0.5, BLOCK)).unwrap_or(f64::NAN)
    }

    fn p99_us(&self) -> f64 {
        median(&block_values(&self.latency_us, 0.99, BLOCK)).unwrap_or(f64::INFINITY)
    }

    fn keeps_up(&self) -> bool {
        self.backlog.is_some_and(|b| b as f64 <= MAX_BACKLOG_SHARE * self.requests as f64)
    }

    fn meets_limit(&self) -> bool {
        self.keeps_up() && self.p99_us() <= P99_LIMIT_US
    }
}

fn reap(
    g: &mut Guest,
    vm: usize,
    start: Instant,
    rung: &mut Rung,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> usize {
    if g.cq.outstanding().is_empty() {
        return 0;
    }
    let t0 = Instant::now();
    let reaped = rec.span("core.guest", "reap", vm as u64, || {
        g.guest.reap(&mut g.cq, 0, usize::MAX, &mut Timeline::new())
    });
    let now = start.elapsed().as_nanos() as u64;
    let n = match reaped {
        Ok(n) => n,
        Err(e) => {
            out.error(format!("serve-open: reap failed: {e:?}"));
            return 0;
        }
    };
    if n == 0 {
        return 0;
    }
    rung.reap_us.push(t0.elapsed().as_secs_f64() * 1e6);
    for entry in g.cq.drain() {
        let Some((arrival, buf)) = g.inflight.remove(&entry.token.raw()) else {
            out.fail(format!(
                "serve-open: token {} reaped twice or never submitted",
                entry.token.raw()
            ));
            continue;
        };
        rung.latency_us.push(now.saturating_sub(arrival.due_ns) as f64 / 1e3);
        let len = MIX.iter().find(|m| m.0 == arrival.class).map_or(0, |m| m.1);
        match entry.result {
            Err(e) => out.fail(format!("serve-open: {:?} failed: {e:?}", arrival.class)),
            Ok((n, _)) if arrival.class != Class::KvFetch => {
                g.sent_bytes += n;
                if n != len {
                    out.fail(format!("serve-open: {:?} sent {n} of {len} bytes", arrival.class));
                }
            }
            Ok(_) => {}
        }
        if let (Ok(_), Some(buf)) = (&entry.result, &buf) {
            let mut got = [0u8; KV_BLOCK as usize];
            let mut want = [0u8; KV_BLOCK as usize];
            pattern_bytes(g.kv_seed, arrival.kv_offset, &mut want);
            if buf.peek(0, &mut got).is_err() || got != want {
                out.fail(format!(
                    "serve-open: kv-fetch at {:#x} returned wrong bytes",
                    arrival.kv_offset
                ));
            }
        }
        if let Some(buf) = buf {
            g.pool.push(buf);
        }
    }
    n
}

/// Drive one rung: push every due request through `submit`, reap
/// without blocking, until every arrival is submitted and reaped.
fn run_rung(
    stack: &mut Stack,
    seed: u64,
    rate_rps: f64,
    horizon: Duration,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Rung {
    let arrivals = schedule(seed, rate_rps, horizon);
    let mut rung = Rung { offered_rps: rate_rps, requests: arrivals.len(), ..Rung::default() };
    let start = Instant::now();
    let mut next = 0;
    // Per VM: the entries due now and what each one is waiting for.
    let mut sqs: Vec<(Sq, Vec<Pending>)> = (0..VMS).map(|_| (Sq::new(), Vec::new())).collect();
    loop {
        let now = start.elapsed().as_nanos() as u64;
        while next < arrivals.len() && arrivals[next].due_ns <= now {
            let a = arrivals[next];
            let g = &mut stack.guests[a.vm];
            let (sq, meta) = &mut sqs[a.vm];
            match a.class {
                Class::Prefill | Class::Decode => {
                    let len = if a.class == Class::Prefill { MIX[0].1 } else { MIX[1].1 };
                    sq.push(SqEntry::send(&stack.payload[..len as usize]));
                    meta.push((a, None));
                }
                Class::KvFetch => {
                    // An empty pool is backlog: the request waits (late).
                    let Some(buf) = g.pool.pop() else { break };
                    sq.push(SqEntry::vreadfrom(&buf, a.kv_offset, RmaFlags::SYNC));
                    meta.push((a, Some(buf)));
                }
            }
            next += 1;
        }
        let mut busy = false;
        for (vm, (sq, meta)) in sqs.iter_mut().enumerate() {
            if sq.is_empty() {
                continue;
            }
            busy = true;
            let g = &mut stack.guests[vm];
            let t0 = Instant::now();
            let tokens = rec.span("core.guest", "submit", vm as u64, || {
                g.guest.submit(sq, &mut Timeline::new())
            });
            let submitted_ns = start.elapsed().as_nanos() as u64;
            rung.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let tokens = match tokens {
                Ok(t) => t,
                Err(e) => {
                    out.attempted += meta.len() as u64;
                    out.failed += meta.len() as u64;
                    out.error(format!(
                        "serve-open: submit of {} entries failed: {e:?}",
                        meta.len()
                    ));
                    meta.clear();
                    continue;
                }
            };
            g.cq.watch(&tokens);
            for (token, (a, buf)) in tokens.iter().zip(meta.drain(..)) {
                out.attempted += 1;
                rung.late_us.push(submitted_ns.saturating_sub(a.due_ns) as f64 / 1e3);
                g.inflight.insert(token.raw(), (a, buf));
            }
        }
        if rung.backlog.is_none() && start.elapsed() >= horizon {
            rung.backlog = Some(arrivals.len() - rung.latency_us.len());
        }
        for (vm, g) in stack.guests.iter_mut().enumerate() {
            busy |= reap(g, vm, start, &mut rung, rec, out) > 0;
        }
        let outstanding: usize = stack.guests.iter().map(|g| g.inflight.len()).sum();
        if next == arrivals.len() && outstanding == 0 {
            rung.backlog.get_or_insert(0);
            break;
        }
        if !busy {
            // Sleep only when nothing is in flight and the next arrival
            // is far off; otherwise poll again after yielding the CPU.
            let now = start.elapsed().as_nanos() as u64;
            let wait = arrivals.get(next).map_or(0, |a| a.due_ns.saturating_sub(now));
            if outstanding == 0 && wait > 200_000 {
                std::thread::sleep(Duration::from_nanos(wait - 100_000));
            } else {
                std::thread::yield_now();
            }
        }
    }
    rung
}

/// Goodput: the offered rate where the p99 crosses the limit,
/// interpolated in log-latency between the last rung that meets the
/// limit and the first that does not.  Rungs that fall behind count as
/// not meeting it.  When even the lowest rung misses, its rate is scaled
/// down by how far its p99 overshoots; when every rung passes, the top
/// rung's rate is the (censored) answer.
fn goodput(rungs: &[Rung]) -> f64 {
    let Some(first_miss) = rungs.iter().position(|r| !r.meets_limit()) else {
        return rungs.last().map_or(0.0, |r| r.offered_rps);
    };
    if first_miss == 0 {
        let r = &rungs[0];
        return if r.keeps_up() { r.offered_rps * P99_LIMIT_US / r.p99_us() } else { 0.0 };
    }
    let (lo, hi) = (&rungs[first_miss - 1], &rungs[first_miss]);
    if !hi.keeps_up() || !hi.p99_us().is_finite() {
        return lo.offered_rps;
    }
    let (l_lo, l_hi, l_lim) = (lo.p99_us().ln(), hi.p99_us().ln(), P99_LIMIT_US.ln());
    let frac = if l_hi > l_lo { ((l_lim - l_lo) / (l_hi - l_lo)).clamp(0.0, 1.0) } else { 0.0 };
    lo.offered_rps + frac * (hi.offered_rps - lo.offered_rps)
}

/// Everything one serve-open measurement ran.
struct Runs {
    light: Vec<Rung>,
    busy: Vec<Rung>,
    sweeps: Vec<Vec<Rung>>,
}

impl Runs {
    fn rungs(&self) -> impl Iterator<Item = &Rung> {
        self.light.iter().chain(&self.busy).chain(self.sweeps.iter().flatten())
    }
}

/// Rung horizon: `share` of the budget, long enough for two p99 blocks.
fn horizon(budget: Duration, share: f64, rate: f64) -> Duration {
    Duration::from_secs_f64((budget.as_secs_f64() * share).max(MIN_REQUESTS / rate))
}

/// Half the budget goes to the interleaved fixed-rung repeats, half to
/// the ladder sweeps.
fn measure(
    stack: &mut Stack,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Runs {
    let mut seeds = SplitMix64::new(seed ^ 0x7365_7276);
    // Warm-up: one short light rung (spin-budget learning, lazy set-up).
    let mut off = Recorder::new(false);
    run_rung(stack, seeds.next_u64(), LIGHT_RPS, Duration::from_millis(50), &mut off, out);
    let fixed_share = 0.5 / (2 * REPEATS) as f64;
    let mut runs = Runs { light: Vec::new(), busy: Vec::new(), sweeps: Vec::new() };
    for _ in 0..REPEATS {
        let h = horizon(budget, fixed_share, LIGHT_RPS);
        runs.light.push(run_rung(stack, seeds.next_u64(), LIGHT_RPS, h, rec, out));
        let h = horizon(budget, fixed_share, BUSY_RPS);
        runs.busy.push(run_rung(stack, seeds.next_u64(), BUSY_RPS, h, rec, out));
    }
    let ladder_share = 0.5 / (SWEEPS * LADDER.len()) as f64;
    for _ in 0..SWEEPS {
        let sweep = LADDER
            .iter()
            .map(|&rate| {
                let h = horizon(budget, ladder_share, rate);
                run_rung(stack, seeds.next_u64(), rate, h, rec, out)
            })
            .collect();
        runs.sweeps.push(sweep);
    }
    runs
}

/// Median over repeats of a per-repeat statistic.
fn median_of(rungs: &[Rung], f: fn(&Rung) -> f64) -> f64 {
    median(&rungs.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Traced run: the same rungs with spans recorded and the tracer armed.
pub fn run_traced(seed: u64, budget: Duration, rec: &mut Recorder, out: &mut Outcome) {
    let mut stack = setup(seed, true);
    let runs = measure(&mut stack, seed, budget, rec, out);
    let tracer = stack.host.tracer().cloned();
    let vm_ids: Vec<u32> = stack.guests.iter().map(|g| g.vm.vm().id()).collect();
    let snaps = teardown(stack, out);
    for (tag, rungs) in [("light", &runs.light), ("busy", &runs.busy)] {
        out.layer.set(format!("serve_p50_us.{tag}"), median_of(rungs, Rung::p50_us), "us");
        out.layer.set(format!("serve_p99_us.{tag}"), median_of(rungs, Rung::p99_us), "us");
    }
    let goodputs: Vec<f64> = runs.sweeps.iter().map(|s| goodput(s)).collect();
    out.layer.set("goodput_rps", median(&goodputs).unwrap_or(f64::NAN), "1/s");
    let all = |f: fn(&Rung) -> &Vec<f64>| -> Vec<f64> {
        runs.rungs().flat_map(|r| f(r).iter().copied()).collect()
    };
    let p50 = |xs: &[f64]| percentile(xs, 0.5).unwrap_or(f64::NAN);
    out.layer.set("guest.submit_us.p50", p50(&all(|r| &r.submit_us)), "us");
    out.layer.set("guest.reap_us.p50", p50(&all(|r| &r.reap_us)), "us");
    out.layer.set(
        "gen.late_p99_us",
        percentile(&all(|r| &r.late_us), 0.99).unwrap_or(f64::NAN),
        "us",
    );
    let sum = |f: fn(&Snapshot) -> u64| -> u64 { snaps.iter().map(f).sum() };
    out.layer.set(
        "frontend.kicks_per_entry",
        sum(|s| s.frontend.batch_kicks) as f64 / sum(|s| s.frontend.batch_entries).max(1) as f64,
        "ratio",
    );
    out.layer.set(
        "backend.chains_per_drain",
        sum(|s| s.burst_chains) as f64 / sum(|s| s.burst_drains).max(1) as f64,
        "ratio",
    );
    for snap in &snaps {
        out.retries(snap);
    }
    if let Some(t) = tracer {
        let summaries: Vec<_> = vm_ids.iter().flat_map(|&vm| t.summaries(vm)).collect();
        out.virt_stages("serve", &summaries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_bit_reproducible_per_seed() {
        let a = schedule(42, 20_000.0, Duration::from_millis(200));
        let b = schedule(42, 20_000.0, Duration::from_millis(200));
        assert_eq!(a, b);
        let c = schedule(43, 20_000.0, Duration::from_millis(200));
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_matches_rate_and_mix() {
        let a = schedule(7, 20_000.0, Duration::from_secs(1));
        let n = a.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals for 20k rps over 1 s");
        assert!(a.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
        let share = |c: Class| a.iter().filter(|x| x.class == c).count() as f64 / n;
        assert!((share(Class::Decode) - 0.6).abs() < 0.02);
        assert!((share(Class::KvFetch) - 0.3).abs() < 0.02);
        assert!(a
            .iter()
            .all(|x| x.vm < VMS && x.kv_offset % KV_BLOCK == 0 && x.kv_offset < KV_WINDOW));
    }

    fn rung(rate: f64, p99: f64, backlog: usize) -> Rung {
        // Two blocks of 1000 whose p99 (rank 990) is exactly `p99`.
        let block = [vec![p99 / 2.0; 980], vec![p99; 20]].concat();
        let latency_us = [block.clone(), block].concat();
        Rung {
            offered_rps: rate,
            latency_us,
            requests: 2000,
            backlog: Some(backlog),
            ..Rung::default()
        }
    }

    #[test]
    fn goodput_interpolates_across_the_limit() {
        let rungs = [rung(1000.0, 100.0, 0), rung(2000.0, 1000.0, 0), rung(3000.0, 4000.0, 0)];
        let g = goodput(&rungs);
        // ln(2000/1000) / ln(4000/1000) = 0.5 of the way from 2k to 3k.
        assert!((g - 2500.0).abs() < 1e-6, "{g}");
        // A rung that falls behind stops the ladder at the last good rung.
        let rungs = [rung(1000.0, 100.0, 0), rung(2000.0, 1000.0, 0), rung(3000.0, 1500.0, 500)];
        assert_eq!(goodput(&rungs), 2000.0);
    }
}
