//! `pingpong`: closed loop, one VM with the default config (interrupt
//! waiting), one connection to a device-side 1-byte echo server.  Each
//! operation sends one byte and receives its echo — the Fig. 4 path,
//! where the fixed per-request cost dominates.

use std::time::{Duration, Instant};

use vphi::{GuestScif, VmConfig, VphiHost, VphiVm};
use vphi_scif::{Port, ScifAddr};
use vphi_sim_core::{CostModel, SimDuration, SpanLabel, SplitMix64, Timeline};
use vphi_trace::TraceConfig;

use crate::audit::{self, Snapshot};
use crate::servers::{spawn_echo, Server};
use crate::spans::Recorder;
use crate::stats::{block_values, median, percentile};
use crate::Outcome;

const PORT: Port = Port(900);
/// Round trips before timing starts (lazy set-up, spin-budget learning).
const WARMUP: u64 = 200;
/// RTT percentiles and rates are taken per block of this many round trips
/// and the median block reported.  Unpinned on a 2-core host the share of
/// fast blocks differs between runs: over eight 8 s runs the fastest
/// decile of blocks moved between 16 and 25 µs while the median block
/// stayed within 23-26 µs.
const BLOCK: usize = 2000;
/// Share of each block's round trips the rate is taken over: the slowest
/// tenth is left out.  Host preemption stalls of a millisecond or more
/// land on a few round trips of a block, and how many differs between
/// runs: in one set of ten runs the rate over whole blocks spread by 0.4
/// of its median while the RTT median block stayed within the bound.
const RATE_SHARE: f64 = 0.9;
/// The paper's 1-byte interrupt-mode send: every send whose doorbell kick
/// is delivered charges exactly this much virtual time.  A send that finds
/// the backend shard still draining has its kick suppressed
/// (`VRING_USED_F_NO_NOTIFY`) and charges exactly one vm-exit less; in a
/// back-to-back loop on a busy host that happens now and then.  A send may
/// also queue on the shared PCIe link behind the echo's reply
/// (`LinkContention`, which depends on how the two threads interleave);
/// that much is discounted, up to what the one concurrent reply can hold
/// the link for (see [`contention_cap`]), and counted.
const ANCHOR: SimDuration = SimDuration::from_micros(382);

/// The most link contention a 1-byte send can meet from the echo's one
/// concurrent 1-byte reply: one link transaction, its latency and its
/// wire transfer.
fn contention_cap(cost: &CostModel) -> SimDuration {
    cost.link_latency + cost.link_transfer(1)
}

struct Stack {
    host: VphiHost,
    vm: VphiVm,
    guest: GuestScif,
    echo: Server<u64>,
}

fn setup(traced: bool) -> Stack {
    let host = VphiHost::new(1);
    if traced {
        host.arm_tracing(TraceConfig::default());
    }
    let echo = spawn_echo(&host, PORT);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let guest = vm.open_scif(&mut tl).expect("guest open");
    guest.connect(ScifAddr::new(host.device_node(0), PORT), &mut tl).expect("guest connect");
    Stack { host, vm, guest, echo }
}

/// Close, audit, shut down, and check the server echoed `expected` bytes.
fn teardown(mut stack: Stack, expected: u64, out: &mut Outcome) -> Snapshot {
    stack.echo.stop();
    let snap = audit::close_and_audit("pingpong", &stack.guest, &stack.vm, out);
    stack.vm.shutdown();
    let echoed = stack.echo.join();
    if echoed != expected {
        out.error(format!("pingpong: echo server saw {echoed} bytes, want {expected}"));
    }
    snap
}

/// One timed set-up of a throwaway stack, torn down (and audited) at
/// once.
pub fn setup_trial(out: &mut Outcome) {
    let stack = out.timed_setup("pingpong", || setup(false));
    teardown(stack, 0, out);
}

/// Wall-clock samples of one measured loop, in microseconds.
#[derive(Default)]
struct Samples {
    rtt_us: Vec<f64>,
    send_us: Vec<f64>,
    recv_us: Vec<f64>,
}

impl Samples {
    /// RTT median of the median block.
    fn p50(&self) -> f64 {
        median(&block_values(&self.rtt_us, 0.5, BLOCK)).unwrap_or(f64::NAN)
    }

    /// Round trips per second: the fastest [`RATE_SHARE`] of each block's
    /// round trips over their summed wall time, the median block.
    fn rate(&self) -> f64 {
        let keep = (BLOCK as f64 * RATE_SHARE) as usize;
        let rates: Vec<f64> = self
            .rtt_us
            .chunks_exact(BLOCK)
            .map(|b| {
                let mut sorted = b.to_vec();
                sorted.sort_by(f64::total_cmp);
                keep as f64 * 1e6 / sorted[..keep].iter().sum::<f64>()
            })
            .collect();
        median(&rates).unwrap_or(f64::NAN)
    }
}

/// One checked round trip: its send and receive wall times, and whether
/// the send met link contention.
fn round_trip(
    stack: &Stack,
    byte: u8,
    req: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> (Duration, Duration, bool) {
    let guest = &stack.guest;
    let root = rec.begin("perfbench", "round_trip", req);
    let t0 = Instant::now();
    let mut send_tl = Timeline::new();
    let sent = rec.span("core.guest", "send", req, || guest.send(&[byte], &mut send_tl));
    let t1 = Instant::now();
    let mut echo = [0u8; 1];
    let mut recv_tl = Timeline::new();
    let got = rec.span("core.guest", "recv", req, || guest.recv(&mut echo, &mut recv_tl));
    let t2 = Instant::now();
    rec.end(root);
    out.attempted += 1;
    let contention = send_tl.total_for(SpanLabel::LinkContention);
    if sent != Ok(1) || got != Ok(1) {
        out.fail(format!("pingpong op {req}: send {sent:?}, recv {got:?}"));
    } else if echo[0] != byte {
        out.fail(format!("pingpong op {req}: echoed {:#04x}, sent {byte:#04x}", echo[0]));
    } else {
        let cost = stack.host.cost();
        let kicked = send_tl.total_for(SpanLabel::VmExitKick) > SimDuration::ZERO;
        let want = if kicked { ANCHOR } else { ANCHOR - cost.vmexit_kick };
        let cap = contention_cap(cost);
        let uncontended = send_tl.total() - contention.min(cap);
        if uncontended != want || contention > cap {
            out.fail(format!(
                "pingpong op {req}: 1-byte send (kick delivered: {kicked}) charged {uncontended} \
                 after discounting link contention {contention} (at most {cap}), want {want}; \
                 spans {:?}",
                send_tl.breakdown()
            ));
        }
    }
    (t1 - t0, t2 - t1, contention > SimDuration::ZERO)
}

/// A pingpong stack being measured, possibly in several slices
/// interleaved with other workloads.
pub struct Bench {
    stack: Stack,
    rng: SplitMix64,
    req: u64,
    s: Samples,
    /// Sends that met link contention, warm-up included.
    contended: u64,
}

impl Bench {
    /// Set up (timed), warm up, and get ready to measure.
    pub fn start(seed: u64, traced: bool, out: &mut Outcome) -> Self {
        let stack = out.timed_setup("pingpong", || setup(traced));
        let mut rng = SplitMix64::new(seed ^ 0x7069_6e67);
        let mut off = Recorder::new(false);
        let mut contended = 0;
        for i in 0..WARMUP {
            let (_, _, c) = round_trip(&stack, rng.next_u64() as u8, i, &mut off, out);
            contended += u64::from(c);
        }
        Bench { stack, rng, req: WARMUP, s: Samples::default(), contended }
    }

    /// Round trips for `budget` more wall time.
    pub fn measure(&mut self, budget: Duration, rec: &mut Recorder, out: &mut Outcome) {
        let start = Instant::now();
        while start.elapsed() < budget {
            let (send, recv, contended) =
                round_trip(&self.stack, self.rng.next_u64() as u8, self.req, rec, out);
            self.contended += u64::from(contended);
            self.s.send_us.push(send.as_secs_f64() * 1e6);
            self.s.recv_us.push(recv.as_secs_f64() * 1e6);
            self.s.rtt_us.push((send + recv).as_secs_f64() * 1e6);
            self.req += 1;
        }
    }

    /// Tear down and check the echo count; returns the samples and the
    /// quiesce snapshot.
    fn finish(self, out: &mut Outcome) -> (Samples, Snapshot) {
        let snap = teardown(self.stack, self.req, out);
        (self.s, snap)
    }

    /// Tear down and report the end-to-end metrics.  The RTT p99 is
    /// reported from traced runs only (see [`run_traced`]).
    pub fn finish_e2e(self, out: &mut Outcome) {
        let (s, _) = self.finish(out);
        out.e2e.set("rtt_p50_us", s.p50(), "us");
        out.e2e.set("rtt_per_s", s.rate(), "1/s");
    }
}

/// Traced run: half the budget untraced, half with spans recorded and
/// the tracer armed.  The untraced half gives the RTT p99; it moved too
/// much between runs to gate on (five 30 s runs in one half hour: 66 to
/// 130 µs, a spread of 0.54 of the median).  Returns the untraced RTT
/// median (for the residual).
pub fn run_traced(seed: u64, budget: Duration, rec: &mut Recorder, out: &mut Outcome) -> f64 {
    let mut plain = Bench::start(seed, false, out);
    plain.measure(budget / 2, &mut Recorder::new(false), out);
    let (base, _) = plain.finish(out);
    out.layer.set("rtt_p99_us", percentile(&base.rtt_us, 0.99).unwrap_or(f64::NAN), "us");

    let mut traced = Bench::start(seed ^ 1, true, out);
    traced.measure(budget / 2, rec, out);
    let tracer = traced.stack.host.tracer().cloned();
    let vm_id = traced.stack.vm.vm().id();
    let contended = traced.contended;
    let (s, snap) = traced.finish(out);

    let p50 = |xs: &[f64]| percentile(xs, 0.50).unwrap_or(f64::NAN);
    let base_p50 = p50(&base.rtt_us);
    out.layer.set("trace.overhead_pct", 100.0 * (p50(&s.rtt_us) / base_p50 - 1.0), "%");
    out.layer.set("guest.send_us.p50", p50(&s.send_us), "us");
    out.layer.set("guest.recv_us.p50", p50(&s.recv_us), "us");
    let ops = (WARMUP + s.rtt_us.len() as u64) as f64;
    let r = &snap.report;
    out.layer.set("frontend.kicks_per_op", r.kicks_delivered as f64 / ops, "count");
    out.layer.set("frontend.kicks_suppressed_per_op", r.kicks_suppressed as f64 / ops, "count");
    out.layer.set("frontend.sleeps_per_op", r.wait_queue_sleeps as f64 / ops, "count");
    out.layer.set("pcie.link_contended_per_op", contended as f64 / ops, "count");
    out.layer.set("backend.irqs_injected_per_op", r.irqs_injected as f64 / ops, "count");
    out.layer.set("backend.irqs_suppressed_per_op", r.irqs_suppressed as f64 / ops, "count");
    out.retries(&snap);
    if let Some(t) = tracer {
        out.virt_stages("pingpong", &t.summaries(vm_id));
    }
    base_p50
}
