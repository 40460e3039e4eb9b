//! `rma-bulk`: closed loop, one VM with zero-copy RMA on, one connection
//! to a 256 MiB byte-backed device window.  Reads (`vreadfrom`) alternate
//! with writes (`vwriteto`) at two sizes that move equal bytes: 4 MiB
//! (= `KMALLOC_MAX_SIZE`, the classic path) and 64 MiB (the
//! aperture-mapped gather).  The guest reuses one buffer per size and
//! direction, so after the warm-up the registration/mapping cache is
//! warm: the loop measures the steady state, not cold pinning.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vphi::guest::GuestBuf;
use vphi::{GuestScif, VmConfig, VphiHost, VphiVm};
use vphi_phi::DeviceRegion;
use vphi_scif::{Port, RmaFlags, ScifAddr};
use vphi_sim_core::units::MIB;
use vphi_sim_core::{SplitMix64, Timeline};
use vphi_trace::TraceConfig;

use crate::audit::{self, Snapshot};
use crate::servers::{fill_region, pattern_bytes, WindowServer};
use crate::spans::Recorder;
use crate::stats::{percentile, FAST_DECILE};
use crate::Outcome;

const PORT: Port = Port(910);
const WINDOW_LEN: u64 = 256 * MIB;
/// Reads come from the lower half of the window, writes land in the
/// upper half, so writes never disturb the pattern reads check against.
const WRITE_BASE: u64 = WINDOW_LEN / 2;
/// The two transfer sizes (equal bytes per round: one 64 MiB op per
/// direction, sixteen 4 MiB ops per direction).
const SIZES: [(u64, &str); 2] = [(64 * MIB, "64m"), (4 * MIB, "4m")];
/// Spots checked per operation (64 bytes each, seeded positions).
const CHECK_SPOTS: usize = 8;
const SPOT: usize = 64;

struct Stack {
    _host: VphiHost,
    vm: VphiVm,
    guest: GuestScif,
    server: WindowServer,
    region: Arc<DeviceRegion>,
    /// (read buffer, write buffer) per entry of [`SIZES`].
    bufs: Vec<(GuestBuf, GuestBuf)>,
}

/// Host, window server, VM, connection, registered (unfilled) window and
/// guest buffers: the timed set-up.
fn setup(traced: bool) -> Stack {
    let host = VphiHost::new(1);
    if traced {
        host.arm_tracing(TraceConfig::default());
    }
    let server = WindowServer::spawn(&host, PORT, WINDOW_LEN);
    let vm = host.spawn_vm(VmConfig::builder().zero_copy_rma(true).build());
    let mut tl = Timeline::new();
    let guest = vm.open_scif(&mut tl).expect("guest open");
    guest.connect(ScifAddr::new(host.device_node(0), PORT), &mut tl).expect("guest connect");
    let region = server.wait_registered();
    let bufs = SIZES
        .iter()
        .map(|&(len, _)| {
            let rd = vm.alloc_buf(len).expect("guest read buffer");
            let wr = vm.alloc_buf(len).expect("guest write buffer");
            (rd, wr)
        })
        .collect();
    Stack { _host: host, vm, guest, server, region, bufs }
}

fn teardown(mut stack: Stack, out: &mut Outcome) -> Snapshot {
    stack.server.server.stop();
    let snap = audit::close_and_audit("rma-bulk", &stack.guest, &stack.vm, out);
    drop(stack.bufs);
    stack.vm.shutdown();
    stack.server.server.join();
    snap
}

/// One timed set-up of a throwaway stack, torn down (and audited) at
/// once.
pub fn setup_trial(out: &mut Outcome) {
    let stack = out.timed_setup("rma-bulk", || setup(false));
    teardown(stack, out);
}

/// Per (size, direction) wall-clock samples.
#[derive(Default)]
struct Samples {
    /// Index = size index × 2 + (0 read, 1 write): op times in seconds.
    op_s: [Vec<f64>; 4],
    bytes: [u64; 4],
    /// Operations issued, warm-up included (the counters see them all).
    ops_total: u64,
}

/// Compare the whole guest buffer with the window pattern at `roffset`.
fn full_check(buf: &GuestBuf, seed: u64, roffset: u64) -> bool {
    const BLOCK: usize = 1 << 20;
    let mut got = vec![0u8; BLOCK];
    let mut want = vec![0u8; BLOCK];
    let mut at = 0u64;
    while at < buf.len() {
        let n = (buf.len() - at).min(BLOCK as u64) as usize;
        if buf.peek(at, &mut got[..n]).is_err() {
            return false;
        }
        pattern_bytes(seed, roffset + at, &mut want[..n]);
        if got[..n] != want[..n] {
            return false;
        }
        at += n as u64;
    }
    true
}

/// An rma-bulk stack being measured, possibly in several slices
/// interleaved with other workloads: the stack, the window seed, the
/// seeded offset/stamp generator, the operation counter and the samples.
pub struct Bench {
    stack: Stack,
    seed: u64,
    rng: SplitMix64,
    req: u64,
    s: Samples,
}

impl Bench {
    fn read(&mut self, size: usize, full: bool, rec: &mut Recorder, out: &mut Outcome) -> f64 {
        let rng = &mut self.rng;
        let (len, _) = SIZES[size];
        let buf = &self.stack.bufs[size].0;
        let roffset = rng.next_below(WRITE_BASE / len) * len;
        let t0 = Instant::now();
        let r = rec.span("core.guest", "vreadfrom", self.req, || {
            self.stack.guest.vreadfrom(buf, roffset, RmaFlags::SYNC, &mut Timeline::new())
        });
        let dt = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        if let Err(e) = r {
            out.fail(format!("rma-bulk read {}: {e:?}", self.req));
            return dt;
        }
        let ok = if full {
            full_check(buf, self.seed, roffset)
        } else {
            (0..CHECK_SPOTS).all(|_| {
                let at = rng.next_below(len - SPOT as u64);
                let mut got = [0u8; SPOT];
                let mut want = [0u8; SPOT];
                pattern_bytes(self.seed, roffset + at, &mut want);
                buf.peek(at, &mut got).is_ok() && got == want
            })
        };
        if !ok {
            out.fail(format!(
                "rma-bulk read {}: bytes differ from the window pattern at {roffset:#x}",
                self.req
            ));
        }
        dt
    }

    fn write(&mut self, size: usize, rec: &mut Recorder, out: &mut Outcome) -> f64 {
        let rng = &mut self.rng;
        let (len, _) = SIZES[size];
        let buf = &self.stack.bufs[size].1;
        let roffset = WRITE_BASE + rng.next_below((WINDOW_LEN - WRITE_BASE) / len) * len;
        // Stamp fresh bytes at one seeded spot per stripe (so stamps never
        // overlap), so the check sees this write and not an earlier one.
        let stripe = len / CHECK_SPOTS as u64;
        let mut stamps = Vec::with_capacity(CHECK_SPOTS);
        for k in 0..CHECK_SPOTS as u64 {
            let at = k * stripe + rng.next_below(stripe / SPOT as u64) * SPOT as u64;
            let mut bytes = [0u8; SPOT];
            rng.fill_bytes(&mut bytes);
            buf.fill(at, &bytes).expect("stamp inside the buffer");
            stamps.push((at, bytes));
        }
        let t0 = Instant::now();
        let r = rec.span("core.guest", "vwriteto", self.req, || {
            self.stack.guest.vwriteto(buf, roffset, RmaFlags::SYNC, &mut Timeline::new())
        });
        let dt = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        if let Err(e) = r {
            out.fail(format!("rma-bulk write {}: {e:?}", self.req));
            return dt;
        }
        let landed = stamps.iter().all(|(at, bytes)| {
            let mut got = [0u8; SPOT];
            self.stack.region.read(roffset + at, &mut got).is_ok() && got == *bytes
        });
        if !landed {
            out.fail(format!(
                "rma-bulk write {}: device window lacks the written bytes at {roffset:#x}",
                self.req
            ));
        }
        dt
    }

    /// One round: for each size, alternate reads and writes until both
    /// directions moved 64 MiB.
    fn round(&mut self, full: bool, s: &mut Samples, rec: &mut Recorder, out: &mut Outcome) {
        for (size, &(len, _)) in SIZES.iter().enumerate() {
            for _ in 0..(SIZES[0].0 / len) {
                let root = rec.begin("perfbench", "rma_pair", self.req);
                let r = self.read(size, full, rec, out);
                let w = self.write(size, rec, out);
                rec.end(root);
                s.op_s[size * 2].push(r);
                s.op_s[size * 2 + 1].push(w);
                s.bytes[size * 2] += len;
                s.bytes[size * 2 + 1] += len;
                self.req += 1;
            }
        }
    }
}

impl Bench {
    /// Set up (timed), fill the window with the seed's pattern (not timed
    /// as set-up: it is the benchmark's own work), and run the warm-up
    /// round: it pins and maps every buffer once and checks every byte of
    /// the first read of each size.
    pub fn start(seed: u64, traced: bool, out: &mut Outcome) -> Self {
        let stack = out.timed_setup("rma-bulk", || setup(traced));
        fill_region(&stack.region, seed);
        let rng = SplitMix64::new(seed ^ 0x0072_6d61);
        let mut bench = Bench { stack, seed, rng, req: 0, s: Samples::default() };
        bench.round(true, &mut Samples::default(), &mut Recorder::new(false), out);
        bench
    }

    /// Whole rounds until `budget` more wall time has passed.
    pub fn measure(&mut self, budget: Duration, rec: &mut Recorder, out: &mut Outcome) {
        let mut s = std::mem::take(&mut self.s);
        let start = Instant::now();
        while start.elapsed() < budget {
            self.round(false, &mut s, rec, out);
        }
        self.s = s;
    }

    /// Tear down; returns the samples and the quiesce snapshot.
    fn finish(self, out: &mut Outcome) -> (Samples, Snapshot) {
        let mut s = self.s;
        s.ops_total = 2 * self.req;
        (s, teardown(self.stack, out))
    }

    /// Tear down and report the end-to-end metrics.
    pub fn finish_e2e(self, out: &mut Outcome) {
        let (s, _) = self.finish(out);
        // Per direction: the fast-decile op time of each size (see
        // FAST_DECILE), combined as one round moving both sizes' bytes.
        let gbps = |dir: usize| -> f64 {
            let secs: f64 = (0..SIZES.len())
                .map(|size| {
                    percentile(&s.op_s[size * 2 + dir], FAST_DECILE).unwrap_or(f64::NAN)
                        * (SIZES[0].0 / SIZES[size].0) as f64
                })
                .sum();
            (SIZES.len() as u64 * SIZES[0].0) as f64 / secs / 1e9
        };
        out.e2e.set("read_gbps", gbps(0), "GB/s");
        out.e2e.set("write_gbps", gbps(1), "GB/s");
    }
}

/// Traced run: spans recorded, tracer armed, debug report collected.
pub fn run_traced(seed: u64, budget: Duration, rec: &mut Recorder, out: &mut Outcome) {
    let mut bench = Bench::start(seed, true, out);
    bench.measure(budget, rec, out);
    let tracer = bench.stack._host.tracer().cloned();
    let vm_id = bench.stack.vm.vm().id();
    let (s, snap) = bench.finish(out);
    for (size, &(_, tag)) in SIZES.iter().enumerate() {
        let p50 = |xs: &[f64]| percentile(xs, 0.50).map(|v| v * 1e6).unwrap_or(f64::NAN);
        out.layer.set(format!("guest.vreadfrom_us.p50.{tag}"), p50(&s.op_s[size * 2]), "us");
        out.layer.set(format!("guest.vwriteto_us.p50.{tag}"), p50(&s.op_s[size * 2 + 1]), "us");
    }
    let r = &snap.report;
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    out.layer.set(
        "backend.reg_cache_hit_ratio",
        ratio(r.reg_cache_hits, r.reg_cache_misses),
        "ratio",
    );
    out.layer.set("backend.map_hit_ratio", ratio(r.map_hits, r.windows_mapped), "ratio");
    out.layer.set(
        "backend.pages_translated_per_op",
        r.pages_translated as f64 / s.ops_total as f64,
        "count",
    );
    out.retries(&snap);
    if let Some(t) = tracer {
        out.virt_stages("rma", &t.summaries(vm_id));
    }
}
