//! Isolated probes: each layer's public API driven alone, at the input
//! shapes the workloads use, so a per-layer change shows here before it
//! is diluted in an end-to-end number.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vphi::VphiHost;
use vphi_pcie::{gather_copy, Aperture, ApertureMap};
use vphi_phi::DeviceMemory;
use vphi_scif::{Port, RmaFlags, ScifAddr};
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::{CostModel, SimDuration, Timeline, VirtualClock};
use vphi_sync::{LockClass, TrackedMutex};
use vphi_virtio::{Descriptor, UsedElem, VirtQueue};
use vphi_vmm::{GuestKernel, GuestMemory, WaitQueue};

use crate::servers::{fill_region, pattern_bytes, spawn_echo, WindowServer};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::Outcome;

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 21;
const BIG: u64 = 64 * MIB;

/// Median per-iteration wall time of `f`, in nanoseconds.
fn ns_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&per).expect("BATCHES > 0")
}

fn gbps(bytes: u64, ns: f64) -> f64 {
    bytes as f64 / ns
}

/// The request shape the frontend publishes: header out, response in.
fn request_chain() -> [Descriptor; 2] {
    [Descriptor::readable(0x1000, 64), Descriptor::writable(0x2000, 32)]
}

fn virtio(out: &mut Outcome) {
    let push = SimDuration::from_nanos(650);
    let q = VirtQueue::new(256);
    let chain = ns_per_iter(2_000, || {
        let mut tl = Timeline::new();
        q.add_chain(&request_chain(), push, &mut tl).expect("free descriptors");
        let c = q.pop_avail().expect("sane ring").expect("chain published");
        q.push_used(UsedElem { id: c.head, len: 32 }, push, &mut tl);
        black_box(q.take_used().expect("sane ring"));
    });
    out.layer.set("virtio.chain_roundtrip_ns", chain, "ns");
    let batch = ns_per_iter(200, || {
        let mut tl = Timeline::new();
        let heads: Vec<u16> =
            (0..16).map(|_| q.prepare_chain(&request_chain()).expect("free descriptors")).collect();
        q.publish_avail_batch(&heads, push, &mut tl);
        while let Some(c) = q.pop_avail().expect("sane ring") {
            q.push_used(UsedElem { id: c.head, len: 32 }, push, &mut tl);
        }
        black_box(q.take_used().expect("sane ring"));
    });
    out.layer.set("virtio.publish_batch16_ns", batch, "ns");
}

/// Cross-thread wake-to-run through a guest wait queue: the waker sends
/// its wake instant and wakes the queue; the parked waiter reports how
/// long it took to run again.
fn wake_handoff_us() -> f64 {
    const WAKES: usize = 200;
    let wq = Arc::new(WaitQueue::new());
    let (wake_tx, wake_rx) = mpsc::channel::<Instant>();
    let (lat_tx, lat_rx) = mpsc::channel::<f64>();
    let waiter = {
        let wq = Arc::clone(&wq);
        std::thread::spawn(move || {
            for _ in 0..WAKES {
                let Some(sent) = wq.wait_until(|| wake_rx.try_recv().ok()) else { return };
                if lat_tx.send(sent.elapsed().as_secs_f64() * 1e6).is_err() {
                    return;
                }
            }
        })
    };
    let mut samples = Vec::with_capacity(WAKES);
    for _ in 0..WAKES {
        // Give the waiter time to park, so every sample is a real wake.
        std::thread::sleep(Duration::from_micros(200));
        wake_tx.send(Instant::now()).expect("waiter alive");
        wq.wake_all();
        samples.push(lat_rx.recv().expect("waiter reports"));
    }
    waiter.join().expect("waiter panicked");
    percentile(&samples, 0.5).expect("enough wakes")
}

fn vmm(out: &mut Outcome) {
    out.layer.set("vmm.wake_handoff_us", wake_handoff_us(), "us");
    let mem = Arc::new(GuestMemory::new(BIG + 16 * MIB));
    let big = mem.alloc(BIG).expect("guest alloc");
    let src = vec![0xA5u8; BIG as usize];
    let ns = ns_per_iter(1, || mem.write(big, &src).expect("in range"));
    out.layer.set("vmm.guest_copy_gbps.64m", gbps(BIG, ns), "GB/s");
    let small = mem.alloc(4 * KIB).expect("guest alloc");
    let ns = ns_per_iter(5_000, || mem.write(small, &src[..4096]).expect("in range"));
    out.layer.set("vmm.guest_copy_gbps.4k", gbps(4 * KIB, ns), "GB/s");
    let kernel = GuestKernel::new(Arc::clone(&mem), Arc::new(CostModel::paper_calibrated()));
    let ns = ns_per_iter(5_000, || {
        let mut tl = Timeline::new();
        let buf = kernel.kmalloc(4 * KIB, &mut tl).expect("kmalloc");
        kernel.kfree(buf).expect("kfree");
    });
    out.layer.set("vmm.kmalloc_ns", ns, "ns");
}

/// The no-virtualization floor: a host-native SCIF client against the
/// same device servers the workloads use.
fn scif(seed: u64, out: &mut Outcome) {
    let host = VphiHost::new(1);
    let mut echo = spawn_echo(&host, Port(930));
    let ep = host.native_endpoint().expect("native endpoint");
    let mut tl = Timeline::new();
    ep.connect(ScifAddr::new(host.device_node(0), Port(930)), &mut tl).expect("connect");
    let mut rtt = Vec::with_capacity(4000);
    for i in 0..4000u32 {
        let b = [i as u8];
        let mut r = [0u8; 1];
        let t0 = Instant::now();
        let ok = ep.send(&b, &mut tl) == Ok(1) && ep.recv(&mut r, &mut tl) == Ok(1);
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        if !ok || r != b {
            out.fail(format!("native echo {i}: got {r:?}, sent {b:?}"));
        }
        tl.clear();
    }
    echo.stop();
    ep.close();
    let echoed = echo.join();
    if echoed != 4000 {
        out.error(format!("native echo server saw {echoed} bytes, want 4000"));
    }
    out.layer.set("scif.native_rtt_p50_us", percentile(&rtt, 0.5).expect("4000 samples"), "us");

    let mut win = WindowServer::spawn(&host, Port(931), 2 * BIG);
    let ep = host.native_endpoint().expect("native endpoint");
    ep.connect(ScifAddr::new(host.device_node(0), Port(931)), &mut tl).expect("connect");
    fill_region(&win.wait_registered(), seed);
    let mut buf = vec![0u8; BIG as usize];
    let read = ns_per_iter(1, || {
        ep.vreadfrom(&mut buf, 0, RmaFlags::SYNC, &mut Timeline::new()).expect("native read");
    });
    let mut want = vec![0u8; 4096];
    pattern_bytes(seed, BIG - 4096, &mut want);
    out.attempted += 1;
    if buf[(BIG - 4096) as usize..] != want[..] {
        out.fail("native read: bytes differ from the window pattern".into());
    }
    let write = ns_per_iter(1, || {
        ep.vwriteto(&buf, BIG, RmaFlags::SYNC, &mut Timeline::new()).expect("native write");
    });
    win.server.stop();
    ep.close();
    win.server.join();
    out.layer.set("scif.native_read_gbps", gbps(BIG, read), "GB/s");
    out.layer.set("scif.native_write_gbps", gbps(BIG, write), "GB/s");
}

fn pcie(out: &mut Outcome) {
    let src = vec![0x3Cu8; BIG as usize];
    let mut dst = vec![0u8; BIG as usize];
    let ns = ns_per_iter(1, || {
        gather_copy::<()>(
            BIG,
            |off, block| {
                block.copy_from_slice(&src[off as usize..off as usize + block.len()]);
                Ok(())
            },
            |off, block| {
                dst[off as usize..off as usize + block.len()].copy_from_slice(block);
                Ok(())
            },
        )
        .expect("infallible copy");
    });
    black_box(&dst);
    out.layer.set("pcie.sg_gather_gbps", gbps(BIG, ns), "GB/s");
    let map = ApertureMap::new(Aperture::new(0, 8 * BIG));
    let mut key = 0u64;
    let ns = ns_per_iter(500, || {
        key += 1;
        map.map_window((1, key), BIG).expect("aperture space");
        map.unmap_window((1, key));
    });
    out.layer.set("pcie.aperture_map_us", ns / 1e3, "us");
}

fn phi(out: &mut Outcome) {
    let mem = DeviceMemory::new(2 * BIG);
    let ns = ns_per_iter(200, || {
        let region = mem.alloc(4 * MIB).expect("gddr alloc");
        mem.free(region.offset()).expect("gddr free");
    });
    out.layer.set("phi.region_alloc_us", ns / 1e3, "us");
    let region = mem.alloc(BIG).expect("gddr alloc");
    let mut buf = vec![0x7Eu8; BIG as usize];
    let ns = ns_per_iter(1, || {
        region.write(0, &buf).expect("in region");
        region.read(0, &mut buf).expect("in region");
    });
    out.layer.set("phi.region_copy_gbps", gbps(2 * BIG, ns), "GB/s");
}

fn sync(out: &mut Outcome) {
    let lock = TrackedMutex::new(LockClass::TestInner, 0u64);
    let ns = ns_per_iter(100_000, || *lock.lock() += 1);
    out.layer.set("sync.lock_ns", ns, "ns");
}

fn sim_core(out: &mut Outcome) {
    let clock = VirtualClock::new();
    let ns = ns_per_iter(100_000, || {
        black_box(clock.advance(SimDuration::from_nanos(1)));
    });
    out.layer.set("simcore.clock_advance_ns", ns, "ns");
}

/// Run every probe, each under one span of its layer.
pub fn run(seed: u64, rec: &mut Recorder, out: &mut Outcome) {
    rec.span("virtio", "probe", 0, || virtio(out));
    rec.span("vmm", "probe", 0, || vmm(out));
    rec.span("scif", "probe", 0, || scif(seed, out));
    rec.span("pcie", "probe", 0, || pcie(out));
    rec.span("phi-device", "probe", 0, || phi(out));
    rec.span("sync", "probe", 0, || sync(out));
    rec.span("sim-core", "probe", 0, || sim_core(out));
}
