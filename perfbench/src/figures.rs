//! `paper-figures`: every figure and ablation of the `figures` binary,
//! called once per pass in the same order, each timed, plus a golden
//! digest of their virtual-time output.

use std::time::Instant;

use vphi_bench::abl_cache::abl_cache;
use vphi_bench::ablations::{abl_block, abl_chunk, abl_wait};
use vphi_bench::breakdown::breakdown_one_byte;
use vphi_bench::dgemm::{dgemm_figure, dgemm_sizes};
use vphi_bench::faults::abl_faults;
use vphi_bench::fig4::fig4_latency;
use vphi_bench::fig5::fig5_throughput;
use vphi_bench::mq_scale::mq_scale;
use vphi_bench::open_loop::open_loop;
use vphi_bench::sharing::sharing_scaling;
use vphi_bench::trace_breakdown::trace_breakdown;
use vphi_bench::zero_copy::zero_copy;
use vphi_sim_core::SimDuration;

use crate::spans::Recorder;

/// One figure: its metric name, a function returning its results as
/// pretty-printed `Debug` text (one field per line), and whether that
/// text enters the golden digest.
pub struct Figure {
    pub name: &'static str,
    pub run: fn() -> String,
    pub digested: bool,
}

const fn fig(name: &'static str, run: fn() -> String) -> Figure {
    Figure { name, run, digested: true }
}

const fn timed_only(name: &'static str, run: fn() -> String) -> Figure {
    Figure { name, run, digested: false }
}

/// The figures in the order `figures --fig all` prints them.
///
/// Six figures are timed but not digested, because their virtual-time
/// output depends on how the host interleaves the stack's threads.  SHARE
/// and MQ-SCALE run several VMs against one card at once, and their
/// contention results (per-VM latency, fairness, makespan) move by a few
/// parts in ten thousand between runs even on an idle host.  Fig. 5,
/// ABL-CACHE, ZERO-COPY and TRACE-BREAKDOWN repeat on an idle host but
/// not under load: with a competing busy thread on a 2-core host, eight
/// runs of the first three alone gave the golden output 6, 7 and 5 times
/// (their staged bandwidth for 64 MiB and more moved in the fourth digit),
/// and while other tenants loaded the host, ZERO-COPY in one end-to-end
/// run and TRACE-BREAKDOWN in two missed it in a pass and in all 4 reruns.
pub const FIGURES: &[Figure] = &[
    fig("fig4", || format!("{:#?}", fig4_latency())),
    fig("breakdown", || format!("{:#?}", breakdown_one_byte())),
    timed_only("fig5", || format!("{:#?}", fig5_throughput())),
    fig("fig6", || format!("{:#?}", dgemm_figure(56, &dgemm_sizes()))),
    fig("fig7", || format!("{:#?}", dgemm_figure(112, &dgemm_sizes()))),
    fig("fig8", || format!("{:#?}", dgemm_figure(224, &dgemm_sizes()))),
    fig("abl_wait", || format!("{:#?}", abl_wait())),
    fig("abl_chunk", || format!("{:#?}", abl_chunk())),
    fig("abl_block", || format!("{:#?}", abl_block())),
    timed_only("abl_cache", || format!("{:#?}", abl_cache())),
    fig("abl_faults", || format!("{:#?}", abl_faults())),
    timed_only("trace_breakdown", || format!("{:#?}", trace_breakdown())),
    timed_only("zero_copy", || format!("{:#?}", zero_copy())),
    timed_only("share", || format!("{:#?}", sharing_scaling(&[1, 2, 4, 8]))),
    timed_only("mq_scale", || format!("{:#?}", mq_scale())),
    fig("open_loop", || format!("{:#?}", open_loop())),
];

/// Report fields measured in wall-clock time: ABL-FAULTS' hook-fire
/// costs, send wall time and hook share, and TRACE-BREAKDOWN's disarmed
/// probe cost, send wall time and overhead share.  Everything else in the
/// figure output is virtual time or a count and repeats exactly.
const WALL_CLOCK_FIELDS: &[&str] = &[
    "disarmed_ns_per_fire:",
    "armed_idle_ns_per_fire:",
    "send_wall_ns:",
    "hook_overhead_pct:",
    "disarmed_probe_ns:",
    "trace_overhead_pct:",
];

/// FNV-1a digest of each digested figure's virtual-time output
/// (wall-clock fields masked), in [`FIGURES`] order, as produced on an
/// idle host.  Any change to a calibrated result changes it.  Inside a
/// full pass a digested figure can still differ now and then (Fig. 6 did
/// once in five loaded 30 s runs) while the same figure run alone repeats
/// its golden output, so a mismatch is rerun alone up to [`RERUNS`] times
/// and fails the run only if no rerun matches.
pub const GOLDEN: &[(&str, u64)] = &[
    ("fig4", 0x0ac1_11f6_5dcb_93cb),
    ("breakdown", 0x6cbd_a361_30f1_25b2),
    ("fig6", 0xb854_6af0_93b0_9330),
    ("fig7", 0xa385_1abf_b105_f910),
    ("fig8", 0xc540_74c5_79e9_9b4f),
    ("abl_wait", 0x88b9_9098_18ea_cf96),
    ("abl_chunk", 0xf2c0_8486_6843_94c1),
    ("abl_block", 0xf6ab_ea1d_e042_a887),
    ("abl_faults", 0xffb4_c77c_c2fc_89c1),
    ("open_loop", 0x5a91_b846_d0fd_510a),
];

/// Reruns of a figure whose digest differs from [`GOLDEN`] before the
/// difference fails the run.
pub const RERUNS: usize = 4;

/// The calibrated paper anchors, which repeat exactly under any host
/// load: Fig. 4's 1-byte native 7 µs and vPHI 382 µs, the §IV-B
/// breakdown's 382 µs total, and OPEN-LOOP's blocking 1-byte anchor.
pub fn anchor_violations() -> Vec<String> {
    let anchor = SimDuration::from_micros(382);
    let mut out = Vec::new();
    let fig4 = fig4_latency();
    if fig4[0].bytes != 1 || fig4[0].host != SimDuration::from_micros(7) || fig4[0].vphi != anchor {
        out.push(format!("Fig. 4 1-byte row {:?}, want host 7us / vPHI 382us", fig4[0]));
    }
    let (total, _, _) = breakdown_one_byte();
    if total != anchor {
        out.push(format!("breakdown total {total}, want 382us"));
    }
    let serve = open_loop().anchor;
    if serve != anchor {
        out.push(format!("OPEN-LOOP blocking anchor {serve}, want 382us"));
    }
    out
}

/// Drop the lines that carry wall-clock measurements.
pub fn mask_wall_clock(text: &str) -> String {
    text.lines()
        .filter(|line| !WALL_CLOCK_FIELDS.iter().any(|f| line.trim_start().starts_with(f)))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Digest of a figure's output with the wall-clock fields masked.
fn digest(text: &str) -> u64 {
    fnv1a(mask_wall_clock(text).as_bytes())
}

fn golden(name: &str, digest: u64) -> bool {
    GOLDEN.contains(&(name, digest))
}

/// A digested figure whose output differed from [`GOLDEN`]: its name,
/// the digest it first gave, and whether a rerun alone matched.
pub type Mismatch = (&'static str, u64, bool);

/// One pass over every figure, run one figure at a time: wall
/// milliseconds per figure so far, in [`FIGURES`] order.
#[derive(Default)]
pub struct Pass {
    pub ms: Vec<f64>,
}

impl Pass {
    pub fn done(&self) -> bool {
        self.ms.len() == FIGURES.len()
    }

    /// Run and time the pass's next figure and check its digest; reruns
    /// are not timed.
    pub fn run_next(&mut self, rec: &mut Recorder, pass: u64) -> Option<Mismatch> {
        let f = &FIGURES[self.ms.len()];
        let t0 = Instant::now();
        let out = rec.span("bench", f.name, pass, f.run);
        self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let first = digest(&out);
        if !f.digested || golden(f.name, first) {
            return None;
        }
        Some((f.name, first, (0..RERUNS).any(|_| golden(f.name, digest(&(f.run)())))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_drops_only_wall_clock_lines() {
        let text = "FaultsReport {\n    disarmed_ns_per_fire: 0.8,\n    armed_idle_ns_per_fire: 1.1,\n    crossings_per_send: 8,\n    send_wall_ns: 17900.0,\n    hook_overhead_pct: 0.04,\n    latency_disarmed: SimDuration(382000),\n}\nTraceBreakdownReport {\n    spans_per_send: 12,\n    disarmed_probe_ns: 2.1,\n    trace_overhead_pct: 0.2,\n}\n";
        let masked = mask_wall_clock(text);
        assert_eq!(
            masked,
            "FaultsReport {\n    crossings_per_send: 8,\n    latency_disarmed: SimDuration(382000),\n}\nTraceBreakdownReport {\n    spans_per_send: 12,\n}\n"
        );
        // A field that merely contains a masked name is kept.
        assert_eq!(
            mask_wall_clock("    max_send_wall_ns_seen: 1,\n"),
            "    max_send_wall_ns_seen: 1,\n"
        );
    }

    #[test]
    fn every_digested_figure_has_a_golden_digest() {
        for f in FIGURES.iter().filter(|f| f.digested) {
            assert!(GOLDEN.iter().any(|&(name, _)| name == f.name), "{} has no digest", f.name);
        }
        assert_eq!(GOLDEN.len(), FIGURES.iter().filter(|f| f.digested).count());
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
