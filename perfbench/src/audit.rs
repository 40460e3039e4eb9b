//! Quiesce audit: run after every workload phase, once the guest has
//! closed its endpoints and reaped every token.  Anything still open,
//! mapped or in flight is a leak; an unbalanced notification ledger is a
//! lost or double-counted completion.  Any violation fails the run.

use std::sync::atomic::Ordering;

use vphi::debugfs::VphiDebugReport;
use vphi::frontend::FrontendStats;
use vphi::{GuestScif, VphiVm};
use vphi_sim_core::Timeline;

use crate::Outcome;

/// What the audit reads, gathered from one VM.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub report: VphiDebugReport,
    pub pending_tokens: usize,
    pub mapped_windows: usize,
    pub aperture_inflight: u64,
    /// Frontend batch ledger (entries, doorbells) — not in the report.
    pub frontend: FrontendStats,
    /// Backend avail-ring drains that found work, and the chains popped.
    pub burst_drains: u64,
    pub burst_chains: u64,
}

impl Snapshot {
    pub fn take(vm: &VphiVm) -> Self {
        Snapshot {
            report: VphiDebugReport::collect(vm),
            pending_tokens: vm.frontend().pending_tokens(),
            mapped_windows: vm.backend().inner().aperture().mapped_windows(),
            aperture_inflight: vm.backend().inner().aperture().inflight_total(),
            frontend: vm.frontend().stats(),
            burst_drains: vm.backend().inner().stats.burst_drains.load(Ordering::Relaxed),
            burst_chains: vm.backend().inner().stats.burst_chains.load(Ordering::Relaxed),
        }
    }
}

/// Close `guest`, snapshot its VM and record every quiesce violation as
/// a failed check of `workload`.
pub fn close_and_audit(
    workload: &str,
    guest: &GuestScif,
    vm: &VphiVm,
    out: &mut Outcome,
) -> Snapshot {
    if let Err(e) = guest.close(&mut Timeline::new()) {
        out.error(format!("{workload}: close failed: {e:?}"));
    }
    let snap = Snapshot::take(vm);
    for v in violations(&snap) {
        out.error(format!("{workload} quiesce: {v}"));
    }
    snap
}

/// Every violated quiesce condition, as a readable line (empty = clean).
pub fn violations(s: &Snapshot) -> Vec<String> {
    let r = &s.report;
    let mut out = Vec::new();
    let mut zero = |what: &str, v: u64| {
        if v != 0 {
            out.push(format!("vm{}: {what} = {v} at quiesce (want 0)", r.vm_id));
        }
    };
    zero("pending tokens", s.pending_tokens as u64);
    zero("open endpoints", r.open_endpoints as u64);
    zero("mapped windows", s.mapped_windows as u64);
    zero("aperture in-flight", s.aperture_inflight);
    let delivered = r.irqs_injected + r.irqs_suppressed + r.msi_lost;
    if delivered != r.backend_requests {
        out.push(format!(
            "vm{}: notify ledger unbalanced: injected {} + suppressed {} + lost {} = {} != backend requests {}",
            r.vm_id, r.irqs_injected, r.irqs_suppressed, r.msi_lost, delivered, r.backend_requests
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi::{VmConfig, VphiHost};

    fn quiet_snapshot() -> Snapshot {
        let host = VphiHost::new(1);
        let vm = host.spawn_vm(VmConfig::default());
        let mut tl = Timeline::new();
        let guest = vm.open_scif(&mut tl).expect("open");
        guest.close(&mut tl).expect("close");
        let snap = Snapshot::take(&vm);
        vm.shutdown();
        snap
    }

    #[test]
    fn clean_vm_passes() {
        let snap = quiet_snapshot();
        assert!(snap.report.backend_requests >= 2);
        assert_eq!(violations(&snap), Vec::<String>::new());
    }

    #[test]
    fn doctored_reports_trip_the_checker() {
        let clean = quiet_snapshot();

        let mut lost_irq = clean.clone();
        lost_irq.report.irqs_injected += 1;
        assert!(violations(&lost_irq)[0].contains("ledger unbalanced"));

        let mut leaked = clean.clone();
        leaked.report.open_endpoints = 1;
        leaked.pending_tokens = 2;
        leaked.mapped_windows = 1;
        leaked.aperture_inflight = 3;
        let v = violations(&leaked);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().any(|l| l.contains("pending tokens = 2")));
        assert!(v.iter().any(|l| l.contains("aperture in-flight = 3")));
    }
}
