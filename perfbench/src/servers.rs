//! Device-side servers with real bytes behind them.
//!
//! The figure harness's `spawn_device_window` registers a *timed* region
//! (capacity only, reads as zeros), so nothing read back from it can be
//! checked.  These servers allocate byte-backed GDDR with `alloc` and hand
//! the region to the benchmark, which fills it with a seeded pattern
//! ([`fill_region`]) so every read and write can be verified.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vphi::VphiHost;
use vphi_phi::DeviceRegion;
use vphi_scif::window::WindowBacking;
use vphi_scif::{Port, Prot, ScifEndpoint};
use vphi_sim_core::{SplitMix64, Timeline};

/// The window pattern: byte `off` of a window filled under `seed`.  Word
/// `i` is SplitMix64's first output from state `seed + i·γ`, so any byte
/// can be recomputed without replaying the stream.
fn pattern_word(seed: u64, word: u64) -> u64 {
    SplitMix64::new(seed.wrapping_add(word.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// Fill `out` with the pattern bytes at window offsets `[off, off+len)`.
pub fn pattern_bytes(seed: u64, off: u64, out: &mut [u8]) {
    for (i, b) in out.iter_mut().enumerate() {
        let at = off + i as u64;
        *b = (pattern_word(seed, at >> 3) >> ((at & 7) * 8)) as u8;
    }
}

/// Write the pattern of `seed` over the whole region.  This is the
/// benchmark's own work (about 33 M SplitMix64 words for 256 MiB), so
/// callers do it after the timed set-up.
pub fn fill_region(region: &DeviceRegion, seed: u64) {
    const BLOCK: u64 = 1 << 20;
    let mut buf = vec![0u8; BLOCK as usize];
    let mut off = 0;
    while off < region.len() {
        let n = BLOCK.min(region.len() - off);
        for (w, chunk) in buf[..n as usize].chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&pattern_word(seed, (off >> 3) + w as u64).to_le_bytes());
        }
        region.write(off, &buf[..n as usize]).expect("pattern fill within region");
        off += n;
    }
}

fn listen(host: &VphiHost, port: Port) -> ScifEndpoint {
    let server = host.device_endpoint(0).expect("device endpoint");
    let mut tl = Timeline::new();
    server.bind(port, &mut tl).expect("bind");
    server.listen(4, &mut tl).expect("listen");
    server
}

/// A device-side server thread with a stop signal.  A blocking receive
/// on an idle connection returns nothing after the SCIF queue's 30 s
/// wall-clock guard, exactly as it does when the peer closes, so an empty
/// receive ends the server only once [`stop`](Server::stop) was called —
/// which the benchmark does just before it closes the peer.
pub struct Server<T> {
    stop: Option<mpsc::Sender<()>>,
    handle: JoinHandle<T>,
}

impl<T> Server<T> {
    /// Announce that the peer is about to close.
    pub fn stop(&mut self) {
        self.stop = None;
    }

    /// Join the server after the peer closed.
    pub fn join(mut self) -> T {
        self.stop();
        self.handle.join().expect("device server panicked")
    }
}

fn stopped(stop: &mpsc::Receiver<()>) -> bool {
    matches!(stop.try_recv(), Err(mpsc::TryRecvError::Disconnected))
}

/// A 1-byte echo server: every byte received is sent straight back.
/// Returns the number of bytes echoed once the peer closes.
pub fn spawn_echo(host: &VphiHost, port: Port) -> Server<u64> {
    let server = listen(host, port);
    let (stop_tx, stop_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        let conn = server.accept(&mut tl).expect("accept");
        let mut echoed = 0u64;
        let mut b = [0u8; 1];
        loop {
            tl.clear();
            match conn.recv(&mut b, &mut tl) {
                Ok(1) => {}
                Ok(_) if !stopped(&stop_rx) => continue,
                _ => break,
            }
            if conn.send(&b, &mut tl) != Ok(1) {
                break;
            }
            echoed += 1;
        }
        conn.close();
        server.close();
        echoed
    });
    Server { stop: Some(stop_tx), handle }
}

/// A window server: registers `len` bytes of byte-backed GDDR at window
/// offset 0, then drains (and counts) any bytes the peer
/// sends until it closes.  The region is handed back once the window is
/// registered (see [`WindowServer::wait_registered`]), so the benchmark
/// can check writes against device memory directly, and the running
/// drained total is reported after every receive, so the benchmark can
/// wait for every sent byte before it closes (closing discards what the
/// server has not read yet).
pub struct WindowServer {
    ready: mpsc::Receiver<Arc<DeviceRegion>>,
    drained: mpsc::Receiver<u64>,
    pub server: Server<u64>,
}

impl WindowServer {
    pub fn spawn(host: &VphiHost, port: Port, len: u64) -> Self {
        let server = listen(host, port);
        let board = Arc::clone(host.board(0));
        let (ready_tx, ready_rx) = mpsc::channel();
        let (drained_tx, drained_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut tl = Timeline::new();
            let conn = server.accept(&mut tl).expect("accept");
            let region = board.memory().alloc(len).expect("byte-backed gddr alloc");
            let offset = region.offset();
            conn.register(
                Some(0),
                len,
                Prot::READ_WRITE,
                WindowBacking::Device(Arc::clone(&region)),
                &mut tl,
            )
            .expect("register");
            ready_tx.send(region).expect("benchmark waits for the window");
            let mut drained = 0u64;
            let mut buf = vec![0u8; 1 << 17];
            loop {
                tl.clear();
                let n = match conn.core().try_recv(&mut buf, &mut tl) {
                    Ok(0) => match conn.core().recv(&mut buf[..1], &mut tl) {
                        Ok(0) if !stopped(&stop_rx) => continue,
                        Ok(0) | Err(_) => break,
                        Ok(n) => n,
                    },
                    Ok(n) => n,
                    Err(_) => break,
                };
                drained += n as u64;
                let _ = drained_tx.send(drained);
            }
            conn.close();
            server.close();
            let _ = board.memory().free(offset);
            drained
        });
        WindowServer {
            ready: ready_rx,
            drained: drained_rx,
            server: Server { stop: Some(stop_tx), handle },
        }
    }

    /// Block until the peer has connected and the window is registered;
    /// returns the backing region, not yet filled.  Call once, after
    /// `connect`.
    pub fn wait_registered(&self) -> Arc<DeviceRegion> {
        self.ready.recv().expect("window server died before registering")
    }

    /// Wait until the server has drained `total` bytes or `timeout`
    /// passes; returns the drained total last reported.
    pub fn wait_drained(&self, total: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut seen = 0;
        while seen < total {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.drained.recv_timeout(left) {
                Ok(n) => seen = n,
                Err(_) => break,
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_random_access() {
        let mut whole = vec![0u8; 64];
        pattern_bytes(7, 0, &mut whole);
        let mut part = vec![0u8; 13];
        pattern_bytes(7, 29, &mut part);
        assert_eq!(&whole[29..42], &part[..]);
        let mut other = vec![0u8; 64];
        pattern_bytes(8, 0, &mut other);
        assert_ne!(whole, other);
    }
}
