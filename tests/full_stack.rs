//! Full-stack integration: guest → frontend → virtio → backend → host
//! SCIF → PCIe → device, in realistic combinations.

use vphi::builder::{VmConfig, VphiHost};
use vphi_scif::window::WindowBacking;
use vphi_scif::{Port, Prot, RmaFlags, ScifAddr};
use vphi_sim_core::units::MIB;
use vphi_sim_core::{SimDuration, Timeline};

/// Device echo server used by several tests.
fn device_echo(host: &VphiHost, mic: usize, port: Port) -> std::thread::JoinHandle<()> {
    let server = host.device_endpoint(mic).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(port, &mut tl).unwrap();
        server.listen(4, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        loop {
            let mut len = [0u8; 4];
            if conn.core().recv(&mut len, &mut tl) != Ok(4) {
                break;
            }
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            if conn.core().recv(&mut payload, &mut tl) != Ok(payload.len()) {
                break;
            }
            if conn.core().send(&len, &mut tl).is_err()
                || conn.core().send(&payload, &mut tl).is_err()
            {
                break;
            }
        }
    });
    rx.recv().unwrap();
    h
}

#[test]
fn guest_payload_integrity_across_sizes() {
    let host = VphiHost::new(1);
    let echo = device_echo(&host, 0, Port(970));
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(970)), &mut tl).unwrap();

    let mut rng = vphi_sim_core::SplitMix64::new(99);
    for size in [1usize, 100, 4096, 1 << 16, 5 << 20] {
        let mut data = vec![0u8; size];
        rng.fill_bytes(&mut data);
        ep.send(&(size as u32).to_le_bytes(), &mut tl).unwrap();
        ep.send(&data, &mut tl).unwrap();
        let mut len = [0u8; 4];
        ep.recv(&mut len, &mut tl).unwrap();
        assert_eq!(u32::from_le_bytes(len) as usize, size);
        let mut back = vec![0u8; size];
        ep.recv(&mut back, &mut tl).unwrap();
        assert_eq!(back, data, "payload corrupted at size {size}");
    }
    ep.close(&mut tl).unwrap();
    vm.shutdown();
    echo.join().unwrap();
    // The full guest→ring→backend→fabric→device path ran under the
    // lock-order audit without a single violation.
    assert_eq!(vphi_sync::audit::violation_count(), 0, "lock-order violations detected");
    if vphi_sync::audit::ENABLED {
        assert!(vphi_sync::audit::stats().cycle_checks > 0, "audit was not exercised");
    }
}

#[test]
fn two_cards_are_independent_nodes() {
    let host = VphiHost::new(2);
    let echo0 = device_echo(&host, 0, Port(971));
    let echo1 = device_echo(&host, 1, Port(971)); // same port, different node

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep0 = vm.open_scif(&mut tl).unwrap();
    let ep1 = vm.open_scif(&mut tl).unwrap();
    ep0.connect(ScifAddr::new(host.device_node(0), Port(971)), &mut tl).unwrap();
    ep1.connect(ScifAddr::new(host.device_node(1), Port(971)), &mut tl).unwrap();

    for (i, ep) in [&ep0, &ep1].into_iter().enumerate() {
        let msg = format!("to card {i}");
        ep.send(&(msg.len() as u32).to_le_bytes(), &mut tl).unwrap();
        ep.send(msg.as_bytes(), &mut tl).unwrap();
        let mut len = [0u8; 4];
        ep.recv(&mut len, &mut tl).unwrap();
        let mut back = vec![0u8; msg.len()];
        ep.recv(&mut back, &mut tl).unwrap();
        assert_eq!(back, msg.as_bytes());
    }
    // The guest sees three SCIF nodes (host + 2 cards).
    assert_eq!(ep0.node_count(&mut tl).unwrap(), 3);

    ep0.close(&mut tl).unwrap();
    ep1.close(&mut tl).unwrap();
    vm.shutdown();
    echo0.join().unwrap();
    echo1.join().unwrap();
}

#[test]
fn guest_window_is_visible_to_device_rma() {
    // The *guest* registers memory; the *device* reads and writes it —
    // the reverse direction of the usual benchmarks, exercising
    // GuestWindowBytes end to end.
    let host = VphiHost::new(1);
    let server = host.device_endpoint(0).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let device = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(Port(972), &mut tl).unwrap();
        server.listen(2, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        // Wait for the guest to say its window is up, then RMA against it.
        let mut sig = [0u8; 8];
        conn.core().recv(&mut sig, &mut tl).unwrap();
        let roffset = u64::from_le_bytes(sig);
        let mut got = vec![0u8; 16];
        conn.core().vreadfrom(&mut got, roffset, RmaFlags::SYNC, &mut tl).unwrap();
        assert_eq!(&got, b"guest registered");
        conn.core().vwriteto(b"device wrote this", roffset + 64, RmaFlags::SYNC, &mut tl).unwrap();
        conn.core().send(&[1], &mut tl).unwrap();
    });
    rx.recv().unwrap();

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(972)), &mut tl).unwrap();
    let buf = vm.alloc_buf(4096).unwrap();
    buf.fill(0, b"guest registered").unwrap();
    let roffset = ep.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
    ep.send(&roffset.to_le_bytes(), &mut tl).unwrap();
    // Wait for the device's ack.
    let mut ack = [0u8; 1];
    ep.recv(&mut ack, &mut tl).unwrap();
    // The device's RMA write landed in guest memory.
    let mut landed = vec![0u8; 17];
    buf.peek(64, &mut landed).unwrap();
    assert_eq!(&landed, b"device wrote this");

    ep.unregister(roffset, 4096, &mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    vm.shutdown();
    device.join().unwrap();
}

#[test]
fn window_to_window_rma_between_guest_and_device() {
    let host = VphiHost::new(1);
    let board = std::sync::Arc::clone(host.board(0));
    let server = host.device_endpoint(0).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let device = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(Port(973), &mut tl).unwrap();
        server.listen(2, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        let region = board.memory().alloc(4096).unwrap();
        region.write(0, b"from GDDR").unwrap();
        conn.register(Some(0), 4096, Prot::READ_WRITE, WindowBacking::Device(region), &mut tl)
            .unwrap();
        conn.core().send(&[1], &mut tl).unwrap(); // window ready
        let mut fin = [0u8; 1];
        let _ = conn.core().recv(&mut fin, &mut tl);
    });
    rx.recv().unwrap();

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(973)), &mut tl).unwrap();
    let mut ready = [0u8; 1];
    ep.recv(&mut ready, &mut tl).unwrap();

    let lbuf = vm.alloc_buf(4096).unwrap();
    let loff = ep.register(&lbuf, Prot::READ_WRITE, None, &mut tl).unwrap();
    // readfrom: device window [0..9) → guest window [loff..loff+9).
    ep.readfrom(loff, 9, 0, RmaFlags::SYNC, &mut tl).unwrap();
    let mut out = [0u8; 9];
    lbuf.peek(0, &mut out).unwrap();
    assert_eq!(&out, b"from GDDR");
    // writeto: guest window → device window.
    lbuf.fill(100, b"to GDDR").unwrap();
    ep.writeto(loff + 100, 7, 200, RmaFlags::SYNC, &mut tl).unwrap();
    let region = host.board(0).memory().region_at(0).unwrap();
    let mut dev_check = [0u8; 7];
    region.read(200, &mut dev_check).unwrap();
    assert_eq!(&dev_check, b"to GDDR");

    ep.send(&[0], &mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    vm.shutdown();
    device.join().unwrap();
}

#[test]
fn rdma_plus_polling_completion_flag_idiom() {
    // Paper §II-B: "developers frequently use a combination of RDMA and
    // polling as an alternative to blocking methods, in order to notify
    // the client of an I/O completion event."  A guest writes a payload
    // with async RMA, then fence_signals a completion flag into the
    // remote window; the device side spins on the flag.
    let host = VphiHost::new(1);
    let board = std::sync::Arc::clone(host.board(0));
    let server = host.device_endpoint(0).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let device = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(Port(992), &mut tl).unwrap();
        server.listen(2, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        let region = board.memory().alloc(8192).unwrap();
        let offset = region.offset();
        conn.register(
            Some(0),
            8192,
            Prot::READ_WRITE,
            WindowBacking::Device(std::sync::Arc::clone(&region)),
            &mut tl,
        )
        .unwrap();
        conn.core().send(&[1], &mut tl).unwrap();
        // Spin on the completion flag at window offset 4096 (the device
        // would normally scif_poll or busy-read its own memory).
        let mut flag = [0u8; 8];
        for _ in 0..5000 {
            region.read(4096, &mut flag).unwrap();
            if u64::from_le_bytes(flag) == 0xC0FFEE {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(u64::from_le_bytes(flag), 0xC0FFEE, "flag never arrived");
        // The payload RMA'd before the flag must already be there
        // (fence_signal orders it).
        let mut payload = [0u8; 10];
        region.read(0, &mut payload).unwrap();
        assert_eq!(&payload, b"rdma bytes");
        let _ = board.memory().free(offset);
    });
    rx.recv().unwrap();

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(992)), &mut tl).unwrap();
    let mut ready = [0u8; 1];
    ep.recv(&mut ready, &mut tl).unwrap();

    // Local window for the fence_signal's local flag.
    let lbuf = vm.alloc_buf(4096).unwrap();
    let loff = ep.register(&lbuf, Prot::READ_WRITE, None, &mut tl).unwrap();
    // Async RMA write, then the ordered completion flag.
    let data = vm.alloc_buf(4096).unwrap();
    data.fill(0, b"rdma bytes").unwrap();
    ep.vwriteto(&data, 0, RmaFlags::ASYNC, &mut tl).unwrap();
    ep.fence_signal(loff, 1, 4096, 0xC0FFEE, &mut tl).unwrap();
    // The local flag was also set.
    let mut lflag = [0u8; 8];
    lbuf.peek(0, &mut lflag).unwrap();
    assert_eq!(u64::from_le_bytes(lflag), 1);

    device.join().unwrap();
    ep.close(&mut tl).unwrap();
    vm.shutdown();
}

#[test]
fn async_rma_and_fences_through_vphi() {
    let host = VphiHost::new(1);
    let server = host.device_endpoint(0).unwrap();
    let board = std::sync::Arc::clone(host.board(0));
    let (tx, rx) = std::sync::mpsc::channel();
    let device = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(Port(974), &mut tl).unwrap();
        server.listen(2, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        let region = board.memory().alloc(16 * MIB).unwrap();
        conn.register(Some(0), 16 * MIB, Prot::READ_WRITE, WindowBacking::Device(region), &mut tl)
            .unwrap();
        conn.core().send(&[1], &mut tl).unwrap();
        let mut fin = [0u8; 1];
        let _ = conn.core().recv(&mut fin, &mut tl);
    });
    rx.recv().unwrap();

    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(974)), &mut tl).unwrap();
    let mut ready = [0u8; 1];
    ep.recv(&mut ready, &mut tl).unwrap();

    let buf = vm.alloc_buf(8 * MIB).unwrap();
    // Async write: cheap to issue…
    let mut issue_tl = Timeline::new();
    ep.vwriteto(&buf, 0, RmaFlags::ASYNC, &mut issue_tl).unwrap();
    // …but the fence absorbs the transfer time.
    let marker = ep.fence_mark(&mut tl).unwrap();
    let mut fence_tl = Timeline::new();
    ep.fence_wait(marker, &mut fence_tl).unwrap();
    // The sync path must be slower to issue than async-issue alone.
    let mut sync_tl = Timeline::new();
    ep.vwriteto(&buf, 0, RmaFlags::SYNC, &mut sync_tl).unwrap();
    assert!(issue_tl.total() < sync_tl.total());
    // Issue + fence ≈ sync (same physics, split differently).
    let combined = issue_tl.total() + fence_tl.total();
    let diff = combined.as_nanos().abs_diff(sync_tl.total().as_nanos());
    assert!(
        diff < SimDuration::from_millis(3).as_nanos(),
        "async+fence {combined} vs sync {}",
        sync_tl.total()
    );

    ep.send(&[0], &mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    vm.shutdown();
    device.join().unwrap();
}

#[test]
fn rma_moves_exact_bytes_on_staged_and_mapped_paths() {
    // A byte-backed device window read into and written from guest
    // buffers on both sides of the KMALLOC_MAX_SIZE gate: the staged cost
    // mode below it, the aperture-mapped one above.  Either way the bytes
    // move once, device window straight to guest memory.
    const WIN: u64 = 8 * MIB;
    let host = VphiHost::new(1);
    let board = std::sync::Arc::clone(host.board(0));
    let server = host.device_endpoint(0).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let device = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(Port(976), &mut tl).unwrap();
        server.listen(2, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        let region = board.memory().alloc(WIN).unwrap();
        let pattern: Vec<u8> = (0..WIN).map(|i| (i % 241) as u8).collect();
        region.write(0, &pattern).unwrap();
        conn.register(Some(0), WIN, Prot::READ_WRITE, WindowBacking::Device(region), &mut tl)
            .unwrap();
        conn.core().send(&[1], &mut tl).unwrap(); // window ready
        let mut fin = [0u8; 1];
        let _ = conn.core().recv(&mut fin, &mut tl);
    });
    rx.recv().unwrap();

    let vm = host.spawn_vm(VmConfig::builder().mem_size(64 * MIB).zero_copy_rma(true).build());
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(976)), &mut tl).unwrap();
    let mut ready = [0u8; 1];
    ep.recv(&mut ready, &mut tl).unwrap();

    let region = host.board(0).memory().region_at(0).unwrap();
    for (len, roffset) in [(MIB + 17, 4097u64), (5 * MIB + 3, 11)] {
        let buf = vm.alloc_buf(len).unwrap();
        ep.vreadfrom(&buf, roffset, RmaFlags::SYNC, &mut tl).unwrap();
        let mut got = vec![0u8; len as usize];
        buf.peek(0, &mut got).unwrap();
        let want: Vec<u8> = (roffset..roffset + len).map(|i| (i % 241) as u8).collect();
        assert_eq!(got, want, "vreadfrom of {len} bytes at {roffset}");

        buf.fill(0, &vec![0xE7; len as usize]).unwrap();
        ep.vwriteto(&buf, roffset + 1, RmaFlags::SYNC, &mut tl).unwrap();
        let mut dev = vec![0u8; len as usize + 2];
        region.read(roffset, &mut dev).unwrap();
        assert_eq!(dev[0], (roffset % 241) as u8, "byte before the write untouched");
        assert!(dev[1..=len as usize].iter().all(|&b| b == 0xE7), "vwriteto of {len} bytes");
        assert_eq!(dev[len as usize + 1], ((roffset + len + 1) % 241) as u8);
        // Restore the pattern for the next size.
        region.write(roffset, &want).unwrap();
        region.write(roffset + len, &[((roffset + len) % 241) as u8]).unwrap();
    }
    let report = vphi::debugfs::VphiDebugReport::collect(&vm);
    assert_eq!(report.windows_mapped + report.map_hits, 2, "the 5 MiB pair took the mapped arm");

    ep.send(&[0], &mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    vm.shutdown();
    device.join().unwrap();
    assert_eq!(vphi_sync::audit::violation_count(), 0, "lock-order violations detected");
}

#[test]
fn mapped_rma_composes_with_a_tuned_send_chunk() {
    // `chunk_size` sizes only send/recv staging and `zero_copy_rma` only
    // the large-RMA cost mode, so the two compose: a multi-chunk
    // send/recv round trip and a mapped-arm remote read on one VM.
    const WIN: u64 = 8 * MIB;
    const MSG: usize = 3 * MIB as usize + 5;
    let host = VphiHost::new(1);
    let board = std::sync::Arc::clone(host.board(0));
    let server = host.device_endpoint(0).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let device = std::thread::spawn(move || {
        let mut tl = Timeline::new();
        server.bind(Port(977), &mut tl).unwrap();
        server.listen(2, &mut tl).unwrap();
        tx.send(()).unwrap();
        let conn = server.accept(&mut tl).unwrap();
        let region = board.memory().alloc(WIN).unwrap();
        let pattern: Vec<u8> = (0..WIN).map(|i| (i % 239) as u8).collect();
        region.write(0, &pattern).unwrap();
        conn.register(Some(0), WIN, Prot::READ_WRITE, WindowBacking::Device(region), &mut tl)
            .unwrap();
        conn.core().send(&[1], &mut tl).unwrap(); // window ready
        let mut msg = vec![0u8; MSG];
        assert_eq!(conn.core().recv(&mut msg, &mut tl), Ok(MSG));
        conn.core().send(&msg, &mut tl).unwrap();
        let mut fin = [0u8; 1];
        let _ = conn.core().recv(&mut fin, &mut tl);
    });
    rx.recv().unwrap();

    let vm = host.spawn_vm(
        VmConfig::builder().mem_size(64 * MIB).zero_copy_rma(true).chunk_size(MIB).build(),
    );
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(ScifAddr::new(host.device_node(0), Port(977)), &mut tl).unwrap();
    let mut ready = [0u8; 1];
    ep.recv(&mut ready, &mut tl).unwrap();

    let mut data = vec![0u8; MSG];
    vphi_sim_core::SplitMix64::new(77).fill_bytes(&mut data);
    let before = vphi::debugfs::VphiDebugReport::collect(&vm);
    ep.send(&data, &mut tl).unwrap();
    let after = vphi::debugfs::VphiDebugReport::collect(&vm);
    assert_eq!(after.chunks_staged - before.chunks_staged, 4, "3 MiB + 5 B in 1 MiB chunks");
    let mut back = vec![0u8; MSG];
    ep.recv(&mut back, &mut tl).unwrap();
    assert_eq!(back, data, "send/recv round trip corrupted");

    let (len, roffset) = (5 * MIB, 13u64);
    let buf = vm.alloc_buf(len).unwrap();
    ep.vreadfrom(&buf, roffset, RmaFlags::SYNC, &mut tl).unwrap();
    let mut got = vec![0u8; len as usize];
    buf.peek(0, &mut got).unwrap();
    let want: Vec<u8> = (roffset..roffset + len).map(|i| (i % 239) as u8).collect();
    assert_eq!(got, want, "mapped vreadfrom of {len} bytes at {roffset}");
    let report = vphi::debugfs::VphiDebugReport::collect(&vm);
    assert!(report.windows_mapped + report.map_hits > 0, "the 5 MiB read took the mapped arm");

    ep.send(&[0], &mut tl).unwrap();
    ep.close(&mut tl).unwrap();
    vm.shutdown();
    device.join().unwrap();
    assert_eq!(vphi_sync::audit::violation_count(), 0, "lock-order violations detected");
}
