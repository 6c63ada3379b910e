//! Transfers spawn no decode threads. A receiver made by
//! `SpinalReceiver::new` decodes a multi-block transfer on the
//! process-wide pool: one `spinal-decode-*` worker per core, spawned by
//! the first such transfer and kept alive, idle, after it. So after one
//! multi-block `run_transfer` exactly `available_parallelism` decode
//! workers are alive (none on a 1-core host, whose receivers decode
//! inline), and many more transfers later they are the same threads.
//!
//! Linux only: the test lists the process's threads by name under
//! `/proc/self/task`. It is a binary of its own, so no other test's
//! private service adds decode workers of the same name.
#![cfg(target_os = "linux")]

use spinal_codes::net::{run_loopback_transfer, Impairments, NoiseModel, TransferConfig};
use spinal_codes::CodeParams;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The thread ids of this process's decode workers.
fn decode_workers() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            comm.starts_with("spinal-decode-").then_some(tid)
        })
        .collect()
}

/// A spawned thread names itself as it starts, so a worker that has
/// not run a job yet may still carry its parent's name for a moment:
/// poll until `want` workers show, or time out with what is there.
fn settled_workers(want: usize) -> BTreeSet<u64> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let workers = decode_workers();
        if workers.len() == want || Instant::now() >= deadline {
            return workers;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn transfers_reuse_one_pool_of_decode_workers() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let want = if cores > 1 { cores } else { 0 };
    let params = CodeParams::default().with_n(64).with_b(16);
    let payload: Vec<u8> = (0u8..30).collect(); // 5 blocks of 6 bytes
    let lossy = Impairments {
        loss: 0.1,
        dup: 0.05,
        reorder: 0.1,
        reorder_span: 3,
    };
    let transfer = |seed: u64| {
        let report = run_loopback_transfer(
            &params,
            &payload,
            NoiseModel::Awgn { snr_db: 10.0 },
            lossy,
            lossy,
            seed,
            TransferConfig::default(),
        );
        assert_eq!(report.n_blocks, 5, "seed {seed}");
        assert_eq!(report.payload(), Some(&payload[..]), "seed {seed}");
    };
    assert!(
        decode_workers().is_empty(),
        "no decode worker before any transfer"
    );
    transfer(0);
    let first = settled_workers(want);
    assert_eq!(
        first.len(),
        want,
        "one decode worker per core after a multi-block transfer: {first:?}"
    );
    for seed in 1..=20 {
        transfer(seed);
    }
    assert_eq!(
        decode_workers(),
        first,
        "20 more transfers ran on the same decode workers"
    );
}
