//! Transfers spawn no decode threads. A receiver made by
//! `SpinalReceiver::new` decodes a multi-block transfer on the
//! process-wide pool: one `spinal-decode-*` worker per core, spawned by
//! the first such transfer and kept alive, idle, after it. So after one
//! multi-block `run_transfer` exactly `available_parallelism` decode
//! workers are alive (none on a 1-core host, whose receivers decode
//! inline), and many more transfers later they are the same threads.
//! A decode that panics on one of them ends its attempt alone: the
//! worker catches it and lives on, so the threads stay the same.
//!
//! Linux only: the test lists the process's threads by name under
//! `/proc/self/task`. It is a binary of its own, so no other test's
//! private service adds decode workers of the same name.
#![cfg(target_os = "linux")]

use spinal_codes::channel::{AwgnChannel, Channel};
use spinal_codes::core::DecodeFailure;
use spinal_codes::net::{run_loopback_transfer, Impairments, NoiseModel, TransferConfig};
use spinal_codes::{
    BubbleDecoder, CodeParams, DecodeRequest, DecodeService, Encoder, Message, RxSymbols, Schedule,
    ServiceConfig, SessionBuffer, SessionOptions,
};
use std::collections::BTreeSet;
use std::sync::Arc;
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

    // A panicking attempt on the same pool fails alone, and the session
    // decodes bit for bit on the next attempt.
    let dec = Arc::new(BubbleDecoder::new(&params));
    let message = Message::from_bytes(payload[..8].to_vec(), params.n);
    let mut enc = Encoder::new(&params, &message);
    let mut rx = RxSymbols::new(Schedule::new(
        params.num_spines(),
        params.tail,
        params.puncturing,
    ));
    rx.push(&AwgnChannel::new(15.0, 99).transmit(&enc.next_symbols(3 * params.symbols_per_pass())));
    let serial = DecodeRequest::new(&dec, &rx).decode();
    let svc = DecodeService::shared(ServiceConfig::default());
    let mut session = svc
        .open_session(&dec, SessionBuffer::Symbols(rx), SessionOptions::default())
        .expect("admitted");
    session.poison_next_attempt("decode_threads poison");
    session.submit().expect("queued");
    match session.wait().expect("attempt in flight") {
        Err(DecodeFailure::WorkerPanicked { payload_msg }) => {
            assert_eq!(payload_msg, "decode_threads poison")
        }
        Ok(_) => panic!("the poisoned attempt decoded"),
    }
    session.submit().expect("queued after the failure");
    let retry = session
        .wait()
        .expect("attempt in flight")
        .expect("clean retry");
    assert_eq!(retry.message, serial.message);
    assert_eq!(retry.cost.to_bits(), serial.cost.to_bits());
    assert_eq!(
        settled_workers(want),
        first,
        "the worker that caught the panic still serves the pool"
    );
}
