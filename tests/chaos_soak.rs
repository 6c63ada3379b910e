//! Chaos soak: drive many seeded fault schedules through the full
//! transport and require a *structured* terminal outcome from every
//! one — never a panic, never an unclassified error, never a lost
//! buffer. Also the determinism witness: identical seeds must produce
//! byte-identical fault traces and transfer reports.
//!
//! The schedule count defaults to 200 and scales with the
//! `CHAOS_SCHEDULES` env var (the CI chaos-smoke job runs the default;
//! a longer soak just sets the variable higher).

use spinal_codes::net::{
    run_transfer, ChaosLink, FaultPlan, FaultTrace, Impairments, LoopbackLink, NoiseModel,
    TransferConfig, TransferErrorKind, TransferOutcome, TransferReport, DATA_PAYLOAD_OFFSET,
};
use spinal_codes::{CodeParams, GeParams};

/// SplitMix64 — the soak's only randomness, fully derived from the
/// schedule seed so every run is reproducible.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a fault plan from one word of seed material: every fault
/// class is exercised across the soak, none so hard that no schedule
/// ever delivers.
fn plan_for(bits: u64) -> FaultPlan {
    let pct = |shift: u32, ceil: f64| ((bits >> shift) & 0xF) as f64 / 15.0 * ceil;
    let ge = if bits & 1 != 0 {
        Some(GeParams {
            p_good_to_bad: 0.01 + pct(4, 0.08),
            p_bad_to_good: 0.2 + pct(8, 0.4),
            loss_good: pct(12, 0.05),
            loss_bad: 0.5 + pct(16, 0.45),
        })
    } else {
        None
    };
    let blackouts = if bits & 2 != 0 {
        let start = 10 + ((bits >> 20) & 0x3F);
        let len = 5 + ((bits >> 26) & 0x1F);
        vec![(start, start + len)]
    } else {
        Vec::new()
    };
    FaultPlan {
        ge,
        blackouts,
        dup_prob: pct(32, 0.15),
        dup_max: 1 + ((bits >> 36) & 0x3) as usize,
        corrupt_prob: pct(40, 0.10),
        // Bit rot hits observation payloads, not framing: headers ride
        // under the PHY's integrity protection (§6, wire.rs docs).
        corrupt_skip: DATA_PAYLOAD_OFFSET,
        send_err_prob: pct(44, 0.05),
        recv_err_prob: pct(48, 0.05),
    }
}

struct RunResult {
    /// The report (from `Ok`, or carried inside the error).
    report: TransferReport,
    /// `Some(budget)` when the run failed with RetryBudgetExhausted.
    failed: bool,
    data_trace: FaultTrace,
    feedback_trace: FaultTrace,
}

fn run_one(seed: u64) -> RunResult {
    let p = CodeParams::default().with_n(64).with_b(16);
    let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
    // Small payloads (≤ 4 blocks) and mid-to-high SNR keep a debug-mode
    // 200-schedule soak inside the tier-1 time budget; the fault plans,
    // not the channel, are what this test stresses.
    let payload_len = (splitmix(&mut s) % 25) as usize;
    let payload: Vec<u8> = (0..payload_len).map(|_| splitmix(&mut s) as u8).collect();
    let snr_db = 10.0 + (splitmix(&mut s) % 10) as f64;
    let (tx, rx) = LoopbackLink::pair(
        NoiseModel::Awgn { snr_db },
        Impairments::clean(),
        Impairments::clean(),
        seed,
    );
    let data_plan = plan_for(splitmix(&mut s));
    let feedback_plan = plan_for(splitmix(&mut s));
    let mut tx = ChaosLink::new(tx, data_plan, seed ^ 0xD474_0000_0000_0001);
    let mut rx = ChaosLink::new(rx, feedback_plan, seed ^ 0xFEED_0000_0000_0002);
    let cfg = TransferConfig {
        max_passes: 6,
        max_rounds: 64,
        io_retry_budget: 48,
        ..TransferConfig::default()
    };
    let result = run_transfer(&mut tx, &mut rx, &p, &payload, seed | 1, cfg);
    let block_bytes = 6; // n=64 ⇒ 48 payload bits ⇒ 6 bytes per block
    let (report, failed) = match result {
        Ok(report) => {
            // Every successful run ends in one of the structured
            // outcomes — Aborted and DeadlineExceeded cannot appear
            // here (no deadline configured, errors return Err).
            match &report.outcome {
                TransferOutcome::Delivered(got) => {
                    assert_eq!(got, &payload, "seed {seed}: delivered bytes must match");
                }
                TransferOutcome::PartialDelivery {
                    blocks,
                    bytes_recovered,
                    blocks_decoded,
                    n_blocks,
                    ..
                } => {
                    assert_eq!(blocks.len(), *n_blocks, "seed {seed}");
                    assert_eq!(
                        blocks.iter().filter(|b| b.is_some()).count(),
                        *blocks_decoded,
                        "seed {seed}"
                    );
                    assert!(
                        *blocks_decoded >= 1 && blocks_decoded < n_blocks,
                        "seed {seed}"
                    );
                    let mut recovered = 0;
                    for (i, blk) in blocks.iter().enumerate() {
                        if let Some(bytes) = blk {
                            let lo = i * block_bytes;
                            let hi = ((i + 1) * block_bytes).min(payload.len());
                            assert_eq!(
                                &bytes[..],
                                &payload[lo..hi],
                                "seed {seed}: salvaged block {i} must match the source"
                            );
                            recovered += bytes.len();
                        }
                    }
                    assert_eq!(recovered, *bytes_recovered, "seed {seed}");
                }
                TransferOutcome::PassBudgetExhausted | TransferOutcome::RoundBudgetExhausted => {
                    assert_eq!(report.blocks_decoded, 0, "seed {seed}: zero-block ending");
                }
                other => panic!("seed {seed}: unexpected outcome {other:?}"),
            }
            (report, false)
        }
        Err(err) => {
            // The chaos layer only injects *transient* errors, so the
            // only legal failure is an exhausted retry budget — and the
            // partial report must still be attached and consistent.
            assert!(
                matches!(err.kind, TransferErrorKind::RetryBudgetExhausted),
                "seed {seed}: unexpected error kind {:?}",
                err.kind
            );
            assert_eq!(
                err.report.transient_io_errors,
                cfg.io_retry_budget + 1,
                "seed {seed}: budget + 1 transient errors at give-up"
            );
            (*err.report, true)
        }
    };
    assert!(report.rounds <= cfg.max_rounds, "seed {seed}");
    assert!(report.blocks_decoded <= report.n_blocks, "seed {seed}");
    RunResult {
        report,
        failed,
        data_trace: tx.trace().clone(),
        feedback_trace: rx.trace().clone(),
    }
}

#[test]
fn soak_seeded_schedules_end_structurally_and_deterministically() {
    let schedules: u64 = std::env::var("CHAOS_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let mut delivered = 0u64;
    let mut partial = 0u64;
    let mut exhausted = 0u64;
    let mut errored = 0u64;
    let mut evictions = 0u64;
    for seed in 0..schedules {
        let one = run_one(seed);
        if one.failed {
            errored += 1;
        } else {
            match one.report.outcome {
                TransferOutcome::Delivered(_) => delivered += 1,
                TransferOutcome::PartialDelivery { .. } => partial += 1,
                _ => exhausted += 1,
            }
        }
        evictions += one.report.reorder_evictions;
        // Determinism witness on every tenth schedule: identical seed
        // ⇒ equal fault traces and transfer report.
        if seed % 10 == 0 {
            let again = run_one(seed);
            assert_eq!(one.report, again.report, "seed {seed}: report must replay");
            assert_eq!(one.data_trace, again.data_trace, "seed {seed}: data trace");
            assert_eq!(
                one.feedback_trace, again.feedback_trace,
                "seed {seed}: feedback trace"
            );
        }
    }
    println!(
        "chaos soak: {schedules} schedules — {delivered} delivered, {partial} partial, \
         {exhausted} exhausted, {errored} errored, {evictions} reorder evictions"
    );
    assert_eq!(
        delivered + partial + exhausted + errored,
        schedules,
        "every schedule ends in exactly one structured outcome"
    );
    assert!(
        delivered > schedules / 4,
        "the soak is miscalibrated: only {delivered}/{schedules} delivered"
    );
    assert!(
        partial + exhausted + errored > 0,
        "the soak is miscalibrated: no schedule was ever degraded"
    );
}

/// Panic-injection soak (PR 10 acceptance): ≥100 seeded schedules of
/// poisoned and clean decode attempts through one long-lived pooled
/// service. Every injected worker panic must resolve as a structured
/// [`DecodeFailure::WorkerPanicked`] — the process survives, the
/// session's resources come back, the *next* clean attempt on the same
/// session decodes bit-identically to a serial reference — and at the
/// end the metrics books balance exactly: no completion lost, none
/// duplicated, none leaked as stale.
#[test]
fn panic_injection_soak_survives_and_books_balance() {
    use spinal_codes::core::DecodeFailure;
    use spinal_codes::{
        BubbleDecoder, CodeParams, DecodeRequest, DecodeService, Encoder, Message, RxSymbols,
        Schedule, ServiceConfig, SessionBuffer, SessionOptions,
    };
    use std::sync::Arc;

    let schedules: u64 = std::env::var("CHAOS_PANIC_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    assert!(schedules >= 100, "the acceptance bar is ≥100 schedules");
    let p = CodeParams::default().with_n(32).with_b(8);
    let dec = Arc::new(BubbleDecoder::new(&p));
    // One pooled service for the whole soak: every poison panics on a
    // real worker thread, which catches it around the decode and goes on
    // serving, ~schedules/2 panics over the run.
    let svc = DecodeService::new(2, ServiceConfig::default());
    let mut poisons = 0u64;
    let mut cleans = 0u64;
    for seed in 0..schedules {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3);
        let msg = Message::from_bytes(
            (0..4)
                .map(|i| splitmix(&mut s) as u8 ^ i)
                .collect::<Vec<u8>>(),
            32,
        );
        let mut enc = Encoder::new(&p, &msg);
        let tx = enc.next_symbols(2 * p.symbols_per_pass());
        let mut ch = spinal_codes::channel::AwgnChannel::new(12.0, seed);
        let ys = spinal_codes::channel::Channel::transmit(&mut ch, &tx);
        let sched = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(sched);
        rx.push(&ys);
        let serial = DecodeRequest::new(&dec, &rx).decode();
        let mut session = svc
            .open_session(&dec, SessionBuffer::Symbols(rx), SessionOptions::default())
            .expect("admitted");
        let attempts = 1 + splitmix(&mut s) % 3;
        for attempt in 0..attempts {
            let poisoned = splitmix(&mut s) & 1 == 0;
            if poisoned {
                session.poison_next_attempt("soak poison");
            }
            session.submit().expect("queued");
            match session.wait().expect("attempt in flight") {
                Ok(r) => {
                    assert!(!poisoned, "seed {seed}: poisoned attempt decoded");
                    assert_eq!(
                        r.message, serial.message,
                        "seed {seed} attempt {attempt}: post-recovery decode must \
                         stay bit-identical to the serial reference"
                    );
                    cleans += 1;
                }
                Err(DecodeFailure::WorkerPanicked { payload_msg }) => {
                    assert!(poisoned, "seed {seed}: clean attempt panicked");
                    assert_eq!(payload_msg, "soak poison", "seed {seed}");
                    poisons += 1;
                }
            }
            assert!(
                session.buffer().is_some(),
                "seed {seed}: resources must return after every attempt"
            );
        }
    }
    println!("panic soak: {schedules} schedules — {poisons} poisoned, {cleans} clean");
    assert!(
        poisons >= schedules / 3,
        "soak miscalibrated: only {poisons} panics injected over {schedules} schedules"
    );
    assert!(cleans > 0, "soak miscalibrated: no clean attempt ever ran");
    let m = svc.metrics();
    assert_eq!(
        m.attempts_failed, poisons,
        "every panic counted exactly once"
    );
    assert_eq!(
        m.completions, cleans,
        "no clean completion lost or duplicated"
    );
    assert_eq!(m.stale_completions, 0, "no completion leaked as stale");
    assert_eq!(
        m.submits,
        m.completions + m.attempts_failed,
        "every submit ends in exactly one structured outcome"
    );
}

/// Different seeds must not share a fault trace — the soak would be
/// silently re-running one schedule 200 times otherwise.
#[test]
fn distinct_seeds_produce_distinct_traces() {
    let a = run_one(1000);
    let b = run_one(1001);
    assert!(
        a.data_trace != b.data_trace || a.feedback_trace != b.feedback_trace,
        "seeds 1000/1001 produced identical traces"
    );
}
