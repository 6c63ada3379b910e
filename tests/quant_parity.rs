//! Statistical parity harness for the quantized metric profile.
//!
//! The quantized decoder is *not* bit-identical to the exact one — its
//! contract is statistical: on a fixed seed grid, quantized BLER must
//! sit within binomial slack of the exact profile's BLER (both decode
//! the identical noise realisations, seed for seed), and must stay
//! under the `spinal-bounds` analytic ML upper bound with the same
//! slack the PR 3 oracle harness uses. Alongside the parity cells, the
//! quantized profile's *determinism* contract is pinned: identical
//! estimates and decodes through serial workspaces, `DecodeService`
//! batches, and `DecodeService` sessions at thread counts {1, 2, 8}.
//!
//! Trial counts scale down in debug builds (tier-1 `cargo test -q`)
//! and up in `--release` (the CI `quant-parity` job).

use spinal_codes::bounds::{BoundChannel, SpinalBound};
use spinal_codes::core::MetricProfile;
use spinal_codes::sim::bler::BlerRun;
use spinal_codes::{CodeParams, DecodeService, DecodeWorkspace, LinkChannel, ServiceConfig};

/// Trials per grid cell (see module docs).
fn trials_per_cell() -> usize {
    if cfg!(debug_assertions) {
        40
    } else {
        200
    }
}

/// Slack for comparing two BLER estimates over the same seeds: 5σ of
/// the binomial at the pooled rate plus a small absolute allowance —
/// the same shape as the PR 3 oracle cutoff. Decisions only differ
/// where quantization rounding flips a near-tie, so the pooled-rate σ
/// is conservative.
fn parity_slack(trials: usize, pooled_errors: usize) -> usize {
    let p = (pooled_errors as f64 / (2.0 * trials as f64)).clamp(0.02, 0.98);
    let sd = (trials as f64 * p * (1.0 - p)).sqrt();
    (5.0 * sd).ceil() as usize + 3
}

/// Largest error count consistent with a true block error probability
/// of at most `p` (the bound-oracle cutoff).
fn bound_cutoff(trials: usize, p: f64) -> usize {
    let mean = trials as f64 * p;
    let sd = (trials as f64 * p * (1.0 - p)).sqrt();
    (mean + 5.0 * sd).ceil() as usize + 3
}

struct Cell {
    label: &'static str,
    link: LinkChannel,
    bound_ch: BoundChannel,
    passes: usize,
    snr_db: f64,
}

fn grid() -> Vec<Cell> {
    let awgn = |passes, snr_db, label| Cell {
        label,
        link: LinkChannel::Awgn,
        bound_ch: BoundChannel::Awgn,
        passes,
        snr_db,
    };
    let ray = |passes, snr_db, label| Cell {
        label,
        link: LinkChannel::Rayleigh { tau: 1, csi: true },
        bound_ch: BoundChannel::RayleighCsi { tau: 1 },
        passes,
        snr_db,
    };
    // Cells straddle each channel's waterfall so the comparison sees
    // all-fail, marginal, and all-pass regimes.
    vec![
        awgn(2, 4.0, "awgn/2p/4dB"),
        awgn(2, 6.0, "awgn/2p/6dB"),
        awgn(2, 8.0, "awgn/2p/8dB"),
        awgn(2, 12.0, "awgn/2p/12dB"),
        ray(2, 9.0, "rayleigh/2p/9dB"),
        ray(2, 12.0, "rayleigh/2p/12dB"),
    ]
}

/// The acceptance invariant: quantized BLER within slack of exact BLER
/// on every cell, and under the analytic bound + slack wherever the
/// bound is informative.
#[test]
fn quantized_bler_tracks_exact_within_slack_and_under_the_bound() {
    let params = CodeParams::default().with_n(64).with_b(256);
    let trials = trials_per_cell();
    let mut ws = DecodeWorkspace::new();

    for cell in grid() {
        let exact_run = BlerRun::new(params.clone()).with_channel(cell.link);
        let quant_run = BlerRun::new(params.clone())
            .with_channel(cell.link)
            .with_profile(MetricProfile::Quantized);
        let symbols = cell.passes * exact_run.schedule().symbols_per_pass();

        let exact = exact_run.measure(cell.snr_db, symbols, trials, 0, &mut ws);
        let quant = quant_run.measure(cell.snr_db, symbols, trials, 0, &mut ws);

        let slack = parity_slack(trials, exact.errors + quant.errors);
        let diff = quant.errors.abs_diff(exact.errors);
        assert!(
            diff <= slack,
            "{}: quantized BLER {} vs exact {} differs by {diff} > slack {slack} \
             ({} trials)",
            cell.label,
            quant.bler(),
            exact.bler(),
            trials
        );

        let bound = SpinalBound::new(&params, cell.bound_ch).bler_bound(cell.snr_db, symbols);
        assert!(
            (0.0..=1.0).contains(&bound),
            "{}: bound {bound} is not a probability",
            cell.label
        );
        if bound < 1.0 {
            let cutoff = bound_cutoff(trials, bound);
            assert!(
                quant.errors <= cutoff,
                "{}: quantized errors {} exceed analytic bound cutoff {cutoff} \
                 (bound {bound:.3e}, {} trials)",
                cell.label,
                quant.errors,
                trials
            );
        }
    }
}

/// The determinism half of the acceptance: quantized measurements are
/// bit-identical across serial and service-batched dispatch at thread
/// counts {1, 2, 8}.
#[test]
fn quantized_estimates_are_identical_across_engine_paths() {
    let params = CodeParams::default().with_n(64).with_b(64);
    let trials = if cfg!(debug_assertions) { 12 } else { 48 };
    for link in [
        LinkChannel::Awgn,
        LinkChannel::Rayleigh { tau: 4, csi: true },
    ] {
        let run = BlerRun::new(params.clone())
            .with_channel(link)
            .with_profile(MetricProfile::Quantized);
        let symbols = 2 * run.schedule().symbols_per_pass();
        let mut ws = DecodeWorkspace::new();
        let serial = run.measure(6.0, symbols, trials, 11, &mut ws);
        for threads in [1usize, 2, 8] {
            let svc = DecodeService::new(threads, ServiceConfig::default());
            assert_eq!(
                serial,
                run.measure_with_service(6.0, symbols, trials, 11, &svc),
                "{link:?} threads {threads}"
            );
        }
    }
}

/// Sessions (one per block, all submitted before any wait) and the
/// batch path inherit the quantized profile and match the serial
/// decodes bit for bit at every thread count.
#[test]
fn quantized_sessions_and_batch_match_serial_decodes() {
    use spinal_codes::{
        AwgnChannel, BubbleDecoder, Channel, Encoder, Message, RxSymbols, Schedule, Session,
        SessionBuffer, SessionOptions,
    };
    use std::sync::Arc;
    let params = CodeParams::default().with_n(96).with_b(32);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let rxs: Vec<RxSymbols> = (0..6u64)
        .map(|seed| {
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let msg = Message::random(96, move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 56) as u8
            });
            let mut enc = Encoder::new(&params, &msg);
            let mut rx = RxSymbols::new(schedule.clone());
            let mut ch = AwgnChannel::new(8.0, seed + 17);
            rx.push(&ch.transmit(&enc.next_symbols(2 * schedule.symbols_per_pass())));
            rx
        })
        .collect();
    let dec = Arc::new(BubbleDecoder::new(&params).with_profile(MetricProfile::Quantized));
    let mut ws = DecodeWorkspace::new();
    let serial: Vec<_> = rxs
        .iter()
        .map(|rx| {
            spinal_codes::DecodeRequest::new(&dec, rx)
                .workspace(&mut ws)
                .decode()
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let svc = DecodeService::new(threads, ServiceConfig::default());
        let mut sessions: Vec<Session> = rxs
            .iter()
            .map(|rx| {
                let buffer = SessionBuffer::Symbols(rx.clone());
                let mut session = svc
                    .open_session(&dec, buffer, SessionOptions::default())
                    .expect("admitted");
                session.submit().expect("queued");
                session
            })
            .collect();
        for (s, session) in serial.iter().zip(&mut sessions) {
            let p = session
                .wait()
                .expect("attempt in flight")
                .expect("clean session decode");
            assert_eq!(s.message, p.message, "threads {threads}");
            assert_eq!(s.cost.to_bits(), p.cost.to_bits(), "threads {threads}");
        }
        let buffers = rxs.iter().cloned().map(SessionBuffer::Symbols).collect();
        for (s, p) in serial.iter().zip(svc.decode_batch(&dec, buffers)) {
            let p = p.expect("clean batch decode");
            assert_eq!(s.message, p.message, "batch threads {threads}");
            assert_eq!(
                s.cost.to_bits(),
                p.cost.to_bits(),
                "batch threads {threads}"
            );
        }
    }
}
