//! Fixed-seed decode corpus: pins the bubble decoder's exact output
//! (decoded message bytes and path cost) on a grid of parameters and
//! channels.
//!
//! The expected values were recorded from the pre-table-rewrite decoder
//! (PR 1 tree), so this test proves the branch-metric-table / workspace
//! overhaul is behaviour-preserving: same messages byte for byte, same
//! costs up to floating-point reassociation (the table form evaluates
//! `|y|² − 2Re(y·conj(h)·conj(x)) + |h|²|x|²` instead of `|y − h·x|²`).
//!
//! Cases deliberately include marginal SNRs where decoding FAILS — the
//! recorded (wrong) message pins pruning behaviour, not just the easy
//! path. All comparisons are against old-decoder output, not the true
//! message.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::{AwgnChannel, BitChannel, BscChannel, Channel, RayleighChannel};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeEngine, DecodeRequest, DecodeResult, DecodeService, Encoder,
    Message, MetricProfile, Puncturing, RxBits, RxSymbols, Schedule, ServiceConfig, Session,
    SessionBuffer, SessionOptions, TableCache,
};
use std::sync::Arc;

#[derive(Clone, Copy)]
enum Chan {
    /// AWGN at this SNR (dB).
    Awgn(f64),
    /// BSC with this flip probability.
    Bsc(f64),
    /// Rayleigh block fading (SNR dB, coherence) decoded with exact CSI.
    Fading(f64, usize),
}

#[derive(Clone, Copy)]
struct Case {
    n: usize,
    k: usize,
    b: usize,
    d: usize,
    chan: Chan,
    passes: usize,
    seed: u64,
}

/// The corpus grid. Appending cases is fine; editing existing ones
/// invalidates the recorded expectations.
fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    let mut push = |n, k, b, d, chan, passes, seeds: std::ops::Range<u64>| {
        for seed in seeds {
            v.push(Case {
                n,
                k,
                b,
                d,
                chan,
                passes,
                seed,
            });
        }
    };
    push(64, 4, 16, 1, Chan::Awgn(15.0), 2, 0..6);
    push(96, 3, 16, 2, Chan::Awgn(8.0), 3, 0..6);
    push(60, 3, 4, 3, Chan::Awgn(15.0), 2, 0..4);
    push(64, 2, 8, 2, Chan::Awgn(10.0), 2, 0..4);
    push(256, 4, 64, 1, Chan::Awgn(15.0), 2, 0..3);
    push(64, 4, 32, 1, Chan::Bsc(0.02), 10, 0..6);
    push(64, 4, 16, 1, Chan::Fading(25.0, 10), 4, 0..4);
    v
}

fn build_case(case: &Case) -> (CodeParams, SessionBuffer) {
    build_case_with(case, Puncturing::strided8())
}

/// A corpus case's parameters and observations under `puncturing` (the
/// recorded grid uses the default 8-way schedule).
fn build_case_with(case: &Case, puncturing: Puncturing) -> (CodeParams, SessionBuffer) {
    let params = CodeParams::default()
        .with_n(case.n)
        .with_k(case.k)
        .with_b(case.b)
        .with_d(case.d)
        .with_puncturing(puncturing);
    let mut rng = StdRng::seed_from_u64(case.seed);
    let msg = Message::random(params.n, || rng.gen());
    let mut enc = Encoder::new(&params, &msg);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let symbols = case.passes * schedule.symbols_per_pass();
    let rx = match case.chan {
        Chan::Awgn(snr_db) => {
            let mut rx = RxSymbols::new(schedule);
            let mut ch = AwgnChannel::new(snr_db, case.seed.wrapping_add(1000));
            rx.push(&ch.transmit(&enc.next_symbols(symbols)));
            SessionBuffer::Symbols(rx)
        }
        Chan::Bsc(p) => {
            let mut rx = RxBits::new(schedule);
            let mut ch = BscChannel::new(p, case.seed.wrapping_add(1000));
            rx.push(&ch.transmit_bits(&enc.next_bits(symbols)));
            SessionBuffer::Bits(rx)
        }
        Chan::Fading(snr_db, tau) => {
            let mut rx = RxSymbols::new(schedule);
            let mut ch = RayleighChannel::new(snr_db, tau, case.seed.wrapping_add(1000));
            let ys = ch.transmit(&enc.next_symbols(symbols));
            let hs: Vec<_> = (0..ys.len()).map(|i| ch.csi(i).unwrap()).collect();
            rx.push_with_csi(&ys, &hs);
            SessionBuffer::Symbols(rx)
        }
    };
    (params, rx)
}

fn serial_decode(dec: &BubbleDecoder, rx: &SessionBuffer) -> DecodeResult {
    match rx {
        SessionBuffer::Symbols(rx) => DecodeRequest::new(dec, rx).decode(),
        SessionBuffer::Bits(rx) => DecodeRequest::new(dec, rx).decode(),
    }
}

fn decode_case(case: &Case) -> DecodeResult {
    let (params, rx) = build_case(case);
    serial_decode(&BubbleDecoder::new(&params), &rx)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// (message hex, path cost) recorded from the pre-rewrite decoder, in
/// `cases()` order. Regenerate only with a decoder known to match the
/// PR 1 behaviour.
const EXPECTED: &[(&str, f64)] = &[
    ("53615c027e05dbd8", 1.3246815643694219),
    ("cfbf19bf2f97fc85", 1.3391950737745082),
    ("c389a64b7dc556bd", 0.8094641238474116),
    ("0da5ddd8a01c2e9f", 1.4290097092160943),
    ("ad9b40b928c3a4f5", 1.2209302106833206),
    ("4a9c190f86b47511", 1.148342407277653),
    ("53615c027e05dbd84b135010", 14.084784402223406),
    ("cfbf19bf2f97fc851822eb57", 16.19643685779563),
    ("c389a64b7dc556bd7add81b0", 14.198287002487735),
    ("0da5ddd8a01c2e9f8e069333", 17.812256529417432),
    ("ad9b40b928c3a4f56b2e33be", 19.21450273265889),
    ("4a9c190f86b47511e2dae8e3", 13.80600297546926),
    ("53615c027e05dbd0", 1.4486415690787031),
    ("cfbf19bf2f97fc80", 1.5313749453971783),
    ("c389a64b7dc556b0", 0.9954171483444129),
    ("0da5ddd8a01c2e90", 1.6037973515858617),
    ("53615c027e05dbd8", 6.253083822745218),
    ("cfbf19bf2f97fc85", 6.878407225134209),
    ("c389a64b7dc556bd", 5.494871833154689),
    ("0da5ddd8a01c2e9f", 8.182073150319916),
    (
        "53615c027e05dbd84b1350101a181066a01d536746210a456f6022a5e80b4063",
        3.5076610277697315,
    ),
    (
        "cfbf19bf2f97fc851822eb57126516288e79f5a443cb28693c9a2ffb9cba97a6",
        4.463620051292546,
    ),
    (
        "c389a64b7dc556bd7add81b0ace1fa74905e3928a79790d7214e471c5ef698e6",
        3.7101225938949725,
    ),
    ("53615c027e05dbd8", 5.0),
    ("cfbf19bf2f97fc85", 3.0),
    ("c389a64b7dc556bd", 3.0),
    ("0da5ddd8a01c2e9f", 7.0),
    ("ad9b40b928c3a4f5", 6.0),
    ("4a9c190f86b47511", 1.0),
    ("53615c027e05dbd8", 0.22195878234922697),
    ("cfbf19bf2f97fc85", 0.21967991482667396),
    ("c389a64b7dc556bd", 0.20248536914216864),
    ("0da5ddd8a01c2e9f", 0.26458027083009833),
];

/// (message hex, path cost) of every corpus case under
/// [`MetricProfile::Quantized`] on the recorded 8-way grid, in `cases()`
/// order, recorded before the quantized tables were built in one pass
/// from the receive buffer. [`EXPECTED`] pins only the exact profile;
/// this pins the quantized decode across commits, cost bits included.
const EXPECTED_QUANT: &[(&str, f64)] = &[
    ("53615c027e05dbd8", 1.3245553500401106),
    ("cfbf19bf2f97fc85", 1.338514722467028),
    ("c389a64b7dc556bd", 0.8095146509481955),
    ("0da5ddd8a01c2e9f", 1.4286097239100206),
    ("ad9b40b928c3a4f5", 1.2211851272785748),
    ("4a9c190f86b47511", 1.148042762186408),
    ("53615c027e05dbd84b135010", 14.085550138314597),
    ("cfbf19bf2f97fc851822eb57", 16.197213440563235),
    ("c389a64b7dc556bd7add81b0", 14.197463364922424),
    ("0da5ddd8a01c2e9f8e069333", 17.814187681532005),
    ("ad9b40b928c3a4f56b2e33be", 19.215016861486543),
    ("4a9c190f86b47511e2dae8e3", 13.804881312355953),
    ("53615c027e05dbd0", 1.4487897817130002),
    ("cfbf19bf2f97fc80", 1.531154174486366),
    ("c389a64b7dc556b0", 0.9957448332179067),
    ("0da5ddd8a01c2e90", 1.6043601627763266),
    ("53615c027e05dbd8", 6.253354813519095),
    ("cfbf19bf2f97fc85", 6.879015000935732),
    ("c389a64b7dc556bd", 5.494548900893083),
    ("0da5ddd8a01c2e9f", 8.180913490543952),
    (
        "53615c027e05dbd84b1350101a181066a01d536746210a456f6022a5e80b4063",
        3.507755374641598,
    ),
    (
        "cfbf19bf2f97fc851822eb57126516288e79f5a443cb28693c9a2ffb9cba97a6",
        4.46218928394587,
    ),
    (
        "c389a64b7dc556bd7add81b0ace1fa74905e3928a79790d7214e471c5ef698e6",
        3.709175624085784,
    ),
    ("53615c027e05dbd8", 5.0),
    ("cfbf19bf2f97fc85", 3.0),
    ("c389a64b7dc556bd", 3.0),
    ("0da5ddd8a01c2e9f", 7.0),
    ("ad9b40b928c3a4f5", 6.0),
    ("4a9c190f86b47511", 1.0),
    ("53615c027e05dbd8", 0.22256794662396875),
    ("cfbf19bf2f97fc85", 0.22141805135127018),
    ("c389a64b7dc556bd", 0.203460766673923),
    ("0da5ddd8a01c2e9f", 0.2637647131037809),
];

/// [`EXPECTED_QUANT`] on the unpunctured copy of the grid
/// (`build_case_with(case, Puncturing::none())`, the transports' shape).
const EXPECTED_QUANT_UNPUNCTURED: &[(&str, f64)] = &[
    ("53615c027e05dbd8", 1.3244967933370009),
    ("cfbf19bf2f97fc85", 1.3380463567383576),
    ("c389a64b7dc556bd", 0.8093700488734131),
    ("0da5ddd8a01c2e9f", 1.4286168927543756),
    ("ad9b40b928c3a4f5", 1.220654938996776),
    ("4a9c190f86b47511", 1.148493363273504),
    ("53615c027e05dbd84b135010", 14.085591531118748),
    ("cfbf19bf2f97fc851822eb57", 16.196739554343388),
    ("c389a64b7dc556bd7add81b0", 14.197395833340595),
    ("0da5ddd8a01c2e9f8e069333", 17.812301343352086),
    ("ad9b40b928c3a4f56b2e33be", 19.213712690568045),
    ("4a9c190f86b47511e2dae8e3", 13.804592276987668),
    ("53615c027e05dbd0", 1.4482939741610148),
    ("cfbf19bf2f97fc80", 1.5316658207237752),
    ("c389a64b7dc556b0", 0.9959018094603471),
    ("0da5ddd8a01c2e90", 1.604201282898858),
    ("53615c027e05dbd8", 6.253290799364437),
    ("cfbf19bf2f97fc85", 6.878906248058658),
    ("c389a64b7dc556bd", 5.494584629259786),
    ("0da5ddd8a01c2e9f", 8.182248022325183),
    (
        "53615c027e05dbd84b1350101a181066a01d536746210a456f6022a5e80b4063",
        3.509340046211495,
    ),
    (
        "cfbf19bf2f97fc851822eb57126516288e79f5a443cb28693c9a2ffb9cba97a6",
        4.462483274733802,
    ),
    (
        "c389a64b7dc556bd7add81b0ace1fa74905e3928a79790d7214e471c5ef698e6",
        3.7092872719169385,
    ),
    ("53615c027e05dbd8", 5.0),
    ("cfbf19bf2f97fc85", 3.0),
    ("c389a64b7dc556bd", 3.0),
    ("0da5ddd8a01c2e9f", 7.0),
    ("ad9b40b928c3a4f5", 6.0),
    ("4a9c190f86b47511", 1.0),
    ("53615c027e05dbd8", 0.22075833454615332),
    ("cfbf19bf2f97fc85", 0.2193715012604786),
    ("c389a64b7dc556bd", 0.20320435641075438),
    ("0da5ddd8a01c2e9f", 0.264292740662065),
];

/// A decoder and the consecutive corpus cases that share its parameter
/// set, each with its serial decode: the shape the engine's batch path
/// takes (one decoder per batch).
type Batch = (Arc<BubbleDecoder>, Vec<(SessionBuffer, DecodeResult)>);

/// Every corpus case under `profile`, grouped into [`Batch`]es.
fn corpus_batches(profile: MetricProfile) -> Vec<Batch> {
    let mut batches: Vec<(CodeParams, Batch)> = Vec::new();
    for case in cases() {
        let (params, rx) = build_case(&case);
        if batches.last().is_none_or(|(p, _)| *p != params) {
            let dec = Arc::new(BubbleDecoder::new(&params).with_profile(profile));
            batches.push((params, (dec, Vec::new())));
        }
        let (_, (dec, cases)) = batches.last_mut().expect("batch just pushed");
        let serial = serial_decode(dec, &rx);
        cases.push((rx, serial));
    }
    batches.into_iter().map(|(_, batch)| batch).collect()
}

/// Decode every batch through a long-lived `threads`-wide engine and
/// service — one session per case, all submitted before any `wait`,
/// and `decode_batch_parallel` on the symbol batches (the engine's
/// batch path takes no bit buffers) — and require the serial decode bit
/// for bit (message bytes AND cost bits).
fn assert_paths_match_serial(threads: usize, batches: &[Batch], label: &str) {
    let engine = DecodeEngine::new(threads);
    let svc = DecodeService::new(threads, ServiceConfig::default());
    for (b, (dec, cases)) in batches.iter().enumerate() {
        let check = |path: &str, i: usize, out: &DecodeResult| {
            let serial = &cases[i].1;
            assert_eq!(
                out.message, serial.message,
                "{label} batch {b} case {i} {path} at {threads} threads: message drifted"
            );
            assert_eq!(
                out.cost.to_bits(),
                serial.cost.to_bits(),
                "{label} batch {b} case {i} {path} at {threads} threads: cost drifted"
            );
        };
        let mut sessions: Vec<Session> = cases
            .iter()
            .map(|(rx, _)| {
                let mut session = svc
                    .open_session(dec, rx.clone(), SessionOptions::default())
                    .expect("admitted");
                session.submit().expect("queued");
                session
            })
            .collect();
        for (i, session) in sessions.iter_mut().enumerate() {
            let out = session.wait().expect("attempt in flight");
            check("session", i, &out.expect("clean session decode"));
        }
        let symbols: Option<Vec<RxSymbols>> = cases
            .iter()
            .map(|(rx, _)| match rx {
                SessionBuffer::Symbols(rx) => Some(rx.clone()),
                SessionBuffer::Bits(_) => None,
            })
            .collect();
        if let Some(rxs) = symbols {
            let batch = engine.decode_batch_parallel(dec, &rxs);
            assert_eq!(batch.len(), cases.len());
            for (i, out) in batch.iter().enumerate() {
                check("batch", i, out);
            }
        }
    }
}

/// The parallel paths must reproduce the serial decoder bit for bit on
/// every case of the corpus, at every tested thread count, through a
/// long-lived engine and service reused across heterogeneous cases (the
/// deployment shape): sessions on every case, batch on the symbol
/// cases.
#[test]
fn parallel_engine_matches_serial_on_corpus_at_every_thread_count() {
    let batches = corpus_batches(MetricProfile::Exact);
    for threads in [1usize, 2, 3, 8] {
        assert_paths_match_serial(threads, &batches, "exact");
    }
}

/// The quantized profile is NOT pinned against the recorded exact
/// corpus (its equivalence contract is statistical), but it must be
/// exactly as deterministic: on every case — real AWGN, fading and BSC
/// observations across the (n, k, B, d) grid — the serial quantized
/// decode must match the session decodes (and, on symbol cases, the
/// batch decodes) bit for bit at every thread count.
#[test]
fn quantized_profile_is_engine_deterministic_on_corpus() {
    let batches = corpus_batches(MetricProfile::Quantized);
    for threads in [1usize, 2, 8] {
        assert_paths_match_serial(threads, &batches, "quantized");
    }
}

#[test]
fn decoder_output_matches_recorded_corpus() {
    let cases = cases();
    assert_eq!(
        cases.len(),
        EXPECTED.len(),
        "corpus size mismatch: regenerate EXPECTED"
    );
    for (i, (case, &(want_hex, want_cost))) in cases.iter().zip(EXPECTED).enumerate() {
        let out = decode_case(case);
        assert_eq!(
            hex(out.message.as_bytes()),
            want_hex,
            "case {i} (n={} k={} B={} d={} seed={}): decoded message drifted",
            case.n,
            case.k,
            case.b,
            case.d,
            case.seed
        );
        let tol = 1e-9 * want_cost.abs().max(1.0);
        assert!(
            (out.cost - want_cost).abs() <= tol,
            "case {i}: cost {} vs recorded {want_cost}",
            out.cost
        );
    }
}

/// The quantized profile across commits: the serial decode of every
/// corpus case, on the recorded grid and its unpunctured copy, must
/// reproduce [`EXPECTED_QUANT`] and [`EXPECTED_QUANT_UNPUNCTURED`] bit
/// for bit. `every_path` and the determinism tests above hold the other
/// paths equal to this decode.
#[test]
fn quantized_output_matches_recorded_corpus() {
    let cases = cases();
    for (puncturing, expected) in [
        (Puncturing::strided8(), EXPECTED_QUANT),
        (Puncturing::none(), EXPECTED_QUANT_UNPUNCTURED),
    ] {
        assert_eq!(cases.len(), expected.len(), "corpus size mismatch");
        for (i, (case, &(want_hex, want_cost))) in cases.iter().zip(expected).enumerate() {
            let (params, rx) = build_case_with(case, puncturing);
            let dec = BubbleDecoder::new(&params).with_profile(MetricProfile::Quantized);
            let out = serial_decode(&dec, &rx);
            let ctx = format!("{} ways case {i}", puncturing.ways());
            assert_eq!(
                hex(out.message.as_bytes()),
                want_hex,
                "{ctx}: message drifted"
            );
            assert_eq!(
                out.cost.to_bits(),
                want_cost.to_bits(),
                "{ctx}: cost {} vs recorded {want_cost}",
                out.cost
            );
        }
    }
}

/// `case`'s decode through every path a caller can take: a request with
/// and without a [`TableCache`], a service session, and (for symbols) an
/// engine batch.
fn every_path(
    engine: &DecodeEngine,
    svc: &DecodeService,
    dec: &Arc<BubbleDecoder>,
    rx: &SessionBuffer,
) -> Vec<(&'static str, DecodeResult)> {
    let mut cache = TableCache::new();
    let cached = match rx {
        SessionBuffer::Symbols(rx) => DecodeRequest::new(dec, rx).cache(&mut cache).decode(),
        SessionBuffer::Bits(rx) => DecodeRequest::new(dec, rx).cache(&mut cache).decode(),
    };
    let mut session = svc
        .open_session(dec, rx.clone(), SessionOptions::default())
        .expect("admitted");
    session.submit().expect("queued");
    let session = session
        .wait()
        .expect("attempt in flight")
        .expect("clean session decode");
    let mut out = vec![
        ("request", serial_decode(dec, rx)),
        ("cached request", cached),
        ("session", session),
    ];
    if let SessionBuffer::Symbols(rx) = rx {
        let batch = engine.decode_batch_parallel(dec, std::slice::from_ref(rx));
        out.extend(batch.into_iter().map(|r| ("batch", r)));
    }
    out
}

/// The beam ladder's oracles. On the unpunctured copy of the grid, a
/// check that rejects everything leaves exactly the plain decode (after
/// an escalation wherever the ladder runs), and a check that accepts
/// everything leaves exactly a fresh `B/16` decoder's result where
/// `B/16 ≥ 2`, else the plain decode. On the recorded punctured grid
/// the ladder never runs, so both checks leave the plain decode. Every
/// path, under both profiles.
#[test]
fn beam_ladder_equals_its_rungs_on_corpus() {
    let reject: fn(&Message) -> bool = |_| false;
    let accept: fn(&Message) -> bool = |_| true;
    let engine = DecodeEngine::new(2);
    let svc = DecodeService::new(2, ServiceConfig::default());
    let mut laddered = 0;
    for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
        for puncturing in [Puncturing::none(), Puncturing::strided8()] {
            for (i, case) in cases().iter().enumerate() {
                let (params, rx) = build_case_with(case, puncturing);
                let plain = serial_decode(&BubbleDecoder::new(&params).with_profile(profile), &rx);
                let rung = params.b / 16;
                let ladder = puncturing.ways() == 1 && rung >= 2;
                laddered += usize::from(ladder);
                let first_rung = if ladder {
                    let narrow = params.clone().with_b(rung);
                    serial_decode(&BubbleDecoder::new(&narrow).with_profile(profile), &rx)
                } else {
                    plain.clone()
                };
                for (check, want, escalated, which) in [
                    (reject, &plain, ladder, "reject"),
                    (accept, &first_rung, false, "accept"),
                ] {
                    let dec = Arc::new(
                        BubbleDecoder::new(&params)
                            .with_profile(profile)
                            .with_block_check(check),
                    );
                    for (path, out) in every_path(&engine, &svc, &dec, &rx) {
                        let ctx = format!(
                            "{profile:?} {} ways case {i} (B={}) {which}-all check, {path}",
                            puncturing.ways(),
                            params.b
                        );
                        assert_eq!(out.message, want.message, "{ctx}: message");
                        assert_eq!(out.cost.to_bits(), want.cost.to_bits(), "{ctx}: cost");
                        assert_eq!(out.escalated, escalated, "{ctx}: escalated");
                    }
                }
            }
        }
    }
    // B = 32 and B = 64 cases, under both profiles, unpunctured only.
    assert_eq!(laddered, 2 * 9, "the ladder must run on the B >= 32 cases");
}
