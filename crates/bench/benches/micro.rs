//! Criterion micro-benchmarks for the per-operation costs §4.5 reasons
//! about: hash applications, encoder symbol generation, full bubble
//! decodes, LDPC BP, turbo BCJR, and QAM soft demapping.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::{AwgnChannel, Channel, Complex};
use spinal_core::{
    hash, BubbleDecoder, CodeParams, DecodeRequest, DecodeService, DecodeWorkspace, Encoder,
    HashKind, Message, MetricProfile, RxSymbols, Schedule, ServiceConfig, SessionBuffer,
};
use std::sync::Arc;

fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    g.throughput(Throughput::Elements(1));
    for kind in [HashKind::OneAtATime, HashKind::Lookup3, HashKind::Salsa20] {
        g.bench_function(format!("{kind:?}"), |b| {
            let mut x = 0u32;
            b.iter(|| {
                x = kind.hash(black_box(x), black_box(7));
                x
            })
        });
    }
    g.finish();

    // Sanity anchor: the three functions produce distinct streams.
    assert_ne!(hash::one_at_a_time(1, 2), hash::lookup3(1, 2));
}

fn bench_encoder(c: &mut Criterion) {
    let params = CodeParams::default().with_n(256);
    let mut rng = StdRng::seed_from_u64(1);
    let msg = Message::random(256, || rng.gen());
    let mut g = c.benchmark_group("encoder");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("symbols_1024", |b| {
        b.iter_batched(
            || Encoder::new(&params, &msg),
            |mut enc| enc.next_symbols(1024),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_decoder(c: &mut Criterion) {
    let mut g = c.benchmark_group("bubble_decode");
    for (n, bw) in [(256usize, 256usize), (256, 64), (1024, 256)] {
        let params = CodeParams::default().with_n(n).with_b(bw);
        let mut rng = StdRng::seed_from_u64(2);
        let msg = Message::random(n, || rng.gen());
        let mut enc = Encoder::new(&params, &msg);
        let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let mut rx = RxSymbols::new(schedule.clone());
        let mut ch = AwgnChannel::new(15.0, 3);
        let tx = enc.next_symbols(2 * schedule.symbols_per_pass());
        rx.push(&ch.transmit(&tx));
        let dec = BubbleDecoder::new(&params);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_B{bw}_2passes")),
            &rx,
            |b, rx| b.iter(|| DecodeRequest::new(&dec, black_box(rx)).decode()),
        );
        // Same decode through a warm reusable workspace (how sweeps and
        // the §7.1 attempt loop run it): isolates allocation overhead.
        let mut ws = DecodeWorkspace::new();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_B{bw}_2passes_ws")),
            &rx,
            |b, rx| {
                b.iter(|| {
                    DecodeRequest::new(&dec, black_box(rx))
                        .workspace(&mut ws)
                        .decode()
                })
            },
        );
    }
    g.finish();
}

/// The quantized-profile twin of `bubble_decode`: identical shapes and
/// bench names, so rows pair across the two groups, decoded through the
/// integer fast path — `u16` tables, saturating `u32` costs, radix
/// selection. CI gates the speedup on `n256_B256_2passes` with
/// `spinal-core`'s `quantized_speedup_over_exact` instead, which times
/// the two decodes in alternation, so host load slows both alike.
fn bench_decoder_quant(c: &mut Criterion) {
    let mut g = c.benchmark_group("bubble_decode_quant");
    for (n, bw) in [(256usize, 256usize), (256, 64), (1024, 256)] {
        let params = CodeParams::default().with_n(n).with_b(bw);
        let mut rng = StdRng::seed_from_u64(2);
        let msg = Message::random(n, || rng.gen());
        let mut enc = Encoder::new(&params, &msg);
        let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let mut rx = RxSymbols::new(schedule.clone());
        let mut ch = AwgnChannel::new(15.0, 3);
        let tx = enc.next_symbols(2 * schedule.symbols_per_pass());
        rx.push(&ch.transmit(&tx));
        let dec = BubbleDecoder::new(&params).with_profile(MetricProfile::Quantized);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_B{bw}_2passes")),
            &rx,
            |b, rx| b.iter(|| DecodeRequest::new(&dec, black_box(rx)).decode()),
        );
        let mut ws = DecodeWorkspace::new();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_B{bw}_2passes_ws")),
            &rx,
            |b, rx| {
                b.iter(|| {
                    DecodeRequest::new(&dec, black_box(rx))
                        .workspace(&mut ws)
                        .decode()
                })
            },
        );
    }
    g.finish();
}

/// Thread counts for the `throughput` group: `BENCH_THREADS` as a comma
/// list (e.g. `BENCH_THREADS=1,2` for a quick CI pass), default 1,2,4.
/// A malformed entry fails loudly naming the variable and value (the
/// repo's CLI-error policy) rather than silently recording fewer rows.
fn throughput_thread_counts() -> Vec<usize> {
    let raw = std::env::var("BENCH_THREADS").unwrap_or_else(|_| "1,2,4".to_string());
    let mut counts: Vec<usize> = raw
        .split(',')
        .map(|t| match t.trim().parse::<usize>() {
            Ok(n) => spinal_sim::Threads::new(n).get(),
            Err(_) => {
                eprintln!(
                    "error: invalid value for BENCH_THREADS: '{raw}' (expected a comma-separated \
                     list of positive integers, e.g. 1,2,4)"
                );
                std::process::exit(2);
            }
        })
        .collect();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Decode throughput: blocks/s for a 16-block batch through
/// `DecodeService::decode_batch` at several thread budgets. Each
/// iteration hands the batch a fresh copy of the buffers, as the
/// batch takes them by value. Rows are stamped with the core count
/// (`"threads"` in BENCH_JSON) so `bench_guard --mode throughput` can
/// compare scaling across budgets.
fn bench_throughput(c: &mut Criterion) {
    const BLOCKS: usize = 16;
    let mut g = c.benchmark_group("throughput");
    // Each sample window already spans a whole multi-block batch;
    // shorter budgets keep the group affordable at several thread
    // counts without hurting median stability.
    g.sample_size(12)
        .measurement_time(std::time::Duration::from_millis(1500));
    for (n, bw) in [(256usize, 256usize), (1024, 256)] {
        let params = CodeParams::default().with_n(n).with_b(bw);
        let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let buffers: Vec<SessionBuffer> = (0..BLOCKS)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(10 + i as u64);
                let msg = Message::random(n, || rng.gen());
                let mut enc = Encoder::new(&params, &msg);
                let mut rx = RxSymbols::new(schedule.clone());
                let mut ch = AwgnChannel::new(15.0, 20 + i as u64);
                rx.push(&ch.transmit(&enc.next_symbols(2 * schedule.symbols_per_pass())));
                SessionBuffer::Symbols(rx)
            })
            .collect();
        let dec = Arc::new(BubbleDecoder::new(&params));
        g.throughput(Throughput::Elements(BLOCKS as u64));
        for threads in throughput_thread_counts() {
            let svc = DecodeService::new(threads, ServiceConfig::default());
            g.threads(threads);
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("n{n}_B{bw}_t{threads}")),
                &buffers,
                |b, buffers| b.iter(|| svc.decode_batch(&dec, black_box(buffers).clone())),
            );
        }
    }
    g.finish();
}

fn bench_ldpc_bp(c: &mut Criterion) {
    use spinal_ldpc::{base_matrix, BpDecoder, LdpcCode, WifiRate};
    let code = LdpcCode::from_base(&base_matrix(WifiRate::R12));
    let mut rng = StdRng::seed_from_u64(4);
    let msg: Vec<bool> = (0..code.k()).map(|_| rng.gen()).collect();
    let cw = code.encode(&msg);
    // 2 dB llrs — decodes in a handful of iterations.
    let sigma2 = 10f64.powf(-0.2);
    let llrs: Vec<f64> = cw
        .iter()
        .map(|&b| {
            let x = if b { -1.0 } else { 1.0 };
            2.0 * (x + spinal_channel::math::normal(&mut rng) * sigma2.sqrt()) / sigma2
        })
        .collect();
    let dec = BpDecoder::new();
    let mut g = c.benchmark_group("ldpc");
    g.throughput(Throughput::Elements(648));
    g.bench_function("bp_n648_r12", |b| {
        b.iter(|| dec.decode(&code, black_box(&llrs)))
    });
    g.finish();
}

fn bench_bcjr(c: &mut Criterion) {
    use spinal_strider::TurboCode;
    let code = TurboCode::new(512, 5);
    let mut rng = StdRng::seed_from_u64(5);
    let bits: Vec<bool> = (0..512).map(|_| rng.gen()).collect();
    let cw = code.encode(&bits);
    let sigma2: f64 = 10f64.powf(0.45);
    let mut noisy = |v: &[bool]| -> Vec<f64> {
        v.iter()
            .map(|&b| {
                let x = if b { -1.0 } else { 1.0 };
                2.0 * (x + spinal_channel::math::normal(&mut rng) * sigma2.sqrt()) / sigma2
            })
            .collect()
    };
    let llrs = spinal_strider::TurboLlrs {
        sys: noisy(&cw.sys),
        p1a: noisy(&cw.p1a),
        p2a: noisy(&cw.p2a),
        p1b: noisy(&cw.p1b),
        p2b: noisy(&cw.p2b),
    };
    let mut g = c.benchmark_group("turbo");
    g.throughput(Throughput::Elements(512));
    g.bench_function("decode_k512_8iter", |b| {
        b.iter(|| code.decode(black_box(&llrs)))
    });
    g.finish();
}

fn bench_demap(c: &mut Criterion) {
    use spinal_modem::{Demapper, Qam};
    let d = Demapper::new(Qam::new(8));
    let mut rng = StdRng::seed_from_u64(6);
    let ys: Vec<Complex> = (0..256)
        .map(|_| Complex::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
        .collect();
    let mut g = c.benchmark_group("demap");
    g.throughput(Throughput::Elements(256));
    g.bench_function("qam256_block", |b| {
        b.iter(|| d.llrs_block(black_box(&ys), 0.05))
    });
    g.finish();
}

fn bench_alternative_decoders(c: &mut Criterion) {
    use spinal_core::{MlDecoder, StackDecoder};
    // Same received block, three decoder families (§4.3's comparison).
    let params = CodeParams::default().with_n(16);
    let mut rng = StdRng::seed_from_u64(7);
    let msg = Message::random(16, || rng.gen());
    let mut enc = Encoder::new(&params, &msg);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let mut rx = RxSymbols::new(schedule.clone());
    let mut ch = AwgnChannel::new(12.0, 8);
    let tx = enc.next_symbols(2 * schedule.symbols_per_pass());
    rx.push(&ch.transmit(&tx));

    let mut g = c.benchmark_group("decoder_families_n16");
    let bubble = BubbleDecoder::new(&params);
    g.bench_function("bubble_b256", |b| {
        b.iter(|| DecodeRequest::new(&bubble, black_box(&rx)).decode())
    });
    let ml = MlDecoder::new(&params);
    g.bench_function("exact_ml", |b| b.iter(|| ml.decode(black_box(&rx))));
    let stack = StackDecoder::new(&params, 2.0 * 10f64.powf(-1.2));
    g.bench_function("stack_sequential", |b| {
        b.iter(|| stack.decode(black_box(&rx)))
    });
    g.finish();
}

fn bench_spine_construction(c: &mut Criterion) {
    use spinal_core::spine::compute_spine;
    let params = CodeParams::default().with_n(1024);
    let mut rng = StdRng::seed_from_u64(9);
    let msg = Message::random(1024, || rng.gen());
    let mut g = c.benchmark_group("spine");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("compute_n1024", |b| {
        b.iter(|| compute_spine(black_box(&params), black_box(&msg)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hashes, bench_encoder, bench_decoder, bench_decoder_quant, bench_throughput, bench_ldpc_bp, bench_bcjr, bench_demap, bench_alternative_decoders, bench_spine_construction
}
criterion_main!(benches);
