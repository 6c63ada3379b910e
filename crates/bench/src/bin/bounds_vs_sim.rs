//! Bound vs. simulation: simulated fixed-budget BLER overlaid with the
//! `spinal-bounds` analytic ML upper bound, across the fig8_1-style SNR
//! grid, for AWGN and Rayleigh block fading (perfect CSI).
//!
//! The union-style bounds (Li et al. for AWGN; Chen et al. for fading)
//! upper-bound *ML* decoding — the bubble decoder at `B ≫ 2^k` tracks ML
//! closely, so the simulated curve should hug the bound from below,
//! collapsing onto it as SNR grows and the union bound tightens. The
//! `bound_oracle` test suite asserts exactly that relationship on a
//! fixed-seed grid; this binary reproduces the figure behind it.
//!
//! ```sh
//! cargo run --release -p bench --bin bounds_vs_sim -- \
//!     [--trials 100] [--passes 2] [--n 64] [--b 256] [--tau 1]
//!     [--snr-start -5] [--snr-end 35] [--snr-step 2] [--sim-only]
//! ```

use bench::{snr_grid, Args};
use spinal_bounds::{BoundChannel, SpinalBound};
use spinal_core::{CodeParams, DecodeService, ServiceConfig};
use spinal_sim::{
    overlay_csv_header, overlay_csv_row, run_overlay_with, BlerRun, LinkChannel, SweepMode,
};

fn main() {
    let args = Args::parse();
    let snrs = snr_grid(&args, -5.0, 35.0, 2.0);
    let trials = args.usize("trials", 100);
    let passes = args.usize("passes", 2);
    let n = args.usize("n", 64);
    let b = args.usize("b", 256);
    let tau = args.usize("tau", 1);
    // Two composed parallelism layers from one budget: SNR points fan
    // out across sweep workers, and each worker decodes its BLER batches
    // through its own DecodeService holding the leftover threads — so a
    // short grid on a wide machine still fills every core, with no
    // oversubscription. Results are bit-identical at any split.
    let budget = bench::cli_threads(&args);
    let metric = bench::cli_metric(&args);
    let (threads, service_threads) = budget.split(snrs.len());
    let mode = if args.has("sim-only") {
        SweepMode::SimOnly
    } else {
        SweepMode::BoundOverlay
    };

    let params = CodeParams::default().with_n(n).with_b(b);
    params.validate();

    let grids: [(&str, LinkChannel, BoundChannel); 2] = [
        ("awgn", LinkChannel::Awgn, BoundChannel::Awgn),
        (
            "rayleigh_csi",
            LinkChannel::Rayleigh { tau, csi: true },
            BoundChannel::RayleighCsi { tau },
        ),
    ];

    for (label, link, bound_ch) in grids {
        let run = BlerRun::new(params.clone())
            .with_channel(link)
            .with_profile(metric);
        let symbols = passes * run.schedule().symbols_per_pass();
        let bound = SpinalBound::new(&params, bound_ch);

        eprintln!(
            "bounds_vs_sim: {label}: {} SNR points × {trials} trials, n={n} B={b} \
             {passes} passes ({symbols} symbols), {threads} sweep threads × \
             {} service threads",
            snrs.len(),
            service_threads.get()
        );

        let points = run_overlay_with(
            &snrs,
            threads,
            || DecodeService::new(service_threads.get(), ServiceConfig::default()),
            |svc, i, snr| {
                let seed_base = (i as u64) << 32;
                run.measure_with_service(snr, symbols, trials, seed_base, svc)
                    .bler()
            },
            mode,
            |snr| bound.bler_bound(snr, symbols),
        );

        println!("# bounds_vs_sim: {label}, n={n} k={} c={} B={b}, {passes} passes = {symbols} symbols, {trials} trials/point", params.k, params.c);
        println!("# error_floor: {:.6e}", bound.error_floor(symbols));
        println!(
            "{}",
            overlay_csv_header("snr_db", "sim_bler", "bound_bler", mode)
        );
        for p in &points {
            println!("{}", overlay_csv_row(p));
        }
        println!();
    }
}
