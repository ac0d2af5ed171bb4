//! Bit-level anatomy of DNN weights (the Fig. 10/11 intuition).
//!
//! Prints the per-bit-position `'1'` probability and the popcount
//! histogram for float-32 and fixed-8 encodings of LeNet weights, showing
//! the sign/exponent/mantissa structure and the bimodal fixed-point
//! popcounts that make the ordering method work.
//!
//! Run with: `cargo run --release --example weight_bitscope`

use noc_btr::bits::stats::{BitPositionStats, PopcountHistogram};
use noc_btr::bits::word::{DataWord, F32Word, Fx8Word};
use noc_btr::bits::Quantizer;
use noc_btr::dnn::models::lenet;
use noc_btr::dnn::quant::kernel_packets;

fn bar(p: f64, scale: usize) -> String {
    "#".repeat((p * scale as f64).round() as usize)
}

fn main() {
    let model = lenet::build(42);
    let weights = kernel_packets(&model.inference_ops(), 25).concat();
    println!("{} weights from LeNet (random init)\n", weights.len());

    // float-32 view.
    let mut f32_stats = BitPositionStats::new(32);
    for &w in &weights {
        f32_stats.observe(F32Word::new(w));
    }
    let probs = f32_stats.one_probability();
    println!("float-32 '1' probability per bit (MSB first: sign | exponent | mantissa)");
    for (i, pos) in (0..32).rev().enumerate() {
        let label = match i {
            0 => "sign",
            1..=8 => "exp ",
            _ => "mant",
        };
        println!(
            "bit {:>2} [{label}] {:>6.3} {}",
            i + 1,
            probs[pos],
            bar(probs[pos], 40)
        );
    }

    // fixed-8 view (global Q0.7 format).
    let q = Quantizer::new(1.0, 8).expect("valid scale");
    let mut hist = PopcountHistogram::new(8);
    for &w in &weights {
        hist.observe(q.quantize_fx8(w));
    }
    println!("\nfixed-8 popcount histogram (bimodal: positives low, negatives high)");
    let total = hist.total() as f64;
    for (pc, &count) in hist.counts().iter().enumerate() {
        let p = count as f64 / total;
        println!("popcount {pc}: {:>6.3} {}", p, bar(p, 60));
    }
    println!(
        "\nmean popcount: {:.2} of {} bits",
        hist.mean(),
        Fx8Word::WIDTH
    );
}
