//! Quickstart: order one DNN task, count the bit transitions it saves.
//!
//! Walks the core API end to end: build a neuron task, flitize it with
//! each ordering method, stream the flits over a link, and compare bit
//! transitions — then verify the receiver recovers the exact MAC result.
//!
//! Run with: `cargo run --release --example quickstart`

use noc_btr::bits::transition::stream_transitions;
use noc_btr::bits::word::Fx8Word;
use noc_btr::core::flitize::order_task_with;
use noc_btr::core::ordering::{OrderingMethod, TieBreak};
use noc_btr::core::task::NeuronTask;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A 5x5 convolution task, exactly Fig. 2's example: 25 inputs,
    // 25 weights, 1 bias.
    let mut rng = StdRng::seed_from_u64(42);
    let inputs: Vec<Fx8Word> = (0..25).map(|_| Fx8Word::new(rng.gen())).collect();
    // Trained-like weights: small magnitudes around zero.
    let weights: Vec<Fx8Word> = (0..25)
        .map(|_| Fx8Word::new(rng.gen_range(-6..=6)))
        .collect();
    let task = NeuronTask::new(inputs, weights, Fx8Word::new(3)).expect("valid task");
    let reference_mac = task.mac_i64();

    println!("one conv task: 25 pairs + bias, 16 values per flit (8 inputs | 8 weights)\n");
    println!(
        "{:<26} {:>7} {:>13} {:>12}",
        "method", "flits", "transitions", "MAC correct"
    );
    for method in OrderingMethod::ALL {
        let ordered = order_task_with(&task, method, 16, TieBreak::Stable).expect("flitizes");
        let flits = ordered.payload_flits();
        let transitions = stream_transitions(&flits);
        let recovered = ordered.recover().expect("recovers");
        println!(
            "{:<26} {:>7} {:>13} {:>12}",
            method.to_string(),
            flits.len(),
            transitions,
            recovered.mac_i64() == reference_mac
        );
    }
    println!("\nSame values, same result — fewer wires toggling.");
}
