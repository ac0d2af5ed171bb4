//! Shard+merge round-trip parity for the sweep runner.
//!
//! A sharded grid must be indistinguishable from the unsharded run:
//! running the same grid as `n` shards, serializing each shard's result
//! document and merging them has to reproduce the unsharded document
//! bit-for-bit (modulo the timing fields `wall_ms` and
//! `analytic_phase_fraction`) — in
//! particular `reduction_vs_baseline` must be recomputed for cells whose
//! O0 baseline landed in a *different* shard, where the per-shard
//! document necessarily carries `null`.

use experiments::json::Json;
use experiments::sweep::{
    expand_grid, merge_sweep_json, outcomes_json, run_cells, MeshSpec, Shard, SweepCell, Workload,
    TIMING_FIELDS,
};
use noc_btr::bits::word::DataFormat;
use noc_btr::core::codec::{CodecKind, CodecScope, ResyncPolicy};
use noc_btr::core::edc::EdcKind;
use noc_btr::core::ordering::{OrderingMethod, TieBreak};
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use noc_btr::noc::fault::{BitErrorRate, FaultMode};
use noc_btr::noc::EngineMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_workload() -> Workload {
    let mut rng = StdRng::seed_from_u64(3);
    let model = Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
        Layer::Activation(Activation::new(ActKind::ReLU)),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(2 * 4 * 4, 4, &mut rng)),
    ]);
    let inputs: Vec<Tensor> = (0..2)
        .map(|_| {
            Tensor::from_vec(
                &[1, 8, 8],
                (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            )
            .unwrap()
        })
        .collect();
    Workload {
        name: "tiny".into(),
        ops: model.inference_ops(),
        inputs,
    }
}

fn grid() -> Vec<SweepCell> {
    expand_grid(
        1,
        &[MeshSpec {
            width: 4,
            height: 4,
            mc_count: 2,
        }],
        &[DataFormat::Fixed8],
        &[OrderingMethod::Baseline, OrderingMethod::Separated],
        &[TieBreak::Stable],
        &[false],
        &[CodecKind::Unencoded, CodecKind::DeltaXor],
        &CodecScope::ALL,
        &[1, 2],
        &[EngineMode::Cycle, EngineMode::Auto],
        &[BitErrorRate::default()],
        &[EdcKind::None],
        &[ResyncPolicy::ReseedOnRetry],
        &[FaultMode::PerFlit],
    )
}

/// The document's cells without the timing fields (`TIMING_FIELDS`:
/// the wall clock, and the share of layers that replayed a recording,
/// which depends on what ran earlier in the process) — but with
/// `engine`, an axis of this grid — sorted by their serialized form for
/// order-independent comparison.
fn comparable_cells(doc: &Json) -> Vec<String> {
    let Some(Json::Arr(cells)) = doc.get("cells") else {
        panic!("document has no cells array");
    };
    let mut rows: Vec<String> = cells
        .iter()
        .map(|cell| {
            let Json::Obj(fields) = cell else {
                panic!("cell is not an object");
            };
            let kept: Vec<(String, Json)> = fields
                .iter()
                .filter(|(key, _)| key == "engine" || !TIMING_FIELDS.contains(&key.as_str()))
                .cloned()
                .collect();
            Json::Obj(kept).to_string_compact()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn shard_merge_equals_unsharded_sweep_bit_for_bit() {
    let workloads = vec![tiny_workload()];
    let cells = grid();
    assert_eq!(cells.len(), 32);

    // The unsharded reference document.
    let unsharded_doc = outcomes_json(&workloads, &run_cells(&workloads, cells.clone(), true));

    // The same grid as 3 shards (a count that does not divide the cell
    // count, so shards are uneven and baselines split from their cells),
    // each serialized exactly as the sweep binary would write it.
    let shard_docs: Vec<(String, Json)> = (0..3)
        .map(|index| {
            let shard = Shard { index, count: 3 };
            let outcomes = run_cells(&workloads, shard.select(cells.clone()), true);
            (
                format!("part{index}.json"),
                outcomes_json(&workloads, &outcomes),
            )
        })
        .collect();

    // At least one per-shard document must carry a null reduction: its
    // ordered cell's O0 baseline landed in a different shard.
    let shard_nulls = shard_docs
        .iter()
        .filter(|(_, doc)| {
            doc.to_string_compact()
                .contains("\"reduction_vs_baseline\":null")
        })
        .count();
    assert!(
        shard_nulls > 0,
        "expected some cross-shard baseline splits in a 3-way shard of {} cells",
        cells.len()
    );

    let merged_doc = merge_sweep_json(&shard_docs).unwrap();
    assert_eq!(
        merged_doc.get("schema"),
        unsharded_doc.get("schema"),
        "merged schema must match the unsharded writer"
    );
    // The merge healed every split: no null reductions remain...
    assert!(
        !merged_doc
            .to_string_compact()
            .contains("\"reduction_vs_baseline\":null"),
        "merge left unrecomputed reductions"
    );
    // ...and every cell (including the recomputed cross-shard
    // reductions and the v4 distinct_inputs audit field) is bit-for-bit
    // identical to the unsharded run, timing aside.
    assert_eq!(
        comparable_cells(&merged_doc),
        comparable_cells(&unsharded_doc)
    );
    assert!(
        unsharded_doc
            .to_string_compact()
            .contains("\"distinct_inputs\":2"),
        "batched cells must record their distinct-input count"
    );
}
