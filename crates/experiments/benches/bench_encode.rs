//! Throughput of the encode front-end (`order → flitize → codec`),
//! measured at two levels:
//!
//! 1. **`ordering_kernel`** — the descending-order permutation alone:
//!    the counting-sort kernel (`descending_order_into`) against the
//!    preserved comparison sort (`descending_order_comparison_into`) on
//!    identical word sets, both tie rules. This isolates the O(n log n)
//!    → O(n) half of the encode speedup.
//!
//! 2. **`encode`** — the per-task encode stage in the driver's shape:
//!    one layer of kernel groups (weights/bias fixed, activations vary
//!    per task), every task encoded through the two encode paths over the
//!    *same* operands:
//!    - `reference_*` — `encode_task_reference`: eager slot-level
//!      materialization with a full per-task weight sort (the
//!      `DriverMode::Synchronous` oracle);
//!    - `template_*` — `encode_with_template` off pre-rendered weight
//!      flit templates (the hot path: copy the static weight rows,
//!      OR-deal only the activation lanes).
//!
//!    Group setup (template rendering, task operand materialization)
//!    runs once before timing, so the timed region holds per-task encode work only — the quantity the driver's
//!    inline encode stage pays per task of every request.
//!
//! 3. **`window`** — one LeNet conv2 output pixel's 16 channel tasks
//!    (fx8 O2, 150 pairs, 16-lane flits), all reading one activation
//!    window: `per_task_render_conv2` gathers, sorts and renders the
//!    window for every task (`operands_into` +
//!    `encode_with_template_into`); `window_render_conv2` gathers and
//!    sorts it once into a `WindowTable` and
//!    combines it with each channel's template (`encode_window_into`),
//!    as the driver's encode stage does.
//!
//! 4. **`decode`** — the PE side of the same tasks (fx8 O2, 25- and
//!    150-pair tasks, LeNet conv1 and conv2): `reference_decode_*`
//!    recovers the pairs slot by slot (`decode_task_reference`) and
//!    computes the response off them; `plan_decode_*` folds the pairs
//!    straight off the task's dense rows into the MAC through the
//!    layer's `LanePlan` (`decode_fold`), as the driver does.
//!
//! Each reference/fast pair runs on the paired-ratio harness (`common`)
//! and writes `BENCH_ordering_kernel.json` / `BENCH_encode.json` /
//! `BENCH_window.json` / `BENCH_decode.json` (schema `btr-bench-v1`).
//!
//! `BTR_BENCH_ENCODE_SMOKE=1` takes 5 pairs per point and **asserts**
//! the fast paths' reason to exist on the lower quartile of the paired
//! reference/fast time ratios: the template path beats the reference on
//! both configurations and by ≥ 3x on the affiliated one, the counting
//! sort does not lose to the comparison sort on n4096/value, the window
//! render is at least [`WINDOW_RENDER_MIN`] times the per-task render,
//! and the plan decode is at least [`PLAN_DECODE_MIN`] times the
//! reference on both task sizes.

mod common;

use btr_accel::driver::AccelWord;
use btr_accel::tasks::{ConvGeometry, LayerTasks, LayerWords};
use btr_bits::word::Fx8Word;
use btr_bits::{FlitSlab, PayloadBits};
use btr_core::codec::{CodecKind, CodecScope};
use btr_core::edc::EdcKind;
use btr_core::flitize::{EncodeTemplate, WindowTable};
use btr_core::ordering::{OrderingMethod, SortScratch, TieBreak};
use btr_core::plan::LanePlan;
use btr_core::task::NeuronTask;
use btr_core::transport::{
    CodedTransport, EncodedTask, TaskWireMeta, TransportConfig, TransportScratch,
};
use btr_dnn::Tensor;
use common::{iter_batched, Group, SMOKE_PAIRS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One layer's worth of encode work in the driver's shape: `GROUPS`
/// kernel groups (LeNet conv2-ish fan-in), tasks dealt round-robin over
/// the groups like the driver's MC assignment.
const GROUPS: usize = 16;
const FAN_IN: usize = 150;
const TASKS: usize = 512;
const VPF: usize = 8;

struct LayerFixture {
    session: CodedTransport,
    /// Per-task activations (fresh per request).
    activations: Vec<Vec<Fx8Word>>,
    /// Setup products the driver caches per session.
    templates: Vec<EncodeTemplate>,
    /// Prebuilt tasks for the reference path (its slot materialization
    /// is part of the timed oracle, but operand assembly is not).
    tasks: Vec<NeuronTask<Fx8Word>>,
}

impl LayerFixture {
    fn new(ordering: OrderingMethod, tiebreak: TieBreak, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = CodedTransport::new(TransportConfig {
            ordering,
            tiebreak,
            values_per_flit: VPF,
            codec: CodecKind::Unencoded,
            scope: CodecScope::PerPacket,
            edc: EdcKind::None,
        });
        let kernels: Vec<Vec<Fx8Word>> = (0..GROUPS)
            .map(|_| (0..FAN_IN).map(|_| Fx8Word::new(rng.gen())).collect())
            .collect();
        let biases: Vec<Fx8Word> = (0..GROUPS).map(|_| Fx8Word::new(rng.gen())).collect();
        let activations: Vec<Vec<Fx8Word>> = (0..TASKS)
            .map(|_| (0..FAN_IN).map(|_| Fx8Word::new(rng.gen())).collect())
            .collect();
        let mut scratch = TransportScratch::default();
        let templates: Vec<EncodeTemplate> = kernels
            .iter()
            .zip(&biases)
            .map(|(k, &b)| {
                session
                    .weight_template(k, b, None, &mut scratch)
                    .expect("template geometry")
            })
            .collect();
        let tasks: Vec<NeuronTask<Fx8Word>> = activations
            .iter()
            .enumerate()
            .map(|(j, inputs)| {
                NeuronTask::new(
                    inputs.clone(),
                    kernels[j % GROUPS].clone(),
                    biases[j % GROUPS],
                )
                .expect("task geometry")
            })
            .collect();
        Self {
            session,
            activations,
            templates,
            tasks,
        }
    }

    /// Sanity anchor for every timed pass: total payload flits produced.
    fn encode_all(&self, path: EncodePath, scratch: &mut TransportScratch) -> usize {
        let mut flits = 0;
        for (j, inputs) in self.activations.iter().enumerate() {
            let g = j % GROUPS;
            let enc = match path {
                EncodePath::Reference => self
                    .session
                    .encode_task_reference(&self.tasks[j])
                    .expect("reference encode"),
                EncodePath::Template => self
                    .session
                    .encode_with_template(&self.templates[g], inputs, scratch)
                    .expect("template encode"),
            };
            flits += enc.wire_rows().len();
        }
        flits
    }
}

#[derive(Clone, Copy)]
enum EncodePath {
    Reference,
    Template,
}

/// The smoke gate's floor on the paired per-task/window render ratio.
/// Ten smoke runs on a 2-hart Xeon host measured lower quartiles of at
/// least 5.0x (`taskset -c 0`) and 4.7x (both harts).
const WINDOW_RENDER_MIN: f64 = 3.0;

/// One LeNet conv2 output pixel in the driver's encode shape: the layer's
/// 16 channel templates (fx8 O2, 6x5x5 = 150 pairs, 16-lane flits) and
/// the layer's task source over one random 6x14x14 input.
struct WindowFixture {
    session: CodedTransport,
    source: LayerTasks<Fx8Word>,
    templates: Vec<EncodeTemplate>,
    /// The pixel's tasks, one per output channel.
    tasks: Vec<usize>,
}

impl WindowFixture {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tensor = |shape: &[usize]| {
            let len = shape.iter().product();
            Tensor::from_vec(shape, (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .expect("tensor shape")
        };
        let (input, weight, bias) = (tensor(&[6, 14, 14]), tensor(&[16, 6, 5, 5]), tensor(&[16]));
        let xs = std::slice::from_ref(&input);
        let words = LayerWords::<Fx8Word>::derive(xs, &weight, &bias, false);
        let (inputs, to_weight, to_bias) = words.mappers();
        let geo = ConvGeometry::from_shapes(&input, &weight, 1, 0);
        let source = LayerTasks::conv(xs, &weight, &bias, geo, inputs, to_weight, to_bias);
        let session = CodedTransport::new(TransportConfig::new(OrderingMethod::Separated, 16));
        let mut scratch = TransportScratch::default();
        let templates = (0..source.group_count())
            .map(|g| {
                session
                    .weight_template(
                        source.group_weights(g),
                        source.bias_word(g),
                        None,
                        &mut scratch,
                    )
                    .expect("template geometry")
            })
            .collect();
        // A pixel in the middle of the 10x10 output.
        let (pixels, pixel) = (geo.out_h * geo.out_w, 55);
        Self {
            session,
            tasks: (0..geo.out_channels)
                .map(|oc| oc * pixels + pixel)
                .collect(),
            source,
            templates,
        }
    }

    /// Encodes every task of the pixel the per-task way, handing each to
    /// `sink`.
    fn per_task(
        &self,
        (scratch, inputs, out): &mut (TransportScratch, Vec<Fx8Word>, EncodedTask<Fx8Word>),
        mut sink: impl FnMut(&EncodedTask<Fx8Word>),
    ) {
        for &j in &self.tasks {
            self.source.operands_into(j, inputs);
            let template = &self.templates[self.source.weight_group(j)];
            self.session
                .encode_with_template_into(template, inputs, scratch, out);
            sink(out);
        }
    }

    /// Encodes every task of the pixel off one prepared window, handing
    /// each to `sink`.
    fn shared_window(
        &self,
        (table, sort, perm, inputs, out): &mut WindowScratch,
        mut sink: impl FnMut(&EncodedTask<Fx8Word>),
    ) {
        let window = self.source.window_of(self.tasks[0]);
        self.source.window_into(window, inputs);
        table.reset(&self.templates[0], 1);
        let index = table.push(inputs, TieBreak::Stable, sort, perm);
        for &j in &self.tasks {
            let template = &self.templates[self.source.weight_group(j)];
            self.session
                .encode_window_into(template, table.window(index), out);
            sink(out);
        }
    }
}

/// The buffers [`WindowFixture::shared_window`] reuses.
type WindowScratch = (
    WindowTable,
    SortScratch,
    Vec<usize>,
    Vec<Fx8Word>,
    EncodedTask<Fx8Word>,
);

/// The smoke gate's floor on the paired reference/plan decode ratio.
/// Ten smoke runs on a 2-hart Xeon host measured lower quartiles of at
/// least 3.8x (`taskset -c 0`) and 4.5x (both harts) on either size.
const PLAN_DECODE_MIN: f64 = 2.5;

/// One layer's delivered requests in the driver's decode shape: fx8 O2
/// tasks of `n` pairs over 16-lane flits, each held both as the images
/// the reference decodes and as the dense rows the plan kernel reads.
struct DecodeFixture {
    session: CodedTransport,
    plan: LanePlan,
    tasks: Vec<(TaskWireMeta, Vec<PayloadBits>, FlitSlab)>,
}

impl DecodeFixture {
    fn new(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = CodedTransport::new(TransportConfig::new(OrderingMethod::Separated, 16));
        let mut word = || Fx8Word::new(rng.gen());
        let tasks = (0..TASKS / 4)
            .map(|_| {
                let task = NeuronTask::new(
                    (0..n).map(|_| word()).collect(),
                    (0..n).map(|_| word()).collect(),
                    word(),
                )
                .expect("task geometry");
                let enc: EncodedTask<Fx8Word> = session.encode_task(&task).expect("encode");
                (
                    enc.wire_meta(),
                    enc.payload_flits(),
                    enc.wire_rows().clone(),
                )
            })
            .collect();
        Self {
            session,
            plan: LanePlan::for_word::<Fx8Word>(OrderingMethod::Separated, n, 16)
                .expect("plan geometry"),
            tasks,
        }
    }

    /// XOR of every task's response bits, decoding slot by slot.
    fn reference(&self) -> u64 {
        self.tasks.iter().fold(0, |acc, (meta, images, _)| {
            let rec = self
                .session
                .decode_task_reference::<Fx8Word>(meta, images.as_slice())
                .expect("reference decode");
            acc ^ Fx8Word::response_bits(&rec)
        })
    }

    /// XOR of every task's response bits, folding through the plan.
    fn plan(&self, scratch: &mut TransportScratch) -> u64 {
        self.tasks.iter().fold(0, |acc, (meta, _, rows)| {
            let (mac, bias) = self
                .session
                .decode_fold(
                    &self.plan,
                    meta,
                    rows,
                    scratch,
                    Fx8Word::ACC_ZERO,
                    Fx8Word::mac,
                )
                .expect("plan decode");
            acc ^ Fx8Word::finish(mac, bias)
        })
    }
}

fn main() {
    let smoke = std::env::var("BTR_BENCH_ENCODE_SMOKE").is_ok();
    let seed = 42u64;

    // Counting-sort kernel vs the preserved comparison sort, both tie
    // rules, on a conv-fan-in-sized and a large word set.
    let mut rng = StdRng::seed_from_u64(seed);
    let small: Vec<Fx8Word> = (0..FAN_IN).map(|_| Fx8Word::new(rng.gen())).collect();
    let large: Vec<Fx8Word> = (0..4096).map(|_| Fx8Word::new(rng.gen())).collect();
    let mut group = Group::new("ordering_kernel", if smoke { SMOKE_PAIRS } else { 30 });
    let mut counting_value_n4096 = 0.0;
    for (shape, values) in [("n150", &small), ("n4096", &large)] {
        for tiebreak in [TieBreak::Stable, TieBreak::Value] {
            let tie = format!("{tiebreak:?}").to_lowercase();
            let ratio = group.pair(
                &format!("comparison_{tie}_{shape}"),
                iter_batched(
                    || (SortScratch::default(), Vec::new()),
                    |(mut scratch, mut out)| {
                        tiebreak.descending_order_comparison_into(
                            black_box(values),
                            &mut scratch,
                            &mut out,
                        );
                        out
                    },
                ),
                &format!("counting_{tie}_{shape}"),
                iter_batched(
                    || (SortScratch::default(), Vec::new()),
                    |(mut scratch, mut out)| {
                        tiebreak.descending_order_into(black_box(values), &mut scratch, &mut out);
                        out
                    },
                ),
            );
            if (tiebreak, shape) == (TieBreak::Value, "n4096") {
                counting_value_n4096 = ratio;
            }
        }
    }
    group.finish();

    // The encode stage in the driver's two ordered configurations:
    // affiliated/stable (O1 — no per-task sort at all on the template
    // path) and separated/value (O2 — the activations still counting-sort
    // per task and the pair index rides the side channel).
    let affiliated = LayerFixture::new(OrderingMethod::Affiliated, TieBreak::Stable, seed);
    let separated = LayerFixture::new(OrderingMethod::Separated, TieBreak::Value, seed);
    let mut group = Group::new("encode", if smoke { SMOKE_PAIRS } else { 20 });
    let mut ratios = Vec::new();
    for (config, fixture) in [("affiliated", &affiliated), ("separated", &separated)] {
        let expect = fixture.encode_all(EncodePath::Reference, &mut TransportScratch::default());
        assert_eq!(
            fixture.encode_all(EncodePath::Template, &mut TransportScratch::default()),
            expect,
            "{config}: both paths emit the same wire flits"
        );
        let [reference, template] = [EncodePath::Reference, EncodePath::Template].map(|path| {
            iter_batched(TransportScratch::default, move |mut scratch| {
                fixture.encode_all(black_box(path), &mut scratch)
            })
        });
        let ratio = group.pair(
            &format!("reference_{config}"),
            reference,
            &format!("template_{config}"),
            template,
        );
        let per_task = |name: &str| group.point(name).median_ns() / TASKS as f64;
        println!(
            "  {config:<11} reference {:>8.0} ns/task, template {:>8.0} ns/task (median)",
            per_task(&format!("reference_{config}")),
            per_task(&format!("template_{config}"))
        );
        ratios.push((config, ratio));
    }
    group.finish();

    // One conv2 pixel's channel tasks: per-task render vs one shared
    // window.
    let fixture = WindowFixture::new(seed);
    let per_task_buffers = || {
        (
            TransportScratch::default(),
            Vec::new(),
            fixture.session.task_buffer(),
        )
    };
    let window_buffers = || -> WindowScratch {
        (
            WindowTable::default(),
            SortScratch::default(),
            Vec::new(),
            Vec::new(),
            fixture.session.task_buffer(),
        )
    };
    let (mut want, mut got) = (Vec::new(), Vec::new());
    fixture.per_task(&mut per_task_buffers(), |t| want.push(t.clone()));
    fixture.shared_window(&mut window_buffers(), |t| got.push(t.clone()));
    assert!(want == got, "both renders encode the same tasks");
    let mut group = Group::new("window", if smoke { SMOKE_PAIRS } else { 20 });
    let (mut per_task, mut shared) = (per_task_buffers(), window_buffers());
    let window_ratio = group.pair(
        "per_task_render_conv2",
        common::iter(|| {
            let mut flits = 0;
            fixture.per_task(&mut per_task, |t| flits += t.wire_rows().len());
            flits
        }),
        "window_render_conv2",
        common::iter(|| {
            let mut flits = 0;
            fixture.shared_window(&mut shared, |t| flits += t.wire_rows().len());
            flits
        }),
    );
    let per_pixel = |name: &str| group.point(name).median_ns() / 1e3;
    println!(
        "  conv2 pixel (16 tasks): per-task {:>6.2} us, window {:>6.2} us (median)",
        per_pixel("per_task_render_conv2"),
        per_pixel("window_render_conv2")
    );
    group.finish();

    // The PE decode of LeNet conv1- and conv2-sized O2 tasks.
    let mut group = Group::new("decode", if smoke { SMOKE_PAIRS } else { 20 });
    let mut decode_ratios = Vec::new();
    for n in [25usize, 150] {
        let fixture = DecodeFixture::new(n, seed);
        assert_eq!(
            fixture.plan(&mut TransportScratch::default()),
            fixture.reference(),
            "n{n}: both decodes answer the same responses"
        );
        let ratio = group.pair(
            &format!("reference_decode_n{n}"),
            common::iter(|| fixture.reference()),
            &format!("plan_decode_n{n}"),
            iter_batched(TransportScratch::default, |mut scratch| {
                fixture.plan(&mut scratch)
            }),
        );
        let per_task = |name: &str| group.point(name).median_ns() / fixture.tasks.len() as f64;
        println!(
            "  n{n:<4} reference {:>8.0} ns/task, plan {:>8.0} ns/task (median)",
            per_task(&format!("reference_decode_n{n}")),
            per_task(&format!("plan_decode_n{n}"))
        );
        decode_ratios.push((n, ratio));
    }
    group.finish();

    if smoke {
        assert!(
            window_ratio >= WINDOW_RENDER_MIN,
            "window render under {WINDOW_RENDER_MIN}x the per-task render ({window_ratio:.2}x)"
        );
        for (n, ratio) in decode_ratios {
            assert!(
                ratio >= PLAN_DECODE_MIN,
                "n{n}: plan decode under {PLAN_DECODE_MIN}x the reference ({ratio:.2}x)"
            );
        }
        // Dealing activations into a pre-rendered weight image must
        // clearly beat the full re-sorting slot-level oracle. The
        // affiliated point carries the 3x gate: it is the pure template
        // win (no per-task sort left); the separated point still pays
        // the per-task activation sort on both sides, so it must win,
        // by no fixed multiple.
        for (config, ratio) in ratios {
            assert!(
                ratio > 1.0,
                "{config}: template path lost to the reference ({ratio:.2}x)"
            );
            if config == "affiliated" {
                assert!(
                    ratio >= 3.0,
                    "affiliated encode kernel under 3x the reference ({ratio:.2}x)"
                );
            }
        }
        assert!(
            counting_value_n4096 >= 1.0,
            "counting sort lost to the comparison sort on n4096/value \
             ({counting_value_n4096:.2}x)"
        );
        println!(
            "smoke check: template > reference on both configs and >= 3x affiliated, \
             counting sort >= comparison sort ({counting_value_n4096:.2}x), \
             window render >= {WINDOW_RENDER_MIN}x per-task, \
             plan decode >= {PLAN_DECODE_MIN}x reference"
        );
    }
}
