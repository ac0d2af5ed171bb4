//! Replays one fixed-8 dispatch through the crates' public stage
//! functions, so the traced run can time each stage from outside the
//! driver: task gather (`LayerTasks`), weight templates and encode
//! (`CodedTransport`), injection (`TaskPort`), the engine
//! (`Simulator::run_until_idle`, or `queued_phase_is_contention_free`
//! then `replay_queued_analytic`), decode, and host ops
//! (`InferenceOp::execute`).
//!
//! The replay sends a layer's requests as one phase and its responses
//! as a second, where the driver overlaps them. Outputs and request
//! flits do not depend on that schedule and are checked against the
//! driver's own result; cycle counts do and are not compared.

use crate::trace::Tracer;
use btr_accel::driver::AccelWord;
use btr_accel::tasks::{ConvGeometry, LayerQuantizers, LayerTasks};
use btr_accel::AccelConfig;
use btr_bits::word::{DataFormat, Fx8Word};
use btr_bits::PayloadBits;
use btr_core::flitize::EncodeTemplate;
use btr_core::task::RecoveredTask;
use btr_core::transport::{
    CodedTransport, EncodedTask, TaskWireMeta, TransportConfig, TransportScratch,
};
use btr_core::{CodecScope, LinkCodecState, OrderingMethod};
use btr_dnn::{InferenceOp, Tensor};
use btr_noc::config::NocConfig;
use btr_noc::routing::hop_count;
use btr_noc::session::TaskPort;
use btr_noc::sim::{DeliveredPacket, Simulator};
use btr_noc::EngineMode;

/// Counts gathered while replaying one dispatch.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Output tensors, one per input.
    pub outputs: Vec<Tensor>,
    /// Request flits (head + payload) per NoC layer, in op order.
    pub request_flits: Vec<u64>,
    /// Request tasks encoded.
    pub tasks: u64,
    /// Kernel groups whose weight template was built.
    pub groups: u64,
    /// Flit-hops the cycle engine stepped.
    pub step_flit_hops: u64,
    /// Flit-hops the analytic replay covered.
    pub replay_flit_hops: u64,
    /// Request phases classified by `queued_phase_is_contention_free`.
    pub phases_checked: u64,
    /// Of those, phases proven contention-free.
    pub phases_eligible: u64,
}

/// One conv/linear layer's tasks, gathered and encoded.
struct EncodedLayer {
    source: LayerTasks<Fx8Word>,
    qs: Vec<LayerQuantizers>,
    out_shape: Vec<usize>,
    transport: CodedTransport,
    encoded: Vec<EncodedTask<Fx8Word>>,
}

/// Gathers (`accel.gather`), builds the weight templates
/// (`core.template`) and encodes (`core.encode`) one NoC layer.
fn encode_layer(
    op: &InferenceOp,
    xs: &[Tensor],
    config: &AccelConfig,
    tracer: &mut Tracer,
) -> Result<EncodedLayer, String> {
    let (weight, bias) = match op {
        InferenceOp::Conv { weight, bias, .. } | InferenceOp::Linear { weight, bias } => {
            (weight, bias)
        }
        _ => return Err("not a NoC op".into()),
    };
    let gather = tracer.enter("accel.gather");
    let qs: Vec<LayerQuantizers> = xs
        .iter()
        .map(|x| LayerQuantizers::derive_with(x, weight, bias, config.global_fx8_weights))
        .collect();
    let q0 = qs[0];
    let mappers: Vec<Box<dyn Fn(f32) -> Fx8Word + Send + Sync>> = qs
        .iter()
        .map(|&q| Box::new(move |x| q.input.quantize_fx8(x)) as Box<_>)
        .collect();
    let to_weight = move |w| q0.weight.quantize_fx8(w);
    let to_bias = move |b| q0.bias.quantize_fx8(b);
    let (source, out_shape) = match op {
        InferenceOp::Conv {
            stride, padding, ..
        } => {
            let geo = ConvGeometry::from_shapes(&xs[0], weight, *stride, *padding);
            (
                LayerTasks::conv(xs, weight, bias, geo, mappers, to_weight, to_bias),
                vec![geo.out_channels, geo.out_h, geo.out_w],
            )
        }
        _ => (
            LayerTasks::linear(xs, weight, bias, mappers, to_weight, to_bias),
            vec![weight.shape()[0]],
        ),
    };
    let operands: Vec<Vec<Fx8Word>> = (0..source.total())
        .map(|j| {
            let mut buf = Vec::new();
            source.operands_into(j, &mut buf);
            buf
        })
        .collect();
    tracer.exit(gather);

    let transport = CodedTransport::new(TransportConfig {
        ordering: config.ordering,
        tiebreak: config.tiebreak,
        values_per_flit: config.values_per_flit,
        codec: config.codec,
        scope: config.codec_scope,
        edc: config.edc,
    });
    let mut scratch = TransportScratch::default();
    let templates = tracer.span("core.template", || {
        (0..source.group_count())
            .map(|g| {
                let weights = source.group_weights(g);
                let wperm = (config.ordering != OrderingMethod::Baseline)
                    .then(|| config.tiebreak.descending_order(weights));
                transport.weight_template(
                    weights,
                    source.bias_word(g),
                    wperm.as_deref(),
                    &mut scratch,
                )
            })
            .collect::<Result<Vec<EncodeTemplate>, _>>()
    });
    let templates = templates.map_err(|e| e.to_string())?;
    let encoded = tracer.span("core.encode", || {
        operands
            .iter()
            .enumerate()
            .map(|(j, inputs)| {
                transport.encode_with_template(
                    &templates[source.weight_group(j)],
                    inputs,
                    &mut scratch,
                )
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let encoded = encoded.map_err(|e| e.to_string())?;
    Ok(EncodedLayer {
        source,
        qs,
        out_shape,
        transport,
        encoded,
    })
}

/// Partitions the PEs into one balanced region per MC exactly as the
/// driver does (nearest non-full MC, most-constrained PE first), so the
/// replay sends each task to the PE the driver would.
fn pe_regions(noc: &NocConfig) -> Vec<Vec<usize>> {
    let mcs = &noc.mc_nodes;
    let pes = noc.pe_nodes();
    let cap = pes.len().div_ceil(mcs.len());
    let mut regions: Vec<Vec<usize>> = vec![Vec::new(); mcs.len()];
    let mut order = pes;
    order.sort_by_key(|&pe| {
        std::cmp::Reverse(
            mcs.iter()
                .map(|&mc| hop_count(noc, mc, pe))
                .min()
                .unwrap_or(0),
        )
    });
    for pe in order {
        let best = mcs
            .iter()
            .enumerate()
            .filter(|(mi, _)| regions[*mi].len() < cap)
            .min_by_key(|(_, &mc)| hop_count(noc, mc, pe))
            .map(|(mi, _)| mi)
            .expect("capacity covers all PEs");
        regions[best].push(pe);
    }
    for region in &mut regions {
        region.sort_unstable();
    }
    regions
}

/// Replays one dispatch of `inputs` under `config` (fixed-8, perfect
/// wires) inside an `accel.dispatch` span.
pub fn replay_dispatch(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
    tracer: &mut Tracer,
) -> Result<ReplayReport, String> {
    if config.format != DataFormat::Fixed8 || config.noc.fault.is_some() {
        return Err("the replay models fixed-8 on perfect wires only".into());
    }
    let mut sim = Simulator::new(config.noc.clone());
    let regions = pe_regions(&config.noc);
    let mut report = ReplayReport::default();
    let dispatch = tracer.enter("accel.dispatch");
    let mut xs = inputs.to_vec();
    for op in ops {
        if op.is_noc_op() {
            xs = noc_layer(op, &xs, config, &mut sim, &regions, tracer, &mut report)?;
        } else {
            xs = tracer.span("dnn.host_op", || xs.iter().map(|x| op.execute(x)).collect());
        }
    }
    tracer.exit(dispatch);
    report.outputs = xs;
    Ok(report)
}

/// Runs whatever is queued at the NIs through the engine the config
/// selects, recording which engine covered how many flit-hops.
fn run_phase(
    sim: &mut Simulator,
    config: &AccelConfig,
    analytic_ok: bool,
    tracer: &mut Tracer,
    report: &mut ReplayReport,
) -> Result<(), String> {
    let hops_before = sim.stats().flit_hops;
    let analytic = config.engine != EngineMode::Cycle && analytic_ok;
    if analytic {
        tracer.span("noc.replay", || sim.replay_queued_analytic(true));
    } else {
        tracer
            .span("noc.step", || {
                sim.run_until_idle(config.max_cycles_per_layer)
            })
            .map_err(|e| e.to_string())?;
    }
    let hops = sim.stats().flit_hops - hops_before;
    if analytic {
        report.replay_flit_hops += hops;
    } else {
        report.step_flit_hops += hops;
    }
    Ok(())
}

/// Accepts every delivery (the wires are perfect, so each must verify
/// clean) and hands it to `f`.
fn accept_all(
    port: &TaskPort<CodedTransport>,
    sim: &mut Simulator,
    delivered: &[DeliveredPacket],
    mut f: impl FnMut(&DeliveredPacket) -> Result<(), String>,
) -> Result<(), String> {
    for d in delivered {
        match port.accept::<Fx8Word>(sim, d) {
            Ok(Some(_)) => f(d)?,
            Ok(None) => return Err("a perfect-wire delivery was NACKed".into()),
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

fn noc_layer(
    op: &InferenceOp,
    xs: &[Tensor],
    config: &AccelConfig,
    sim: &mut Simulator,
    regions: &[Vec<usize>],
    tracer: &mut Tracer,
    report: &mut ReplayReport,
) -> Result<Vec<Tensor>, String> {
    let layer = encode_layer(op, xs, config, tracer)?;
    let EncodedLayer {
        source,
        qs,
        out_shape,
        transport,
        encoded,
    } = layer;
    let total = source.total();
    let mcs = &config.noc.mc_nodes;
    let dests: Vec<(usize, usize)> = (0..total)
        .map(|j| {
            let mi = j % mcs.len();
            let region = &regions[mi];
            (region[(j / mcs.len()) % region.len()], mcs[mi])
        })
        .collect();
    let port = TaskPort::new(transport);

    // Requests, MC by MC in task order (the driver's per-MC feed order).
    let mut encoded: Vec<Option<EncodedTask<Fx8Word>>> = encoded.into_iter().map(Some).collect();
    let mut metas: Vec<Option<TaskWireMeta>> = vec![None; total];
    let mut flits = 0u64;
    let injected: Result<(), String> = tracer.span("noc.inject", || {
        for mi in 0..mcs.len() {
            for j in (mi..total).step_by(mcs.len()) {
                let task = encoded[j].take().expect("each task is sent once");
                let (pe, mc) = dests[j];
                let sent = port
                    .send_encoded(sim, mc, pe, task, j as u64)
                    .map_err(|e| e.to_string())?;
                flits += sent.flit_count as u64;
                metas[j] = Some(sent.meta);
            }
        }
        Ok(())
    });
    injected?;
    let eligible = tracer.span("noc.check", || sim.queued_phase_is_contention_free());
    report.phases_checked += 1;
    report.phases_eligible += u64::from(eligible);
    run_phase(sim, config, eligible, tracer, report)?;

    // PE side: decode each request and compute its MAC response.
    let mut delivered = Vec::new();
    let mut staged: Vec<(usize, u64)> = Vec::with_capacity(total);
    let decoded = tracer.span("core.decode", || {
        sim.drain_all_delivered_into(&mut delivered);
        let mut scratch = TransportScratch::default();
        let mut recovered = RecoveredTask {
            pairs: Vec::new(),
            bias: Fx8Word::new(0),
        };
        accept_all(&port, sim, &delivered, |d| {
            let j = d.tag as usize;
            let meta = metas[j].as_ref().ok_or("delivery of an unsent task")?;
            port.session()
                .decode_task_into::<Fx8Word>(meta, &d.payload_flits, &mut scratch, &mut recovered)
                .map_err(|e| e.to_string())?;
            staged.push((j, Fx8Word::response_bits(&recovered)));
            Ok(())
        })
    });
    decoded?;
    if staged.len() != total {
        return Err(format!("{} of {total} requests delivered", staged.len()));
    }

    // Responses, then the MC-side decode.
    let responded: Result<(), String> = tracer.span("noc.respond", || {
        for &(j, bits) in &staged {
            let image = port.session().encode_response::<Fx8Word>(bits);
            let (pe, mc) = dests[j];
            port.send_flits(sim, pe, mc, vec![image], j as u64)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    responded?;
    run_phase(sim, config, false, tracer, report)?;
    let mut responses: Vec<Option<u64>> = vec![None; total];
    let collected = tracer.span("core.decode_response", || {
        sim.drain_all_delivered_into(&mut delivered);
        accept_all(&port, sim, &delivered, |d| {
            let bits = port
                .session()
                .decode_response::<Fx8Word>(&d.payload_flits)
                .map_err(|e| e.to_string())?;
            responses[d.tag as usize] = Some(bits);
            Ok(())
        })
    });
    collected?;

    let outputs = tracer.span("accel.assemble", || {
        let per_input = source.per_input();
        (0..source.batch())
            .map(|b| {
                let values: Vec<f32> = (0..per_input)
                    .map(|local| {
                        let bits = responses[b * per_input + local].unwrap_or(0);
                        let bias_code = source.bias_word(source.weight_group(local)).code();
                        qs[b].dequantize_response(i64::from(bits as u32 as i32), bias_code)
                    })
                    .collect();
                Tensor::from_vec(&out_shape, values).map_err(|e| format!("{e:?}"))
            })
            .collect::<Result<Vec<Tensor>, String>>()
    })?;
    if responses.iter().any(Option::is_none) {
        return Err("a response never arrived".into());
    }
    report.request_flits.push(flits);
    report.tasks += total as u64;
    report.groups += source.group_count() as u64;
    Ok(outputs)
}

/// Times `LinkCodecState::encode_run` over each MC's request stream of
/// the first NoC layer (`core.lane_run`), on configs whose links own a
/// stateful codec. Returns the flits coded (0 when the config has no
/// per-link codec).
pub fn lane_run(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
    tracer: &mut Tracer,
) -> Result<u64, String> {
    if config.codec_scope != CodecScope::PerLink || !config.codec.is_stateful() {
        return Ok(0);
    }
    let op = ops
        .iter()
        .find(|op| op.is_noc_op())
        .ok_or("model has no NoC layer")?;
    let mut quiet = Tracer::new("lane-run", false);
    let layer = encode_layer(op, inputs, config, &mut quiet)?;
    let mcs = config.noc.mc_nodes.len();
    let streams: Vec<Vec<PayloadBits>> = (0..mcs)
        .map(|mi| {
            (mi..layer.encoded.len())
                .step_by(mcs)
                .flat_map(|j| layer.encoded[j].plain_flits())
                .collect()
        })
        .collect();
    let flits: usize = streams.iter().map(Vec::len).sum();
    let width = streams
        .iter()
        .find_map(|s| s.first())
        .map_or(0, PayloadBits::width);
    tracer.span("core.lane_run", || {
        for stream in &streams {
            let mut lane = LinkCodecState::new(config.codec, width);
            std::hint::black_box(lane.encode_run(stream.iter()));
        }
    });
    Ok(flits as u64)
}
