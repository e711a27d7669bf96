//! The model zoo: synthetic reconstructions of every model in the paper's
//! corpus (§4.1).
//!
//! Each builder produces a [`ZooModel`]: a layer graph whose *structure*
//! mirrors the real architecture (residual blocks, encoder blocks, chained
//! convolutions), a latency model calibrated so batch-1 totals match Table 5,
//! and a descriptor carrying serving metadata. The graphs are what Apparate's
//! ramp-placement analysis (§3.1) operates on; their cut-vertex structure —
//! ramps between blocks but never inside them, everywhere for VGG — emerges
//! from the skip edges rather than being hard-coded.

use crate::graph::ModelGraph;
use crate::latency::{synthesize_latency, ComputeShape, ModelLatency};
use crate::layer::{Layer, LayerId, LayerKind, Stage};
use crate::meta::{ModelDescriptor, ModelFamily, TaskKind};

/// A fully assembled zoo model: graph + latency + metadata.
#[derive(Debug, Clone)]
pub struct ZooModel {
    /// Static metadata.
    pub descriptor: ModelDescriptor,
    /// The computation graph.
    pub graph: ModelGraph,
    /// Calibrated per-layer latency model.
    pub latency: ModelLatency,
}

impl ZooModel {
    /// Convenience: total batch-1 latency in milliseconds.
    pub fn bs1_latency_ms(&self) -> f64 {
        self.latency.total_us(1) / 1_000.0
    }

    /// GPU memory footprint of the weights in bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.descriptor.weight_bytes()
    }
}

/// Internal builder that accumulates layers/edges sequentially and supports
/// residual skip connections.
struct GraphBuilder {
    layers: Vec<Layer>,
    edges: Vec<(LayerId, LayerId)>,
    last: Option<LayerId>,
}

impl GraphBuilder {
    fn new() -> Self {
        GraphBuilder {
            layers: Vec::new(),
            edges: Vec::new(),
            last: None,
        }
    }

    /// Append a layer connected to the previous one; returns its id.
    fn push(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        params: u64,
        width: u32,
        block: u32,
        stage: Stage,
    ) -> LayerId {
        let id = LayerId(self.layers.len());
        self.layers
            .push(Layer::new(id.0, name, kind, params, width, block).with_stage(stage));
        if let Some(prev) = self.last {
            self.edges.push((prev, id));
        }
        self.last = Some(id);
        id
    }

    /// Add an explicit (skip) edge.
    fn connect(&mut self, from: LayerId, to: LayerId) {
        self.edges.push((from, to));
    }

    fn build(self) -> ModelGraph {
        ModelGraph::new(self.layers, self.edges).expect("zoo graphs are valid by construction")
    }
}

fn finish(
    graph: ModelGraph,
    descriptor: ModelDescriptor,
    shape: ComputeShape,
    fixed_share: f64,
    batch_alpha: f64,
) -> ZooModel {
    let latency = synthesize_latency(
        &graph,
        descriptor.bs1_latency_us(),
        shape,
        fixed_share,
        batch_alpha,
    );
    ZooModel {
        descriptor,
        graph,
        latency,
    }
}

// ---------------------------------------------------------------------------
// CV: ResNet family
// ---------------------------------------------------------------------------

/// Per-stage residual block counts for a ResNet variant.
fn resnet_stage_blocks(depth: u32) -> (&'static [usize], bool) {
    // (blocks per stage, bottleneck?)
    match depth {
        18 => (&[2, 2, 2, 2], false),
        50 => (&[3, 4, 6, 3], true),
        101 => (&[3, 4, 23, 3], true),
        other => panic!("unsupported ResNet depth {other}"),
    }
}

/// Build a ResNet-{18,50,101} model.
pub fn resnet(depth: u32) -> ZooModel {
    let (stages, bottleneck) = resnet_stage_blocks(depth);
    let (params_m, bs1_ms) = match depth {
        18 => (11.7, 6.5),
        50 => (25.6, 16.4),
        101 => (44.5, 33.3),
        _ => unreachable!(),
    };
    let mut b = GraphBuilder::new();
    let mut block_idx = 0u32;
    b.push(
        "stem.conv",
        LayerKind::Conv,
        9_408,
        64,
        block_idx,
        Stage::Main,
    );
    b.push(
        "stem.norm",
        LayerKind::Norm,
        128,
        64,
        block_idx,
        Stage::Main,
    );
    b.push(
        "stem.relu",
        LayerKind::Activation,
        0,
        64,
        block_idx,
        Stage::Main,
    );
    b.push(
        "stem.pool",
        LayerKind::Pooling,
        0,
        64,
        block_idx,
        Stage::Main,
    );
    let mut width = 64u32;
    for (stage_idx, &count) in stages.iter().enumerate() {
        width = 64 << stage_idx.min(3);
        for blk in 0..count {
            block_idx += 1;
            let prefix = format!("stage{}.block{}", stage_idx + 1, blk);
            // Input to the residual block: output of the last layer so far.
            let block_input = b.last.expect("stem exists");
            let convs = if bottleneck { 3 } else { 2 };
            for c in 0..convs {
                b.push(
                    format!("{prefix}.conv{c}"),
                    LayerKind::Conv,
                    (width as u64) * (width as u64) / 8,
                    width,
                    block_idx,
                    Stage::Main,
                );
                b.push(
                    format!("{prefix}.norm{c}"),
                    LayerKind::Norm,
                    width as u64 * 2,
                    width,
                    block_idx,
                    Stage::Main,
                );
                if c + 1 < convs {
                    b.push(
                        format!("{prefix}.relu{c}"),
                        LayerKind::Activation,
                        0,
                        width,
                        block_idx,
                        Stage::Main,
                    );
                }
            }
            let add = b.push(
                format!("{prefix}.add"),
                LayerKind::Add,
                0,
                width,
                block_idx,
                Stage::Main,
            );
            // Residual skip connection: block input feeds the add directly, which
            // is exactly what makes intra-block layers non-cut-vertices.
            b.connect(block_input, add);
            b.push(
                format!("{prefix}.relu_out"),
                LayerKind::Activation,
                0,
                width,
                block_idx,
                Stage::Main,
            );
        }
    }
    block_idx += 1;
    b.push(
        "head.pool",
        LayerKind::Pooling,
        0,
        width,
        block_idx,
        Stage::Main,
    );
    b.push(
        "head.fc",
        LayerKind::FullyConnected,
        width as u64 * 1000,
        1000,
        block_idx,
        Stage::Main,
    );
    b.push(
        "head.softmax",
        LayerKind::Softmax,
        0,
        1000,
        block_idx,
        Stage::Main,
    );
    let graph = b.build();
    let num_blocks: u32 = stages.iter().map(|&c| c as u32).sum();
    let descriptor = ModelDescriptor {
        name: format!("resnet{depth}"),
        family: ModelFamily::ResNet,
        task: TaskKind::Classification,
        params_millions: params_m,
        bs1_latency_ms: bs1_ms,
        default_slo_ms: bs1_ms * 2.0,
        num_classes: 1000,
        num_blocks,
        overparameterization: 0.90,
        quantized: false,
        bytes_per_param: 4,
    };
    finish(
        graph,
        descriptor,
        ComputeShape::FrontLoaded { skew: 6.0 },
        0.25,
        0.72,
    )
}

// ---------------------------------------------------------------------------
// CV: VGG family
// ---------------------------------------------------------------------------

/// Convolution-per-stage layout for a VGG variant.
fn vgg_stage_convs(depth: u32) -> &'static [usize] {
    match depth {
        11 => &[1, 1, 2, 2, 2],
        13 => &[2, 2, 2, 2, 2],
        16 => &[2, 2, 3, 3, 3],
        other => panic!("unsupported VGG depth {other}"),
    }
}

/// Build a VGG-{11,13,16} model. VGG is a pure chain, so every layer is a
/// feasible ramp site (Figure 7b).
pub fn vgg(depth: u32) -> ZooModel {
    let stages = vgg_stage_convs(depth);
    let (params_m, bs1_ms) = match depth {
        11 => (132.9, 3.3),
        13 => (133.0, 3.8),
        16 => (138.4, 4.5),
        _ => unreachable!(),
    };
    let mut b = GraphBuilder::new();
    let mut block = 0u32;
    for (stage_idx, &convs) in stages.iter().enumerate() {
        let width: u32 = (64 << stage_idx).min(512);
        for c in 0..convs {
            b.push(
                format!("stage{}.conv{}", stage_idx + 1, c),
                LayerKind::Conv,
                (width as u64) * (width as u64) * 9 / 16,
                width,
                block,
                Stage::Main,
            );
            b.push(
                format!("stage{}.relu{}", stage_idx + 1, c),
                LayerKind::Activation,
                0,
                width,
                block,
                Stage::Main,
            );
        }
        b.push(
            format!("stage{}.pool", stage_idx + 1),
            LayerKind::Pooling,
            0,
            width,
            block,
            Stage::Main,
        );
        block += 1;
    }
    b.push(
        "head.fc1",
        LayerKind::FullyConnected,
        102_764_544,
        4096,
        block,
        Stage::Main,
    );
    b.push(
        "head.relu1",
        LayerKind::Activation,
        0,
        4096,
        block,
        Stage::Main,
    );
    b.push(
        "head.fc2",
        LayerKind::FullyConnected,
        16_781_312,
        4096,
        block,
        Stage::Main,
    );
    b.push(
        "head.relu2",
        LayerKind::Activation,
        0,
        4096,
        block,
        Stage::Main,
    );
    b.push(
        "head.fc3",
        LayerKind::FullyConnected,
        4_097_000,
        1000,
        block,
        Stage::Main,
    );
    b.push(
        "head.softmax",
        LayerKind::Softmax,
        0,
        1000,
        block,
        Stage::Main,
    );
    let graph = b.build();
    let descriptor = ModelDescriptor {
        name: format!("vgg{depth}"),
        family: ModelFamily::Vgg,
        task: TaskKind::Classification,
        params_millions: params_m,
        bs1_latency_ms: bs1_ms,
        // Table 5 floors the small VGG SLOs at 10 ms.
        default_slo_ms: (bs1_ms * 2.0).max(10.0),
        num_classes: 1000,
        num_blocks: stages.len() as u32,
        overparameterization: 0.88,
        quantized: false,
        bytes_per_param: 4,
    };
    finish(
        graph,
        descriptor,
        ComputeShape::FrontLoaded { skew: 5.0 },
        0.25,
        0.72,
    )
}

// ---------------------------------------------------------------------------
// NLP: transformer encoder blocks (BERT family, GPT2)
// ---------------------------------------------------------------------------

/// Append one transformer block (self-attention + FFN, both with residuals).
/// Returns nothing; the builder's `last` ends at the block's output.
fn push_transformer_block(
    b: &mut GraphBuilder,
    prefix: &str,
    hidden: u32,
    block: u32,
    stage: Stage,
    with_cross_attention: bool,
) {
    let attn_params = 4 * (hidden as u64) * (hidden as u64);
    let ffn_params = 8 * (hidden as u64) * (hidden as u64);
    let block_input = b.last.expect("embedding exists before blocks");
    b.push(
        format!("{prefix}.attn"),
        LayerKind::Attention,
        attn_params,
        hidden,
        block,
        stage,
    );
    let add1 = b.push(
        format!("{prefix}.attn_add"),
        LayerKind::Add,
        0,
        hidden,
        block,
        stage,
    );
    b.connect(block_input, add1);
    b.push(
        format!("{prefix}.attn_norm"),
        LayerKind::Norm,
        hidden as u64 * 2,
        hidden,
        block,
        stage,
    );
    let mut residual_src = b.last.expect("norm exists");
    if with_cross_attention {
        b.push(
            format!("{prefix}.cross_attn"),
            LayerKind::Attention,
            attn_params,
            hidden,
            block,
            stage,
        );
        let addc = b.push(
            format!("{prefix}.cross_add"),
            LayerKind::Add,
            0,
            hidden,
            block,
            stage,
        );
        b.connect(residual_src, addc);
        b.push(
            format!("{prefix}.cross_norm"),
            LayerKind::Norm,
            hidden as u64 * 2,
            hidden,
            block,
            stage,
        );
        residual_src = b.last.expect("cross norm exists");
    }
    b.push(
        format!("{prefix}.ffn"),
        LayerKind::FeedForward,
        ffn_params,
        hidden,
        block,
        stage,
    );
    let add2 = b.push(
        format!("{prefix}.ffn_add"),
        LayerKind::Add,
        0,
        hidden,
        block,
        stage,
    );
    b.connect(residual_src, add2);
    b.push(
        format!("{prefix}.ffn_norm"),
        LayerKind::Norm,
        hidden as u64 * 2,
        hidden,
        block,
        stage,
    );
}

/// Specification of a BERT-family classification model.
struct EncoderSpec {
    name: &'static str,
    blocks: u32,
    hidden: u32,
    params_m: f64,
    bs1_ms: f64,
    overparam: f64,
}

fn build_encoder_classifier(spec: EncoderSpec, quantized: bool) -> ZooModel {
    let mut b = GraphBuilder::new();
    b.push(
        "embeddings",
        LayerKind::Embedding,
        23_000_000,
        spec.hidden,
        0,
        Stage::Main,
    );
    for blk in 0..spec.blocks {
        push_transformer_block(
            &mut b,
            &format!("encoder{blk}"),
            spec.hidden,
            blk + 1,
            Stage::Main,
            false,
        );
    }
    let head_block = spec.blocks + 1;
    b.push(
        "pooler",
        LayerKind::Pooler,
        (spec.hidden as u64) * (spec.hidden as u64),
        spec.hidden,
        head_block,
        Stage::Main,
    );
    b.push(
        "classifier",
        LayerKind::FullyConnected,
        spec.hidden as u64 * 2,
        2,
        head_block,
        Stage::Main,
    );
    b.push("softmax", LayerKind::Softmax, 0, 2, head_block, Stage::Main);
    let graph = b.build();
    let speedup = if quantized { 0.62 } else { 1.0 };
    let descriptor = ModelDescriptor {
        name: if quantized {
            format!("{}-int8", spec.name)
        } else {
            spec.name.to_string()
        },
        family: ModelFamily::Bert,
        task: TaskKind::Classification,
        params_millions: spec.params_m,
        bs1_latency_ms: spec.bs1_ms * speedup,
        default_slo_ms: spec.bs1_ms * 2.0 * speedup,
        num_classes: 2,
        num_blocks: spec.blocks,
        // Quantisation removes some of the overparameterisation EEs exploit (§4.2).
        overparameterization: if quantized {
            spec.overparam * 0.85
        } else {
            spec.overparam
        },
        quantized,
        bytes_per_param: if quantized { 1 } else { 4 },
    };
    finish(graph, descriptor, ComputeShape::Uniform, 0.20, 0.85)
}

/// BERT-base (12 encoder blocks, hidden 768).
pub fn bert_base() -> ZooModel {
    build_encoder_classifier(
        EncoderSpec {
            name: "bert-base",
            blocks: 12,
            hidden: 768,
            params_m: 110.0,
            bs1_ms: 29.4,
            overparam: 0.62,
        },
        false,
    )
}

/// BERT-large (24 encoder blocks, hidden 1024).
pub fn bert_large() -> ZooModel {
    build_encoder_classifier(
        EncoderSpec {
            name: "bert-large",
            blocks: 24,
            hidden: 1024,
            params_m: 345.0,
            bs1_ms: 63.2,
            overparam: 0.65,
        },
        false,
    )
}

/// DistilBERT (6 encoder blocks, hidden 768) — a distillation-compressed BERT.
pub fn distilbert() -> ZooModel {
    build_encoder_classifier(
        EncoderSpec {
            name: "distilbert-base",
            blocks: 6,
            hidden: 768,
            params_m: 66.0,
            bs1_ms: 15.5,
            overparam: 0.55,
        },
        false,
    )
}

/// Post-training Int8-quantised BERT-base (§4.2).
pub fn bert_base_int8() -> ZooModel {
    build_encoder_classifier(
        EncoderSpec {
            name: "bert-base",
            blocks: 12,
            hidden: 768,
            params_m: 110.0,
            bs1_ms: 29.4,
            overparam: 0.62,
        },
        true,
    )
}

/// Post-training Int8-quantised BERT-large (§4.2).
pub fn bert_large_int8() -> ZooModel {
    build_encoder_classifier(
        EncoderSpec {
            name: "bert-large",
            blocks: 24,
            hidden: 1024,
            params_m: 345.0,
            bs1_ms: 63.2,
            overparam: 0.65,
        },
        true,
    )
}

/// GPT2-medium used as a (decoder-only) NLP classifier, as in §4.1.
pub fn gpt2_medium() -> ZooModel {
    let hidden = 1024u32;
    let blocks = 24u32;
    let mut b = GraphBuilder::new();
    b.push(
        "embeddings",
        LayerKind::Embedding,
        51_000_000,
        hidden,
        0,
        Stage::Main,
    );
    for blk in 0..blocks {
        push_transformer_block(
            &mut b,
            &format!("decoder{blk}"),
            hidden,
            blk + 1,
            Stage::Main,
            false,
        );
    }
    let head_block = blocks + 1;
    b.push(
        "final_norm",
        LayerKind::Norm,
        hidden as u64 * 2,
        hidden,
        head_block,
        Stage::Main,
    );
    b.push(
        "classifier",
        LayerKind::FullyConnected,
        hidden as u64 * 2,
        2,
        head_block,
        Stage::Main,
    );
    b.push("softmax", LayerKind::Softmax, 0, 2, head_block, Stage::Main);
    let graph = b.build();
    let descriptor = ModelDescriptor {
        name: "gpt2-medium".into(),
        family: ModelFamily::Gpt2,
        task: TaskKind::Classification,
        params_millions: 345.0,
        bs1_latency_ms: 103.0,
        default_slo_ms: 206.0,
        num_classes: 2,
        num_blocks: blocks,
        overparameterization: 0.60,
        quantized: false,
        bytes_per_param: 4,
    };
    finish(graph, descriptor, ComputeShape::Uniform, 0.20, 0.85)
}

// ---------------------------------------------------------------------------
// Generative LLMs
// ---------------------------------------------------------------------------

/// Specification of a generative decoder stack.
struct DecoderSpec {
    name: &'static str,
    family: ModelFamily,
    blocks: u32,
    hidden: u32,
    params_m: f64,
    per_token_ms: f64,
    overparam: f64,
    with_cross_attention: bool,
}

/// Build a generative model's *decode pass* graph (the per-token computation).
///
/// For T5 the encoder/prefill phase is not modelled: time-per-token (TPT), the
/// paper's generative latency metric, is dominated by the decoder stack, and
/// ramps are only ever injected into decoding (§3.1).
fn build_decoder(spec: DecoderSpec) -> ZooModel {
    let mut b = GraphBuilder::new();
    b.push(
        "embeddings",
        LayerKind::Embedding,
        32_000 * spec.hidden as u64,
        spec.hidden,
        0,
        Stage::Decoder,
    );
    for blk in 0..spec.blocks {
        push_transformer_block(
            &mut b,
            &format!("decoder{blk}"),
            spec.hidden,
            blk + 1,
            Stage::Decoder,
            spec.with_cross_attention,
        );
    }
    let head_block = spec.blocks + 1;
    b.push(
        "final_norm",
        LayerKind::Norm,
        spec.hidden as u64 * 2,
        spec.hidden,
        head_block,
        Stage::Decoder,
    );
    b.push(
        "lm_head",
        LayerKind::DecoderHead,
        32_000 * spec.hidden as u64,
        32_000,
        head_block,
        Stage::Decoder,
    );
    let graph = b.build();
    let descriptor = ModelDescriptor {
        name: spec.name.to_string(),
        family: spec.family,
        task: TaskKind::Generative,
        params_millions: spec.params_m,
        bs1_latency_ms: spec.per_token_ms,
        default_slo_ms: spec.per_token_ms * 2.0,
        num_classes: 32_000,
        num_blocks: spec.blocks,
        overparameterization: spec.overparam,
        quantized: false,
        bytes_per_param: 4,
    };
    finish(graph, descriptor, ComputeShape::Uniform, 0.20, 0.85)
}

/// T5-large decode stack (24 decoder blocks with cross-attention), used for
/// summarisation and question answering (Figure 18, left).
pub fn t5_large() -> ZooModel {
    build_decoder(DecoderSpec {
        name: "t5-large",
        family: ModelFamily::T5,
        blocks: 24,
        hidden: 1024,
        params_m: 770.0,
        per_token_ms: 16.0,
        overparam: 0.85,
        with_cross_attention: true,
    })
}

/// Llama2-7B decode stack (32 decoder blocks), Figure 18 right.
pub fn llama2_7b() -> ZooModel {
    build_decoder(DecoderSpec {
        name: "llama2-7b",
        family: ModelFamily::Llama,
        blocks: 32,
        hidden: 4096,
        params_m: 7_000.0,
        per_token_ms: 25.0,
        overparam: 0.62,
        with_cross_attention: false,
    })
}

/// Llama2-13B decode stack (40 decoder blocks), Figure 18 right.
pub fn llama2_13b() -> ZooModel {
    build_decoder(DecoderSpec {
        name: "llama2-13b",
        family: ModelFamily::Llama,
        blocks: 40,
        hidden: 5120,
        params_m: 13_000.0,
        per_token_ms: 40.0,
        overparam: 0.68,
        with_cross_attention: false,
    })
}

// ---------------------------------------------------------------------------
// Lookup helpers
// ---------------------------------------------------------------------------

/// Every classification model in the corpus (10 models across 4 families,
/// §4.1), excluding quantised variants.
pub fn classification_models() -> Vec<ZooModel> {
    vec![
        resnet(18),
        resnet(50),
        resnet(101),
        vgg(11),
        vgg(13),
        vgg(16),
        distilbert(),
        bert_base(),
        bert_large(),
        gpt2_medium(),
    ]
}

/// The CV subset of the corpus.
pub fn cv_models() -> Vec<ZooModel> {
    vec![
        resnet(18),
        resnet(50),
        resnet(101),
        vgg(11),
        vgg(13),
        vgg(16),
    ]
}

/// The NLP classification subset of the corpus.
pub fn nlp_models() -> Vec<ZooModel> {
    vec![distilbert(), bert_base(), bert_large(), gpt2_medium()]
}

/// The generative subset of the corpus.
pub fn generative_models() -> Vec<ZooModel> {
    vec![t5_large(), llama2_7b(), llama2_13b()]
}

/// Look up a model by canonical name (e.g. `"resnet50"`, `"bert-base"`,
/// `"bert-base-int8"`, `"t5-large"`). Returns `None` for unknown names.
pub fn by_name(name: &str) -> Option<ZooModel> {
    match name {
        "resnet18" => Some(resnet(18)),
        "resnet50" => Some(resnet(50)),
        "resnet101" => Some(resnet(101)),
        "vgg11" => Some(vgg(11)),
        "vgg13" => Some(vgg(13)),
        "vgg16" => Some(vgg(16)),
        "distilbert-base" | "distilbert" => Some(distilbert()),
        "bert-base" => Some(bert_base()),
        "bert-large" => Some(bert_large()),
        "bert-base-int8" => Some(bert_base_int8()),
        "bert-large-int8" => Some(bert_large_int8()),
        "gpt2-medium" | "gpt2" => Some(gpt2_medium()),
        "t5-large" | "t5" => Some(t5_large()),
        "llama2-7b" => Some(llama2_7b()),
        "llama2-13b" => Some(llama2_13b()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 5 batch-1 latency targets in milliseconds.
    const TABLE5: &[(&str, f64, f64)] = &[
        ("resnet18", 6.5, 13.0),
        ("resnet50", 16.4, 32.8),
        ("resnet101", 33.3, 66.6),
        ("vgg11", 3.3, 10.0),
        ("vgg13", 3.8, 10.0),
        ("vgg16", 4.5, 10.0),
        ("distilbert-base", 15.5, 31.0),
        ("bert-base", 29.4, 58.8),
        ("bert-large", 63.2, 126.4),
        ("gpt2-medium", 103.0, 206.0),
    ];

    #[test]
    fn table5_latencies_and_slos_are_calibrated() {
        for &(name, bs1_ms, slo_ms) in TABLE5 {
            let model = by_name(name).expect("model exists");
            assert!(
                (model.bs1_latency_ms() - bs1_ms).abs() / bs1_ms < 0.01,
                "{name}: calibrated {} vs target {bs1_ms}",
                model.bs1_latency_ms()
            );
            assert!(
                (model.descriptor.default_slo_ms - slo_ms).abs() < 0.2,
                "{name}: SLO {} vs target {slo_ms}",
                model.descriptor.default_slo_ms
            );
        }
    }

    #[test]
    fn resnet_ramps_only_between_blocks() {
        let model = resnet(50);
        let sites = model.graph.feasible_ramp_sites(None);
        assert!(!sites.is_empty());
        // No feasible site should be an intra-block conv/norm (those are
        // bypassed by the skip edge). The residual add outputs and stem/head
        // layers are fine.
        for site in &sites {
            let layer = model.graph.layer(*site);
            assert!(
                !matches!(layer.kind, LayerKind::Conv | LayerKind::Norm)
                    || layer.name.starts_with("stem"),
                "unexpected intra-block ramp site: {}",
                layer.name
            );
        }
    }

    #[test]
    fn vgg_every_layer_is_feasible() {
        let model = vgg(13);
        // VGG is a chain, so every interior layer is a cut vertex.
        let sites = model.graph.feasible_ramp_sites(None);
        assert_eq!(sites.len(), model.graph.len() - 2);
    }

    #[test]
    fn ramp_coverage_within_papers_range() {
        // §3.1: "9.2–68.4 % of layers having ramps for the models in our corpus".
        for model in classification_models() {
            let coverage = model.graph.ramp_coverage();
            assert!(
                (0.05..=0.95).contains(&coverage),
                "{}: coverage {coverage}",
                model.descriptor.name
            );
        }
    }

    #[test]
    fn bert_blocks_match_architecture() {
        assert_eq!(bert_base().descriptor.num_blocks, 12);
        assert_eq!(bert_large().descriptor.num_blocks, 24);
        assert_eq!(distilbert().descriptor.num_blocks, 6);
        assert_eq!(gpt2_medium().descriptor.num_blocks, 24);
    }

    #[test]
    fn bert_ramp_sites_are_block_boundaries() {
        let model = bert_base();
        let sites = model.graph.feasible_ramp_sites(None);
        // One boundary after the embedding and one after each encoder block's
        // final norm, plus pooler/classifier head positions.
        assert!(sites.len() >= 12, "got {} sites", sites.len());
        for site in &sites {
            let layer = model.graph.layer(*site);
            assert!(
                !matches!(layer.kind, LayerKind::Attention | LayerKind::FeedForward),
                "ramp inside a transformer block at {}",
                layer.name
            );
        }
    }

    #[test]
    fn quantized_variants_are_faster_and_less_overparameterized() {
        let base = bert_base();
        let int8 = bert_base_int8();
        assert!(int8.bs1_latency_ms() < base.bs1_latency_ms());
        assert!(int8.descriptor.overparameterization < base.descriptor.overparameterization);
        assert_eq!(int8.descriptor.bytes_per_param, 1);
        assert!(int8.weight_bytes() < base.weight_bytes());
    }

    #[test]
    fn generative_models_are_decoder_staged() {
        for model in generative_models() {
            assert_eq!(model.descriptor.task, TaskKind::Generative);
            let decoder_sites = model.graph.feasible_ramp_sites(Some(Stage::Decoder));
            assert!(!decoder_sites.is_empty());
            assert_eq!(
                decoder_sites.len(),
                model.graph.feasible_ramp_sites(None).len(),
                "all layers of the decode pass belong to the decoder stage"
            );
        }
    }

    #[test]
    fn generative_per_token_latencies_ordered_by_size() {
        let t5 = t5_large();
        let l7 = llama2_7b();
        let l13 = llama2_13b();
        assert!(t5.bs1_latency_ms() < l7.bs1_latency_ms());
        assert!(l7.bs1_latency_ms() < l13.bs1_latency_ms());
    }

    #[test]
    fn corpus_lists_have_expected_sizes() {
        assert_eq!(classification_models().len(), 10);
        assert_eq!(cv_models().len(), 6);
        assert_eq!(nlp_models().len(), 4);
        assert_eq!(generative_models().len(), 3);
        assert!(by_name("nonexistent-model").is_none());
    }

    #[test]
    fn front_loaded_cv_vs_uniform_nlp_latency_shape() {
        let cv = resnet(50);
        let nlp = bert_base();
        // Halfway through the layer count, a CV model should have accumulated a
        // larger fraction of its total latency than a transformer.
        let cv_mid = cv.latency.prefix_fraction(cv.graph.len() / 2);
        let nlp_mid = nlp.latency.prefix_fraction(nlp.graph.len() / 2);
        assert!(
            cv_mid > nlp_mid,
            "CV prefix fraction {cv_mid} should exceed NLP {nlp_mid}"
        );
    }

    #[test]
    fn larger_models_have_more_params_and_latency() {
        assert!(resnet(101).descriptor.params_millions > resnet(50).descriptor.params_millions);
        assert!(resnet(101).bs1_latency_ms() > resnet(50).bs1_latency_ms());
        assert!(bert_large().bs1_latency_ms() > bert_base().bs1_latency_ms());
        assert!(llama2_13b().descriptor.params_millions > llama2_7b().descriptor.params_millions);
    }
}
