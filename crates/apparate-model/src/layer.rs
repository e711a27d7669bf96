//! Layer-level IR.
//!
//! Apparate ingests models in a graph exchange format (ONNX in the paper) and
//! never inspects tensor values — it only needs the *structure* of the
//! computation (which operators exist, how data flows between them) and
//! per-operator cost metadata. [`Layer`] captures exactly that.

use std::fmt;

/// Identifier of a layer within a [`crate::ModelGraph`].
///
/// Layer ids are dense indices; the zoo constructs graphs so that ids are
/// already in topological order, but the graph code never assumes this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LayerId(pub usize);

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// The kind of computation a layer performs.
///
/// The set covers the operator families appearing in the paper's model corpus
/// (ResNet/VGG convolutions, BERT/GPT2/T5/Llama transformer blocks). Kinds
/// matter for ramp-architecture selection (§3.1) and for the latency model
/// (convolutions dominate early in CV models, attention/FFN dominate evenly in
/// transformers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Batch / layer normalisation fused with the preceding op.
    Norm,
    /// Elementwise activation (ReLU / GELU).
    Activation,
    /// Max / average pooling, including global pooling.
    Pooling,
    /// Fully-connected (linear) layer.
    FullyConnected,
    /// Token or position embedding lookup.
    Embedding,
    /// Multi-head self- or cross-attention.
    Attention,
    /// Transformer position-wise feed-forward network.
    FeedForward,
    /// Residual addition joining a skip connection.
    Add,
    /// Softmax / classification head.
    Softmax,
    /// LM decoder head projecting hidden states to vocabulary logits.
    DecoderHead,
    /// BERT-style pooler (first-token extraction + dense + tanh).
    Pooler,
    /// Dropout (identity at inference time, kept for graph fidelity).
    Dropout,
}

impl LayerKind {
    /// True for operators that carry the bulk of a model's FLOPs; used by the
    /// latency calibration to decide where time is spent.
    pub fn is_compute_heavy(self) -> bool {
        matches!(
            self,
            LayerKind::Conv
                | LayerKind::FullyConnected
                | LayerKind::Attention
                | LayerKind::FeedForward
                | LayerKind::DecoderHead
        )
    }
}

/// Pipeline stage a layer belongs to; relevant for encoder-decoder models
/// where ramps are only injected into decoding (§3.1: "only for decoding
/// phases").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Stage {
    /// Single-stage models (all classification models).
    #[default]
    Main,
    /// Encoder of an encoder-decoder LLM.
    Encoder,
    /// Decoder of an encoder-decoder or decoder-only LLM.
    Decoder,
}

/// One operator in the model graph.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Dense identifier within the graph.
    pub id: LayerId,
    /// Human-readable name (e.g. `"block3.conv2"`).
    pub name: String,
    /// Operator kind.
    pub kind: LayerKind,
    /// Pipeline stage.
    pub stage: Stage,
    /// Parameter count of this operator.
    pub params: u64,
    /// Width of the operator's output (channels for CV, hidden size for NLP).
    /// Ramp input width is derived from this (§3.1: "the input width of the fc
    /// layer is modified to match the intermediates at each ramp location").
    pub output_width: u32,
    /// Index of the architectural block this layer belongs to (residual block,
    /// encoder/decoder block, or VGG "stage"); used for reporting only.
    pub block: u32,
}

impl Layer {
    /// Convenience constructor.
    pub fn new(
        id: usize,
        name: impl Into<String>,
        kind: LayerKind,
        params: u64,
        output_width: u32,
        block: u32,
    ) -> Layer {
        Layer {
            id: LayerId(id),
            name: name.into(),
            kind,
            stage: Stage::Main,
            params,
            output_width,
            block,
        }
    }

    /// Set the pipeline stage (builder style).
    pub fn with_stage(mut self, stage: Stage) -> Layer {
        self.stage = stage;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_construction_defaults_to_main_stage() {
        let l = Layer::new(3, "conv1", LayerKind::Conv, 1000, 64, 0);
        assert_eq!(l.id, LayerId(3));
        assert_eq!(l.stage, Stage::Main);
        assert_eq!(l.output_width, 64);
    }

    #[test]
    fn with_stage_overrides() {
        let l = Layer::new(0, "dec0", LayerKind::Attention, 10, 512, 0).with_stage(Stage::Decoder);
        assert_eq!(l.stage, Stage::Decoder);
    }

    #[test]
    fn compute_heavy_classification() {
        assert!(LayerKind::Conv.is_compute_heavy());
        assert!(LayerKind::Attention.is_compute_heavy());
        assert!(!LayerKind::Add.is_compute_heavy());
        assert!(!LayerKind::Dropout.is_compute_heavy());
    }

    #[test]
    fn layer_id_display() {
        assert_eq!(format!("{}", LayerId(7)), "L7");
    }
}
