//! Model metadata: families, tasks and descriptors.
//!
//! The descriptor bundles what the serving layer and the semantics model need
//! to know about a zoo model beyond its graph: calibration targets (Table 5),
//! default SLOs, parameter counts, and an *overparameterisation* hint that
//! drives how "exitable" the model is in the semantics simulation (§2.2: "the
//! intuition is that models are often overparameterized ... and 'easy' inputs
//! may not require complete model processing").

/// Model family, used for family-specific ramp and latency heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Residual CNNs (ResNet-18/50/101).
    ResNet,
    /// Chained CNNs (VGG-11/13/16).
    Vgg,
    /// Encoder-only transformers (BERT-base/large, DistilBERT).
    Bert,
    /// Decoder-only transformer used for classification (GPT2-medium).
    Gpt2,
    /// Encoder-decoder generative LLM (T5-large).
    T5,
    /// Decoder-only generative LLM (Llama2-7B/13B).
    Llama,
}

impl ModelFamily {
    /// True for computer-vision families.
    pub fn is_cv(self) -> bool {
        matches!(self, ModelFamily::ResNet | ModelFamily::Vgg)
    }

    /// True for families evaluated as generative workloads in the paper.
    pub fn is_generative(self) -> bool {
        matches!(self, ModelFamily::T5 | ModelFamily::Llama)
    }
}

/// The inference task a model serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Single-shot classification (CV object classification, NLP sentiment).
    Classification,
    /// Auto-regressive generation (summarisation, question answering).
    Generative,
}

/// Static description of a zoo model.
#[derive(Debug, Clone)]
pub struct ModelDescriptor {
    /// Canonical name, e.g. `"resnet50"`.
    pub name: String,
    /// Family.
    pub family: ModelFamily,
    /// Task kind.
    pub task: TaskKind,
    /// Parameter count in millions.
    pub params_millions: f64,
    /// Measured batch-1 inference latency in milliseconds (Table 5); for
    /// generative models this is the per-token decode latency.
    pub bs1_latency_ms: f64,
    /// Default SLO in milliseconds (2× batch-1 latency, floored at 10 ms as in
    /// Table 5); unused for generative models.
    pub default_slo_ms: f64,
    /// Number of output classes (classification) or vocabulary size bucket
    /// (generative; only used for ramp-head sizing).
    pub num_classes: u32,
    /// Number of architectural blocks (residual blocks / encoder layers /
    /// decoder layers).
    pub num_blocks: u32,
    /// How overparameterised the model is for its workload, in `[0, 1]`.
    /// Higher values mean easy inputs can be predicted correctly very early.
    /// CV models in the paper exhibit much earlier exits than NLP models, and
    /// quantisation reduces overparameterisation (§4.2).
    pub overparameterization: f64,
    /// Whether this is a post-training-quantised variant.
    pub quantized: bool,
    /// Bytes per parameter (4 for fp32, 1 for int8-quantised).
    pub bytes_per_param: u32,
}

impl ModelDescriptor {
    /// Model weight memory footprint in bytes.
    pub fn weight_bytes(&self) -> u64 {
        (self.params_millions * 1e6) as u64 * self.bytes_per_param as u64
    }

    /// Default SLO expressed in microseconds.
    pub fn default_slo_us(&self) -> u64 {
        (self.default_slo_ms * 1_000.0) as u64
    }

    /// Batch-1 latency expressed in microseconds.
    pub fn bs1_latency_us(&self) -> f64 {
        self.bs1_latency_ms * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> ModelDescriptor {
        ModelDescriptor {
            name: "resnet50".into(),
            family: ModelFamily::ResNet,
            task: TaskKind::Classification,
            params_millions: 25.6,
            bs1_latency_ms: 16.4,
            default_slo_ms: 32.8,
            num_classes: 1000,
            num_blocks: 16,
            overparameterization: 0.9,
            quantized: false,
            bytes_per_param: 4,
        }
    }

    #[test]
    fn family_classification() {
        assert!(ModelFamily::ResNet.is_cv());
        assert!(ModelFamily::Vgg.is_cv());
        assert!(!ModelFamily::Bert.is_cv());
        assert!(ModelFamily::T5.is_generative());
        assert!(ModelFamily::Llama.is_generative());
        assert!(!ModelFamily::Gpt2.is_generative());
    }

    #[test]
    fn descriptor_derived_quantities() {
        let d = descriptor();
        assert_eq!(d.weight_bytes(), 25_600_000 * 4);
        assert_eq!(d.default_slo_us(), 32_800);
        assert!((d.bs1_latency_us() - 16_400.0).abs() < 1e-9);
    }
}
