//! Ramp architectures: what an exit ramp computes and what it costs.
//!
//! §3.1 — "Apparate opts for the shallowest ramps that can transform the
//! intermediates at any layer into a final model prediction": a lightweight
//! pooling operation followed by the model's final fully-connected layer. The
//! alternatives evaluated in Figure 8 / §4.5 (extra convolutions for ResNet,
//! stacked FC layers or the full DeeBERT pooler for BERT) are modelled too so
//! the comparison experiments can run.

use apparate_model::{LayerLatency, ModelDescriptor, ModelFamily, ZooModel};

/// Ramp architecture styles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RampArchitecture {
    /// Apparate's default: lightweight pooling + the model's final FC layer
    /// (or, for generative models, direct reuse of the decoder head).
    Lightweight,
    /// 1–2 extra convolution layers before pooling (the "fewer, heavier"
    /// ResNet alternative in Figure 8).
    ConvHeavy,
    /// Two stacked FC layers after pooling (the BERT alternative (1) in §3.1).
    StackedFc,
    /// The full DeeBERT-style pooler block plus dropout (alternative (2)).
    DeeBertPooler,
}

impl RampArchitecture {
    /// Relative compute cost of the ramp versus the lightweight default.
    pub fn cost_multiplier(self) -> f64 {
        match self {
            RampArchitecture::Lightweight => 1.0,
            RampArchitecture::ConvHeavy => 4.0,
            RampArchitecture::StackedFc => 2.5,
            RampArchitecture::DeeBertPooler => 3.2,
        }
    }

    /// Baseline predictive capacity of the architecture (before training-data
    /// effects). Figure 8 shows the added compute has "minimal effect on ramp
    /// efficacy", so heavier ramps get only a marginal capacity bump.
    pub fn base_capacity(self) -> f64 {
        match self {
            RampArchitecture::Lightweight => 0.960,
            RampArchitecture::ConvHeavy => 0.972,
            RampArchitecture::StackedFc => 0.968,
            RampArchitecture::DeeBertPooler => 0.970,
        }
    }
}

/// A fully specified ramp: architecture, parameter count, memory and latency.
#[derive(Debug, Clone, Copy)]
pub struct RampSpec {
    /// Architecture style.
    pub architecture: RampArchitecture,
    /// Parameter count of the ramp.
    pub params: u64,
    /// GPU memory footprint in bytes.
    pub memory_bytes: u64,
    /// Latency cost of evaluating the ramp.
    pub cost: LayerLatency,
}

/// Build the ramp specification for a ramp consuming an intermediate of width
/// `input_width` on the given model.
///
/// The ramp's FC layer maps `input_width → num_classes` (its input width "is
/// modified to match the intermediates at each ramp location", §3.1). Latency
/// is modelled as a small fraction of the model's per-layer cost, scaled by
/// the architecture's cost multiplier; the resulting per-ramp overhead is a
/// fraction of a percent of model latency, consistent with the paper's 2 %
/// budget admitting several ramps.
pub fn ramp_spec(
    descriptor: &ModelDescriptor,
    input_width: u32,
    architecture: RampArchitecture,
) -> RampSpec {
    let num_outputs = match descriptor.family {
        // Generative ramps reuse the decoder head; classification ramps map to
        // the class count.
        ModelFamily::T5 | ModelFamily::Llama => descriptor.num_classes,
        _ => descriptor.num_classes,
    } as u64;
    let fc_params = input_width as u64 * num_outputs + num_outputs;
    let params = (fc_params as f64 * architecture.cost_multiplier()) as u64;
    let memory_bytes = params * descriptor.bytes_per_param as u64;
    // Lightweight ramp latency: a pooling pass plus one small GEMM. Modelled
    // as 0.15 % of the model's batch-1 latency, floored at 20 µs.
    let base_us = (descriptor.bs1_latency_us() * 0.0015).max(20.0);
    let total_us = base_us * architecture.cost_multiplier();
    RampSpec {
        architecture,
        params,
        memory_bytes,
        cost: LayerLatency {
            fixed_us: total_us * 0.4,
            per_item_us: total_us * 0.6,
            batch_alpha: 0.7,
        },
    }
}

/// Fraction of the original model's parameters a single ramp adds; §3.1 quotes
/// 0.01–3.50 % across the corpus.
pub fn ramp_param_fraction(model: &ZooModel, spec: &RampSpec) -> f64 {
    spec.params as f64 / (model.descriptor.params_millions * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apparate_model::zoo;

    #[test]
    fn lightweight_is_cheapest_and_default_capable() {
        for arch in [
            RampArchitecture::ConvHeavy,
            RampArchitecture::StackedFc,
            RampArchitecture::DeeBertPooler,
        ] {
            assert!(arch.cost_multiplier() > RampArchitecture::Lightweight.cost_multiplier());
            // Extra compute buys only a marginal capacity increase (Figure 8).
            assert!(arch.base_capacity() - RampArchitecture::Lightweight.base_capacity() < 0.02);
        }
    }

    #[test]
    fn ramp_cost_is_a_small_fraction_of_model_latency() {
        for model in zoo::classification_models() {
            let width = model.graph.layers()[model.graph.len() / 2].output_width;
            let spec = ramp_spec(&model.descriptor, width, RampArchitecture::Lightweight);
            let ramp_ms = spec.cost.latency_us(1) / 1_000.0;
            assert!(
                ramp_ms < model.bs1_latency_ms() * 0.01,
                "{}: ramp {ramp_ms} ms vs model {} ms",
                model.descriptor.name,
                model.bs1_latency_ms()
            );
        }
    }

    #[test]
    fn ramp_params_are_tiny_fraction_of_model() {
        // §3.1: ramps comprise only 0.01–3.50 % of model parameters.
        for model in zoo::classification_models() {
            let width = model.graph.layers()[model.graph.len() / 2].output_width;
            let spec = ramp_spec(&model.descriptor, width, RampArchitecture::Lightweight);
            let frac = ramp_param_fraction(&model, &spec);
            assert!(
                frac < 0.05,
                "{}: ramp fraction {frac}",
                model.descriptor.name
            );
        }
    }

    #[test]
    fn wider_intermediates_make_bigger_ramps() {
        let model = zoo::bert_large();
        let small = ramp_spec(&model.descriptor, 256, RampArchitecture::Lightweight);
        let large = ramp_spec(&model.descriptor, 1024, RampArchitecture::Lightweight);
        assert!(large.params > small.params);
        assert!(large.memory_bytes > small.memory_bytes);
    }

    #[test]
    fn quantized_models_have_smaller_ramp_memory() {
        let fp32 = zoo::bert_base();
        let int8 = zoo::bert_base_int8();
        let a = ramp_spec(&fp32.descriptor, 768, RampArchitecture::Lightweight);
        let b = ramp_spec(&int8.descriptor, 768, RampArchitecture::Lightweight);
        assert!(b.memory_bytes < a.memory_bytes);
    }
}
