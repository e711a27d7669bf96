//! GPU device model: memory accounting and relative speed.
//!
//! Challenge C1 in the paper notes that ramps "must also be loaded into GPU
//! memory which is an increasingly precious resource" (e.g. DeeBERT inflates
//! BERT-base memory by 6.6 %). The reproduction tracks weight and ramp bytes
//! against a device capacity so experiments can report that overhead and
//! reject configurations that would not fit.

/// Errors raised by memory accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// An allocation would exceed device capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// Attempted to free more bytes than are allocated.
    Underflow,
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "GPU out of memory: requested {requested} bytes, {available} available"
            ),
            GpuError::Underflow => write!(f, "attempted to free unallocated GPU memory"),
        }
    }
}

impl std::error::Error for GpuError {}

/// A single GPU with a fixed memory capacity and a relative speed factor.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    /// Human-readable name (e.g. `"A6000"`).
    pub name: String,
    /// Total device memory in bytes.
    pub memory_bytes: u64,
    /// Relative compute speed; layer latencies are divided by this.
    pub speed_factor: f64,
    allocated_bytes: u64,
}

impl GpuDevice {
    /// An NVIDIA RTX A6000 (48 GB), the device used in the paper's evaluation.
    pub fn a6000() -> GpuDevice {
        GpuDevice {
            name: "A6000".into(),
            memory_bytes: 48 * 1024 * 1024 * 1024,
            speed_factor: 1.0,
            allocated_bytes: 0,
        }
    }

    /// A device with custom capacity (used by edge-resource experiments/tests).
    pub fn with_memory(name: impl Into<String>, memory_bytes: u64) -> GpuDevice {
        GpuDevice {
            name: name.into(),
            memory_bytes,
            speed_factor: 1.0,
            allocated_bytes: 0,
        }
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Bytes still free.
    pub fn available_bytes(&self) -> u64 {
        self.memory_bytes - self.allocated_bytes
    }

    /// Fraction of memory in use.
    pub fn utilization(&self) -> f64 {
        self.allocated_bytes as f64 / self.memory_bytes as f64
    }

    /// Allocate `bytes`, failing if the device is full.
    pub fn allocate(&mut self, bytes: u64) -> Result<(), GpuError> {
        if bytes > self.available_bytes() {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available: self.available_bytes(),
            });
        }
        self.allocated_bytes += bytes;
        Ok(())
    }

    /// Free `bytes` previously allocated.
    pub fn free(&mut self, bytes: u64) -> Result<(), GpuError> {
        if bytes > self.allocated_bytes {
            return Err(GpuError::Underflow);
        }
        self.allocated_bytes -= bytes;
        Ok(())
    }

    /// Scale a latency (in µs) by the device speed.
    pub fn adjust_latency_us(&self, us: f64) -> f64 {
        us / self.speed_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a6000_has_48gb() {
        let gpu = GpuDevice::a6000();
        assert_eq!(gpu.memory_bytes, 48 * 1024 * 1024 * 1024);
        assert_eq!(gpu.allocated_bytes(), 0);
        assert_eq!(gpu.utilization(), 0.0);
    }

    #[test]
    fn allocation_and_free_round_trip() {
        let mut gpu = GpuDevice::with_memory("test", 1000);
        gpu.allocate(600).unwrap();
        assert_eq!(gpu.available_bytes(), 400);
        assert!((gpu.utilization() - 0.6).abs() < 1e-12);
        gpu.free(100).unwrap();
        assert_eq!(gpu.allocated_bytes(), 500);
    }

    #[test]
    fn over_allocation_fails() {
        let mut gpu = GpuDevice::with_memory("tiny", 100);
        gpu.allocate(80).unwrap();
        let err = gpu.allocate(30).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { available: 20, .. }));
    }

    #[test]
    fn free_underflow_fails() {
        let mut gpu = GpuDevice::with_memory("tiny", 100);
        assert_eq!(gpu.free(10).unwrap_err(), GpuError::Underflow);
    }

    #[test]
    fn speed_factor_scales_latency() {
        let mut gpu = GpuDevice::a6000();
        gpu.speed_factor = 2.0;
        assert!((gpu.adjust_latency_us(1000.0) - 500.0).abs() < 1e-12);
    }
}
