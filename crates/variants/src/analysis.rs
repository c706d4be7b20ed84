//! Kernel workload analysis: flops, bytes and arithmetic intensity from IR.

use everest_ir::{Func, TensorKind, TensorOp};

/// Workload characteristics of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct KernelWorkload {
    /// Floating-point operations per invocation.
    pub flops: f64,
    /// Bytes read from inputs plus written to outputs.
    pub bytes: f64,
    /// Largest single tensor dimension (tiling decisions key off this).
    pub max_dim: usize,
}

impl KernelWorkload {
    /// Arithmetic intensity (flops per byte); high values favour compute
    /// resources, low values are bandwidth-bound.
    pub(crate) fn intensity(&self) -> f64 {
        if self.bytes <= 0.0 {
            return 0.0;
        }
        self.flops / self.bytes
    }
}

/// Floating-point operations of one run of a tensor op.
fn tensor_flops(t: &TensorOp) -> f64 {
    let elems = |shape: &[usize]| shape.iter().product::<usize>() as f64;
    let out = elems(&t.shape);
    match &t.kind {
        // 2*m*k*n: out is m x n, the shared dim k is the lhs's second.
        TensorKind::Matmul => 2.0 * out * t.a[1] as f64,
        TensorKind::Add
        | TensorKind::Sub
        | TensorKind::Mul
        | TensorKind::Scale
        | TensorKind::Relu => out,
        // exp + divide cost ~40 scalar flops each on a CPU (polynomial
        // expansion + Newton division); custom FPGA function units make
        // this the kernel class where acceleration shines.
        TensorKind::Sigmoid => 40.0 * out,
        TensorKind::Stencil(weights) => 2.0 * weights.len() as f64 * out,
        TensorKind::Reduce(..) => elems(t.a),
        TensorKind::Conv2d => 2.0 * elems(t.b) * out,
        TensorKind::Fill(_) | TensorKind::Transpose(_) => 0.0,
    }
}

/// Analyzes a tensor-dialect kernel. A tensor op that does not decode
/// counts no flops: it verifies nowhere, so nothing runs it.
pub(crate) fn analyze(func: &Func) -> KernelWorkload {
    let mut flops = 0.0;
    let mut max_dim = 0usize;
    let mut bytes = 0.0;
    for ty in func.params.iter().chain(&func.results) {
        bytes += ty.byte_size().unwrap_or(8) as f64;
        if let Some(shape) = ty.shape() {
            max_dim = max_dim.max(shape.iter().copied().max().unwrap_or(0));
        }
    }
    func.walk(&mut |op| {
        if op.name.starts_with("tensor.") {
            flops += TensorOp::of(func, op).map_or(0.0, |t| tensor_flops(&t));
        } else if op.name.starts_with("arith.") && op.name != "arith.constant" {
            flops += 1.0;
        }
    });
    KernelWorkload { flops, bytes, max_dim }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(src: &str, name: &str) -> KernelWorkload {
        let m = everest_dsl::compile_kernels(src).unwrap();
        analyze(m.func(name).unwrap())
    }

    #[test]
    fn matmul_flops_are_2mkn() {
        let w = workload(
            "kernel mm(a: tensor<8x4xf64>, b: tensor<4x2xf64>) -> tensor<8x2xf64> { return a @ b; }",
            "mm",
        );
        assert_eq!(w.flops, 2.0 * 8.0 * 4.0 * 2.0);
        // bytes: (32 + 8 + 16 elements) * 8
        assert_eq!(w.bytes, (32.0 + 8.0 + 16.0) * 8.0);
        assert_eq!(w.max_dim, 8);
    }

    #[test]
    fn elementwise_flops_are_linear() {
        let w = workload(
            "kernel ax(a: tensor<64xf64>, b: tensor<64xf64>) -> tensor<64xf64> { return 2.0 * a + b; }",
            "ax",
        );
        // scale (64) + add (64); the 2.0 constant contributes no tensor op.
        assert_eq!(w.flops, 128.0);
    }

    #[test]
    fn matmul_has_higher_intensity_than_axpy() {
        let mm = workload(
            "kernel mm(a: tensor<64x64xf64>, b: tensor<64x64xf64>) -> tensor<64x64xf64> { return a @ b; }",
            "mm",
        );
        let ax = workload(
            "kernel ax(a: tensor<64xf64>, b: tensor<64xf64>) -> tensor<64xf64> { return a + b; }",
            "ax",
        );
        assert!(mm.intensity() > 10.0 * ax.intensity());
    }

    #[test]
    fn stencil_counts_weight_width() {
        let w3 = workload(
            "kernel s(a: tensor<128xf64>) -> tensor<128xf64> { return stencil(a, [0.2, 0.6, 0.2]); }",
            "s",
        );
        let w5 = workload(
            "kernel s(a: tensor<128xf64>) -> tensor<128xf64> { return stencil(a, [0.1, 0.2, 0.4, 0.2, 0.1]); }",
            "s",
        );
        assert!(w5.flops > w3.flops);
    }

    #[test]
    fn zero_byte_workload_has_zero_intensity() {
        let w = KernelWorkload::default();
        assert_eq!(w.intensity(), 0.0);
    }
}
