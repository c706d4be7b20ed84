//! Kernel workload analysis: flops, bytes and arithmetic intensity from IR.

use everest_ir::attr::Attr;
use everest_ir::{Func, Type};

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

fn tensor_elems(ty: &Type) -> f64 {
    ty.num_elements().unwrap_or(1) as f64
}

/// Analyzes a tensor-dialect kernel.
pub(crate) fn analyze(func: &Func) -> KernelWorkload {
    let mut flops = 0.0;
    let mut max_dim = 0usize;
    let mut bytes = 0.0;
    for p in &func.params {
        bytes += p.byte_size().unwrap_or(8) as f64;
        if let Some(shape) = p.shape() {
            max_dim = max_dim.max(shape.iter().copied().max().unwrap_or(0));
        }
    }
    for r in &func.results {
        bytes += r.byte_size().unwrap_or(8) as f64;
        if let Some(shape) = r.shape() {
            max_dim = max_dim.max(shape.iter().copied().max().unwrap_or(0));
        }
    }
    func.walk(&mut |op| {
        let out_elems =
            op.results.first().map(|r| tensor_elems(func.value_type(*r))).unwrap_or(0.0);
        match op.name.as_str() {
            "tensor.matmul" => {
                // 2*m*k*n: out is m x n, the shared dim comes from operand 0.
                let k = func.value_type(op.operands[0]).shape().map(|s| s[1]).unwrap_or(1);
                flops += 2.0 * out_elems * k as f64;
            }
            "tensor.add" | "tensor.sub" | "tensor.mul" | "tensor.scale" | "tensor.relu" => {
                flops += out_elems;
            }
            // exp + divide cost ~40 scalar flops each on a CPU (polynomial
            // expansion + Newton division); custom FPGA function units make
            // this the kernel class where acceleration shines.
            "tensor.sigmoid" => flops += 40.0 * out_elems,
            "tensor.stencil" => {
                let w = op.attr("weights").and_then(Attr::as_array).map(|a| a.len()).unwrap_or(3);
                flops += 2.0 * w as f64 * out_elems;
            }
            "tensor.reduce" => {
                let in_elems = tensor_elems(func.value_type(op.operands[0]));
                flops += in_elems;
            }
            "tensor.conv2d" => {
                let taps: f64 = func
                    .value_type(op.operands[1])
                    .shape()
                    .map(|s| s.iter().product::<usize>() as f64)
                    .unwrap_or(9.0);
                flops += 2.0 * taps * out_elems;
            }
            name if name.starts_with("arith.") && name != "arith.constant" => flops += 1.0,
            _ => {}
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
