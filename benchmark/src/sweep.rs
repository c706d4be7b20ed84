//! The `dse_sweep` input set: single-kernel tensor-DSL sources of six
//! families, shaped by seed, and for each family a hand-written plain-Rust
//! evaluation — the oracle the compiled IR is checked against. The
//! oracle shares no code with the compiler or its interpreter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tensor dimensions and vector lengths the draw picks from. Small
/// menus on purpose: a sweep repeats shapes, so the synthesis memo is
/// hit, as a real exploration over a kernel library does.
const DIMS: [usize; 5] = [8, 16, 24, 32, 48];
const LENS: [usize; 5] = [64, 128, 256, 512, 1024];
const TAPS3: [f64; 3] = [0.25, 0.5, 0.25];
const TAPS5: [f64; 5] = [0.1, 0.2, 0.4, 0.2, 0.1];

/// One kernel of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kernel {
    Gemm { m: usize, k: usize, n: usize },
    Stencil { len: usize, taps: usize },
    SigmoidGemm { m: usize, k: usize, n: usize },
    Conv2d { h: usize, w: usize, k: usize },
    ReduceMax { rows: usize, cols: usize },
    Sigmoid { len: usize },
}

impl Kernel {
    /// Draws the shape of a kernel of the `family`-th family.
    fn draw(rng: &mut StdRng, family: usize) -> Kernel {
        let dim = |rng: &mut StdRng| DIMS[rng.gen_range(0..DIMS.len())];
        match family {
            0 => Kernel::Gemm { m: dim(rng), k: dim(rng), n: dim(rng) },
            1 => Kernel::Stencil {
                len: LENS[rng.gen_range(0..LENS.len())],
                taps: if rng.gen_bool(0.5) { 3 } else { 5 },
            },
            2 => Kernel::SigmoidGemm { m: dim(rng), k: dim(rng), n: dim(rng) },
            3 => Kernel::Conv2d {
                h: dim(rng),
                w: dim(rng),
                k: if rng.gen_bool(0.5) { 3 } else { 5 },
            },
            4 => Kernel::ReduceMax { rows: dim(rng), cols: dim(rng) },
            _ => Kernel::Sigmoid { len: LENS[rng.gen_range(0..LENS.len())] },
        }
    }

    /// The tensor-DSL source of this kernel, called `name`.
    pub fn source(&self, name: &str) -> String {
        let taps = |n: usize| if n == 3 { format!("{TAPS3:?}") } else { format!("{TAPS5:?}") };
        match *self {
            Kernel::Gemm { m, k, n } => format!(
                "kernel {name}(a: tensor<{m}x{k}xf64>, b: tensor<{k}x{n}xf64>) -> tensor<{m}x{n}xf64> \
                 {{ return a @ b; }}"
            ),
            Kernel::Stencil { len, taps: t } => format!(
                "kernel {name}(x: tensor<{len}xf64>) -> tensor<{len}xf64> \
                 {{ return stencil(x, {}); }}",
                taps(t)
            ),
            Kernel::SigmoidGemm { m, k, n } => format!(
                "kernel {name}(a: tensor<{m}x{k}xf64>, b: tensor<{k}x{n}xf64>) -> tensor<{m}x{n}xf64> \
                 {{ return sigmoid(a @ b); }}"
            ),
            Kernel::Conv2d { h, w, k } => format!(
                "kernel {name}(x: tensor<{h}x{w}xf64>, c: tensor<{k}x{k}xf64>) -> tensor<{h}x{w}xf64> \
                 {{ return conv2d(x, c); }}"
            ),
            Kernel::ReduceMax { rows, cols } => format!(
                "kernel {name}(x: tensor<{rows}x{cols}xf64>) -> tensor<{rows}xf64> \
                 {{ return reduce_max(x, [1]); }}"
            ),
            Kernel::Sigmoid { len } => format!(
                "kernel {name}(x: tensor<{len}xf64>) -> tensor<{len}xf64> {{ return sigmoid(x); }}"
            ),
        }
    }

    /// Shapes of the kernel's parameters, in declaration order.
    pub fn param_shapes(&self) -> Vec<Vec<usize>> {
        match *self {
            Kernel::Gemm { m, k, n } | Kernel::SigmoidGemm { m, k, n } => {
                vec![vec![m, k], vec![k, n]]
            }
            Kernel::Stencil { len, .. } | Kernel::Sigmoid { len } => vec![vec![len]],
            Kernel::Conv2d { h, w, k } => vec![vec![h, w], vec![k, k]],
            Kernel::ReduceMax { rows, cols } => vec![vec![rows, cols]],
        }
    }

    /// Largest absolute difference allowed between the interpreter and
    /// [`Kernel::reference`]. The sigmoid families get 5e-9: the
    /// interpreter evaluates `exp` with a polynomial the IR crate
    /// documents as accurate to ~5e-9 relative, the oracle with libm.
    pub fn tolerance(&self) -> f64 {
        match self {
            Kernel::SigmoidGemm { .. } | Kernel::Sigmoid { .. } => 5e-9,
            _ => 1e-9,
        }
    }

    /// Plain-Rust evaluation on row-major `inputs` (one per parameter).
    pub fn reference(&self, inputs: &[Vec<f64>]) -> Vec<f64> {
        match *self {
            Kernel::Gemm { m, k, n } => gemm(&inputs[0], &inputs[1], m, k, n),
            Kernel::SigmoidGemm { m, k, n } => {
                gemm(&inputs[0], &inputs[1], m, k, n).into_iter().map(logistic).collect()
            }
            Kernel::Stencil { len, taps } => {
                let weights: &[f64] = if taps == 3 { &TAPS3 } else { &TAPS5 };
                let x = &inputs[0];
                let r = taps / 2;
                let mut out = x.clone();
                for i in r..len - r {
                    out[i] = (0..taps).map(|t| weights[t] * x[i + t - r]).sum();
                }
                out
            }
            Kernel::Conv2d { h, w, k } => {
                let (x, c) = (&inputs[0], &inputs[1]);
                let r = k / 2;
                let mut out = x.clone();
                for i in r..h - r {
                    for j in r..w - r {
                        let mut acc = 0.0;
                        for di in 0..k {
                            for dj in 0..k {
                                acc += x[(i + di - r) * w + (j + dj - r)] * c[di * k + dj];
                            }
                        }
                        out[i * w + j] = acc;
                    }
                }
                out
            }
            Kernel::ReduceMax { rows, cols } => (0..rows)
                .map(|r| {
                    inputs[0][r * cols..(r + 1) * cols]
                        .iter()
                        .copied()
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .collect(),
            Kernel::Sigmoid { .. } => inputs[0].iter().copied().map(logistic).collect(),
        }
    }
}

fn logistic(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
        }
    }
    out
}

/// Draws `count` kernels from `seed`. The six families take turns and
/// the seed draws the shapes: what a kernel costs to compile depends on
/// its family, and every seed must compile the same mix for a median
/// over seeds to mean anything.
pub fn draw(seed: u64, count: usize) -> Vec<Kernel> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| Kernel::draw(&mut rng, i % 6)).collect()
}

/// Seeded inputs in `[-1, 1)` for `kernel`, one buffer per parameter.
pub fn inputs(kernel: &Kernel, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    kernel
        .param_shapes()
        .iter()
        .map(|shape| (0..shape.iter().product()).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}
