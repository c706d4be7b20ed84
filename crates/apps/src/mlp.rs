//! A small multi-layer perceptron, from scratch: dense layers, ReLU
//! hidden activations, linear output, mean-squared-error SGD training.
//! This is the "deep learning model trying to characterize the complex
//! input/output relationship of the given power plant" (paper VI-A) at
//! laptop scale.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One dense layer: `y = act(W x + b)`.
#[derive(Debug, Clone)]
struct Dense {
    weights: Vec<f64>, // out x in, row-major
    bias: Vec<f64>,
    inputs: usize,
    outputs: usize,
    relu: bool,
}

impl Dense {
    fn new(rng: &mut ChaCha8Rng, inputs: usize, outputs: usize, relu: bool) -> Dense {
        let scale = (2.0 / inputs as f64).sqrt();
        let weights = (0..inputs * outputs).map(|_| rng.gen_range(-scale..scale)).collect();
        Dense { weights, bias: vec![0.0; outputs], inputs, outputs, relu }
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut pre = vec![0.0; self.outputs];
        for o in 0..self.outputs {
            let mut acc = self.bias[o];
            for i in 0..self.inputs {
                acc += self.weights[o * self.inputs + i] * x[i];
            }
            pre[o] = acc;
        }
        let post = if self.relu { pre.iter().map(|v| v.max(0.0)).collect() } else { pre.clone() };
        (pre, post)
    }
}

/// A feed-forward regressor with ReLU hidden layers and a linear output.
#[derive(Debug, Clone)]
pub(crate) struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates an MLP with the given layer widths, e.g. `[4, 16, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub(crate) fn new(seed: u64, widths: &[usize]) -> Mlp {
        assert!(widths.len() >= 2, "need input and output widths");
        assert!(widths.iter().all(|w| *w > 0), "zero-width layer");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut layers = Vec::new();
        for w in widths.windows(2).enumerate() {
            let (idx, pair) = w;
            let last = idx + 2 == widths.len();
            layers.push(Dense::new(&mut rng, pair[0], pair[1], !last));
        }
        Mlp { layers }
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the input width.
    pub(crate) fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.layers[0].inputs, "input width mismatch");
        let mut cur = x.to_vec();
        for layer in &self.layers {
            cur = layer.forward(&cur).1;
        }
        cur
    }

    /// One SGD step on a single sample; returns the sample's MSE loss
    /// before the update.
    pub(crate) fn train_step(&mut self, x: &[f64], target: &[f64], lr: f64) -> f64 {
        // Forward, caching activations.
        let mut activations: Vec<Vec<f64>> = vec![x.to_vec()];
        let mut pre_acts: Vec<Vec<f64>> = Vec::new();
        for layer in &self.layers {
            let (pre, post) = layer.forward(activations.last().expect("nonempty"));
            pre_acts.push(pre);
            activations.push(post);
        }
        let out = activations.last().expect("output layer ran");
        let loss: f64 =
            out.iter().zip(target).map(|(o, t)| (o - t) * (o - t)).sum::<f64>() / out.len() as f64;

        // Backward.
        let mut grad: Vec<f64> =
            out.iter().zip(target).map(|(o, t)| 2.0 * (o - t) / out.len() as f64).collect();
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            // Through the activation.
            if layer.relu {
                for (g, pre) in grad.iter_mut().zip(&pre_acts[li]) {
                    if *pre <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            let input = &activations[li];
            let mut grad_in = vec![0.0; layer.inputs];
            for o in 0..layer.outputs {
                for i in 0..layer.inputs {
                    grad_in[i] += layer.weights[o * layer.inputs + i] * grad[o];
                    layer.weights[o * layer.inputs + i] -= lr * grad[o] * input[i];
                }
                layer.bias[o] -= lr * grad[o];
            }
            grad = grad_in;
        }
        loss
    }

    /// Trains for `epochs` passes over the dataset; returns the mean loss
    /// of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `targets` lengths differ or are empty.
    pub(crate) fn fit(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        epochs: usize,
        lr: f64,
    ) -> f64 {
        assert_eq!(inputs.len(), targets.len(), "dataset size mismatch");
        assert!(!inputs.is_empty(), "empty dataset");
        let mut last = f64::INFINITY;
        for _ in 0..epochs {
            let mut sum = 0.0;
            for (x, t) in inputs.iter().zip(targets) {
                sum += self.train_step(x, t, lr);
            }
            last = sum / inputs.len() as f64;
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_linear_function() {
        let mut net = Mlp::new(1, &[2, 8, 1]);
        let inputs: Vec<Vec<f64>> =
            (0..100).map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0]).collect();
        let targets: Vec<Vec<f64>> =
            inputs.iter().map(|x| vec![3.0 * x[0] - 2.0 * x[1] + 0.5]).collect();
        let loss = net.fit(&inputs, &targets, 300, 0.05);
        assert!(loss < 1e-3, "final loss {loss}");
        let pred = net.predict(&[0.5, 0.5])[0];
        assert!((pred - (1.5 - 1.0 + 0.5)).abs() < 0.1, "prediction {pred}");
    }

    #[test]
    fn learns_a_nonlinear_function() {
        let mut net = Mlp::new(2, &[1, 16, 16, 1]);
        let inputs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0]).collect();
        let targets: Vec<Vec<f64>> =
            inputs.iter().map(|x| vec![(x[0] * std::f64::consts::PI).sin()]).collect();
        let loss = net.fit(&inputs, &targets, 800, 0.05);
        assert!(loss < 5e-3, "final loss {loss}");
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = Mlp::new(3, &[2, 6, 1]);
        let inputs = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0], vec![0.0, 0.0]];
        let targets = vec![vec![1.0], vec![1.0], vec![0.0], vec![0.0]];
        let first = net.fit(&inputs, &targets, 1, 0.1);
        let last = net.fit(&inputs, &targets, 200, 0.1);
        assert!(last < first);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Mlp::new(7, &[2, 4, 1]).predict(&[0.3, 0.7]);
        let b = Mlp::new(7, &[2, 4, 1]).predict(&[0.3, 0.7]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        Mlp::new(0, &[2, 1]).predict(&[1.0]);
    }
}
