//! Multi-layer-perceptron regression.
//!
//! The MLP is the pool member that captures complex non-linear relationships
//! (e.g. memory that grows with the square of the input size, the
//! BaseRecalibrator example from the paper's introduction). The network is a
//! small fully connected net, one input wide, trained with mini-batch Adam
//! on standardised inputs and targets. `partial_fit` runs a few epochs over
//! the new data (warm start), which is what keeps the incremental Sizey
//! variant fast.
//!
//! Training runs one fused pass per sample: each sample of a mini-batch goes
//! forward and back into the gradient accumulators before the next one
//! starts. With one input and one output, the first layer is a scale and
//! shift of the input and the last a dot product, so every inner loop runs
//! over a layer's units. Every float keeps the operation sequence of a
//! plain dense per-sample loop (a test-only `reference` copy of it pins
//! every weight, Adam moment and prediction bit for bit), and prediction
//! runs the same forward pass.

use crate::dataset::Dataset;
use crate::model::{
    validate_query, validate_training_data, ModelClass, ModelError, PredictScratch, Regressor,
};
use crate::scaler::StandardScaler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Adam learning rate.
const LEARNING_RATE: f64 = 0.01;
/// L2 weight decay.
const WEIGHT_DECAY: f64 = 1e-4;
/// Mini-batch size.
const BATCH_SIZE: usize = 16;
/// A fit stops early once the epoch loss has improved by no more than
/// `TOLERANCE` for `PATIENCE` consecutive epochs.
const TOLERANCE: f64 = 1e-6;
/// Early-stopping patience in epochs.
const PATIENCE: usize = 12;
/// Epochs of a warm start ([`Regressor::partial_fit`]). The warm start runs
/// on every completion (the network goes stale fast enough that thinning the
/// cadence measurably hurts sizing quality on small workloads), so it must be
/// shallow: a few Adam epochs over the recent tail keep the per-observe cost
/// bounded in the tens of microseconds.
const WARM_START_EPOCHS: usize = 5;

/// The hidden layers' ReLU.
#[inline]
fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// The ReLU's derivative at an already activated value.
#[inline]
fn relu_derivative(activated: f64) -> f64 {
    if activated > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Hyper-parameters for [`MlpRegression`]. The default is the network
/// Sizey's model pool trains.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Sizes of the hidden layers.
    pub hidden_layers: Vec<usize>,
    /// Maximum number of passes over the training data for a full fit.
    pub max_epochs: usize,
    /// RNG seed for weight initialisation and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden_layers: vec![16],
            max_epochs: 120,
            seed: 42,
        }
    }
}

/// One fully connected layer with Adam optimiser state.
#[derive(Debug, Clone)]
struct Layer {
    /// Row-major weights: `outputs x inputs`.
    weights: Vec<f64>,
    biases: Vec<f64>,
    inputs: usize,
    outputs: usize,
    // Adam moments.
    m_w: Vec<f64>,
    v_w: Vec<f64>,
    m_b: Vec<f64>,
    v_b: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // He-style initialisation keeps ReLU nets trainable.
        let scale = (2.0 / inputs.max(1) as f64).sqrt();
        let weights: Vec<f64> = (0..inputs * outputs)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            weights,
            biases: vec![0.0; outputs],
            inputs,
            outputs,
            m_w: vec![0.0; inputs * outputs],
            v_w: vec![0.0; inputs * outputs],
            m_b: vec![0.0; outputs],
            v_b: vec![0.0; outputs],
        }
    }
}

/// Flat buffers of the training loop, sized once per `train_epochs` call
/// and reused for every sample, so the sample loop allocates nothing.
#[derive(Debug)]
struct TrainScratch {
    /// The current sample's activations, as [`MlpRegression::forward`]
    /// leaves them: its scaled input, then every hidden layer's units.
    acts: Vec<f64>,
    /// Two halves: the deltas of the hidden layer being back-propagated,
    /// and of the one below it.
    deltas: Vec<f64>,
    /// Gradient accumulators back to back: per layer, its weights (row-major
    /// like [`Layer::weights`]) then its biases.
    grads: Vec<f64>,
}

impl TrainScratch {
    fn for_layers(layers: &[Layer]) -> Self {
        let widest = layers.iter().skip(1).map(|l| l.inputs).max().unwrap_or(0);
        let params = layers.iter().map(|l| l.weights.len() + l.biases.len());
        TrainScratch {
            acts: vec![0.0; activations(layers)],
            deltas: vec![0.0; 2 * widest],
            grads: vec![0.0; params.sum()],
        }
    }
}

/// Length of the activation buffer of [`MlpRegression::forward`]: the
/// input, then every hidden unit.
fn activations(layers: &[Layer]) -> usize {
    layers.iter().map(|l| l.inputs).sum()
}

/// Writes `relu(b + Σ w * a)` of a hidden layer behind the first into
/// `units`, each sum its bias and then `w * a` added in input order. Four
/// units share one pass over the input, so four sums are in flight at once;
/// one sum at a time made the HPO grid's `[32, 16]` fit about 8 % slower.
#[inline(always)]
fn middle_layer(layer: &Layer, input: &[f64], units: &mut [f64]) {
    let n = layer.inputs;
    let mut blocks = units.chunks_exact_mut(4);
    let mut biases = layer.biases.chunks_exact(4);
    for (k, (a, b)) in (&mut blocks).zip(&mut biases).enumerate() {
        let block = &layer.weights[4 * k * n..4 * (k + 1) * n];
        let (r0, rest) = block.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let mut z = [b[0], b[1], b[2], b[3]];
        let terms = input.iter().zip(r0).zip(r1).zip(r2).zip(r3);
        for ((((&v, &w0), &w1), &w2), &w3) in terms {
            z[0] += w0 * v;
            z[1] += w1 * v;
            z[2] += w2 * v;
            z[3] += w3 * v;
        }
        for (a, z) in a.iter_mut().zip(z) {
            *a = relu(z);
        }
    }
    let done = layer.outputs - biases.remainder().len();
    let rest = blocks.into_remainder().iter_mut().zip(biases.remainder());
    for (o, (a, &b)) in (done..).zip(rest) {
        let row = &layer.weights[o * n..(o + 1) * n];
        let mut z = b;
        for (&w, &v) in row.iter().zip(input) {
            z += w * v;
        }
        *a = relu(z);
    }
}

/// MLP regressor with Adam optimisation.
#[derive(Debug, Clone)]
pub struct MlpRegression {
    config: MlpConfig,
    layers: Vec<Layer>,
    input_scaler: StandardScaler,
    target_scaler: StandardScaler,
    fitted: bool,
    adam_step: u64,
}

impl MlpRegression {
    /// Creates an unfitted MLP with the given configuration.
    pub fn new(config: MlpConfig) -> Self {
        MlpRegression {
            config,
            layers: Vec::new(),
            input_scaler: StandardScaler::default(),
            target_scaler: StandardScaler::default(),
            fitted: false,
            adam_step: 0,
        }
    }

    /// Creates an unfitted MLP with default configuration.
    pub fn with_defaults() -> Self {
        MlpRegression::new(MlpConfig::default())
    }

    /// The configuration used by this model.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    fn init_layers(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut sizes = Vec::with_capacity(self.config.hidden_layers.len() + 2);
        sizes.push(1);
        sizes.extend_from_slice(&self.config.hidden_layers);
        sizes.push(1);
        self.layers = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        self.adam_step = 0;
    }

    /// Forward pass of one sample whose scaled input the caller left in
    /// `acts[0]`: each hidden layer's units are written right behind its
    /// input, and the output is returned. The first layer is a scale and
    /// shift of the input, `relu(b + w * x)` per unit; a middle layer is
    /// [`middle_layer`]; the output is its bias plus `v * a` over the last
    /// hidden units in order. Every unit keeps the operation order of a
    /// plain dense layer, bit for bit. Inlined into the sample loop: as a
    /// call per sample it cost about 6 % of a fit.
    #[inline(always)]
    fn forward(&self, acts: &mut [f64]) -> f64 {
        let (output, hidden) = self.layers.split_last().expect("a fitted net");
        let mut start = 0;
        if let Some((first, middle)) = hidden.split_first() {
            let (x, units) = acts.split_at_mut(1);
            let x = x[0];
            let units = units.iter_mut().zip(&first.biases);
            for ((a, &b), &w) in units.zip(&first.weights) {
                *a = relu(b + w * x);
            }
            start = 1;
            for layer in middle {
                let (done, rest) = acts.split_at_mut(start + layer.inputs);
                middle_layer(layer, &done[start..], &mut rest[..layer.outputs]);
                start += layer.inputs;
            }
        }
        let mut y = output.biases[0];
        for (&v, &a) in output.weights.iter().zip(&acts[start..]) {
            y += v * a;
        }
        y
    }

    /// Runs one scaled sample forward ([`MlpRegression::forward`]) and
    /// back, adding its gradient into `scratch.grads`; returns its squared
    /// error. The output layer's delta is the error (linear output, squared
    /// loss); a hidden unit's delta is `0.0` plus `w * d` over the units
    /// above it in order, times the ReLU's derivative. Every loop runs over
    /// a layer's units, and the layers are walked from the output down.
    fn train_sample(&self, x: f64, target: f64, scratch: &mut TrainScratch) -> f64 {
        let TrainScratch {
            acts,
            deltas,
            grads,
        } = scratch;
        acts[0] = x;
        let error = self.forward(acts) - target;
        let (output, hidden) = self.layers.split_last().expect("a fitted net");
        let top = grads.len() - output.inputs - 1;
        let (mut below, top) = grads.split_at_mut(top);
        let (g_w, g_b) = top.split_at_mut(output.inputs);
        g_b[0] += error;
        let Some((first, middle)) = hidden.split_first() else {
            // No hidden layer: the output layer reads the input itself.
            g_w[0] += error * x;
            return error * error;
        };
        let mut act_end = acts.len();
        let input = &acts[act_end - output.inputs..];
        let half = deltas.len() / 2;
        let (mut delta, mut next_delta) = deltas.split_at_mut(half);
        let units = delta.iter_mut().zip(&output.weights).zip(input);
        for (g, ((d, &v), &a)) in g_w.iter_mut().zip(units) {
            *g += error * a;
            *d = (0.0 + v * error) * relu_derivative(a);
        }
        for layer in middle.iter().rev() {
            let params = layer.weights.len() + layer.outputs;
            let (rest, params) = below.split_at_mut(below.len() - params);
            below = rest;
            let (g_w, g_b) = params.split_at_mut(layer.weights.len());
            act_end -= layer.outputs;
            let input = &acts[act_end - layer.inputs..act_end];
            let d_in = &mut next_delta[..layer.inputs];
            d_in.fill(0.0);
            for (g_b, &d) in g_b.iter_mut().zip(&*delta) {
                *g_b += d;
            }
            // A layer without inputs has no weight rows; `max(1)` only keeps
            // the chunk size legal.
            let n = layer.inputs.max(1);
            let rows = g_w.chunks_exact_mut(n).zip(layer.weights.chunks_exact(n));
            for ((g_row, w_row), &d) in rows.zip(&*delta) {
                let terms = g_row.iter_mut().zip(d_in.iter_mut());
                for ((g, nd), (&w, &a)) in terms.zip(w_row.iter().zip(input)) {
                    *g += d * a;
                    *nd += w * d;
                }
            }
            for (nd, &a) in d_in.iter_mut().zip(input) {
                *nd *= relu_derivative(a);
            }
            std::mem::swap(&mut delta, &mut next_delta);
        }
        let (g_w, g_b) = below.split_at_mut(first.outputs);
        for ((g_w, g_b), &d) in g_w.iter_mut().zip(g_b).zip(&*delta) {
            *g_b += d;
            *g_w += d * x;
        }
        error * error
    }

    /// Runs one Adam update over the mini-batch of sample positions `batch`
    /// into `samples`, the scaled `(input, target)` pairs. Returns the batch
    /// mean squared error (in scaled target space).
    fn train_batch(
        &mut self,
        batch: &[u32],
        samples: &[(f64, f64)],
        scratch: &mut TrainScratch,
    ) -> f64 {
        scratch.grads.fill(0.0);
        let mut loss = 0.0;
        for &p in batch {
            let (x, target) = samples[p as usize];
            loss += self.train_sample(x, target, scratch);
        }

        // Adam update. The bias-correction denominators depend only on the
        // step, not the parameter index — hoisted out of the weight loops
        // (`powf` per weight dominated the warm-start update's cost).
        let n = batch.len() as f64;
        self.adam_step += 1;
        let t = self.adam_step as f64;
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bias_correction1 = 1.0 - beta1.powf(t);
        let bias_correction2 = 1.0 - beta2.powf(t);
        let (lr, decay) = (LEARNING_RATE, WEIGHT_DECAY);
        let adam = |param: &mut f64, m: &mut f64, v: &mut f64, g: f64| {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / bias_correction1;
            let v_hat = *v / bias_correction2;
            *param -= lr * m_hat / (v_hat.sqrt() + eps);
        };
        let mut grads = scratch.grads.as_slice();
        for layer in &mut self.layers {
            let (d_w, rest) = grads.split_at(layer.weights.len());
            let (d_b, rest) = rest.split_at(layer.biases.len());
            grads = rest;
            let weights = layer.weights.iter_mut().zip(&mut layer.m_w);
            for ((w, m), (v, &d)) in weights.zip(layer.v_w.iter_mut().zip(d_w)) {
                adam(w, m, v, d / n + decay * *w);
            }
            let biases = layer.biases.iter_mut().zip(&mut layer.m_b);
            for ((b, m), (v, &d)) in biases.zip(layer.v_b.iter_mut().zip(d_b)) {
                adam(b, m, v, d / n);
            }
        }
        loss / n
    }

    /// Trains for up to `epochs` passes over `data` (already raw-space).
    ///
    /// The samples are scaled once into one buffer of `(input, target)`
    /// pairs, and each epoch shuffles a permutation of sample positions
    /// rather than the samples: the shuffle draws the same swaps for any
    /// slice of the same length, so batch `k` of an epoch holds the same
    /// samples, in the same order, as a shuffle of the rows themselves
    /// would. Each sample of a mini-batch then runs forward and back into
    /// the gradient accumulators before the next one starts
    /// ([`MlpRegression::train_sample`]). A call allocates five buffers
    /// (samples, permutation and the three of [`TrainScratch`]), however
    /// many rows and epochs it runs; a warm start on 16 rows pays for them
    /// once per update.
    fn train_epochs(&mut self, data: &Dataset, epochs: usize) {
        let samples: Vec<(f64, f64)> = data
            .iter()
            .map(|(x, y)| {
                (
                    self.input_scaler.transform(x),
                    self.target_scaler.transform(y),
                )
            })
            .collect();
        let n = u32::try_from(data.len()).expect("an MLP trains on fewer than 2^32 rows");
        let mut perm: Vec<u32> = (0..n).collect();
        let mut scratch = TrainScratch::for_layers(&self.layers);
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(self.adam_step));
        let mut best_loss = f64::INFINITY;
        let mut stall = 0usize;
        for _ in 0..epochs {
            perm.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in perm.chunks(BATCH_SIZE) {
                epoch_loss += self.train_batch(batch, &samples, &mut scratch);
                batches += 1;
            }
            let epoch_loss = epoch_loss / batches.max(1) as f64;
            if best_loss - epoch_loss > TOLERANCE {
                best_loss = epoch_loss;
                stall = 0;
            } else {
                stall += 1;
                if stall >= PATIENCE {
                    break;
                }
            }
        }
    }
}

impl Regressor for MlpRegression {
    fn fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        self.input_scaler.fit(data.inputs());
        self.target_scaler.fit(data.targets());
        self.init_layers();
        self.train_epochs(data, self.config.max_epochs);
        self.fitted = true;
        Ok(())
    }

    fn partial_fit(&mut self, data: &Dataset) -> Result<(), ModelError> {
        validate_training_data(data)?;
        if !self.fitted {
            return self.fit(data);
        }
        // Warm start: keep the existing weights and scalers, run a few epochs
        // on the new observations only.
        self.train_epochs(data, WARM_START_EPOCHS);
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> Result<f64, ModelError> {
        let mut scratch = PredictScratch::default();
        self.predict_with(features, &mut scratch)
    }

    fn predict_with(
        &self,
        features: &[f64],
        scratch: &mut PredictScratch,
    ) -> Result<f64, ModelError> {
        if !self.fitted || self.layers.is_empty() {
            return Err(ModelError::NotFitted);
        }
        let x = validate_query(features)?;
        let acts = &mut scratch.acts;
        acts.resize(activations(&self.layers), 0.0);
        acts[0] = self.input_scaler.transform(x);
        let out = self.forward(acts);
        if !out.is_finite() {
            return Err(ModelError::Numerical(
                "MLP produced a non-finite prediction".to_string(),
            ));
        }
        Ok(self.target_scaler.inverse(out))
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn class(&self) -> ModelClass {
        ModelClass::Mlp
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod reference {
    //! The plain dense training loop and forward pass, kept as the test
    //! oracle that [`MlpRegression::train_epochs`] and
    //! [`Regressor::predict`] are held to bit for bit.
    //!
    //! Samples are `(Vec<f64>, f64)` pairs built per call and shuffled in
    //! place; each sample runs forward and backward on its own, through
    //! per-layer vectors and one generic dense layer that knows no first or
    //! last layer. Nothing here is tuned for speed. The production loop must
    //! match it exactly, so its operation orders are the ones to keep: each
    //! output is `bias`, then `+= w * x` in input order; each
    //! gradient element sums its samples in sample order; the
    //! back-propagated delta is `0.0 + w * d` over the output units in
    //! order, then times the activation derivative; the loss sums the
    //! samples in order; the Adam update is unchanged.

    use super::*;

    /// Gradient accumulators for one layer.
    #[derive(Debug, Clone, Default)]
    struct LayerGrad {
        d_w: Vec<f64>,
        d_b: Vec<f64>,
    }

    /// Gradient accumulators, per-layer activations and deltas.
    #[derive(Debug, Default)]
    struct TrainScratch {
        grads: Vec<LayerGrad>,
        activations: Vec<Vec<f64>>,
        delta: Vec<f64>,
        next_delta: Vec<f64>,
    }

    /// One dense layer without its activation: each output is its bias,
    /// then `+= w * x` in input order.
    fn layer_forward(layer: &Layer, input: &[f64], output: &mut Vec<f64>) {
        output.clear();
        for o in 0..layer.outputs {
            let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
            let mut sum = layer.biases[o];
            for (w, x) in row.iter().zip(input.iter()) {
                sum += w * x;
            }
            output.push(sum);
        }
    }

    /// Forward pass recording the activations of every layer, input first.
    fn forward_into(model: &MlpRegression, input: &[f64], activations: &mut Vec<Vec<f64>>) {
        activations.resize(model.layers.len() + 1, Vec::new());
        activations[0].clear();
        activations[0].extend_from_slice(input);
        for li in 0..model.layers.len() {
            let (prev, rest) = activations.split_at_mut(li + 1);
            let output = &mut rest[0];
            layer_forward(&model.layers[li], &prev[li], output);
            if li != model.layers.len() - 1 {
                for z in output.iter_mut() {
                    *z = relu(*z);
                }
            }
        }
    }

    /// One Adam update over a mini-batch; returns the batch mean squared
    /// error in scaled target space.
    fn train_batch(
        model: &mut MlpRegression,
        batch: &[(Vec<f64>, f64)],
        scratch: &mut TrainScratch,
    ) -> f64 {
        scratch
            .grads
            .resize_with(model.layers.len(), LayerGrad::default);
        for (layer, grad) in model.layers.iter().zip(scratch.grads.iter_mut()) {
            grad.d_w.clear();
            grad.d_w.resize(layer.weights.len(), 0.0);
            grad.d_b.clear();
            grad.d_b.resize(layer.biases.len(), 0.0);
        }
        let mut loss = 0.0;

        for (features, target) in batch {
            forward_into(model, features, &mut scratch.activations);
            let activations = &scratch.activations;
            let prediction = activations.last().expect("output")[0];
            let error = prediction - target;
            loss += error * error;

            scratch.delta.clear();
            scratch.delta.push(error);
            for li in (0..model.layers.len()).rev() {
                let layer = &model.layers[li];
                let input_act = &activations[li];
                let grad = &mut scratch.grads[li];
                for (o, &d) in scratch.delta.iter().enumerate().take(layer.outputs) {
                    grad.d_b[o] += d;
                    let row = &mut grad.d_w[o * layer.inputs..(o + 1) * layer.inputs];
                    for (g, x) in row.iter_mut().zip(input_act.iter()) {
                        *g += d * x;
                    }
                }
                if li == 0 {
                    break;
                }
                scratch.next_delta.clear();
                scratch.next_delta.resize(layer.inputs, 0.0);
                for (o, &d) in scratch.delta.iter().enumerate().take(layer.outputs) {
                    let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                    for (nd, w) in scratch.next_delta.iter_mut().zip(row.iter()) {
                        *nd += w * d;
                    }
                }
                let prev_act = &activations[li];
                for (nd, a) in scratch.next_delta.iter_mut().zip(prev_act.iter()) {
                    *nd *= relu_derivative(*a);
                }
                std::mem::swap(&mut scratch.delta, &mut scratch.next_delta);
            }
        }

        let n = batch.len() as f64;
        model.adam_step += 1;
        let t = model.adam_step as f64;
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bias_correction1 = 1.0 - beta1.powf(t);
        let bias_correction2 = 1.0 - beta2.powf(t);
        let (lr, decay) = (LEARNING_RATE, WEIGHT_DECAY);
        for (layer, grad) in model.layers.iter_mut().zip(scratch.grads.iter()) {
            for i in 0..layer.weights.len() {
                let g = grad.d_w[i] / n + decay * layer.weights[i];
                layer.m_w[i] = beta1 * layer.m_w[i] + (1.0 - beta1) * g;
                layer.v_w[i] = beta2 * layer.v_w[i] + (1.0 - beta2) * g * g;
                let m_hat = layer.m_w[i] / bias_correction1;
                let v_hat = layer.v_w[i] / bias_correction2;
                layer.weights[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            for i in 0..layer.biases.len() {
                let g = grad.d_b[i] / n;
                layer.m_b[i] = beta1 * layer.m_b[i] + (1.0 - beta1) * g;
                layer.v_b[i] = beta2 * layer.v_b[i] + (1.0 - beta2) * g * g;
                let m_hat = layer.m_b[i] / bias_correction1;
                let v_hat = layer.v_b[i] / bias_correction2;
                layer.biases[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        loss / n
    }

    /// Up to `epochs` shuffled passes over `data` (raw space).
    fn train_epochs(model: &mut MlpRegression, data: &Dataset, epochs: usize) {
        let mut samples: Vec<(Vec<f64>, f64)> = data
            .iter()
            .map(|(x, y)| {
                (
                    vec![model.input_scaler.transform(x)],
                    model.target_scaler.transform(y),
                )
            })
            .collect();
        let mut scratch = TrainScratch::default();
        let mut rng = StdRng::seed_from_u64(model.config.seed.wrapping_add(model.adam_step));
        let mut best_loss = f64::INFINITY;
        let mut stall = 0usize;
        for _ in 0..epochs {
            samples.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in samples.chunks(BATCH_SIZE) {
                epoch_loss += train_batch(model, batch, &mut scratch);
                batches += 1;
            }
            let epoch_loss = epoch_loss / batches.max(1) as f64;
            if best_loss - epoch_loss > TOLERANCE {
                best_loss = epoch_loss;
                stall = 0;
            } else {
                stall += 1;
                if stall >= PATIENCE {
                    break;
                }
            }
        }
    }

    /// [`Regressor::fit`] on the reference loop.
    fn fit(model: &mut MlpRegression, data: &Dataset) {
        model.input_scaler.fit(data.inputs());
        model.target_scaler.fit(data.targets());
        model.init_layers();
        train_epochs(model, data, model.config.max_epochs);
        model.fitted = true;
    }

    /// [`Regressor::partial_fit`] on a fitted model, on the reference loop.
    fn partial_fit(model: &mut MlpRegression, data: &Dataset) {
        train_epochs(model, data, WARM_START_EPOCHS);
    }

    /// [`Regressor::predict`] of a fitted model on the reference forward
    /// pass, as bits; `None` where the prediction is refused as
    /// non-finite.
    fn predict(model: &MlpRegression, input: f64) -> Option<u64> {
        let mut activations = Vec::new();
        forward_into(
            model,
            &[model.input_scaler.transform(input)],
            &mut activations,
        );
        let out = activations.last().expect("output")[0];
        out.is_finite()
            .then(|| model.target_scaler.inverse(out).to_bits())
    }

    mod tests {
        use super::*;
        use proptest::prelude::*;

        fn dataset(rows: &[(f64, f64)]) -> Dataset {
            let mut data = Dataset::new();
            for &(x, y) in rows {
                data.push(x, y);
            }
            data
        }

        /// Every parameter, Adam moment and step of the two models, as bits.
        fn state_bits(model: &MlpRegression) -> (u64, Vec<u64>) {
            let mut bits = Vec::new();
            for layer in &model.layers {
                for buffer in [
                    &layer.weights,
                    &layer.biases,
                    &layer.m_w,
                    &layer.v_w,
                    &layer.m_b,
                    &layer.v_b,
                ] {
                    bits.extend(buffer.iter().map(|v| v.to_bits()));
                }
            }
            (model.adam_step, bits)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A `fit` followed by several `partial_fit`s trains the same
            /// network, bit for bit, on the per-sample loop and on the
            /// reference loop: every weight, moment and Adam step, and
            /// every prediction on a probe grid. Covers no, one and two
            /// hidden layers of 0 to 23 units (widths that are not a
            /// multiple of four reach the tail of [`middle_layer`], and a
            /// layer of none leaves the one above it without inputs) and
            /// row counts that are not a multiple of the batch size.
            #[test]
            fn flat_training_matches_the_reference(
                hidden_layers in prop::collection::vec(0usize..24, 0..3),
                epochs in (1usize..40, 0u64..1_000),
                rows in prop::collection::vec((0.0f64..1e10, 1e8f64..1e11), 1..48),
                updates in prop::collection::vec(1usize..20, 0..5),
                probes in prop::collection::vec(0.0f64..1e10, 1..12),
            ) {
                let (max_epochs, seed) = epochs;
                let config = MlpConfig {
                    hidden_layers,
                    max_epochs,
                    seed,
                };
                let mut flat = MlpRegression::new(config.clone());
                let mut reference = MlpRegression::new(config);
                let initial = dataset(&rows);
                flat.fit(&initial).unwrap();
                fit(&mut reference, &initial);
                let mut steps = vec![initial];
                for &len in &updates {
                    // Warm starts on rows that cycle through the sample.
                    let chunk: Vec<_> = rows.iter().cycle().skip(steps.len()).take(len).copied().collect();
                    steps.push(dataset(&chunk));
                }
                for (step, data) in steps.iter().enumerate() {
                    if step > 0 {
                        flat.partial_fit(data).unwrap();
                        partial_fit(&mut reference, data);
                    }
                    prop_assert_eq!(state_bits(&flat), state_bits(&reference), "step {}", step);
                    for &probe in &probes {
                        let got = flat.predict(&[probe]).map(f64::to_bits).ok();
                        let want = predict(&reference, probe);
                        prop_assert_eq!(got, want, "step {} probe {}", step, probe);
                    }
                }
            }
        }

        /// Fits `config` at each row count of `fits` on both loops, each
        /// fit followed by `warm_starts` 16-row warm starts, with rows of a
        /// noisy line drawn from `rng`. After every step both models must
        /// hold the same state bits and predict the same bits on a probe
        /// grid.
        fn assert_trains_like_the_reference(
            config: &MlpConfig,
            fits: &[usize],
            warm_starts: usize,
            rng: &mut StdRng,
        ) {
            let mut draw = |n: usize| {
                let rows: Vec<_> = (0..n)
                    .map(|_| {
                        let input = rng.gen_range(2e9..14e9);
                        let noise = 1.0 + rng.gen_range(-0.04..0.04);
                        (input, (2.4 * input + 6e9) * noise)
                    })
                    .collect();
                dataset(&rows)
            };
            let probes = [0.0, 2e9, 5.5e9, 9e9, 14e9, 3e10];
            let shape = &config.hidden_layers;
            for &rows in fits {
                let mut flat = MlpRegression::new(config.clone());
                let mut reference = MlpRegression::new(config.clone());
                let initial = draw(rows);
                flat.fit(&initial).unwrap();
                fit(&mut reference, &initial);
                for step in 0..=warm_starts {
                    if step > 0 {
                        let update = draw(16);
                        flat.partial_fit(&update).unwrap();
                        partial_fit(&mut reference, &update);
                    }
                    assert_eq!(
                        state_bits(&flat),
                        state_bits(&reference),
                        "{shape:?}, {rows} rows, step {step}"
                    );
                    for probe in probes {
                        assert_eq!(
                            flat.predict(&[probe]).map(f64::to_bits).ok(),
                            predict(&reference, probe),
                            "{shape:?}, {rows} rows, step {step}, probe {probe}"
                        );
                    }
                }
            }
        }

        /// The shape Sizey's model pool trains, the default: one hidden
        /// layer of 16, up to 120 epochs, batches of 16 and five-epoch warm
        /// starts on 16 rows. The proptest above stays below 48 rows and 40
        /// epochs; this pins full fits at 16, 64, 268 and 801 rows, each
        /// followed by five 16-row warm starts.
        #[test]
        fn production_shape_matches_the_reference() {
            let config = MlpConfig::default();
            let mut rng = StdRng::seed_from_u64(7);
            assert_trains_like_the_reference(&config, &[16, 64, 268, 801], 5, &mut rng);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            /// The loop's other shapes at their own sizes: the HPO grid's
            /// `[32, 16]` net, the one shape with a middle layer, and the
            /// net without a hidden layer, where the output layer reads the
            /// input. Both train up to 150 epochs, as the grid does, on fits
            /// of 64 and 268 rows, each followed by three 16-row warm
            /// starts.
            #[test]
            fn other_shapes_match_the_reference(
                data_seed in 0u64..u64::MAX,
                seed in 0u64..1_000,
            ) {
                for hidden_layers in [vec![32, 16], vec![]] {
                    let config = MlpConfig { hidden_layers, max_epochs: 150, seed };
                    let mut rng = StdRng::seed_from_u64(data_seed);
                    assert_trains_like_the_reference(&config, &[64, 268], 3, &mut rng);
                }
            }
        }

        /// Rows that all share one input and one target scale to zero, so
        /// the output is zero from the first epoch on: the loss stalls at
        /// exactly zero and the fit stops `PATIENCE` epochs after the first,
        /// one Adam step per epoch.
        #[test]
        fn a_stalled_loss_stops_after_patience_epochs() {
            let rows = vec![(3.0, 7.0); 10];
            let mut flat = MlpRegression::with_defaults();
            let mut reference = MlpRegression::with_defaults();
            flat.fit(&dataset(&rows)).unwrap();
            fit(&mut reference, &dataset(&rows));
            assert_eq!(flat.adam_step, 1 + PATIENCE as u64);
            assert_eq!(state_bits(&flat), state_bits(&reference));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mape;

    fn small_config() -> MlpConfig {
        MlpConfig {
            max_epochs: 400,
            ..MlpConfig::default()
        }
    }

    #[test]
    fn learns_linear_relationship() {
        let xs: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 50.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = MlpRegression::new(small_config());
        m.fit(&data).unwrap();
        let preds: Vec<f64> = xs.iter().map(|&x| m.predict(&[x]).unwrap()).collect();
        assert!(mape(&ys, &preds) < 0.12, "mape = {}", mape(&ys, &preds));
    }

    #[test]
    fn learns_quadratic_relationship_better_than_linear_extreme() {
        // Quadratic growth, as in the BaseRecalibrator motivation.
        let xs: Vec<f64> = (1..=60).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 * x * x).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = MlpRegression::new(small_config());
        m.fit(&data).unwrap();
        // Interpolation inside the training range should be within ~30%.
        let p = m.predict(&[3.05]).unwrap();
        let truth = 100.0 * 3.05 * 3.05;
        assert!(
            (p - truth).abs() / truth < 0.3,
            "pred {p} too far from {truth}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut a = MlpRegression::new(small_config());
        let mut b = MlpRegression::new(small_config());
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.predict(&[17.0]).unwrap(), b.predict(&[17.0]).unwrap());
    }

    #[test]
    fn partial_fit_keeps_model_usable_and_shifts_towards_new_data() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x + 10.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = MlpRegression::new(small_config());
        m.fit(&data).unwrap();
        let before = m.predict(&[25.0]).unwrap();
        // New observations at x=25 are much larger.
        let new = Dataset::from_univariate(&[25.0; 8], &[200.0; 8]);
        m.partial_fit(&new).unwrap();
        let after = m.predict(&[25.0]).unwrap();
        assert!(
            after > before,
            "incremental update should move the estimate up"
        );
    }

    #[test]
    fn partial_fit_before_fit_acts_as_fit() {
        let mut m = MlpRegression::new(small_config());
        let data = Dataset::from_univariate(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
        m.partial_fit(&data).unwrap();
        assert!(m.is_fitted());
        assert!(m.predict(&[2.0]).unwrap().is_finite());
    }

    #[test]
    fn errors_before_fit_and_on_bad_query() {
        let m = MlpRegression::with_defaults();
        assert!(matches!(m.predict(&[1.0]), Err(ModelError::NotFitted)));
        let mut fitted = MlpRegression::new(small_config());
        fitted
            .fit(&Dataset::from_univariate(&[1.0, 2.0], &[1.0, 2.0]))
            .unwrap();
        assert!(matches!(
            fitted.predict(&[1.0, 2.0]),
            Err(ModelError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn relu_and_its_derivative() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu_derivative(0.0), 0.0);
        assert_eq!(relu_derivative(3.0), 1.0);
    }
}
